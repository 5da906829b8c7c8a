"""Executor selection, chunking, and the pool wrapper.

Three executor kinds, all driving the same worker code:

* ``process`` (default) -- a ``concurrent.futures.ProcessPoolExecutor``;
  the base snapshot is shipped once via the pool initializer, and DML
  afterwards ships only a delta sync (see :mod:`repro.parallel.snapshot`).
  ``fork``/``spawn``/``forkserver`` select the multiprocessing start
  method explicitly (``fork`` where available, otherwise the platform
  default).
* ``thread`` -- a ``ThreadPoolExecutor`` sharing the live database
  (no snapshot pickling; useful when pickling dominates, and for tests).
* ``serial`` -- chunks run inline in the calling thread, exercising the
  chunk/merge machinery without any concurrency.

Worker counts come from (in order) an explicit argument, the
``REPRO_WORKERS`` environment variable, or serial; ``auto`` means the
scheduler-visible CPU count.  The executor kind likewise falls back to
``REPRO_EXECUTOR``.

A dead pool is never fatal: :class:`WorkerPool` converts every executor
failure (broken process pool, pickling error, a worker killed by the
OS) into :class:`PoolBrokenError`, and the parallel session recomputes
the batch serially in-process -- the advisor's only failure mode stays
:class:`~repro.robustness.errors.FatalAdvisorError`.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, List, Mapping, Optional, Sequence, Tuple

from repro.robustness.errors import ConfigError

#: Chunks dispatched per worker per batch: >1 smooths imbalance between
#: cheap and expensive statements without shrinking chunks to per-task
#: dispatch overhead.
DEFAULT_CHUNKS_PER_WORKER = 4

EXECUTOR_KINDS = ("process", "thread", "serial")
#: Accepted ``--executor`` spellings: a kind, or a multiprocessing start
#: method (implying the process kind).
EXECUTOR_CHOICES = ("process", "thread", "serial", "fork", "spawn", "forkserver")

WORKERS_ENV = "REPRO_WORKERS"
EXECUTOR_ENV = "REPRO_EXECUTOR"


class PoolBrokenError(RuntimeError):
    """The worker pool died mid-batch (or could not be built).  The
    parallel session catches this and recomputes the batch serially."""


def available_workers() -> int:
    """CPUs this process may schedule on (the ``auto`` worker count)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def resolve_workers(value, default: int = 0, option: str = "workers") -> int:
    """Normalize a worker-count spec to an int (0 means serial).

    Accepts ints, digit strings, ``auto`` (CPU count), and
    ``serial``/``off``/empty (0).  ``None`` yields ``default``.  Junk
    input raises :class:`~repro.robustness.errors.ConfigError` naming
    the offending option (a ``ValueError`` subclass, so pre-taxonomy
    call sites keep working).
    """
    if value is None:
        return default
    if isinstance(value, bool):  # bool is an int; reject it explicitly
        raise ConfigError(f"invalid worker count {value!r}", option=option)
    if isinstance(value, int):
        if value < 0:
            raise ConfigError(
                f"worker count must be >= 0, got {value}", option=option
            )
        return value
    text = str(value).strip().lower()
    if text in ("", "serial", "none", "off"):
        return 0
    if text == "auto":
        return available_workers()
    try:
        count = int(text)
    except ValueError:
        raise ConfigError(
            f"invalid worker count {value!r}: expected an integer, "
            f"'auto', or 'serial'",
            option=option,
        ) from None
    if count < 0:
        raise ConfigError(
            f"worker count must be >= 0, got {count}", option=option
        )
    return count


def workers_from_env(environ: Optional[Mapping[str, str]] = None) -> int:
    """Worker count from ``REPRO_WORKERS`` (0/absent means serial).
    Junk values raise :class:`~repro.robustness.errors.ConfigError`
    naming the variable."""
    env = os.environ if environ is None else environ
    return resolve_workers(
        env.get(WORKERS_ENV), default=0, option=WORKERS_ENV
    )


def resolve_executor(
    value: Optional[str], environ: Optional[Mapping[str, str]] = None
) -> Tuple[str, Optional[str]]:
    """Normalize an executor spec to ``(kind, start_method)``.

    ``None`` falls back to ``REPRO_EXECUTOR``, then to ``process``.
    A start-method name (``fork``/``spawn``/``forkserver``) selects the
    process kind with that method.
    """
    env = os.environ if environ is None else environ
    if value is None:
        value = env.get(EXECUTOR_ENV) or "process"
    text = str(value).strip().lower()
    if text in ("fork", "spawn", "forkserver"):
        return "process", text
    if text in EXECUTOR_KINDS:
        return text, None
    raise ConfigError(
        f"invalid executor {value!r}: choose from {EXECUTOR_CHOICES}",
        option="executor",
    )


def chunk_spans(count: int, chunks: int) -> List[Tuple[int, int]]:
    """``chunks`` contiguous near-equal [start, end) spans over
    ``count`` items (fewer when ``count < chunks``; deterministic)."""
    chunks = max(1, min(count, chunks))
    base, extra = divmod(count, chunks)
    spans = []
    start = 0
    for index in range(chunks):
        size = base + (1 if index < extra else 0)
        spans.append((start, start + size))
        start += size
    return spans


def chunk_count(
    tasks: int, workers: int, chunks_per_worker: int = DEFAULT_CHUNKS_PER_WORKER
) -> int:
    """How many chunks to cut a batch of ``tasks`` into."""
    return max(1, min(tasks, max(1, workers) * max(1, chunks_per_worker)))


def _process_context(start_method: Optional[str]):
    if start_method is None:
        # fork is dramatically cheaper than spawn (no re-import, no
        # snapshot unpickling cost beyond the explicit payload) and is
        # available everywhere this repo's tier-1 CI runs.
        methods = multiprocessing.get_all_start_methods()
        start_method = "fork" if "fork" in methods else None
    if start_method is None:  # pragma: no cover - non-fork platforms
        return multiprocessing.get_context()
    return multiprocessing.get_context(start_method)


class WorkerPool:
    """A lazily created executor plus uniform failure semantics.

    ``run(fn, items)`` maps ``fn`` over ``items`` preserving order.  Any
    ``Exception`` out of the executor machinery -- a broken process
    pool, a pickling failure, a worker function that leaked an error --
    becomes :class:`PoolBrokenError` so the caller can fall back to
    serial computation.  ``BaseException`` (KeyboardInterrupt,
    SystemExit) shuts the pool down, cancelling outstanding work, and
    propagates.
    """

    def __init__(
        self,
        kind: str,
        workers: int,
        *,
        initializer: Optional[Callable] = None,
        initargs: Tuple = (),
        start_method: Optional[str] = None,
    ) -> None:
        if kind not in EXECUTOR_KINDS:
            raise ValueError(f"unknown executor kind {kind!r}")
        self.kind = kind
        self.workers = max(1, workers)
        self.start_method = start_method
        self._initializer = initializer
        self._initargs = initargs
        self._executor = None

    @property
    def alive(self) -> bool:
        return self.kind == "serial" or self._executor is not None

    def _ensure(self):
        if self._executor is None:
            if self.kind == "process":
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers,
                    mp_context=_process_context(self.start_method),
                    initializer=self._initializer,
                    initargs=self._initargs,
                )
            else:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="whatif",
                    initializer=self._initializer,
                    initargs=self._initargs,
                )
        return self._executor

    def run(self, fn: Callable, items: Sequence) -> List:
        """Map ``fn`` over ``items``; results in submission order."""
        if self.kind == "serial":
            results = []
            for item in items:
                try:
                    results.append(fn(item))
                except Exception as exc:
                    raise PoolBrokenError(
                        f"serial executor failed: {exc}"
                    ) from exc
            return results
        try:
            executor = self._ensure()
            futures = [executor.submit(fn, item) for item in items]
        except Exception as exc:
            self.shutdown(wait=False)
            raise PoolBrokenError(f"worker pool unavailable: {exc}") from exc
        try:
            return [future.result() for future in futures]
        except Exception as exc:
            for future in futures:
                future.cancel()
            self.shutdown(wait=False)
            raise PoolBrokenError(f"worker pool failed: {exc}") from exc
        except BaseException:
            for future in futures:
                future.cancel()
            self.shutdown(wait=False)
            raise

    def shutdown(self, wait: bool = True) -> None:
        """Shut the executor down (idempotent); outstanding work is
        cancelled."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait, cancel_futures=True)
