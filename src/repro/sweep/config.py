"""Ambient execution configuration for sweeps.

Experiment runners keep their zero-argument signatures (``run_fig03()``),
so parallelism and caching cannot be threaded through them; instead the
CLI (or a test) installs an :class:`ExecutionConfig` ambiently::

    from repro.sweep import ResultCache, execution

    with execution(jobs=4, cache=ResultCache(".repro-cache")):
        report = run_fig03()          # 4-way parallel, cached

Outside any ``execution()`` block the default is serial and uncached —
the zero-surprise library path (``pytest`` in a clean checkout touches no
cache directory and spawns no workers).

The config owns the process pool so consecutive sweeps in one block
(``repro run all --jobs N``) share workers instead of paying pool
start-up per experiment.  Workers are started with an initializer that
clears any forked-in ambient :class:`~repro.obs.session.Obs` session:
only plain (runner, params, seed) tuples cross the pickle boundary,
never live ``Tracer``/``Obs`` instances.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.sweep.cache import ResultCache

__all__ = ["ExecutionConfig", "current_execution", "execution"]


def _worker_init() -> None:
    """Process-pool worker start-up: drop inherited observability state.

    Under the fork start method a worker inherits the parent's ambient
    ``Obs`` session; metrics it fed there would be lost noise (the parent
    aggregates point *results*, not worker-side instruments), and tracer
    sinks (open JSONL files) must not be double-driven.  Point runners
    always start unobserved.
    """
    from repro.obs import session as _session

    _session._ACTIVE.clear()


def kill_pool(pool: ProcessPoolExecutor) -> None:
    """Shut ``pool`` down at once, terminating its worker processes.

    ``shutdown`` alone lets a worker finish the point it is running; a
    point abandoned on timeout (or a crashed pool's survivors) must not
    outlive the sweep, and a worker cannot be interrupted any other way.
    """
    procs = list((pool._processes or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in procs:
        proc.terminate()
    for proc in procs:
        proc.join()


@dataclass
class ExecutionConfig:
    """How sweeps execute: worker count, result cache, progress output."""

    jobs: int = 1
    cache: ResultCache | None = None
    progress: Callable[[str], None] | None = None
    _pool: ProcessPoolExecutor | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")

    def pool(self) -> ProcessPoolExecutor:
        """The shared process pool (created lazily on first parallel sweep)."""
        if self.jobs < 2:
            raise ValueError("no pool for a serial ExecutionConfig (jobs=1)")
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs, initializer=_worker_init
            )
        return self._pool

    def reset_pool(self) -> None:
        """Discard the pool (broken or not) and terminate its workers;
        ``pool()`` recreates it.

        The executor calls this after a :class:`BrokenProcessPool` or a
        timed-out point, so the next sweep in the same ``execution()``
        block gets live workers and no abandoned point keeps running.
        """
        if self._pool is not None:
            kill_pool(self._pool)
            self._pool = None

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


_DEFAULT = ExecutionConfig()
_STACK: list[ExecutionConfig] = []


def current_execution() -> ExecutionConfig:
    """The innermost active config (serial/uncached default otherwise)."""
    return _STACK[-1] if _STACK else _DEFAULT


@contextmanager
def execution(
    jobs: int = 1,
    cache: ResultCache | None = None,
    progress: Callable[[str], None] | None = None,
) -> Iterator[ExecutionConfig]:
    """Install an execution config for the duration of the block.

    The config's process pool (if any) is shut down on exit.
    """
    cfg = ExecutionConfig(jobs=jobs, cache=cache, progress=progress)
    _STACK.append(cfg)
    try:
        yield cfg
    finally:
        _STACK.pop()
        cfg.close()
