"""Parallel experiment execution with a content-addressed result cache.

Every figure reproduction reduces to a *grid* of independent
simulation runs — ``(setup, MPL, policy, seed)`` tuples — that the
seed code executed strictly sequentially.  This module turns the grid
into data (one :class:`~repro.core.scenario.ScenarioSpec` per run),
fans it out over a process pool, and memoizes every completed run on
disk keyed by the spec's content hash, so re-running an unchanged
figure is near-instant.

Determinism is structural, not incidental: each run owns a complete
``SystemConfig`` (including its seed), every worker builds its system
from scratch, and results are reassembled in submission order.  A
``--jobs N`` run is therefore bit-identical to the sequential one for
any ``N``, and identical specs within one grid execute only once.

The module keeps one process-wide *active runner* that the figure
functions submit their grids to (see :func:`run_grid`); the CLI
installs a configured runner from ``--jobs`` / ``--cache-dir``.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import dataclasses
import json
import os
import tempfile
import time
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.scenario import DEFAULT_SEED, ScenarioSpec, execute_scenario
from repro.core.system import RunResult

__all__ = [
    "DEFAULT_SEED", "execute_spec", "ResultCache",
    "ParallelRunner", "RunnerStats", "run_grid", "get_runner",
    "set_runner", "configure", "using_runner",
]


def execute_spec(spec: ScenarioSpec) -> RunResult:
    """Run one spec to completion (also the process-pool worker)."""
    return execute_scenario(spec).result


class ResultCache:
    """Content-addressed on-disk cache of :class:`RunResult` JSON.

    Layout: ``<cache_dir>/<hh>/<fingerprint>.json`` where ``hh`` is the
    first two hex digits of the fingerprint (keeps directories small on
    full-paper sweeps).  Each entry stores the result plus the spec's
    JSON form (:meth:`ScenarioSpec.to_json_dict`), which decodes back
    to a spec with the entry's key.  Writes are atomic
    (temp file + rename) so concurrent runners never observe torn
    entries.
    """

    def __init__(self, cache_dir: str):
        self.cache_dir = cache_dir

    def _path(self, key: str) -> str:
        return os.path.join(self.cache_dir, key[:2], f"{key}.json")

    def load(self, key: str) -> Optional[RunResult]:
        """The cached result for ``key``, or None on miss/corruption."""
        try:
            with open(self._path(key), "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            return RunResult.from_json_dict(payload["result"])
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def store(self, key: str, spec: ScenarioSpec, result: RunResult) -> None:
        """Atomically persist one run's result under its fingerprint."""
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        payload = {
            "key": key,
            "spec": spec.to_json_dict(),
            "result": result.to_json_dict(),
        }
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise


@dataclasses.dataclass
class RunnerStats:
    """Counters from one :meth:`ParallelRunner.run` call (or a running total)."""

    submitted: int = 0
    cache_hits: int = 0
    executed: int = 0
    deduplicated: int = 0
    elapsed_s: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    def accumulate(self, other: "RunnerStats") -> None:
        """Add another call's counters into this running total."""
        self.submitted += other.submitted
        self.cache_hits += other.cache_hits
        self.executed += other.executed
        self.deduplicated += other.deduplicated
        self.elapsed_s += other.elapsed_s

    def since(self, earlier: "RunnerStats") -> "RunnerStats":
        """The counter delta between two snapshots of a running total."""
        return RunnerStats(
            submitted=self.submitted - earlier.submitted,
            cache_hits=self.cache_hits - earlier.cache_hits,
            executed=self.executed - earlier.executed,
            deduplicated=self.deduplicated - earlier.deduplicated,
            elapsed_s=self.elapsed_s - earlier.elapsed_s,
        )


class ParallelRunner:
    """Executes :class:`ScenarioSpec` grids over a worker pool, with caching.

    ``jobs=1`` runs inline in this process (no pool overhead, still
    cached); ``jobs=N`` fans distinct uncached specs out over
    ``N`` worker processes.  Results always come back in submission
    order, and duplicate specs within a grid are executed once.
    """

    def __init__(self, jobs: int = 1, cache_dir: Optional[str] = None):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs!r}")
        self.jobs = jobs
        self.cache = ResultCache(cache_dir) if cache_dir else None
        #: Counters from the most recent :meth:`run` call.
        self.stats = RunnerStats()
        #: Running totals across every :meth:`run` call on this runner.
        self.totals = RunnerStats()

    def run(self, specs: Sequence[ScenarioSpec]) -> List[RunResult]:
        """Run a grid; the i-th result belongs to the i-th spec."""
        start = time.perf_counter()
        stats = RunnerStats(submitted=len(specs))
        keys = [spec.fingerprint() for spec in specs]
        results: Dict[str, RunResult] = {}
        pending: List[Tuple[str, ScenarioSpec]] = []
        seen: set = set()
        for key, spec in zip(keys, specs):
            if key in seen:
                stats.deduplicated += 1
                continue
            seen.add(key)
            cached = self.cache.load(key) if self.cache else None
            if cached is not None:
                stats.cache_hits += 1
                results[key] = cached
            else:
                pending.append((key, spec))

        stats.executed = len(pending)
        for key, result in self._execute(pending):
            results[key] = result

        stats.elapsed_s = time.perf_counter() - start
        self.stats = stats
        self.totals.accumulate(stats)
        return [results[key] for key in keys]

    def run_one(self, spec: ScenarioSpec) -> RunResult:
        """Run a single spec through the cache (no pool spin-up)."""
        return self.run([spec])[0]

    def _execute(
        self, pending: List[Tuple[str, ScenarioSpec]]
    ) -> Iterator[Tuple[str, RunResult]]:
        if not pending:
            return
        if self.jobs == 1 or len(pending) == 1:
            for key, spec in pending:
                yield key, self._finish(key, spec, execute_spec(spec))
            return
        workers = min(self.jobs, len(pending))
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(execute_spec, spec): (key, spec) for key, spec in pending
            }
            for future in concurrent.futures.as_completed(futures):
                key, spec = futures[future]
                yield key, self._finish(key, spec, future.result())

    def _finish(self, key: str, spec: ScenarioSpec, result: RunResult) -> RunResult:
        if self.cache:
            self.cache.store(key, spec, result)
        return result


# -- process-wide active runner ---------------------------------------------

_active_runner: ParallelRunner = ParallelRunner(jobs=1)


def get_runner() -> ParallelRunner:
    """The runner figure grids are currently submitted to."""
    return _active_runner


def set_runner(runner: ParallelRunner) -> ParallelRunner:
    """Install ``runner`` as the active runner; returns the previous one."""
    global _active_runner
    previous = _active_runner
    _active_runner = runner
    return previous


def configure(jobs: int = 1, cache_dir: Optional[str] = None) -> ParallelRunner:
    """Build and install a runner (the CLI's ``--jobs/--cache-dir`` hook)."""
    runner = ParallelRunner(jobs=jobs, cache_dir=cache_dir)
    set_runner(runner)
    return runner


@contextlib.contextmanager
def using_runner(runner: ParallelRunner) -> Iterator[ParallelRunner]:
    """Temporarily make ``runner`` the active runner."""
    previous = set_runner(runner)
    try:
        yield runner
    finally:
        set_runner(previous)


def run_grid(specs: Sequence[ScenarioSpec]) -> List[RunResult]:
    """Submit a grid to the active runner (what every figure calls)."""
    return get_runner().run(list(specs))
