"""The benchmark's workloads: cells generated from a seed, and how to run one.

A *cell* is one operation of the benchmark: one scenario run through
the same public entry point the figure code uses.  A workload is the
list of cells one seed generates; a cold serial pass runs them one
after another in this process.  Pass ``i`` of a run uses the seed
:func:`pass_seed` derives from ``--seed`` and ``i``, so each pass is a
new draw of the workload and a run's median evens out how much work a
single draw happens to take (the tuner's trajectory length varies with
the seed).

``closed-sweep``
    The paper's Fig. 2 and Fig. 5 grids (fast sample sizes): a closed
    client population drives one engine at a static MPL, swept over the
    CPU-bound setups 1-4 and the lock-contended setups 1 and 15-17.
    Cells go through :meth:`ParallelRunner.run`.  The CPU pool, lock
    manager, transaction coroutine and front-end carry the work; disk,
    router, 2PC, resilience and the controllers are bypassed.
``mpl-tuning``
    Paper section 4: :func:`tune_setup` (queueing-model jump start plus
    the feedback controller) finds the lowest MPL within 5% throughput
    loss for setups 2, 6, 8, 12 and 15.  The only workload that drives ``core.controller``,
    ``core.tuner`` and ``queueing``; its I/O-bound setups are timer-heavy
    with few lock waits.  Setups 9 and 10 are left out for cost (about
    9.5 s and 24.4 s each on a 2-vCPU x86_64 VM).
``open-cluster``
    Open Poisson arrivals into a hash-routed sharded cluster: the ``xs``
    grid (cross-shard 2PC at fractions 0-0.5, static split vs
    ``ClusterSlo``) plus the ``rs`` grid (degrade, kill, restore under
    baseline, naive-retry and hardened resilience), through
    :func:`run_scenario`.  The only workload that drives the router,
    2PC, faults, resilience and cluster-wide SLO control, and the one
    that wastes work (aborted attempts, retries, sheds).
"""

from __future__ import annotations

import dataclasses
import functools
import gc
from typing import Any, Callable, Dict, List, Optional

from repro.core.scenario import ScenarioSpec, run_scenario
from repro.core.system import MeasuredSystem, RunResult
from repro.experiments.figures import GRID_DEFS
from repro.experiments.parallel import ParallelRunner
from repro.experiments.runner import setup_config, tune_setup
from repro.workloads.setups import get_setup

#: The seed the figure grids use, and so the benchmark's default seed.
DEFAULT_SEED = 11

#: mpl-tuning: the setups tuned and the baseline sample size.
TUNED_SETUPS = (2, 6, 8, 12, 15)
TUNING_TRANSACTIONS = 1500

#: Stride between the pass seeds of one ``--seed``; large enough that
#: neighbouring ``--seed`` values share no pass seed.
PASS_SEED_STRIDE = 1_000_003


def pass_seed(seed: int, index: int) -> int:
    """The seed pass ``index`` of a run with ``--seed seed`` uses."""
    return seed + PASS_SEED_STRIDE * index


@dataclasses.dataclass(frozen=True)
class Cell:
    """One operation: a scenario spec (``grid``/``scenario``) or a tuning job."""

    cell_id: str
    kind: str  # "grid" | "tune" | "scenario"
    spec: Optional[ScenarioSpec] = None
    setup_id: int = 0
    seed: int = DEFAULT_SEED


@dataclasses.dataclass
class CellRun:
    """What running one cell produced."""

    outcome: Dict[str, Any]
    commits: int
    #: what the invariants and the per-layer ratios read
    facts: Dict[str, Any]
    #: the measurement, for cells the result cache can hold
    result: Optional[RunResult] = None


def _reseed(specs: List[ScenarioSpec], seed: int) -> List[ScenarioSpec]:
    return [dataclasses.replace(spec, seed=seed) for spec in specs]


def _spec_id(spec: ScenarioSpec) -> str:
    mpl = spec.mpl if spec.mpl is not None else "none"
    label = spec.tag or f"s{spec.setup_id}-m{mpl}"
    return f"{label}-n{spec.transactions}"


def _unique(cells: List[Cell]) -> List[Cell]:
    """Drop repeated cells (figures 2 and 5 share setup 1's column)."""
    seen = set()
    kept = []
    for cell in cells:
        if cell.cell_id not in seen:
            seen.add(cell.cell_id)
            kept.append(cell)
    return kept


def closed_sweep(seed: int) -> List[Cell]:
    specs = _reseed(GRID_DEFS["2"].build(True) + GRID_DEFS["5"].build(True), seed)
    return _unique([Cell(_spec_id(s), "grid", spec=s, seed=seed) for s in specs])


def mpl_tuning(seed: int) -> List[Cell]:
    return [
        Cell(f"tune-s{setup_id}", "tune", setup_id=setup_id, seed=seed)
        for setup_id in TUNED_SETUPS
    ]


def open_cluster(seed: int) -> List[Cell]:
    specs = _reseed(GRID_DEFS["xs"].build(True) + GRID_DEFS["rs"].build(True), seed)
    return [Cell(_spec_id(s), "scenario", spec=s, seed=seed) for s in specs]


WORKLOADS: Dict[str, Callable[[int], List[Cell]]] = {
    "closed-sweep": closed_sweep,
    "mpl-tuning": mpl_tuning,
    "open-cluster": open_cluster,
}


def validate(cells: List[Cell]) -> None:
    """Validate every cell the way a spec file would be, and build it.

    Scenario cells round-trip through :meth:`ScenarioSpec.validate`,
    build their config and fingerprint; tuning cells build their
    setup's config.  Raises on the first invalid cell.
    """
    for cell in cells:
        if cell.spec is not None:
            checked = ScenarioSpec.validate(cell.spec.to_json_dict())
            if checked != cell.spec:
                raise ValueError(f"cell {cell.cell_id} does not round-trip")
            checked.build_config()
            checked.fingerprint()
        else:
            setup_config(get_setup(cell.setup_id), seed=cell.seed)


class CommitCounter:
    """Counts every simulated commit, warm-up and control phase included.

    Every measurement window of every topology advances through
    :meth:`MeasuredSystem.run_transactions`, which returns exactly the
    window's records; wrapping it costs one call per window.
    """

    def __init__(self):
        self.commits = 0
        self._original = None

    def install(self) -> "CommitCounter":
        original = self._original = MeasuredSystem.run_transactions

        @functools.wraps(original)
        def counted(system, count):
            records = original(system, count)
            self.commits += len(records)
            return records

        MeasuredSystem.run_transactions = counted
        return self

    def uninstall(self) -> None:
        if self._original is not None:
            MeasuredSystem.run_transactions = self._original
            self._original = None


def _jsonable_tuning(result) -> Dict[str, Any]:
    report = result.report
    return {
        "baseline": result.baseline.to_json_dict(),
        "model_mpl_throughput": result.model_mpl_throughput,
        "model_mpl_response_time": result.model_mpl_response_time,
        "initial_mpl": result.initial_mpl,
        "final_mpl": report.final_mpl,
        "iterations": report.iterations,
        "converged": report.converged,
        "trajectory": [dataclasses.asdict(obs) for obs in report.trajectory],
    }


def run_cell(cell: Cell, counter: CommitCounter) -> CellRun:
    """Run one cell cold (no result cache) and collect its outcome."""
    before = counter.commits
    facts: Dict[str, Any] = {}
    result = None
    if cell.kind == "grid":
        result = ParallelRunner(jobs=1).run([cell.spec])[0]
        outcome = result.to_json_dict()
        facts["completed"] = result.completed
        facts["expected_completed"] = _window(cell.spec)
    elif cell.kind == "tune":
        tuned = tune_setup(
            get_setup(cell.setup_id),
            transactions=TUNING_TRANSACTIONS,
            seed=cell.seed,
        )
        outcome = _jsonable_tuning(tuned)
        facts["converged"] = tuned.report.converged
        facts["controller_iterations"] = tuned.report.iterations
        # every commit of a tuning job is spent finding the MPL
        facts["probe_tx"] = counter.commits - before
    else:
        system, scenario = run_scenario(cell.spec)
        result = scenario.result
        outcome = scenario.to_json_dict()
        facts["completed"] = scenario.result.completed
        facts["expected_completed"] = _window(cell.spec)
        facts["resilience"] = scenario.resilience
        facts["distributed"] = scenario.distributed
        if scenario.control is not None:
            facts["controller_iterations"] = scenario.control.iterations
            facts["probe_tx"] = len(system.collector.records) - cell.spec.transactions
        del system
    commits = counter.commits - before
    return CellRun(outcome=outcome, commits=commits, facts=facts, result=result)


def run_cell_and_collect(cell: Cell, counter: CommitCounter) -> CellRun:
    """:func:`run_cell`, then reclaim the cell's reference cycles.

    For traced cells only.  The simulator and the suspended client and
    transaction generators form cycles; closing a generator runs its
    frame.  Collecting inside the cell makes a traced pass count those
    frames exactly once, wherever automatic collection would have
    fallen, so traced counts repeat exactly.  Untraced passes leave
    garbage collection to the interpreter, as the program runs.
    """
    run = run_cell(cell, counter)
    gc.collect()
    return run


def _window(spec: ScenarioSpec) -> int:
    """Post-warm-up completions a measurement window must report."""
    total = spec.measurement.transactions
    return total - int(total * spec.measurement.warmup_fraction)


