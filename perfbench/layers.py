"""Per-layer probes for the traced run, and the per-layer metrics they yield.

Layer names follow the modules (see :mod:`perfbench.trace`).  Counts
are exact and, unless a name says otherwise, per simulated commit
(warm-up and control phases included, the same count ``sim_tx_per_s``
uses).  A ratio whose base is zero (the layer did no such work on this
workload) reads 0.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.core.distributed import TwoPhaseCoordinator
from repro.core.frontend import ExternalScheduler
from repro.dbms.bufferpool import AnalyticBufferPool
from repro.dbms.cpu import ProcessorSharingPool
from repro.dbms.disk import Disk
from repro.dbms.engine import DatabaseEngine
from repro.dbms.lockmgr import LockManager
from repro.dbms.wal import LogManager
from repro.sim.engine import Process, Simulator
from repro.sim.station import RouterStation

from perfbench.trace import Probes

#: Layers whose host self time is reported as ``<layer>.self_s``.
SELF_TIME_LAYERS = (
    "sim.engine", "dbms.cpu", "dbms.lockmgr", "dbms.engine", "dbms.disk",
    "dbms.wal", "workloads", "sim.distributions", "core.frontend",
    "core.controller", "queueing", "core.cluster", "core.distributed",
    "core.resilience", "metrics.collector",
)


def unit_of(name: str) -> str:
    """The unit a per-layer metric is reported in, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_per_tx"):
        return "1/tx"
    if name.endswith((".deadlocks", ".iterations")):
        return "count"
    if name.endswith(".probe_tx"):
        return "tx"
    return "ratio"


def _misses(local_vars: Dict[str, Any], misses: int):
    return misses, local_vars["accesses"]


def _branches(_local_vars: Dict[str, Any], ltx) -> tuple:
    return len(ltx.branches), 1


def probes() -> Probes:
    return Probes(
        counted={
            "timeout": Simulator.timeout,
            "resume": Process._resume,
            "execute": ProcessorSharingPool.execute,
            "pool_timer": ProcessorSharingPool._on_timer,
            "lock_acquire": LockManager.acquire,
            "lock_block": LockManager._on_block,
            "disk_request": Disk.submit,
            "frontend_submit": ExternalScheduler.submit,
            "route_submit": RouterStation.submit,
            "route_submit_to": RouterStation.submit_to,
            "route_reroute": RouterStation.reroute,
        },
        captured={
            "simulator": Simulator,
            "engine": DatabaseEngine,
            "lockmgr": LockManager,
            "wal": LogManager,
        },
        returns={
            "bufferpool_misses": (AnalyticBufferPool.sample_misses, _misses),
            "branches": (TwoPhaseCoordinator._split, _branches),
        },
    )


class Totals:
    """Pass-wide sums of the counters read from captured components and cells."""

    def __init__(self):
        self.timeout_reuses = 0
        self.engine_commits = 0
        self.restarts = 0
        self.deadlocks = 0
        self.wal_commits = 0
        self.wal_writes = 0
        self.controlled_cells = 0
        self.controller_iterations = 0
        self.probe_tx = 0
        self.tx_commits = 0
        self.tx_attempts = 0
        self.resilience_completed = 0
        self.attempts_resolved = 0
        self.retries = 0
        self.admitted = 0

    def add_components(self, found: Dict[str, List[Any]]) -> None:
        """Fold in the counters of the components one cell built."""
        self.timeout_reuses += sum(sim.timeout_reuses for sim in found["simulator"])
        self.engine_commits += sum(engine.committed for engine in found["engine"])
        self.restarts += sum(engine.restarts for engine in found["engine"])
        self.deadlocks += sum(lockmgr.deadlocks for lockmgr in found["lockmgr"])
        self.wal_commits += sum(log.commits for log in found["wal"])
        self.wal_writes += sum(log.writes for log in found["wal"])

    def add_facts(self, facts: Dict[str, Any]) -> None:
        """Fold in what one cell's outcome reports."""
        if "controller_iterations" in facts:
            self.controlled_cells += 1
            self.controller_iterations += facts["controller_iterations"]
            self.probe_tx += facts["probe_tx"]
        distributed = facts.get("distributed")
        if distributed is not None:
            self.tx_commits += distributed["commits"]
            self.tx_attempts += distributed["attempts"]
        resilience = facts.get("resilience")
        if resilience is not None:
            self.resilience_completed += resilience["completed"]
            self.attempts_resolved += resilience["attempts_resolved"]
            self.retries += resilience["retries"]
            self.admitted += resilience["admitted"]


def _ratio(part: float, base: float) -> float:
    return part / base if base else 0.0


def per_layer_metrics(tracer, totals: Totals, commits: int) -> Dict[str, float]:
    """Every per-layer metric of one traced pass except the timings the
    run itself takes (build, cache and overhead)."""
    counts = tracer.counts
    misses, accesses = tracer.sums["bufferpool_misses"]
    branches, cross_txs = tracer.sums["branches"]
    metrics = {f"{layer}.self_s": tracer.self_time(layer) for layer in SELF_TIME_LAYERS}
    metrics.update({
        "sim.engine.timeouts_per_tx": _ratio(counts["timeout"], commits),
        "sim.engine.resumes_per_tx": _ratio(counts["resume"], commits),
        "sim.engine.timeout_reuse_ratio": _ratio(totals.timeout_reuses, counts["timeout"]),
        "dbms.cpu.execute_per_tx": _ratio(counts["execute"], commits),
        "dbms.cpu.timer_fires_per_execute": _ratio(counts["pool_timer"], counts["execute"]),
        "dbms.lockmgr.acquires_per_tx": _ratio(counts["lock_acquire"], commits),
        "dbms.lockmgr.wait_ratio": _ratio(counts["lock_block"], counts["lock_acquire"]),
        "dbms.lockmgr.deadlocks": float(totals.deadlocks),
        "dbms.engine.restart_ratio": _ratio(
            totals.restarts, totals.engine_commits + totals.restarts
        ),
        "dbms.disk.requests_per_tx": _ratio(counts["disk_request"], commits),
        "dbms.bufferpool.hit_ratio": 1.0 - _ratio(misses, accesses) if accesses else 0.0,
        "dbms.wal.commits_per_write": _ratio(totals.wal_commits, totals.wal_writes),
        "core.frontend.submits_per_tx": _ratio(counts["frontend_submit"], commits),
        "core.controller.iterations": _ratio(
            totals.controller_iterations, totals.controlled_cells
        ),
        "core.controller.probe_tx": _ratio(totals.probe_tx, totals.controlled_cells),
        "sim.station.routes_per_tx": _ratio(
            counts["route_submit"] + counts["route_submit_to"] + counts["route_reroute"],
            commits,
        ),
        "core.distributed.commit_ratio": _ratio(totals.tx_commits, totals.tx_attempts),
        "core.distributed.branches_per_cross_tx": _ratio(branches, cross_txs),
        "core.resilience.goodput_ratio": _ratio(
            totals.resilience_completed, totals.attempts_resolved
        ),
        "core.resilience.retries_per_admit": _ratio(totals.retries, totals.admitted),
    })
    return metrics
