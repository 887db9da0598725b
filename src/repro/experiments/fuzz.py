"""Scenario fuzzer: an invariant-driven random walk over spec space.

ROADMAP corpus item (b): the Scenario API made experiments *data* —
workload × arrivals × topology × control × faults as fingerprinted
specs — so edge cases in the controllers, the router, and the fault
machinery can be hunted by *sampling* that space instead of
hand-writing grids.  The pieces:

* :class:`ScenarioWalker` — a seeded random walk over
  :class:`~repro.core.scenario.ScenarioSpec` space.  Each step mutates
  a few axes of the current spec (workload refs including ``file:``
  traces, every :class:`~repro.core.arrivals.ArrivalSpec` family,
  sharded/replicated topologies, every
  :class:`~repro.core.scenario.ControlSpec` including ``ElasticMpl``,
  kill/restore/degrade fault timelines) and then reconciles the
  cross-axis rules so every emitted spec is *intended* to be valid —
  a spec the constructor rejects is itself a generator bug.  The walk
  is deterministic: same seed ⇒ same scenario sequence, fingerprint
  for fingerprint (the determinism test pins this).
* An **oracle library** (:data:`ORACLES`) run against every sampled
  scenario at small transaction counts: codec round-trip,
  ``validate()`` acceptance, transaction conservation (per-shard
  re-route transfer accounting included), exactly-once disposition
  under the resilience gate (every admission is completed, timed out,
  shed, or in flight — never two, never none), bit-identical replay,
  ``--jobs N`` invariance through the
  :class:`~repro.experiments.parallel.ParallelRunner`, and MPL/SLO
  sanity (per-shard MPL split sums to the global budget, dead shards
  hold no queued admissions).
* A **shrinker** (:func:`shrink_scenario`) that minimizes a failing
  scenario — drop fault events, shrink the topology, simplify control
  and arrivals, halve the sample — while the same oracle keeps
  failing, and a **corpus** (:func:`write_reproducer` /
  :func:`replay_corpus`) of minimized reproducers under
  ``tests/data/fuzz_corpus/`` that CI replays.

CLI face: ``python -m repro.experiments fuzz --seed 0 --iterations 50``
(see :func:`repro.experiments.__main__.fuzz_main`).
"""

from __future__ import annotations

import dataclasses
import glob
import json
import os
import random
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.arrivals import (
    ArrivalSpec,
    ClosedArrivals,
    ModulatedArrivals,
    OpenArrivals,
    PartlyOpenArrivals,
    PiecewiseRate,
    SinusoidRate,
    TraceArrivals,
)
from repro.core.cluster import ClusteredSystem
from repro.core.distributed import COORDINATOR_POLICIES, DistributedSpec
from repro.core.faults import DegradeShard, FaultEvent, FaultSpec, KillShard, RestoreShard
from repro.core.resilience import GoodputStarved, SHED_POLICIES, ResilienceSpec
from repro.core.scenario import (
    ClusterSlo,
    ElasticMpl,
    FeedbackMpl,
    MeasurementSpec,
    PerClassSlo,
    ScenarioSpec,
    ScenarioValidationError,
    StaticMpl,
    TopologySpec,
    WorkloadRef,
    run_scenario,
)
from repro.sim.random import derive_seed

#: Table 2 setups the walker draws workloads from (the CPU-bound ones:
#: cheap to simulate at fuzzing sample sizes).
SETUP_IDS = (1, 2, 3)

#: Synthetic §3.2 traces (drawn both as workloads and as arrival streams).
NAMED_TRACES = ("online-retailer", "auction-site")

#: Trace-file prefix understood by :func:`~repro.workloads.traces.get_trace`.
FILE_TRACE_PREFIX = "file:"

#: Default checked-in trace files offered to the walker (relative to the
#: repo root, which is where the CLI and the test suite run).
DEFAULT_TRACE_FILES = (
    "tests/data/trace_fixture.csv",
    "tests/data/trace_fixture.jsonl",
)

ROUTINGS = ("round_robin", "hash", "least_in_flight", "weighted")
READ_FANOUTS = ("primary", "round_robin", "least_in_flight")


class OracleFailure(AssertionError):
    """One oracle's verdict: the scenario violated an invariant."""


# ---------------------------------------------------------------------------
# the random walk
# ---------------------------------------------------------------------------


class ScenarioWalker:
    """Seeded random walk over ScenarioSpec space.

    ``next_spec()`` mutates a few axes of the current spec and
    reconciles cross-axis rules; every ``restart_every`` steps the walk
    restarts from a fresh full sample so one sticky region cannot
    trap it.  All randomness flows from one
    :func:`~repro.sim.random.derive_seed`-derived stream, so the
    sequence is a pure function of ``seed``.
    """

    AXES = ("workload", "arrival", "topology", "control", "faults",
            "resilience", "distributed", "measurement", "mix")

    def __init__(
        self,
        seed: int = 0,
        trace_files: Sequence[str] = (),
        restart_every: int = 8,
    ):
        self.rng = random.Random(derive_seed(seed, "scenario-fuzz"))
        self.trace_files = tuple(t for t in trace_files if os.path.exists(t))
        self.restart_every = max(1, restart_every)
        self.steps = 0
        self._axes = self._fresh_axes()

    # -- axis samplers -----------------------------------------------------

    def _sample_workload(self) -> WorkloadRef:
        rng = self.rng
        roll = rng.random()
        if roll < 0.6 or (roll < 0.75 and not self.trace_files):
            return WorkloadRef(setup_id=rng.choice(SETUP_IDS))
        if roll < 0.75:
            path = rng.choice(self.trace_files)
            return WorkloadRef(setup_id=None, trace=FILE_TRACE_PREFIX + path)
        return WorkloadRef(
            setup_id=None,
            trace=rng.choice(NAMED_TRACES),
            trace_transactions=rng.choice((400, 800, 1500)),
            trace_seed=rng.randrange(1000),
        )

    def _sample_arrival(self) -> Tuple[Optional[ArrivalSpec], Optional[float]]:
        """One (arrival, legacy arrival_rate) pair; at most one is set."""
        rng = self.rng
        kind = rng.choice(
            ("legacy-closed", "legacy-rate", "closed", "open",
             "partly-open", "modulated", "trace")
        )
        if kind == "legacy-closed":
            return None, None
        if kind == "legacy-rate":
            return None, round(rng.uniform(20.0, 80.0), 3)
        if kind == "closed":
            return ClosedArrivals(
                num_clients=rng.randrange(4, 33),
                think_time_s=rng.choice((0.0, 0.02, 0.1)),
            ), None
        if kind == "open":
            return OpenArrivals(rate=round(rng.uniform(20.0, 90.0), 3)), None
        if kind == "partly-open":
            return PartlyOpenArrivals(
                session_rate=round(rng.uniform(2.0, 12.0), 3),
                mean_session_length=round(rng.uniform(1.0, 6.0), 2),
                think_time_s=rng.choice((0.0, 0.02)),
            ), None
        if kind == "modulated":
            if rng.random() < 0.5:
                base = rng.uniform(30.0, 70.0)
                rate = SinusoidRate(
                    base=round(base, 3),
                    # amplitude < base: the clipped-to-zero quiet phase of a
                    # full-depth swing can stall small fuzzing windows
                    amplitude=round(rng.uniform(0.2, 0.8) * base, 3),
                    period=rng.choice((0.5, 1.0, 2.0)),
                )
            else:
                times = sorted(rng.sample((0.5, 1.0, 1.5, 2.0, 3.0),
                                          rng.randrange(1, 3)))
                points = [(0.0, round(rng.uniform(25.0, 60.0), 3))]
                points += [(t, round(rng.uniform(15.0, 80.0), 3)) for t in times]
                rate = PiecewiseRate(
                    points=tuple(points),
                    period=rng.choice((None, points[-1][0] + 1.0)),
                )
            return ModulatedArrivals(rate_function=rate), None
        # trace replay: loop=True always — a non-looping stream shorter
        # than the sample drains the simulation mid-measurement
        if self.trace_files and rng.random() < 0.4:
            name = FILE_TRACE_PREFIX + rng.choice(self.trace_files)
            return TraceArrivals(
                trace_name=name,
                time_scale=rng.choice((0.02, 0.05, 0.1)),
                loop=True,
            ), None
        return TraceArrivals(
            trace_name=rng.choice(NAMED_TRACES),
            transactions=rng.choice((300, 600)),
            seed=rng.randrange(1000),
            time_scale=rng.choice((0.25, 0.5, 1.0)),
            loop=True,
        ), None

    def _sample_topology(self) -> TopologySpec:
        rng = self.rng
        shards = rng.choice((1, 1, 2, 2, 3, 4))
        routing = rng.choice(ROUTINGS) if shards > 1 else "round_robin"
        weights: Optional[Tuple[float, ...]] = None
        if shards > 1 and rng.random() < 0.4:
            # skewed on purpose — this is what flushes split/rounding bugs
            weights = tuple(
                round(rng.choice((0.05, 0.5, 1.0, 2.0, 10.0, 250.0)), 3)
                for _ in range(shards)
            )
        replicas = rng.choice((0, 0, 0, 1, 1, 2))
        return TopologySpec(
            shards=shards,
            routing=routing,
            routing_weights=weights,
            replicas_per_shard=replicas,
            read_fanout=rng.choice(READ_FANOUTS),
            election_timeout_s=rng.choice((0.1, 0.25, 0.5)),
        )

    def _sample_control(self) -> Any:
        rng = self.rng
        kind = rng.choice(("static", "static", "static-unlimited",
                           "feedback", "slo", "elastic"))
        if kind == "static-unlimited":
            return StaticMpl(None)
        if kind == "static":
            return StaticMpl(rng.randrange(4, 25))
        if kind == "feedback":
            return FeedbackMpl(
                initial_mpl=rng.randrange(4, 17),
                window=rng.choice((20, 30)),
                baseline_transactions=rng.choice((60, 100)),
                adaptive=rng.random() < 0.7,
            )
        if kind == "slo":
            return PerClassSlo(
                high_p95_target_s=rng.choice((0.1, 0.3, 0.6)),
                initial_mpl=rng.randrange(2, 9),
                window=rng.choice((30, 50)),
                max_mpl=32,
                max_iterations=rng.choice((2, 3)),
            )
        return ElasticMpl(
            mpl=rng.randrange(6, 25),
            interval_s=rng.choice((0.2, 0.3, 0.5)),
            low_watermark=round(rng.uniform(0.05, 0.4), 3),
            high_watermark=round(rng.uniform(0.6, 0.95), 3),
        )

    def _sample_faults(self, shards: int, replicas: int) -> Optional[FaultSpec]:
        rng = self.rng
        if rng.random() < 0.5:
            return None
        events: List[FaultEvent] = []
        t = rng.uniform(0.2, 0.6)
        for _ in range(rng.randrange(1, 4)):
            shard = rng.randrange(shards)
            kind = rng.choice(("kill", "kill", "degrade", "restore"))
            if kind == "kill":
                candidate: FaultEvent = KillShard(at=round(t, 3), shard=shard)
            elif kind == "degrade":
                candidate = DegradeShard(
                    at=round(t, 3), shard=shard,
                    factor=rng.choice((0.3, 0.5, 0.8)),
                )
            else:
                candidate = RestoreShard(at=round(t, 3), shard=shard)
            if fault_timeline_is_safe(events + [candidate], shards, replicas):
                events.append(candidate)
                if isinstance(candidate, KillShard) and rng.random() < 0.6:
                    t += rng.uniform(0.2, 0.6)
                    events.append(
                        RestoreShard(at=round(t, 3), shard=candidate.shard)
                    )
            t += rng.uniform(0.2, 0.7)
        if not events:
            return None
        return FaultSpec(events=tuple(events))

    def _sample_resilience(self) -> Optional[ResilienceSpec]:
        rng = self.rng
        if rng.random() < 0.35:
            return None
        # deadlines are generous relative to fuzzing-size service times
        # (tens of milliseconds), so a resilient walk always makes
        # forward progress — goodput-zero livelock is the figure's job,
        # not the fuzzer's
        max_attempts = rng.choice((0, 0, 1, 2, 3))
        return ResilienceSpec(
            deadline_s=rng.choice((1.0, 2.0, 5.0)),
            high_deadline_s=rng.choice((None, None, 2.0, 5.0)),
            max_attempts=max_attempts,
            base_backoff_s=(
                rng.choice((0.0, 0.01, 0.05)) if max_attempts > 0 else None
            ),
            backoff_multiplier=rng.choice((1.0, 2.0)),
            jitter_fraction=rng.choice((0.0, 0.25, 0.5)),
            queue_cap=rng.choice((None, None, 8, 16, 32)),
            shed_policy=rng.choice(SHED_POLICIES),
            breaker_enabled=rng.random() < 0.35,
            breaker_window=rng.choice((5, 10, 20)),
            breaker_timeout_threshold=rng.choice((0.3, 0.5, 0.8)),
            breaker_open_s=rng.choice((0.2, 0.5, 1.0)),
        )

    def _sample_distributed(self) -> Optional[DistributedSpec]:
        rng = self.rng
        if rng.random() < 0.5:
            return None
        # abort_on_prepare_timeout stays True: a hung prepare would
        # park MPL slots forever and stall the completion-counted
        # window; the timeout-abort path is the escape hatch the walk
        # relies on (and the goodput-starvation guard turns a
        # pathological retry storm into a deterministic refusal)
        return DistributedSpec(
            cross_shard_fraction=rng.choice((0.05, 0.1, 0.2, 0.5, 1.0)),
            fanout_k=rng.randrange(2, 5),
            prepare_timeout_s=rng.choice((0.5, 1.0, 2.0, 5.0)),
            coordinator=rng.choice(COORDINATOR_POLICIES),
            abort_on_prepare_timeout=True,
        )

    def _sample_measurement(self) -> MeasurementSpec:
        rng = self.rng
        metrics: Tuple[str, ...] = ("standard",)
        if rng.random() < 0.3:
            metrics += ("percentiles",)
        if rng.random() < 0.3:
            metrics += ("timeline",)
        return MeasurementSpec(
            transactions=rng.randrange(40, 161),
            warmup_fraction=rng.choice((0.0, 0.1, 0.2)),
            metrics=metrics,
            timeline_bucket_s=rng.choice((0.25, 0.5, 1.0)),
        )

    def _sample_mix(self) -> Dict[str, Any]:
        rng = self.rng
        hpf = rng.choice((0.0, 0.0, 0.1, 0.3))
        return {
            "policy": "priority" if hpf > 0 and rng.random() < 0.7 else "fifo",
            "high_priority_fraction": hpf,
            "seed": rng.randrange(10_000),
        }

    def _fresh_axes(self) -> Dict[str, Any]:
        arrival, arrival_rate = self._sample_arrival()
        topology = self._sample_topology()
        return {
            "workload": self._sample_workload(),
            "arrival": arrival,
            "arrival_rate": arrival_rate,
            "topology": topology,
            "control": self._sample_control(),
            "faults": self._sample_faults(
                topology.shards, topology.replicas_per_shard
            ),
            "resilience": self._sample_resilience(),
            "distributed": self._sample_distributed(),
            "measurement": self._sample_measurement(),
            "mix": self._sample_mix(),
        }

    # -- reconciliation ----------------------------------------------------

    def _reconcile(self, axes: Dict[str, Any]) -> Dict[str, Any]:
        """Repair cross-axis rules after independent mutation.

        Mirrors ``ScenarioSpec.__post_init__``'s cross-field checks —
        plus the run-safety rules the constructor cannot know about
        (never kill the last live shard; no faults under a per-shard
        tuning loop, which would wait forever on a dead shard's
        completions under open arrivals).  Works on a copy: the walk's
        stored axes keep their sampled values, so an axis suppressed
        by one step's control choice (faults under ``FeedbackMpl``,
        resilience under a tuning loop) resurfaces as soon as the
        conflicting axis mutates away — repair is per-spec, not sticky.
        """
        rng = self.rng
        axes = dict(axes)
        topology: TopologySpec = axes["topology"]
        control = axes["control"]
        clustered = topology.shards > 1 or topology.replicas_per_shard > 0

        if isinstance(control, PerClassSlo):
            if topology.shards > 1:
                # a sharded topology lifts the SLO loop to cluster scope
                # (plain shards, no replica groups); the sampled engine
                # MPLs scale by the shard count, so every shard keeps
                # at least one slot
                control = ClusterSlo(
                    high_p95_target_s=control.high_p95_target_s,
                    initial_mpl=control.initial_mpl * topology.shards,
                    window=control.window,
                    max_mpl=control.max_mpl * topology.shards,
                    max_iterations=control.max_iterations,
                )
                axes["control"] = control
                topology = dataclasses.replace(topology, replicas_per_shard=0)
                axes["topology"] = topology
            elif topology.replicas_per_shard > 0:
                # a truly single-engine topology: the SLO tuning loop
                # drives one ExternalScheduler, not a cluster façade
                topology = dataclasses.replace(
                    topology, shards=1, routing="round_robin",
                    routing_weights=None, replicas_per_shard=0,
                )
                axes["topology"] = topology
                clustered = False
            if axes["mix"]["high_priority_fraction"] <= 0:
                axes["mix"] = dict(
                    axes["mix"], high_priority_fraction=rng.choice((0.1, 0.3))
                )
        if isinstance(control, ElasticMpl):
            if not clustered:
                topology = dataclasses.replace(topology, shards=2)
                axes["topology"] = topology
                clustered = True
            if control.mpl < topology.shards:
                control = dataclasses.replace(
                    control, mpl=topology.shards * rng.randrange(2, 6)
                )
                axes["control"] = control
        if isinstance(control, (StaticMpl, FeedbackMpl)):
            mpl = control.config_mpl()
            if mpl is not None and mpl < topology.shards:
                # split_mpl needs >= 1 admission per shard
                field = "mpl" if isinstance(control, StaticMpl) else "initial_mpl"
                control = dataclasses.replace(
                    control, **{field: topology.shards * rng.randrange(2, 6)}
                )
                axes["control"] = control
        if isinstance(control, FeedbackMpl):
            if clustered and control.initial_mpl is None:
                control = dataclasses.replace(
                    control, initial_mpl=max(topology.shards, 8)
                )
                axes["control"] = control
            # per-shard tuning windows wait on a single shard's
            # completions; a fault that kills that shard would stall the
            # window forever under open arrivals
            axes["faults"] = None

        resilience: Optional[ResilienceSpec] = axes["resilience"]
        if resilience is not None:
            # the resilience gate composes with static/elastic capacity
            # control and with the cluster SLO loop (its split reads the
            # breakers); the feedback loop runs baseline twins outside
            # the gate, so it and the engine SLO loop stay apart from it
            if isinstance(control, FeedbackMpl) or type(control) is PerClassSlo:
                axes["resilience"] = None
                resilience = None
        if resilience is not None and topology.replicas_per_shard > 0:
            # replica groups own their own retry story — when both axes
            # land, a coin decides which one this step keeps, so the
            # walk covers each at full strength
            if rng.random() < 0.5:
                axes["resilience"] = None
                resilience = None
            else:
                topology = dataclasses.replace(topology, replicas_per_shard=0)
                if isinstance(control, ElasticMpl) and topology.shards < 2:
                    # elastic control needs the topology to stay
                    # clustered once the replicas are gone
                    topology = dataclasses.replace(topology, shards=2)
                axes["topology"] = topology
                clustered = topology.shards > 1
        if resilience is not None and (
            resilience.breaker_enabled and topology.shards < 2
        ):
            axes["resilience"] = dataclasses.replace(
                resilience, breaker_enabled=False
            )
        resilience = axes["resilience"]
        if resilience is not None and resilience.queue_cap is not None:
            # shedding needs externally driven arrivals: a closed client
            # resubmits the instant a shed releases it (zero-time livelock)
            closed_population = axes["arrival_rate"] is None and (
                axes["arrival"] is None
                or isinstance(axes["arrival"], ClosedArrivals)
            )
            if closed_population:
                axes["resilience"] = dataclasses.replace(
                    resilience, queue_cap=None
                )

        distributed: Optional[DistributedSpec] = axes["distributed"]
        if distributed is not None:
            topology = axes["topology"]
            if topology.shards < 2 or topology.replicas_per_shard > 0:
                # 2PC needs >= 2 participant shards, and replica groups
                # own their own commit story (the constructor rejects
                # the combination)
                axes["distributed"] = None
            elif distributed.fanout_k > topology.shards:
                axes["distributed"] = dataclasses.replace(
                    distributed, fanout_k=topology.shards
                )

        faults: Optional[FaultSpec] = axes["faults"]
        if faults is not None:
            if not clustered:
                axes["faults"] = None
            else:
                events = [e for e in faults.events if e.shard < topology.shards]
                kept: List[FaultEvent] = []
                for event in events:
                    if fault_timeline_is_safe(
                        kept + [event], topology.shards,
                        topology.replicas_per_shard,
                    ):
                        kept.append(event)
                axes["faults"] = FaultSpec(events=tuple(kept)) if kept else None
        return axes

    def _build(self, axes: Dict[str, Any]) -> ScenarioSpec:
        mix = axes["mix"]
        return ScenarioSpec(
            workload=axes["workload"],
            arrival=axes["arrival"],
            topology=axes["topology"],
            control=axes["control"],
            measurement=axes["measurement"],
            policy=mix["policy"],
            high_priority_fraction=mix["high_priority_fraction"],
            arrival_rate=axes["arrival_rate"],
            seed=mix["seed"],
            tag=f"fuzz-{self.steps}",
            faults=axes["faults"],
            resilience=axes["resilience"],
            distributed=axes["distributed"],
        )

    def next_spec(self) -> ScenarioSpec:
        """The walk's next scenario (always constructor-valid)."""
        rng = self.rng
        self.steps += 1
        if self.steps % self.restart_every == 1:
            self._axes = self._fresh_axes()
        else:
            mutated = rng.sample(self.AXES, rng.randrange(1, 3))
            for axis in mutated:
                if axis == "workload":
                    self._axes["workload"] = self._sample_workload()
                elif axis == "arrival":
                    arrival, rate = self._sample_arrival()
                    self._axes["arrival"] = arrival
                    self._axes["arrival_rate"] = rate
                elif axis == "topology":
                    self._axes["topology"] = self._sample_topology()
                elif axis == "control":
                    self._axes["control"] = self._sample_control()
                elif axis == "faults":
                    topology = self._axes["topology"]
                    self._axes["faults"] = self._sample_faults(
                        topology.shards, topology.replicas_per_shard
                    )
                elif axis == "resilience":
                    self._axes["resilience"] = self._sample_resilience()
                elif axis == "distributed":
                    self._axes["distributed"] = self._sample_distributed()
                elif axis == "measurement":
                    self._axes["measurement"] = self._sample_measurement()
                else:
                    self._axes["mix"] = self._sample_mix()
        return self._build(self._reconcile(self._axes))

    def specs(self, count: int) -> List[ScenarioSpec]:
        return [self.next_spec() for _ in range(count)]


def fault_timeline_is_safe(
    events: Sequence[FaultEvent], shards: int, replicas: int
) -> bool:
    """Whether a fault timeline can never leave the router target-less.

    Conservative aliveness model: a shard with any unrestored kill is
    treated as possibly dead (with replicas a single kill only fells
    the primary, but a back-to-back double kill mid-election can still
    take the group out).  The router raises ``SimulationError`` when
    every shard is dead (administrative parking falls open to an alive
    shard, but nothing routes around a fully killed cluster), so the
    generator (and the shrinker) only emit timelines that keep at
    least one shard kill-free at every instant.
    """
    del replicas  # conservative: replicated shards treated like bare ones
    suspect = [False] * shards
    for event in sorted(events, key=lambda e: e.at):
        if isinstance(event, KillShard):
            suspect[event.shard] = True
        elif isinstance(event, RestoreShard):
            suspect[event.shard] = False
        if all(suspect):
            return False
    return True


# ---------------------------------------------------------------------------
# the oracle library
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class OracleContext:
    """Everything one scenario run produced, for the oracles to judge."""

    spec: ScenarioSpec
    system: Any = None
    outcome: Any = None
    #: Run the (expensive) ParallelRunner jobs-invariance oracle.
    check_jobs: bool = False
    #: Result-cache directory shared with the jobs oracle's runner.
    cache_dir: Optional[str] = None


def oracle_codec_roundtrip(ctx: OracleContext) -> None:
    """to_json_dict → from_json_dict must reproduce spec and fingerprint."""
    spec = ctx.spec
    payload = json.loads(json.dumps(spec.to_json_dict()))
    decoded = ScenarioSpec.from_json_dict(payload)
    if decoded != spec:
        raise OracleFailure("decoded spec differs from the original")
    if decoded.fingerprint() != spec.fingerprint():
        raise OracleFailure(
            f"fingerprint changed across the codec round-trip: "
            f"{spec.fingerprint()} -> {decoded.fingerprint()}"
        )


def oracle_validate_accepts(ctx: OracleContext) -> None:
    """validate() must accept everything the generator emits."""
    try:
        decoded = ScenarioSpec.validate(ctx.spec.to_json_dict())
    except ScenarioValidationError as exc:
        raise OracleFailure(f"validate() rejected a generated spec: {exc}")
    if decoded.fingerprint() != ctx.spec.fingerprint():
        raise OracleFailure("validate() decoded to a different fingerprint")


def oracle_conservation(ctx: OracleContext) -> None:
    """No transaction is lost or double-counted, re-routes included."""
    system, spec = ctx.system, ctx.spec
    measurement = spec.measurement
    records = len(system.collector.records)
    if records < measurement.transactions:
        raise OracleFailure(
            f"completed {records} < requested {measurement.transactions}"
        )
    if not isinstance(system, ClusteredSystem):
        return
    router = system.router
    frontends = [shard.frontend for shard in system.shards]
    # `removed` holds the admissions the resilience layer pulled back
    # out (queued deadline expiry, load shedding) — zero without it
    total_held = sum(
        f.completed + f.in_service + f.queue_length + f.removed
        for f in frontends
    )
    if router.routed != total_held:
        raise OracleFailure(
            f"router routed {router.routed} but shards hold {total_held}"
        )
    for index, frontend in enumerate(frontends):
        held = (
            frontend.completed + frontend.in_service
            + frontend.queue_length + frontend.removed
        )
        placed = (
            router.routed_by_shard[index]
            + router.rerouted_to[index]
            - router.rerouted_from[index]
        )
        if placed != held:
            raise OracleFailure(
                f"shard {index}: placed {placed} != held {held} "
                "(re-route transfer accounting broken)"
            )
        if system.shards[index].collector.arrivals != router.routed_by_shard[index]:
            raise OracleFailure(
                f"shard {index}: collector arrivals "
                f"{system.shards[index].collector.arrivals} != routed "
                f"{router.routed_by_shard[index]}"
            )
    if router.rerouted != sum(router.rerouted_from) or (
        router.rerouted != sum(router.rerouted_to)
    ):
        raise OracleFailure("re-route from/to totals disagree")


def oracle_mpl_sanity(ctx: OracleContext) -> None:
    """Split MPLs sum to the global budget; dead shards admit nothing."""
    system, spec = ctx.system, ctx.spec
    if not isinstance(system, ClusteredSystem):
        return
    frontends = [shard.frontend for shard in system.shards]
    mpls = [f.mpl for f in frontends]
    if any(m is not None and m < 1 for m in mpls):
        raise OracleFailure(f"per-shard MPL below the floor of 1: {mpls}")
    global_mpl = spec.control.config_mpl()
    if (
        isinstance(spec.control, StaticMpl)
        and global_mpl is not None
        and spec.faults is None
        and all(m is not None for m in mpls)
        and sum(mpls) != global_mpl
    ):
        raise OracleFailure(
            f"static per-shard MPLs {mpls} sum to {sum(mpls)}, "
            f"not the global {global_mpl}"
        )
    if isinstance(spec.control, ElasticMpl):
        report = ctx.outcome.control
        final = getattr(report, "final_mpls", None)
        if final and sum(final) != spec.control.mpl:
            raise OracleFailure(
                f"elastic final MPLs {final} sum to {sum(final)}, "
                f"not the global {spec.control.mpl}"
            )
    if isinstance(spec.control, ClusterSlo):
        report = ctx.outcome.control
        if sum(report.final_split) != report.final_mpl:
            raise OracleFailure(
                f"cluster SLO final split {report.final_split} sums to "
                f"{sum(report.final_split)}, not its {report.final_mpl}"
            )
    router = system.router
    for index, frontend in enumerate(frontends):
        if not router.alive[index] and frontend.queue_length != 0:
            raise OracleFailure(
                f"dead shard {index} still queues "
                f"{frontend.queue_length} admissions"
            )


def oracle_disposition(ctx: OracleContext) -> None:
    """Every admitted transaction lands in exactly one disposition.

    The resilience gate's exactly-once contract: across retries, shard
    kills, and shed queues, an admission is completed, timed out, shed,
    or still in flight — never two of those, never none.
    """
    runtime = getattr(ctx.system, "resilience", None)
    if runtime is None:
        return
    settled = runtime.completed + runtime.timed_out + runtime.shed
    if runtime.admitted != settled + runtime.in_flight:
        raise OracleFailure(
            f"admitted {runtime.admitted} != completed {runtime.completed} "
            f"+ timed_out {runtime.timed_out} + shed {runtime.shed} "
            f"+ in_flight {runtime.in_flight}"
        )
    tally: Dict[str, int] = {}
    for disposition in runtime.dispositions().values():
        tally[disposition] = tally.get(disposition, 0) + 1
    expected = {
        "completed": runtime.completed,
        "timed_out": runtime.timed_out,
        "shed": runtime.shed,
        "in_flight": runtime.in_flight,
    }
    mismatches = {
        key: (tally.get(key, 0), count)
        for key, count in expected.items()
        if tally.get(key, 0) != count
    }
    if mismatches or set(tally) - set(expected):
        raise OracleFailure(
            f"per-transaction dispositions disagree with the counters: "
            f"{mismatches or sorted(set(tally) - set(expected))}"
        )
    per_class = runtime.per_class
    for priority, admitted in per_class["admitted"].items():
        settled_class = sum(
            per_class[counter].get(priority, 0)
            for counter in ("completed", "timed_out", "shed")
        )
        if admitted < settled_class:
            raise OracleFailure(
                f"class {priority}: {settled_class} settled but only "
                f"{admitted} admitted"
            )
    # the gate only ever counts commits as completed, and the collector
    # only ever records commits the gate let through, so the gate can
    # lag the collector by at most the in-flight tail (the run stops
    # the instant the Nth record lands, before that record's gate
    # callback) — never lead it
    if runtime.completed > len(ctx.system.collector.records):
        raise OracleFailure(
            f"gate counted {runtime.completed} completions but the "
            f"collector recorded only {len(ctx.system.collector.records)}"
        )


def oracle_atomicity(ctx: OracleContext) -> None:
    """2PC atomicity: no cross-shard transaction half-commits.

    The coordinator self-checks every decision (a branch finishing
    against the decided verdict, a commit finishing with a non-committed
    branch) into ``atomicity_violations``; the oracle also audits the
    attempt ledger — every cross-shard transaction either committed
    (and left the live table) or is still live, and every launched
    attempt is settled or current.
    """
    coordinator = getattr(ctx.system, "distributed", None)
    if coordinator is None:
        return
    report = coordinator.report_jsonable()
    if report["atomicity_violations"]:
        raise OracleFailure(
            f"2PC atomicity violated: {report['atomicity_violations']}"
        )
    if report["commits"] + report["in_flight"] != report["cross_shard"]:
        raise OracleFailure(
            f"2PC ledger broken: commits {report['commits']} + in-flight "
            f"{report['in_flight']} != cross-shard {report['cross_shard']}"
        )
    settled = report["commits"] + report["aborts"]
    if not settled <= report["attempts"] <= settled + report["in_flight"]:
        raise OracleFailure(
            f"2PC attempts {report['attempts']} outside "
            f"[{settled}, {settled + report['in_flight']}] "
            f"(commits {report['commits']}, aborts {report['aborts']})"
        )


def oracle_replay(ctx: OracleContext) -> None:
    """A second run of the same spec must be bit-identical."""
    _, second = run_scenario(ctx.spec)
    first_json = json.dumps(ctx.outcome.to_json_dict(), sort_keys=True)
    second_json = json.dumps(second.to_json_dict(), sort_keys=True)
    if first_json != second_json:
        raise OracleFailure("replay produced a different outcome JSON")


def oracle_jobs_invariance(ctx: OracleContext) -> None:
    """The ParallelRunner at --jobs 2 must reproduce the direct run."""
    if not ctx.check_jobs:
        return
    from repro.experiments.parallel import ParallelRunner

    result = ParallelRunner(jobs=2, cache_dir=ctx.cache_dir).run([ctx.spec])[0]
    direct = ctx.outcome.result
    if json.dumps(result.to_json_dict(), sort_keys=True) != json.dumps(
        direct.to_json_dict(), sort_keys=True
    ):
        raise OracleFailure("--jobs 2 run differs from the in-process run")


#: Ordered oracle library: cheap structural checks first, the
#: execution-dependent ones after (they see ``ctx.system``/``ctx.outcome``).
ORACLES: Dict[str, Callable[[OracleContext], None]] = {
    "codec-roundtrip": oracle_codec_roundtrip,
    "validate-accepts": oracle_validate_accepts,
    "conservation": oracle_conservation,
    "mpl-sanity": oracle_mpl_sanity,
    "disposition": oracle_disposition,
    "atomicity": oracle_atomicity,
    "replay": oracle_replay,
    "jobs-invariance": oracle_jobs_invariance,
}

#: Oracles that can run without executing the scenario.
_STRUCTURAL = ("codec-roundtrip", "validate-accepts")


def check_scenario(
    spec: ScenarioSpec,
    *,
    check_jobs: bool = False,
    cache_dir: Optional[str] = None,
) -> Optional[Tuple[str, str]]:
    """Run the full oracle library; ``(oracle, error)`` on first failure."""
    ctx = OracleContext(spec=spec, check_jobs=check_jobs, cache_dir=cache_dir)
    for name in _STRUCTURAL:
        try:
            ORACLES[name](ctx)
        except OracleFailure as exc:
            return name, str(exc)
    try:
        ctx.system, ctx.outcome = run_scenario(spec)
    except GoodputStarved as exc:
        # A valid spec whose completion-counted window can never fill
        # (saturated retry storm → zero steady-state goodput).  The
        # refusal is the correct behaviour, not a finding — but the
        # detection itself must replay bit-identically.
        return _check_starvation_replays(spec, str(exc))
    except Exception as exc:  # noqa: BLE001 — any crash is a finding
        return "execution", f"{type(exc).__name__}: {exc}"
    for name, oracle in ORACLES.items():
        if name in _STRUCTURAL:
            continue
        try:
            oracle(ctx)
        except OracleFailure as exc:
            return name, str(exc)
    return None


def _check_starvation_replays(
    spec: ScenarioSpec, first_error: str
) -> Optional[Tuple[str, str]]:
    """Re-run a goodput-starved spec; the refusal must be deterministic."""
    try:
        run_scenario(spec)
    except GoodputStarved as exc:
        if str(exc) == first_error:
            return None
        return "replay", (
            "goodput starvation is not deterministic: first run said "
            f"{first_error!r}, replay said {str(exc)!r}"
        )
    except Exception as exc:  # noqa: BLE001
        return "replay", (
            "goodput starvation is not deterministic: replay raised "
            f"{type(exc).__name__}: {exc}"
        )
    return "replay", (
        "goodput starvation is not deterministic: the replay finished "
        f"(first run said {first_error!r})"
    )


# ---------------------------------------------------------------------------
# the shrinker
# ---------------------------------------------------------------------------


def _shrink_candidates(spec: ScenarioSpec) -> List[ScenarioSpec]:
    """Strictly-smaller variants of ``spec``, most aggressive first.

    Invalid combinations are simply skipped (the constructor is the
    filter); fault timelines are re-checked against the liveness model
    so the shrinker never invents an all-shards-dead crash.
    """
    out: List[ScenarioSpec] = []

    def push(**changes: Any) -> None:
        try:
            candidate = dataclasses.replace(spec, **changes)
        except ValueError:
            return
        faults = candidate.faults
        if faults is not None and not fault_timeline_is_safe(
            faults.events, candidate.topology.shards,
            candidate.topology.replicas_per_shard,
        ):
            return
        out.append(candidate)

    if spec.resilience is not None:
        push(resilience=None)

        def push_resilience(**changes: Any) -> None:
            try:
                push(resilience=dataclasses.replace(spec.resilience, **changes))
            except ValueError:
                return

        if spec.resilience.breaker_enabled:
            push_resilience(breaker_enabled=False)
        if spec.resilience.queue_cap is not None:
            push_resilience(queue_cap=None)
        if spec.resilience.max_attempts > 0:
            push_resilience(max_attempts=0, base_backoff_s=None)
        if spec.resilience.jitter_fraction > 0:
            push_resilience(jitter_fraction=0.0)
        if spec.resilience.high_deadline_s is not None:
            push_resilience(high_deadline_s=None)
    if spec.distributed is not None:
        push(distributed=None)
        if spec.distributed.cross_shard_fraction > 0:
            push(distributed=dataclasses.replace(
                spec.distributed, cross_shard_fraction=0.0
            ))
        if spec.distributed.fanout_k > 2:
            push(distributed=dataclasses.replace(spec.distributed, fanout_k=2))
    if spec.faults is not None:
        push(faults=None)
        if len(spec.faults.events) > 1:
            for drop in range(len(spec.faults.events)):
                events = tuple(
                    e for i, e in enumerate(spec.faults.events) if i != drop
                )
                push(faults=FaultSpec(events=events))
    if not isinstance(spec.control, StaticMpl):
        push(control=StaticMpl(spec.control.config_mpl()), faults=None)
        push(control=StaticMpl(spec.control.config_mpl()))
    if spec.arrival is not None or spec.arrival_rate is not None:
        push(arrival=None, arrival_rate=None)
    topology = spec.topology
    if topology.replicas_per_shard > 0:
        push(topology=dataclasses.replace(topology, replicas_per_shard=0))
    if topology.shards > 1:
        smaller = max(1, topology.shards // 2)
        weights = topology.routing_weights
        push(topology=dataclasses.replace(
            topology,
            shards=smaller,
            routing="round_robin" if smaller == 1 else topology.routing,
            routing_weights=weights[:smaller] if weights else None,
        ), faults=None)
    if topology.routing_weights is not None:
        push(topology=dataclasses.replace(topology, routing_weights=None))
    measurement = spec.measurement
    if measurement.transactions > 20:
        push(measurement=dataclasses.replace(
            measurement, transactions=max(20, measurement.transactions // 2)
        ))
    if measurement.metrics != ("standard",):
        push(measurement=dataclasses.replace(measurement, metrics=("standard",)))
    if spec.high_priority_fraction > 0 and not isinstance(spec.control, PerClassSlo):
        push(high_priority_fraction=0.0, policy="fifo")
    if spec.workload != WorkloadRef():
        push(workload=WorkloadRef())
    return out


def shrink_scenario(
    spec: ScenarioSpec,
    failing_oracle: str,
    *,
    check_jobs: bool = False,
    cache_dir: Optional[str] = None,
    max_rounds: int = 6,
    log: Optional[Callable[[str], None]] = None,
) -> ScenarioSpec:
    """Greedy fixpoint shrink: keep a candidate iff the same oracle fails."""
    current = spec
    for _round in range(max_rounds):
        improved = False
        for candidate in _shrink_candidates(current):
            verdict = check_scenario(
                candidate, check_jobs=check_jobs, cache_dir=cache_dir
            )
            if verdict is not None and verdict[0] == failing_oracle:
                current = candidate
                improved = True
                if log:
                    log(f"[shrink] kept {candidate.fingerprint()[:12]} "
                        f"({verdict[0]})")
                break
        if not improved:
            return current
    return current


# ---------------------------------------------------------------------------
# the corpus
# ---------------------------------------------------------------------------

CORPUS_FORMAT = 1


def write_reproducer(
    directory: str,
    spec: ScenarioSpec,
    oracle: str,
    error: str,
    *,
    seed: Optional[int] = None,
    iteration: Optional[int] = None,
) -> str:
    """Write one minimized reproducer; returns its path.

    The entry's ``expect`` is ``"ok"``: once the underlying bug is
    fixed, replaying the spec must pass every oracle (that is the
    regression contract CI enforces).  Hand-written entries may instead
    say ``"validation_error"`` for payloads a fixed ``validate()``
    must reject.
    """
    os.makedirs(directory, exist_ok=True)
    name = f"repro-{oracle}-{spec.fingerprint()[:12]}.json"
    path = os.path.join(directory, name)
    payload = {
        "format": CORPUS_FORMAT,
        "oracle": oracle,
        "error": error,
        "expect": "ok",
        "seed": seed,
        "iteration": iteration,
        "fingerprint": spec.fingerprint(),
        "spec": spec.to_json_dict(),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def _rebase_file_traces(payload: Any, base: str) -> None:
    """Resolve relative ``file:`` trace paths against the corpus dir.

    Corpus entries must replay from any working directory; their
    companion trace files live next to the JSON.
    """
    spec = payload.get("spec")
    if not isinstance(spec, dict):
        return

    def rebase(holder: Any, key: str) -> None:
        if not isinstance(holder, dict):
            return
        value = holder.get(key)
        if isinstance(value, str) and value.startswith(FILE_TRACE_PREFIX):
            path = value[len(FILE_TRACE_PREFIX):]
            if not os.path.isabs(path):
                holder[key] = FILE_TRACE_PREFIX + os.path.join(base, path)

    rebase(spec.get("workload"), "trace")
    rebase(spec.get("arrival"), "trace_name")


def replay_corpus(
    directory: str,
    *,
    check_jobs: bool = False,
    log: Optional[Callable[[str], None]] = None,
) -> List[str]:
    """Replay every reproducer in ``directory``; returns failure strings."""
    failures: List[str] = []
    paths = sorted(glob.glob(os.path.join(directory, "*.json")))
    for path in paths:
        name = os.path.basename(path)
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        _rebase_file_traces(payload, os.path.dirname(os.path.abspath(path)))
        expect = payload.get("expect", "ok")
        if expect == "validation_error":
            try:
                ScenarioSpec.validate(payload["spec"])
            except ScenarioValidationError:
                if log:
                    log(f"[corpus] {name}: rejected as expected")
                continue
            failures.append(
                f"{name}: validate() accepted a payload the corpus "
                "expects to be rejected"
            )
            continue
        try:
            spec = ScenarioSpec.validate(payload["spec"])
        except ScenarioValidationError as exc:
            failures.append(f"{name}: spec no longer validates: {exc}")
            continue
        if expect == "goodput_starved":
            try:
                run_scenario(spec)
            except GoodputStarved:
                if log:
                    log(f"[corpus] {name}: starved as expected")
                continue
            except Exception as exc:  # noqa: BLE001
                failures.append(
                    f"{name}: expected GoodputStarved, got "
                    f"{type(exc).__name__}: {exc}"
                )
                continue
            failures.append(
                f"{name}: ran to completion but the corpus expects "
                "goodput starvation"
            )
            continue
        verdict = check_scenario(spec, check_jobs=check_jobs)
        if verdict is not None:
            failures.append(f"{name}: {verdict[0]} failed: {verdict[1]}")
        elif log:
            log(f"[corpus] {name}: all oracles green")
    if not paths and log:
        log(f"[corpus] no reproducers under {directory}")
    return failures


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class FuzzFailure:
    """One oracle violation, before and after shrinking."""

    iteration: int
    oracle: str
    error: str
    spec: ScenarioSpec
    minimized: Optional[ScenarioSpec] = None
    reproducer_path: Optional[str] = None

    def as_dict(self) -> Dict[str, Any]:
        return {
            "iteration": self.iteration,
            "oracle": self.oracle,
            "error": self.error,
            "fingerprint": self.spec.fingerprint(),
            "minimized_fingerprint": (
                self.minimized.fingerprint() if self.minimized else None
            ),
            "minimized_spec": (
                self.minimized.to_json_dict() if self.minimized else None
            ),
            "reproducer_path": self.reproducer_path,
        }


@dataclasses.dataclass
class FuzzReport:
    """One fuzzing campaign's deterministic summary."""

    seed: int
    iterations: int
    fingerprints: List[str] = dataclasses.field(default_factory=list)
    failures: List[FuzzFailure] = dataclasses.field(default_factory=list)
    jobs_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_dict(self) -> Dict[str, Any]:
        return {
            "fuzzer": "scenario-walk",
            "seed": self.seed,
            "iterations": self.iterations,
            "oracles": list(ORACLES),
            "jobs_checked": self.jobs_checked,
            "fingerprints": self.fingerprints,
            "failures": [failure.as_dict() for failure in self.failures],
        }


def run_fuzz(
    seed: int = 0,
    iterations: int = 50,
    *,
    check_jobs_every: int = 10,
    shrink: bool = True,
    corpus_dir: Optional[str] = None,
    trace_files: Sequence[str] = DEFAULT_TRACE_FILES,
    cache_dir: Optional[str] = None,
    log: Optional[Callable[[str], None]] = None,
) -> FuzzReport:
    """One fuzzing campaign: walk, execute, judge, shrink, record.

    Deterministic end to end: the report's ``fingerprints`` list is a
    pure function of ``seed`` and ``iterations`` (the determinism test
    pins two independent campaigns against each other).
    ``check_jobs_every=N`` runs the ParallelRunner invariance oracle on
    every Nth scenario (0 disables it); ``corpus_dir`` is where
    minimized reproducers land.
    """
    walker = ScenarioWalker(seed=seed, trace_files=trace_files)
    report = FuzzReport(seed=seed, iterations=iterations)
    for iteration in range(1, iterations + 1):
        spec = walker.next_spec()
        report.fingerprints.append(spec.fingerprint())
        check_jobs = bool(check_jobs_every) and iteration % check_jobs_every == 0
        if check_jobs:
            report.jobs_checked += 1
        verdict = check_scenario(
            spec, check_jobs=check_jobs, cache_dir=cache_dir
        )
        if verdict is None:
            if log and (iteration % 10 == 0 or iteration == iterations):
                log(f"[fuzz] {iteration}/{iterations} scenarios clean")
            continue
        oracle, error = verdict
        failure = FuzzFailure(
            iteration=iteration, oracle=oracle, error=error, spec=spec
        )
        if log:
            log(f"[fuzz] iteration {iteration}: {oracle} FAILED: {error}")
        if shrink:
            failure.minimized = shrink_scenario(
                spec, oracle, check_jobs=check_jobs, cache_dir=cache_dir,
                log=log,
            )
        if corpus_dir is not None:
            failure.reproducer_path = write_reproducer(
                corpus_dir,
                failure.minimized or spec,
                oracle,
                error,
                seed=seed,
                iteration=iteration,
            )
            if log:
                log(f"[fuzz] reproducer written: {failure.reproducer_path}")
        report.failures.append(failure)
    return report
