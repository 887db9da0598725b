"""The feedback controller that finds the lowest feasible MPL (§4.3).

The controller alternates *observation* and *reaction* phases against a
live system:

* An observation phase collects completed transactions until the
  window both (a) contains enough samples for stable estimates (the
  paper sizes this via confidence intervals, landing at ≈ 100
  transactions) and (b) exhibits representative load — windows with
  unusually few arrivals are extended rather than acted on.
* The reaction phase compares windowed throughput and mean response
  time against the no-MPL baseline: if either penalty exceeds the
  DBA's threshold the MPL steps up; if the MPL is feasible the
  controller probes one step down, and it declares convergence once
  it sits at a feasible MPL whose immediate predecessor is known
  infeasible.

Adjustments are deliberately small and constant (±1): the queueing
models give the loop a close-to-optimal starting value, so it
converges in a handful of iterations anyway — the paper reports < 10,
and ``benchmarks/test_bench_controller.py`` measures ours.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from repro.core.system import SimulatedSystem
from repro.metrics import stats


@dataclasses.dataclass(frozen=True)
class Thresholds:
    """The DBA's tolerances (e.g. "not more than 5% throughput loss")."""

    max_throughput_loss: float = 0.05
    max_response_time_increase: float = 0.30

    def __post_init__(self) -> None:
        if not 0.0 <= self.max_throughput_loss < 1.0:
            raise ValueError(
                f"max_throughput_loss must be in [0, 1), got {self.max_throughput_loss!r}"
            )
        if self.max_response_time_increase < 0.0:
            raise ValueError(
                "max_response_time_increase must be non-negative, got "
                f"{self.max_response_time_increase!r}"
            )


@dataclasses.dataclass(frozen=True)
class Observation:
    """One observation window's measurements."""

    mpl: int
    completed: int
    throughput: float
    mean_response_time: float
    throughput_loss: float
    response_time_increase: float
    feasible: bool


@dataclasses.dataclass(frozen=True)
class ControllerReport:
    """Outcome of a tuning session."""

    final_mpl: int
    iterations: int
    converged: bool
    trajectory: List[Observation]


@dataclasses.dataclass(frozen=True)
class Baseline:
    """No-MPL reference performance the penalties are measured against."""

    throughput: float
    mean_response_time: float

    def __post_init__(self) -> None:
        if self.throughput <= 0:
            raise ValueError(f"baseline throughput must be positive, got {self.throughput!r}")


def check_search_knobs(
    *,
    window: int,
    step: int,
    initial_mpl: Optional[int] = None,
    max_mpl: Optional[int] = None,
    max_iterations: Optional[int] = None,
    target_p95_s: Optional[float] = None,
    floor: int = 1,
) -> None:
    """The one argument rule every MPL search loop and control spec uses.

    ``None`` skips a knob the caller does not have (e.g. a jump-started
    ``initial_mpl``); ``floor`` is the lowest MPL the lever can take —
    1 for an engine, one slot per shard for a cluster.
    """
    if target_p95_s is not None and target_p95_s <= 0:
        raise ValueError(f"HIGH p95 target must be positive, got {target_p95_s!r}")
    if initial_mpl is not None and initial_mpl < floor:
        scope = "" if floor == 1 else f" (one slot for each of {floor} shards)"
        raise ValueError(f"initial_mpl must be >= {floor}{scope}, got {initial_mpl!r}")
    if max_mpl is not None and initial_mpl is not None and max_mpl < initial_mpl:
        raise ValueError(
            f"max_mpl {max_mpl!r} must be >= initial_mpl {initial_mpl!r}"
        )
    if window < 2:
        raise ValueError(f"window must be >= 2, got {window!r}")
    if step < 1:
        raise ValueError(f"step must be >= 1, got {step!r}")
    if max_iterations is not None and max_iterations < 1:
        raise ValueError(f"max_iterations must be >= 1, got {max_iterations!r}")


class MplController:
    """Feedback loop adjusting a live system's MPL.

    Parameters
    ----------
    system:
        The running :class:`~repro.core.system.SimulatedSystem`.
    baseline:
        No-MPL reference throughput / response time.
    thresholds:
        Acceptable penalties.
    initial_mpl:
        Starting MPL — ideally the queueing models' prediction (see
        :class:`~repro.core.tuner.MplTuner`); a poor start still
        converges, just more slowly.
    window:
        Minimum completed transactions per observation (paper: ≈ 100).
    step:
        Constant reaction-step size.
    """

    #: Window relative-CI above which the window keeps being extended.
    MAX_RELATIVE_CI = 0.3
    #: Upper bound on window extensions (heavy-tailed workloads need
    #: several hundred samples for a stable mean; see §4.3's
    #: confidence-interval sizing).
    MAX_EXTENSIONS = 8
    #: Windows whose arrival count falls below this fraction of the
    #: running mean are considered unrepresentative and extended.
    MIN_LOAD_FRACTION = 0.5

    def __init__(
        self,
        system: SimulatedSystem,
        baseline: Baseline,
        thresholds: Thresholds,
        initial_mpl: int,
        window: int = 100,
        step: int = 1,
        max_iterations: int = 40,
        adaptive: bool = True,
        max_mpl: int = 512,
        check_response_time: bool = True,
    ):
        check_search_knobs(
            initial_mpl=initial_mpl, max_mpl=max_mpl, window=window,
            step=step, max_iterations=max_iterations,
        )
        self.system = system
        self.baseline = baseline
        self.thresholds = thresholds
        self.initial_mpl = initial_mpl
        self.window = window
        self.step = step
        self.max_iterations = max_iterations
        self.adaptive = adaptive
        self.max_mpl = max_mpl
        # In a closed system the mean response time is tied to
        # throughput by Little's law (N = X * R with N fixed), so the
        # throughput check subsumes the RT check; the tuner disables
        # the direct RT comparison there because finite-run RT
        # estimates of the MPL'd and unlimited systems carry different
        # transient biases.
        self.check_response_time = check_response_time
        self._window_arrivals: List[int] = []

    # -- observation -----------------------------------------------------------

    def _observe(self, mpl: int) -> Observation:
        """Collect one representative, statistically stable window."""
        records = self.system.run_transactions(self.window)
        response_times = [r.response_time for r in records]
        # Extend while the estimate is too noisy (the paper's
        # confidence-interval sizing) or the window's load was
        # unrepresentative.
        extensions = 0
        while (
            extensions < self.MAX_EXTENSIONS
            and self._needs_extension(records, response_times)
        ):
            extensions += 1
            records = records + self.system.run_transactions(self.window)
            response_times = [r.response_time for r in records]
        elapsed = records[-1].completion_time - records[0].completion_time
        throughput = (len(records) - 1) / elapsed if elapsed > 0 else 0.0
        mean_rt = stats.mean(response_times)
        loss = max(0.0, 1.0 - throughput / self.baseline.throughput)
        rt_ref = self.baseline.mean_response_time
        increase = max(0.0, mean_rt / rt_ref - 1.0) if rt_ref > 0 else 0.0
        # Feasibility is a statistical comparison: only declare a
        # penalty too large when it exceeds the threshold by more than
        # the window's own estimation uncertainty, otherwise noisy
        # windows on heavy-tailed workloads send the loop on runaway
        # up-walks.
        gaps = [
            b.completion_time - a.completion_time
            for a, b in zip(records, records[1:])
        ]
        throughput_noise = min(0.25, stats.relative_half_width(gaps))
        rt_noise = min(0.5, stats.relative_half_width(response_times))
        feasible = loss <= self.thresholds.max_throughput_loss + throughput_noise
        if self.check_response_time:
            feasible = feasible and (
                increase
                <= self.thresholds.max_response_time_increase + rt_noise
            )
        return Observation(
            mpl=mpl,
            completed=len(records),
            throughput=throughput,
            mean_response_time=mean_rt,
            throughput_loss=loss,
            response_time_increase=increase,
            feasible=feasible,
        )

    #: Relative CI required of the throughput estimate (via the mean
    #: inter-completion gap); throughput is the feasibility-deciding
    #: metric, so it gets the tighter bound.
    MAX_THROUGHPUT_CI = 0.08

    def _needs_extension(self, records, response_times) -> bool:
        if stats.relative_half_width(response_times) > self.MAX_RELATIVE_CI:
            return True
        gaps = [
            b.completion_time - a.completion_time
            for a, b in zip(records, records[1:])
        ]
        if stats.relative_half_width(gaps) > self.MAX_THROUGHPUT_CI:
            return True
        arrivals = self.system.collector.arrivals
        self._window_arrivals.append(arrivals)
        if len(self._window_arrivals) >= 3:
            window_growth = arrivals - self._window_arrivals[-2]
            past = [
                b - a
                for a, b in zip(self._window_arrivals, self._window_arrivals[1:])
            ]
            typical = stats.mean(past)
            if typical > 0 and window_growth < self.MIN_LOAD_FRACTION * typical:
                return True
        return False

    # -- the control loop -------------------------------------------------------

    def tune(self) -> ControllerReport:
        """Run observation/reaction iterations until convergence.

        Convergence: the controller sits at a feasible MPL whose
        immediate predecessor is known infeasible (the lowest feasible
        value), or the iteration budget runs out.

        In ``adaptive`` mode (the default) the downward probe doubles
        its step while observations stay feasible and then refines the
        bracket by bisection — a small extension of the paper's
        constant-step loop that keeps convergence under ~10 iterations
        even when the worst-case queueing model starts far above the
        real optimum.  ``adaptive=False`` reproduces the paper's
        constant ±step loop exactly (the ablation benchmark compares
        the two).
        """
        mpl = self.initial_mpl
        trajectory: List[Observation] = []
        lowest_feasible: Optional[int] = None
        highest_infeasible = 0
        step = self.step
        iteration = 0
        while iteration < self.max_iterations:
            iteration += 1
            self.system.frontend.set_mpl(mpl)
            observation = self._observe(mpl)
            trajectory.append(observation)
            if observation.feasible:
                if lowest_feasible is None or mpl < lowest_feasible:
                    lowest_feasible = mpl
                if mpl - 1 <= highest_infeasible:
                    return ControllerReport(
                        final_mpl=mpl, iterations=iteration,
                        converged=True, trajectory=trajectory,
                    )
                if self.adaptive:
                    next_mpl = max(highest_infeasible + 1, mpl - step)
                    step *= 2
                else:
                    next_mpl = mpl - self.step
                mpl = max(1, next_mpl)
            else:
                if mpl > highest_infeasible:
                    highest_infeasible = mpl
                if lowest_feasible is not None and lowest_feasible - 1 <= mpl:
                    self.system.frontend.set_mpl(lowest_feasible)
                    return ControllerReport(
                        final_mpl=lowest_feasible, iterations=iteration,
                        converged=True, trajectory=trajectory,
                    )
                if self.adaptive and lowest_feasible is not None:
                    # bisect the (infeasible, feasible) bracket
                    mpl = (mpl + lowest_feasible) // 2
                    step = self.step
                else:
                    if mpl >= self.max_mpl:
                        # even the cap is infeasible: accept it (the
                        # thresholds are unattainable on this system)
                        self.system.frontend.set_mpl(self.max_mpl)
                        return ControllerReport(
                            final_mpl=self.max_mpl, iterations=iteration,
                            converged=False, trajectory=trajectory,
                        )
                    if self.adaptive:
                        next_mpl = mpl + step
                        step *= 2
                    else:
                        next_mpl = mpl + self.step
                    mpl = min(next_mpl, self.max_mpl)
        final = lowest_feasible if lowest_feasible is not None else mpl
        self.system.frontend.set_mpl(final)
        return ControllerReport(
            final_mpl=final,
            iterations=iteration,
            converged=False,
            trajectory=trajectory,
        )


# -- per-class SLO control -----------------------------------------------------


@dataclasses.dataclass(frozen=True)
class SloObservation:
    """One observation window of the per-class SLO loop."""

    mpl: int
    completed: int
    high_count: int
    high_p95: float
    low_throughput: float
    feasible: bool


@dataclasses.dataclass(frozen=True)
class SloReport:
    """Outcome of a per-class SLO tuning session."""

    final_mpl: int
    iterations: int
    converged: bool
    trajectory: List[SloObservation]


class PerClassSloController:
    """Hold HIGH's p95 under a target while maximizing LOW throughput.

    The dual of :class:`MplController`: there the MPL steps *up* until
    throughput/response penalties vanish (lowest feasible MPL); here
    the DBA's constraint is a latency SLO on the HIGH class, and the
    MPL is the lever — a lower MPL means fewer transactions competing
    inside the DBMS, so prioritized HIGH work finishes faster, at the
    cost of LOW throughput.  The loop therefore searches for the
    *highest* MPL whose windowed HIGH p95 still meets the target:
    feasible windows probe upward (reclaiming LOW throughput),
    infeasible ones step down, and — like the paper's loop — the
    bracket is refined geometrically and declared converged once the
    controller sits at a feasible MPL whose immediate successor is
    known infeasible.

    Requires a running system whose workload carries HIGH-priority
    transactions (e.g. ``high_priority_fraction > 0`` with the
    ``priority`` external queue policy).  The search is scope-agnostic:
    :class:`ClusterSloController` reuses it over a cluster's global MPL
    by overriding only the lever (``_apply``), its floor
    (``_floor``) and the report types (``_observation`` / ``_report``).
    """

    #: Windows are extended until they contain at least this many
    #: HIGH-class completions — a p95 over fewer samples is noise.
    MIN_HIGH_SAMPLES = 20
    #: Upper bound on window extensions per observation.
    MAX_EXTENSIONS = 6

    def __init__(
        self,
        system: SimulatedSystem,
        target_p95_s: float,
        initial_mpl: int,
        window: int = 150,
        step: int = 1,
        max_mpl: int = 128,
        max_iterations: int = 30,
    ):
        self.floor = self._floor(system)
        check_search_knobs(
            target_p95_s=target_p95_s, initial_mpl=initial_mpl,
            max_mpl=max_mpl, window=window, step=step,
            max_iterations=max_iterations, floor=self.floor,
        )
        self.system = system
        self.target_p95_s = target_p95_s
        self.initial_mpl = initial_mpl
        self.window = window
        self.step = step
        self.max_mpl = max_mpl
        self.max_iterations = max_iterations

    # -- the lever (what a scope overrides) -----------------------------------

    @staticmethod
    def _floor(system) -> int:
        """The lowest MPL the lever can take."""
        return 1

    def _apply(self, mpl: int) -> None:
        self.system.frontend.set_mpl(mpl)

    def _observation(self, **fields) -> SloObservation:
        return SloObservation(**fields)

    def _report(self, **fields) -> SloReport:
        return SloReport(**fields)

    # -- the search -------------------------------------------------------------

    def _observe(self, mpl: int):
        from repro.dbms.transaction import Priority

        records = self.system.run_transactions(self.window)
        extensions = 0
        while (
            extensions < self.MAX_EXTENSIONS
            and sum(1 for r in records if r.priority == Priority.HIGH)
            < self.MIN_HIGH_SAMPLES
        ):
            extensions += 1
            records = records + self.system.run_transactions(self.window)
        high = [r.response_time for r in records if r.priority == Priority.HIGH]
        low_count = len(records) - len(high)
        elapsed = records[-1].completion_time - records[0].completion_time
        low_throughput = low_count / elapsed if elapsed > 0 else 0.0
        p95 = stats.percentile(high, 95.0)
        return self._observation(
            mpl=mpl,
            completed=len(records),
            high_count=len(high),
            high_p95=p95,
            low_throughput=low_throughput,
            feasible=bool(high) and p95 <= self.target_p95_s,
        )

    def tune(self):
        """Run observation/reaction iterations until convergence.

        Convergence: the controller sits at a feasible MPL whose
        immediate successor is known infeasible (the highest feasible
        value), or the feasible region reaches ``max_mpl``, or the
        iteration budget runs out.  If even the floor misses the
        target, the target is unattainable and the loop holds the
        floor.
        """
        mpl = self.initial_mpl
        floor = self.floor
        trajectory = []
        highest_feasible: Optional[int] = None
        lowest_infeasible: Optional[int] = None
        step = self.step
        iteration = 0
        while iteration < self.max_iterations:
            iteration += 1
            self._apply(mpl)
            observation = self._observe(mpl)
            trajectory.append(observation)
            if observation.feasible:
                if highest_feasible is None or mpl > highest_feasible:
                    highest_feasible = mpl
                if mpl >= self.max_mpl or (
                    lowest_infeasible is not None and mpl + 1 >= lowest_infeasible
                ):
                    return self._report(
                        final_mpl=mpl, iterations=iteration,
                        converged=True, trajectory=trajectory,
                    )
                if lowest_infeasible is None:
                    next_mpl = min(self.max_mpl, mpl + step)
                    step *= 2
                else:
                    next_mpl = (mpl + lowest_infeasible) // 2
                    step = self.step
                mpl = next_mpl
            else:
                if lowest_infeasible is None or mpl < lowest_infeasible:
                    lowest_infeasible = mpl
                if highest_feasible is not None and mpl - 1 <= highest_feasible:
                    self._apply(highest_feasible)
                    return self._report(
                        final_mpl=highest_feasible, iterations=iteration,
                        converged=True, trajectory=trajectory,
                    )
                if mpl <= floor:
                    self._apply(floor)
                    return self._report(
                        final_mpl=floor, iterations=iteration,
                        converged=False, trajectory=trajectory,
                    )
                if highest_feasible is None:
                    next_mpl = max(floor, mpl - step)
                    step *= 2
                else:
                    next_mpl = (mpl + highest_feasible) // 2
                    step = self.step
                mpl = next_mpl
        final = highest_feasible if highest_feasible is not None else floor
        self._apply(final)
        return self._report(
            final_mpl=final,
            iterations=iteration,
            converged=False,
            trajectory=trajectory,
        )


# -- elastic capacity control (clusters) --------------------------------------

#: Split weight for dead/parked shards in a global-MPL re-split: small
#: enough that the largest-remainder split leaves them the minimum of
#: 1, without dividing by zero.  Both cluster controllers use it.
PARKED_WEIGHT = 1e-9


@dataclasses.dataclass(frozen=True)
class ElasticAction:
    """One decision the elastic controller took at a tick."""

    t: float
    kind: str  # "resplit" | "park" | "activate"
    mpls: tuple
    detail: str = ""


@dataclasses.dataclass
class ElasticReport:
    """The elastic controller's decision log for one run.

    Mutable on purpose: the controller appends actions while the
    measurement window runs, and the caller reads the report after.
    """

    interval_s: float
    global_mpl: int
    actions: List[ElasticAction] = dataclasses.field(default_factory=list)
    final_mpls: tuple = ()

    @property
    def resplits(self) -> int:
        return sum(1 for action in self.actions if action.kind == "resplit")


class ElasticCapacityController:
    """Re-splits a cluster's global MPL toward hot shards, on the clock.

    A simulated-time process ticks every ``interval_s``: it measures
    each routable shard's load (admitted + queued), re-splits the
    global MPL proportionally to load via
    :meth:`~repro.core.cluster.ShardedExternalScheduler.set_global_mpl`
    (shards that are dead or parked get the floor of 1), and manages
    the rotation — parking the least-loaded shard when the cluster's
    admitted fraction falls below ``low_watermark`` and re-activating a
    parked shard when it climbs above ``high_watermark``.  Every input
    is deterministic simulation state, so elastic runs stay
    bit-identical for any ``--jobs N``.

    The loop ends after ``max_ticks`` so a run whose workload drains
    early still terminates (the kernel stops on its completion target
    regardless).
    """

    def __init__(
        self,
        system,
        global_mpl: int,
        interval_s: float = 2.0,
        high_watermark: float = 0.85,
        low_watermark: float = 0.25,
        min_shards: int = 1,
        max_ticks: int = 1000,
    ):
        if global_mpl < len(system.shards):
            raise ValueError(
                f"global MPL {global_mpl} cannot cover "
                f"{len(system.shards)} shards (need >= 1 each)"
            )
        if interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {interval_s!r}")
        if not 0.0 <= low_watermark < high_watermark <= 1.0:
            # inverted watermarks would park on one tick and re-activate
            # on the next, forever
            raise ValueError(
                "watermarks must satisfy 0 <= low < high <= 1, got "
                f"low={low_watermark!r} high={high_watermark!r}"
            )
        if min_shards < 1:
            raise ValueError(f"min_shards must be >= 1, got {min_shards!r}")
        if max_ticks < 1:
            raise ValueError(f"max_ticks must be >= 1, got {max_ticks!r}")
        self.system = system
        self.global_mpl = global_mpl
        self.interval_s = interval_s
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark
        self.min_shards = min_shards
        self.max_ticks = max_ticks
        self.report = ElasticReport(interval_s=interval_s, global_mpl=global_mpl)
        self._last_mpls: Optional[tuple] = None

    def install(self) -> "ElasticCapacityController":
        """Arm the tick process; the initial even split applies now."""
        mpls = self.system.scheduler.set_global_mpl(self.global_mpl)
        self._last_mpls = tuple(mpls)
        self.report.final_mpls = tuple(mpls)
        self.system.sim.process(self._loop(), name="elastic")
        return self

    def _loop(self):
        sim = self.system.sim
        for _tick in range(self.max_ticks):
            yield sim.timeout(self.interval_s)
            self._rebalance()

    # -- one tick ----------------------------------------------------------

    def _active_indices(self) -> List[int]:
        router = self.system.router
        return [i for i in range(len(self.system.shards)) if router.routable(i)]

    def _rebalance(self) -> None:
        system = self.system
        active = self._active_indices()
        if not active:
            return
        loads = [
            shard.frontend.in_service + shard.frontend.queue_length
            for shard in system.shards
        ]
        admitted = sum(system.shards[i].frontend.in_service for i in active)
        utilization = admitted / max(1, self.global_mpl)
        self._manage_rotation(active, loads, utilization)
        active = self._active_indices()
        weights = [
            (1.0 + loads[i]) if i in set(active) else PARKED_WEIGHT
            for i in range(len(system.shards))
        ]
        mpls = tuple(
            system.scheduler.set_global_mpl(self.global_mpl, weights=weights)
        )
        self.report.final_mpls = mpls
        if mpls != self._last_mpls:
            self._last_mpls = mpls
            self.report.actions.append(
                ElasticAction(
                    t=system.sim.now,
                    kind="resplit",
                    mpls=mpls,
                    detail=f"loads={tuple(loads)}",
                )
            )

    def _manage_rotation(
        self, active: List[int], loads: List[int], utilization: float
    ) -> None:
        system = self.system
        router = system.router
        if utilization > self.high_watermark:
            # scale out: bring the lowest-index parked shard back
            for index in range(len(system.shards)):
                if router.alive[index] and not router.in_rotation[index]:
                    router.set_rotation(index, True)
                    self.report.actions.append(
                        ElasticAction(
                            t=system.sim.now, kind="activate", mpls=(),
                            detail=f"shard {index} back in rotation "
                                   f"(utilization {utilization:.2f})",
                        )
                    )
                    return
            return
        if utilization < self.low_watermark and len(active) > self.min_shards:
            # scale in: park the least-loaded active shard (ties to the
            # highest index, so shard 0 parks last) and let it drain
            index = min(reversed(active), key=lambda i: loads[i])
            router.set_rotation(index, False)
            self.report.actions.append(
                ElasticAction(
                    t=system.sim.now, kind="park", mpls=(),
                    detail=f"shard {index} parked "
                           f"(utilization {utilization:.2f})",
                )
            )

# -- cluster-wide SLO control (clusters) ---------------------------------------


@dataclasses.dataclass(frozen=True)
class ClusterSloObservation:
    """One observation window of the cluster-wide SLO loop."""

    mpl: int
    completed: int
    high_count: int
    high_p95: float
    low_throughput: float
    split: tuple
    feasible: bool


@dataclasses.dataclass(frozen=True)
class ClusterSloReport:
    """Outcome of a cluster-wide SLO tuning session."""

    final_mpl: int
    final_split: tuple
    iterations: int
    converged: bool
    trajectory: List[ClusterSloObservation]


class ClusterSloController(PerClassSloController):
    """Hold the *cluster-wide* HIGH p95 under a target while maximizing
    LOW throughput, driving the global MPL split as one lever.

    :class:`PerClassSloController`'s search over a cluster lever: the
    observation window is the cluster collector (every shard's
    completions), and the reaction re-splits the *global* MPL across
    shards via
    :meth:`~repro.core.cluster.ShardedExternalScheduler.set_global_mpl`
    with health-aware weights — each routable shard weighted by its
    current load (in-service + queued, so hot shards and cross-shard
    fan-in pull capacity), dead/parked shards floored at
    :data:`PARKED_WEIGHT`, and shards whose circuit breaker is not
    closed discounted.  The split is re-derived from live health at
    every reaction, so the same global MPL can land differently as
    shards heat up or trip their breakers.  The floor is one MPL slot
    per shard (``split_mpl`` needs that) — a 2PC branch parked at its
    prepare gate occupies a slot, so a cluster starved below
    one-per-shard would distributed-deadlock.
    """

    #: Weight multiplier for shards whose breaker is open/half-open.
    UNHEALTHY_DISCOUNT = 0.25
    #: The split the last ``_apply`` set, per shard.
    _last_split: tuple = ()

    @staticmethod
    def _floor(system) -> int:
        return len(system.shards)

    def _split_weights(self) -> List[float]:
        """Health-aware weights for the global-MPL split."""
        system = self.system
        router = system.router
        breakers = (
            system.resilience.breakers
            if getattr(system, "resilience", None) is not None
            else None
        )
        weights: List[float] = []
        for index, shard in enumerate(system.shards):
            if not router.routable(index):
                weights.append(PARKED_WEIGHT)
                continue
            weight = 1.0 + shard.frontend.in_service + shard.frontend.queue_length
            if breakers is not None and breakers[index].state != "closed":
                weight *= self.UNHEALTHY_DISCOUNT
            weights.append(weight)
        return weights

    def _apply(self, mpl: int) -> None:
        self._last_split = tuple(
            self.system.scheduler.set_global_mpl(
                mpl, weights=self._split_weights()
            )
        )

    def _observation(self, **fields) -> ClusterSloObservation:
        return ClusterSloObservation(split=self._last_split, **fields)

    def _report(self, **fields) -> ClusterSloReport:
        return ClusterSloReport(final_split=self._last_split, **fields)
