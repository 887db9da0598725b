"""The highest-feasible SLO search, at engine and at cluster scope.

One loop (:meth:`PerClassSloController.tune`) serves both scopes;
:class:`ClusterSloController` supplies only its lever (the health-aware
global-MPL split), its floor (one slot per shard) and its report.

* stub systems with scripted feasibility walk the loop through all four
  exits — converge at ``max_mpl``, converge on the bracket, give up at
  the floor, budget exhausted — at floor 1 and at floor = shard count;
* sha256 pins of the control-report JSON of the fast ``xs`` cluster-SLO
  cells and of two single-engine ``PerClassSlo`` scenarios (one that
  converges, one whose target is unattainable and holds the floor);
* ``ClusterSlo`` is a ``PerClassSlo`` over a cluster lever: same field
  rules, its own ``"type"`` tag and defaults, its own topology rule.
"""

import hashlib
import json
import types

import pytest

from repro.core.cluster import split_mpl
from repro.core.controller import (
    ClusterSloController,
    ClusterSloReport,
    PerClassSloController,
    SloReport,
)
from repro.core.scenario import (
    ClusterSlo,
    MeasurementSpec,
    PerClassSlo,
    ScenarioSpec,
    ScenarioValidationError,
    TopologySpec,
    WorkloadRef,
    _report_jsonable,
    execute_scenario,
)
from repro.dbms.transaction import Priority
from repro.experiments.figures import GRID_DEFS

# -- stub systems ----------------------------------------------------------------

#: Scripted windows: a feasible MPL's HIGH response times sit under the
#: target, an infeasible one's over it.
TARGET_S = 1.0


class _Frontend:
    def __init__(self):
        self.mpl = None
        self.in_service = 0
        self.queue_length = 0

    def set_mpl(self, mpl):
        self.mpl = mpl


class _StubEngine:
    """Just enough of a live system for the loop: a lever and windows."""

    def __init__(self, knee):
        self.knee = knee
        self.frontend = _Frontend()
        self.now = 0.0

    def current_mpl(self):
        return self.frontend.mpl

    def run_transactions(self, count):
        feasible = self.current_mpl() <= self.knee
        records = []
        for _ in range(count):
            self.now += 0.01
            records.append(types.SimpleNamespace(
                priority=Priority.HIGH,
                response_time=0.5 * TARGET_S if feasible else 2.0 * TARGET_S,
                completion_time=self.now,
            ))
        return records


class _Scheduler:
    def __init__(self, frontends):
        self.frontends = frontends

    def set_global_mpl(self, mpl, weights=None):
        mpls = split_mpl(mpl, len(self.frontends), weights)
        for frontend, shard_mpl in zip(self.frontends, mpls):
            frontend.set_mpl(shard_mpl)
        return mpls


class _StubCluster(_StubEngine):
    """A stub cluster: every shard routable, feasibility on the total."""

    def __init__(self, knee, shards):
        super().__init__(knee)
        self.shards = [
            types.SimpleNamespace(frontend=_Frontend()) for _ in range(shards)
        ]
        self.scheduler = _Scheduler([shard.frontend for shard in self.shards])
        self.router = types.SimpleNamespace(routable=lambda index: True)

    def current_mpl(self):
        return sum(shard.frontend.mpl for shard in self.shards)


def _engine_loop(knee, **knobs):
    system = _StubEngine(knee)
    controller = PerClassSloController(
        system, target_p95_s=TARGET_S, window=4, **knobs
    )
    return system, controller.tune()


def _cluster_loop(knee, shards=3, **knobs):
    system = _StubCluster(knee, shards)
    controller = ClusterSloController(
        system, target_p95_s=TARGET_S, window=4, step=2, **knobs
    )
    return system, controller.tune()


def _mpls(report):
    return [observation.mpl for observation in report.trajectory]


class TestEngineScopeExits:
    """Floor 1: the lever is ``frontend.set_mpl``."""

    def test_converges_at_max_mpl(self):
        system, report = _engine_loop(100, initial_mpl=4, max_mpl=16)
        assert isinstance(report, SloReport)
        assert (report.final_mpl, report.converged) == (16, True)
        assert _mpls(report) == [4, 5, 7, 11, 16]
        assert system.frontend.mpl == 16

    def test_converges_on_the_bracket(self):
        system, report = _engine_loop(10, initial_mpl=4, max_mpl=32)
        assert (report.final_mpl, report.converged) == (10, True)
        assert _mpls(report) == [4, 5, 7, 11, 9, 10]
        assert system.frontend.mpl == 10

    def test_converges_from_above_and_reapplies_the_feasible_mpl(self):
        system, report = _engine_loop(5, initial_mpl=8, max_mpl=32)
        assert (report.final_mpl, report.converged) == (5, True)
        assert _mpls(report) == [8, 7, 5, 6]
        assert system.frontend.mpl == 5

    def test_gives_up_at_the_floor(self):
        system, report = _engine_loop(0, initial_mpl=8, max_mpl=32)
        assert (report.final_mpl, report.converged) == (1, False)
        assert _mpls(report) == [8, 7, 5, 1]
        assert system.frontend.mpl == 1

    def test_budget_exhausted_keeps_the_highest_feasible(self):
        system, report = _engine_loop(
            100, initial_mpl=4, max_mpl=64, max_iterations=3
        )
        assert (report.final_mpl, report.iterations) == (7, 3)
        assert not report.converged
        assert system.frontend.mpl == 7

    def test_budget_exhausted_without_a_feasible_mpl_holds_the_floor(self):
        system, report = _engine_loop(
            0, initial_mpl=8, max_mpl=64, max_iterations=2
        )
        assert (report.final_mpl, report.iterations) == (1, 2)
        assert not report.converged
        assert system.frontend.mpl == 1


class TestClusterScopeExits:
    """Floor = shard count: the lever is the global-MPL split."""

    @staticmethod
    def _split_matches(system, report):
        split = tuple(shard.frontend.mpl for shard in system.shards)
        assert report.final_split == split
        assert sum(split) == report.final_mpl
        for observation in report.trajectory:
            assert sum(observation.split) == observation.mpl

    def test_converges_at_max_mpl(self):
        system, report = _cluster_loop(100, initial_mpl=6, max_mpl=30)
        assert isinstance(report, ClusterSloReport)
        assert (report.final_mpl, report.converged) == (30, True)
        assert _mpls(report) == [6, 8, 12, 20, 30]
        self._split_matches(system, report)

    def test_converges_on_the_bracket(self):
        system, report = _cluster_loop(14, initial_mpl=6, max_mpl=48)
        assert (report.final_mpl, report.converged) == (14, True)
        assert _mpls(report) == [6, 8, 12, 20, 16, 14, 15]
        self._split_matches(system, report)

    def test_gives_up_at_one_slot_per_shard(self):
        system, report = _cluster_loop(0, initial_mpl=12, max_mpl=48)
        assert (report.final_mpl, report.converged) == (3, False)
        assert _mpls(report) == [12, 10, 6, 3]
        assert report.final_split == (1, 1, 1)
        self._split_matches(system, report)

    def test_budget_exhausted_keeps_the_highest_feasible(self):
        system, report = _cluster_loop(
            100, initial_mpl=6, max_mpl=96, max_iterations=3
        )
        assert (report.final_mpl, report.iterations) == (12, 3)
        assert not report.converged
        self._split_matches(system, report)

    def test_budget_exhausted_without_a_feasible_mpl_holds_the_floor(self):
        system, report = _cluster_loop(
            0, initial_mpl=12, max_mpl=96, max_iterations=1
        )
        assert (report.final_mpl, report.iterations) == (3, 1)
        assert not report.converged
        self._split_matches(system, report)

    def test_initial_mpl_must_cover_every_shard(self):
        with pytest.raises(ValueError, match="initial_mpl must be >= 3"):
            ClusterSloController(
                _StubCluster(10, 3), target_p95_s=TARGET_S, initial_mpl=2
            )

    def test_bad_knobs_are_rejected_at_both_scopes(self):
        for bad in ({"window": 1}, {"step": 0}, {"max_iterations": 0},
                    {"max_mpl": 4}, {"target_p95_s": 0.0}):
            knobs = {"target_p95_s": TARGET_S, "initial_mpl": 6, **bad}
            with pytest.raises(ValueError):
                PerClassSloController(_StubEngine(10), **knobs)
            with pytest.raises(ValueError):
                ClusterSloController(_StubCluster(10, 3), **knobs)


# -- pinned control reports ------------------------------------------------------


def _report_digest(report):
    text = json.dumps(
        _report_jsonable(report), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: Control-report digests of the fast ``xs`` grid's ClusterSlo cells,
#: recorded before the two SLO loops were merged into one.
XS_SLO_REPORT_DIGESTS = {
    "xs-2x-slo-f0":
        "8599aeee37e86d6308198e07863b14fb71055fccce6048c404c2ba3e185c83bd",
    "xs-2x-slo-f0.2":
        "d6349bfbcb9410e7f03c389156ae4a25d5383348c45127e557e9a77c8c98d0a0",
    "xs-2x-slo-f0.5":
        "da6a72158131ec9d60667acbc2996db3c418ba921ab3067661ac67d020c8ddeb",
    "xs-4x-slo-f0":
        "3b5af1b832b64c0d4b7bed332f4469c31c59fc1ebac569d85e0ded85fd0693b5",
    "xs-4x-slo-f0.2":
        "b72fe5afdc0acc96bd729d9cca5eceb78d3dbf8bd77b3934332b40438abd5ed2",
    "xs-4x-slo-f0.5":
        "f23666aec283878bbf9b2cef0bba3f2f03815e7b6fd40a17c1352a41e1812c5e",
}


def _engine_slo_spec(target):
    return ScenarioSpec(
        workload=WorkloadRef(setup_id=1),
        control=PerClassSlo(
            high_p95_target_s=target, initial_mpl=4, window=100,
            max_mpl=32, max_iterations=12,
        ),
        measurement=MeasurementSpec(transactions=200),
        policy="priority",
        high_priority_fraction=0.2,
        seed=3,
    )


class TestPinnedReports:
    def test_xs_cluster_slo_cells(self):
        cells = [
            spec for spec in GRID_DEFS["xs"].build(True)
            if isinstance(spec.control, ClusterSlo)
        ]
        assert sorted(spec.tag for spec in cells) == sorted(XS_SLO_REPORT_DIGESTS)
        for spec in cells:
            report = execute_scenario(spec).control
            assert _report_digest(report) == XS_SLO_REPORT_DIGESTS[spec.tag], spec.tag

    def test_engine_slo_that_converges(self):
        report = execute_scenario(_engine_slo_spec(0.3)).control
        assert (report.final_mpl, report.iterations, report.converged) == (7, 6, True)
        assert _report_digest(report) == (
            "5e0459e19f4a55c5ec4d9d2ad759dc731fe270d778b325fc468f9956aea1c8f6"
        )

    def test_engine_slo_with_an_unattainable_target_holds_the_floor(self):
        report = execute_scenario(_engine_slo_spec(0.001)).control
        assert (report.final_mpl, report.iterations, report.converged) == (1, 3, False)
        assert _report_digest(report) == (
            "36116997a924b2d2f2a0b50fe15d8d30bd3aaeb5e8e6d3b1d8b5affbfeecc321"
        )


# -- the spec: ClusterSlo is a PerClassSlo over a cluster lever ------------------


class TestClusterSloSpec:
    def test_keeps_its_own_type_tag_and_defaults(self):
        spec = ClusterSlo()
        assert (spec.initial_mpl, spec.step, spec.max_mpl) == (16, 2, 256)
        payload = ScenarioSpec(
            topology=TopologySpec(shards=2), control=spec,
            high_priority_fraction=0.2,
        ).to_json_dict()["control"]
        assert payload == {
            "type": "cluster_slo", "high_p95_target_s": 0.5,
            "initial_mpl": 16, "window": 150, "step": 2, "max_mpl": 256,
            "max_iterations": 30,
        }
        assert ClusterSlo() != PerClassSlo(
            initial_mpl=16, step=2, max_mpl=256
        )

    def test_shares_the_field_rules(self):
        for bad in ({"window": 1}, {"step": 0}, {"max_iterations": 0},
                    {"high_p95_target_s": 0.0}, {"initial_mpl": 0},
                    {"initial_mpl": 300}):
            with pytest.raises(ValueError):
                ClusterSlo(**bad)
            with pytest.raises(ScenarioValidationError) as excinfo:
                ScenarioSpec.validate({
                    "topology": {"shards": 2},
                    "high_priority_fraction": 0.2,
                    "control": {"type": "cluster_slo", **bad},
                })
            assert [path for path, _ in excinfo.value.errors] == ["/control"]

    def test_scope_rules_stay_apart(self):
        # the single-engine rule must not catch the cluster subclass ...
        ScenarioSpec(
            topology=TopologySpec(shards=2), control=ClusterSlo(),
            high_priority_fraction=0.2,
        )
        with pytest.raises(ValueError, match="sharded topology"):
            ScenarioSpec(control=ClusterSlo(), high_priority_fraction=0.2)
        # ... and both scopes need HIGH traffic
        with pytest.raises(ValueError, match="ClusterSlo control needs HIGH"):
            ScenarioSpec(topology=TopologySpec(shards=2), control=ClusterSlo())
        with pytest.raises(ValueError, match="PerClassSlo control needs HIGH"):
            ScenarioSpec(control=PerClassSlo())
        with pytest.raises(ValueError, match="cannot cover 4 shards"):
            ScenarioSpec(
                topology=TopologySpec(shards=4),
                control=ClusterSlo(initial_mpl=3),
                high_priority_fraction=0.2,
            )
