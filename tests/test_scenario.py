"""The Scenario API: composition, fingerprints, execution, CLI.

The heart of the suite is compatibility: every pre-scenario run shape
used by the figure grids must keep its exact content digest (the
golden corpus pinned in ``tests/data/scenario_golden_fingerprints.json``),
so result caches warmed by older versions keep hitting, and an
all-default scenario must run bit-identically to a direct run.  On top of that:
the JSON codec round-trips, the trace arrival seam replays
deterministically, and the two controller-carrying control specs
(``FeedbackMpl``, ``PerClassSlo``) drive their loops from pure data.
"""

import dataclasses
import json
import os

import pytest

from repro.core.arrivals import (
    ClosedArrivals,
    ModulatedArrivals,
    OpenArrivals,
    PartlyOpenArrivals,
    PiecewiseRate,
    SinusoidRate,
    TraceArrivals,
    TraceReplay,
)
from repro.core.cluster import ClusterConfig, build_system
from repro.core.controller import (
    ControllerReport,
    ElasticReport,
    PerClassSloController,
    SloReport,
)
from repro.core.faults import (
    DegradeShard,
    FaultSpec,
    KillShard,
    RestoreShard,
)
from repro.core.scenario import (
    ElasticMpl,
    FeedbackMpl,
    MeasurementSpec,
    PerClassSlo,
    ScenarioSpec,
    ScenarioValidationError,
    StaticMpl,
    TopologySpec,
    WorkloadRef,
    component_fingerprint,
    demo_scenarios,
    execute_scenario,
)
from repro.core.system import SimulatedSystem, SystemConfig
from repro.dbms.config import InternalPolicy
from repro.dbms.transaction import Priority
from repro.experiments import figures
from repro.experiments.__main__ import main as cli_main
from repro.experiments.parallel import execute_spec
from repro.experiments.runner import scenario_for
from repro.workloads.setups import get_setup
from repro.workloads.traces import get_trace

GOLDEN = os.path.join(os.path.dirname(__file__), "data",
                      "scenario_golden_fingerprints.json")


class TestGoldenCorpus:
    """Every legacy grid shape keeps its pre-scenario cache key."""

    @pytest.fixture(scope="class")
    def corpus(self):
        with open(GOLDEN, encoding="utf-8") as handle:
            return json.load(handle)["corpus"]

    def test_grid_fingerprints_match_corpus(self, corpus):
        expected = {}
        for entry in corpus:
            expected.setdefault((entry["grid"], entry["fast"]), set()).add(
                entry["fingerprint"]
            )
        for (grid, fast), want in sorted(expected.items()):
            got = {s.fingerprint() for s in figures.FIGURE_GRIDS[grid](fast=fast)}
            assert got == want, f"grid {grid} fast={fast} digests drifted"

    def test_grids_are_scenarios(self):
        for key, builder in figures.FIGURE_GRIDS.items():
            assert all(isinstance(s, ScenarioSpec) for s in builder(fast=True)), key

    def test_legacy_runspec_shapes_round_trip(self, corpus):
        """Corpus rows expressible as plain setup runs rebuild + match."""
        checked = 0
        for entry in corpus:
            if entry["grid"] in ("po", "sh"):
                continue  # carry arrival specs not captured in the row
            spec = scenario_for(
                get_setup(entry["setup_id"]),
                mpl=entry["mpl"],
                transactions=entry["transactions"],
                seed=entry["seed"],
                policy=entry["policy"],
                high_priority_fraction=entry["high_priority_fraction"],
                arrival_rate=entry["arrival_rate"],
                warmup_fraction=entry["warmup_fraction"],
            )
            assert spec.fingerprint() == entry["fingerprint"]
            checked += 1
        assert checked > 100

    def test_json_round_trip_preserves_every_grid_fingerprint(self):
        for key, builder in figures.FIGURE_GRIDS.items():
            for spec in builder(fast=True):
                clone = ScenarioSpec.from_json_dict(
                    json.loads(json.dumps(spec.to_json_dict()))
                )
                assert clone == spec, key
                assert clone.fingerprint() == spec.fingerprint(), key


class TestLegacyAdapter:
    """Scenarios keep the pre-scenario run specs' keys and results."""

    LEGACY_PINS = {
        (1, 5, 300, 11, "fifo", 0.0, None):
            "47affd2ecb66d0aa7dffcdf436ed6259a0de0e2c618fac76ec253345849028d6",
        (3, None, 150, 7, "priority", 0.1, None):
            "c3b9eb7fc51d133c3fa37fda4d1d12175caa7b3ce6342e4567935a1f0ceb2bf1",
        (5, 2, 100, 5, "fifo", 0.0, 4.0):
            "184cdbf8ff63ec4ddbc2232944bbe681d8867188388469de33f6c048f0a13889",
    }

    def test_pinned_digests_via_scenario(self):
        for (sid, mpl, txns, seed, policy, high, rate), digest in (
            self.LEGACY_PINS.items()
        ):
            scenario = ScenarioSpec(
                workload=WorkloadRef(setup_id=sid),
                control=StaticMpl(mpl),
                measurement=MeasurementSpec(transactions=txns),
                policy=policy,
                high_priority_fraction=high,
                arrival_rate=rate,
                seed=seed,
            )
            assert scenario.fingerprint() == digest

    def test_all_default_scenario_equals_default_runspec(self):
        # the pre-scenario ``setup_id=1`` run spec's key, all defaults
        digest = "360205e58fed441f9d11ad31752d4372fb832046f778a02b0384d41a4fe71e03"
        assert ScenarioSpec().fingerprint() == digest
        assert scenario_for(get_setup(1)).fingerprint() == digest

    def test_default_scenario_result_is_bit_identical_to_direct_run(self):
        scenario = ScenarioSpec(
            control=StaticMpl(4), measurement=MeasurementSpec(transactions=150),
            seed=3,
        )
        outcome = execute_scenario(scenario)
        setup = get_setup(1)
        config = SystemConfig(
            workload=setup.workload, hardware=setup.hardware,
            isolation=setup.isolation, mpl=4, seed=3,
        )
        direct = SimulatedSystem(config).run(transactions=150)
        assert outcome.result == direct
        assert outcome.control is None
        assert execute_spec(scenario_for(
            get_setup(1), mpl=4, transactions=150, seed=3
        )) == direct

    def test_sharded_runspec_config_via_scenario(self):
        spec = scenario_for(get_setup(1), mpl=8, transactions=100, seed=3, shards=2)
        config = spec.build_config()
        assert isinstance(config, ClusterConfig)
        assert config.num_shards == 2
        assert config.global_mpl == 8

    def test_build_system_dispatches_on_scenario(self):
        system = build_system(ScenarioSpec(control=StaticMpl(2)))
        assert isinstance(system, SimulatedSystem)
        assert system.frontend.mpl == 2
        with pytest.raises(TypeError):
            build_system(42)

    #: Call shapes of the setup-run helpers (``run_setup``, the figure
    #: grids and probes) → their cache keys, recorded before the
    #: pre-scenario run spec was deleted.  The figure call sites are
    #: not in the golden corpus, so these pins are what keeps caches
    #: warmed by older versions hitting.
    CALL_SHAPES = {
        "static": dict(mpl=5),
        "no_mpl": dict(mpl=None),
        "open_rate": dict(mpl=5, arrival_rate=4.0),
        "internal_pow": dict(internal=InternalPolicy.pow_locks(),
                             high_priority_fraction=0.1),
        "internal_cpu": dict(internal=InternalPolicy.cpu_priorities(),
                             high_priority_fraction=0.1),
        "priority": dict(mpl=4, policy="priority", high_priority_fraction=0.1),
        "shards": dict(mpl=8, shards=2),
        "hash": dict(mpl=8, shards=2, routing="hash"),
        "weighted": dict(mpl=8, shards=3, routing="weighted",
                         routing_weights=(1.0, 2.0, 3.0)),
        "open_arrivals": dict(mpl=5, arrival=OpenArrivals(rate=6.0)),
    }
    CALL_SHAPE_PINS = {
        (1, "static"):
            "65f48ee1a25614ec86b7fe052a274c8b1a65f78e66b1eddd428dff3811f12e87",
        (1, "no_mpl"):
            "11f9b641f19b006927887f175ab4b794cb5e6d92ec21eb88ebbc42225087be57",
        (1, "open_rate"):
            "3622d8c7b5e3a87b37ecc8ec10a1bc8c99180b2efaa15f534ff5fa6744e81e6e",
        (1, "internal_pow"):
            "190fe7a0cb231ce0735dd37f7bbf5bd70b9898129e39e5d9eacbaf5fc9fddf4b",
        (1, "internal_cpu"):
            "76a2d9f5c5b080aa6bb502c13c877e1a16ccf2dde7fdc82fbf1812ff9c8d75b6",
        (1, "priority"):
            "8054151e9d039cbd6909e24c844ce9209ce75e03af18ea71b0bfef05c9b643a4",
        (1, "shards"):
            "845ad1d2464e4e2321bc23d0662ef0677fca6dde65c12ccb72c93c43de9f99b1",
        (1, "hash"):
            "bc4c26b5b0b8428cfcfbf41aff219eed4e9e3f489e0dd698c91e87bf829a70ba",
        (1, "weighted"):
            "43594ad7914a104bfe98fcea36abaa11d089572e35601583e20c92d6f3c5ead3",
        (1, "open_arrivals"):
            "941b98ec1cd4ae49ebb2c09caf1de3fd489b91259b14ee0e6053ca95c865ebfa",
        (5, "static"):
            "0d64bd05e9d9cad8ea3ce1d7095490e4e46f403401480f5740cfc0783001dbf2",
        (5, "no_mpl"):
            "17f6432f4e4a5a1799db5534431d9980e8a76e399451562a56d3f922fe11e0ef",
        (5, "open_rate"):
            "52ee60eee7775435d6680ff60ca1c1994be6c0942d3c0e1dc7cc5ab6c65229b8",
        (5, "internal_pow"):
            "05d27c2eaa1382434b6fbdfa5b75a2a1bedfcf7b0fdb5b4f59b2a64f4b06a540",
        (5, "internal_cpu"):
            "f4766c693727b3e308958178efdf44ab582421ac43bb1ff46e8ece69b943860b",
        (5, "priority"):
            "e6b5dc5fdb1664173ddf044514a273eeb5da8c919ecff4b4f146e31cef9ea70c",
        (5, "shards"):
            "4110695a1b0d1d8f6d98039959c2392e28bc91b673c2714fbbaea0eb1a1ec3fd",
        (5, "hash"):
            "3dad8501f999ba432b1929daa904fd7a12af272fd6cc4fff5adaedb19351ecc7",
        (5, "weighted"):
            "2d090d944cd42bd1a851945145f968b1cc245d80ec6d304ef49ee1bd5fc62ca3",
        (5, "open_arrivals"):
            "c283c031733349bf11c2f6de7f7de6bb2c8fb25ebc44fd3976c32bb689cd9d6d",
        (13, "static"):
            "f336cdd7854e723cc2b3c26dee052923833fbae54afee9245ffae5ea7c94a763",
        (13, "no_mpl"):
            "ad8f73b89afebc9686f5e40a46f257d89ea9192a9eea576eb59dfa8725f2c29c",
        (13, "open_rate"):
            "33bee26d23152961faa5b2f8b40b5918f37ee0d3e84256504ed8920753b9c6e8",
        (13, "internal_pow"):
            "0fa55776f27163de522ff3b71a4b0ccc665a1334399d308f9306f81784a0ba4e",
        (13, "internal_cpu"):
            "4cfbf297690c9d8d5c7c2ec426e80f6031c0d422daccddeba10f799e45f83b42",
        (13, "priority"):
            "a348ccca8f17e0afe07725fae78dcc734399cad9431e2dcf733f25321a266bda",
        (13, "shards"):
            "4fc554bbab41cd1e96e833ba198bf92ee620773d6ea83f83ebc9b475ea2375ba",
        (13, "hash"):
            "911baa7fae84643f844288303513d1a1121dded1d7a21875e3c2d130facd7966",
        (13, "weighted"):
            "5a63429a4903fddc44bd3d48e2ed26db0e69582da3ba5c95e8221184f07afb7d",
        (13, "open_arrivals"):
            "c2455eef51779243489dbff3513f1117f1f4ed24d709c9465e3081c2c4ba2fcf",
    }

    def test_setup_call_shapes_keep_their_keys(self):
        for (sid, shape), digest in self.CALL_SHAPE_PINS.items():
            spec = scenario_for(
                get_setup(sid), transactions=300, seed=7,
                **self.CALL_SHAPES[shape],
            )
            assert spec.fingerprint() == digest, (sid, shape)

    def test_tag_not_hashed(self):
        assert ScenarioSpec(tag="x").fingerprint() == ScenarioSpec().fingerprint()


class TestComposition:
    """The axes are orthogonal and individually fingerprinted."""

    def test_component_fingerprints_are_orthogonal(self):
        base = ScenarioSpec()
        variants = {
            "workload": dataclasses.replace(
                base, workload=WorkloadRef(setup_id=3)
            ),
            "arrival": dataclasses.replace(base, arrival=OpenArrivals(rate=5.0)),
            "topology": dataclasses.replace(
                base, topology=TopologySpec(shards=2)
            ),
            "control": dataclasses.replace(base, control=StaticMpl(7)),
            "measurement": dataclasses.replace(
                base, measurement=MeasurementSpec(transactions=99)
            ),
        }
        reference = base.component_fingerprints()
        for axis, variant in variants.items():
            fingerprints = variant.component_fingerprints()
            assert fingerprints[axis] != reference[axis], axis
            for other in reference:
                if other != axis:
                    assert fingerprints[other] == reference[other], (axis, other)
            assert variant.fingerprint() != base.fingerprint(), axis

    def test_component_fingerprint_of_none_arrival_is_stable(self):
        assert component_fingerprint(None) == component_fingerprint(None)

    def test_non_default_metrics_change_fingerprint(self):
        base = ScenarioSpec()
        extra = dataclasses.replace(
            base,
            measurement=MeasurementSpec(metrics=("standard", "percentiles")),
        )
        assert extra.fingerprint() != base.fingerprint()

    def test_control_spec_changes_fingerprint_beyond_config(self):
        static = ScenarioSpec(control=StaticMpl(8))
        feedback = ScenarioSpec(control=FeedbackMpl(initial_mpl=8))
        slo = ScenarioSpec(
            control=PerClassSlo(initial_mpl=8),
            policy="priority",
            high_priority_fraction=0.1,
        )
        digests = {static.fingerprint(), feedback.fingerprint(), slo.fingerprint()}
        assert len(digests) == 3

    def test_accessor_properties(self):
        scenario = ScenarioSpec(
            workload=WorkloadRef(setup_id=4),
            topology=TopologySpec(shards=2, routing="hash"),
            control=StaticMpl(6),
            measurement=MeasurementSpec(transactions=77, warmup_fraction=0.1),
        )
        assert scenario.setup_id == 4
        assert scenario.mpl == 6
        assert scenario.transactions == 77
        assert scenario.warmup_fraction == 0.1
        assert scenario.shards == 2
        assert scenario.routing == "hash"
        assert not scenario.is_open
        assert ScenarioSpec(arrival_rate=5.0).is_open
        assert ScenarioSpec(arrival=OpenArrivals(rate=2.0)).is_open
        assert not ScenarioSpec(arrival=ClosedArrivals()).is_open


class TestValidation:
    def test_workload_ref_needs_exactly_one_source(self):
        with pytest.raises(ValueError):
            WorkloadRef(setup_id=None, trace=None)
        with pytest.raises(ValueError):
            WorkloadRef(setup_id=1, trace="online-retailer")

    def test_topology_validation(self):
        with pytest.raises(ValueError):
            TopologySpec(shards=0)
        with pytest.raises(ValueError):
            TopologySpec(routing="nope")
        with pytest.raises(ValueError):
            TopologySpec(shards=2, routing_weights=(1.0,))
        with pytest.raises(ValueError):
            TopologySpec(shards=2, routing_weights=(1.0, 0.0))

    def test_measurement_validation(self):
        with pytest.raises(ValueError):
            MeasurementSpec(transactions=0)
        with pytest.raises(ValueError):
            MeasurementSpec(warmup_fraction=1.0)
        with pytest.raises(ValueError):
            MeasurementSpec(metrics=())
        with pytest.raises(ValueError):
            MeasurementSpec(metrics=("percentiles",))
        with pytest.raises(ValueError):
            MeasurementSpec(metrics=("standard", "nope"))

    def test_control_validation(self):
        with pytest.raises(ValueError):
            StaticMpl(0)
        with pytest.raises(ValueError):
            FeedbackMpl(max_throughput_loss=1.5)
        with pytest.raises(ValueError):
            FeedbackMpl(initial_mpl=0)
        with pytest.raises(ValueError):
            FeedbackMpl(baseline_transactions=1)
        with pytest.raises(ValueError):
            FeedbackMpl(baseline_throughput=50.0)  # missing its RT half
        with pytest.raises(ValueError):
            FeedbackMpl(baseline_throughput=0.0, baseline_response_time=0.1,
                        initial_mpl=2)
        with pytest.raises(ValueError):
            # explicit baseline carries no utilizations to jump-start from
            FeedbackMpl(baseline_throughput=50.0, baseline_response_time=0.1)
        # the loop's own knobs fail at construction, before the
        # baseline twin runs, and validate() reports them at /control
        for bad in ({"window": 1}, {"step": 0}):
            with pytest.raises(ValueError):
                FeedbackMpl(initial_mpl=4, **bad)
            with pytest.raises(ScenarioValidationError) as excinfo:
                ScenarioSpec.validate({"control": {"type": "feedback", **bad}})
            assert [path for path, _ in excinfo.value.errors] == ["/control"]

    def test_sharded_feedback_needs_explicit_initial_mpl(self):
        with pytest.raises(ValueError):
            ScenarioSpec(
                topology=TopologySpec(shards=2),
                control=FeedbackMpl(initial_mpl=None),
            )
        with pytest.raises(ValueError):
            PerClassSlo(high_p95_target_s=0.0)
        with pytest.raises(ValueError):
            PerClassSlo(initial_mpl=0)
        with pytest.raises(ValueError):
            PerClassSlo(initial_mpl=9, max_mpl=8)

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            ScenarioSpec(workload="setup 1")
        with pytest.raises(ValueError):
            ScenarioSpec(topology="1 shard")
        with pytest.raises(ValueError):
            ScenarioSpec(control="static")
        with pytest.raises(ValueError):
            ScenarioSpec(measurement="default")
        with pytest.raises(ValueError):
            ScenarioSpec(arrival=OpenArrivals(rate=1.0), arrival_rate=2.0)
        with pytest.raises(ValueError):
            ScenarioSpec(high_priority_fraction=1.5)

    def test_per_class_slo_needs_high_traffic_and_one_shard(self):
        with pytest.raises(ValueError):
            ScenarioSpec(control=PerClassSlo())
        with pytest.raises(ValueError):
            ScenarioSpec(
                control=PerClassSlo(),
                high_priority_fraction=0.1,
                topology=TopologySpec(shards=2),
            )

    def test_trace_arrivals_validation(self):
        with pytest.raises(ValueError):
            TraceArrivals("online-retailer", time_scale=0.0)
        with pytest.raises(ValueError):
            TraceArrivals("online-retailer", transactions=0)
        with pytest.raises(ValueError):
            TraceArrivals("no-such-trace")

    def test_trace_arrivals_reject_zero_span_loop(self, tmp_path):
        # a single-record (or all-equal-timestamp) trace has zero span:
        # loop=True would wrap with zero period and livelock the source.
        # Pre-fix this was only discovered by hanging the simulation.
        single = tmp_path / "single.csv"
        single.write_text("0.0,0.01\n")
        with pytest.raises(ValueError, match="span is zero"):
            TraceArrivals(f"file:{single}", loop=True)
        equal = tmp_path / "equal.csv"
        equal.write_text("0.0,0.01\n0.0,0.02\n0.0,0.03\n")
        with pytest.raises(ValueError, match="span is zero"):
            TraceArrivals(f"file:{equal}", loop=True)
        # without looping the same traces are fine (finite replay)
        assert TraceArrivals(f"file:{single}", loop=False).digest
        assert TraceArrivals(f"file:{equal}", loop=False).digest


class TestJsonCodec:
    ZOO = [
        ScenarioSpec(),
        ScenarioSpec(
            arrival=PartlyOpenArrivals(
                session_rate=5.0, mean_session_length=4.0, think_time_s=0.1
            ),
            topology=TopologySpec(
                shards=2, routing="weighted", routing_weights=(1.0, 3.0)
            ),
            control=StaticMpl(12),
            seed=3,
        ),
        ScenarioSpec(
            arrival=ModulatedArrivals(
                SinusoidRate(base=40.0, amplitude=10.0, period=15.0, phase=0.5)
            ),
            control=FeedbackMpl(initial_mpl=4, window=80),
        ),
        ScenarioSpec(
            arrival=ModulatedArrivals(
                PiecewiseRate(points=((0.0, 10.0), (4.0, 20.0)), period=8.0)
            ),
        ),
        ScenarioSpec(
            workload=WorkloadRef(
                setup_id=None, trace="auction-site", trace_transactions=500
            ),
            arrival=TraceArrivals(
                "auction-site", transactions=500, time_scale=2.0, loop=True
            ),
        ),
        ScenarioSpec(
            policy="priority",
            high_priority_fraction=0.1,
            internal=InternalPolicy.pow_locks(),
            control=PerClassSlo(high_p95_target_s=0.3),
        ),
        ScenarioSpec(
            internal=InternalPolicy.cpu_priorities(),
            arrival_rate=7.5,
            measurement=MeasurementSpec(
                transactions=250, warmup_fraction=0.1,
                metrics=("standard", "percentiles"),
            ),
            tag="zoo",
        ),
    ]

    @pytest.mark.parametrize("spec", ZOO, ids=range(len(ZOO)))
    def test_round_trip(self, spec):
        clone = ScenarioSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.fingerprint() == spec.fingerprint()

    def test_round_trip_is_canonical(self):
        spec = self.ZOO[1]
        once = spec.to_json(indent=2)
        twice = ScenarioSpec.from_json(once).to_json(indent=2)
        assert once == twice

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec.from_json_dict({"unknown_knob": 1})
        with pytest.raises(ValueError):
            ScenarioSpec.from_json_dict({"workload": {"setup": 1}})
        with pytest.raises(ValueError):
            ScenarioSpec.from_json_dict({"measurement": {"warmup": 0.1}})

    def test_bad_payload_shapes_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec.from_json_dict([1, 2])
        with pytest.raises(ValueError):
            ScenarioSpec.from_json_dict({"workload": "setup 1"})
        with pytest.raises(ValueError):
            ScenarioSpec.from_json_dict({"arrival": {"rate": 5.0}})
        with pytest.raises(ValueError):
            ScenarioSpec.from_json_dict({"arrival": {"type": "nope"}})
        with pytest.raises(ValueError):
            ScenarioSpec.from_json_dict({"control": {"type": "nope"}})
        with pytest.raises(ValueError):
            ScenarioSpec.from_json_dict(
                {"arrival": {"type": "modulated", "rate_function": {"base": 1}}}
            )
        with pytest.raises(ValueError):
            ScenarioSpec.from_json_dict(
                {"arrival": {"type": "modulated",
                             "rate_function": {"type": "nope"}}}
            )
        with pytest.raises(ValueError):
            ScenarioSpec.from_json_dict({"internal": "pow"})
        with pytest.raises(ValueError):
            ScenarioSpec.from_json_dict({"internal": {"locks": "pow"}})
        with pytest.raises(ValueError):
            ScenarioSpec.from_json_dict({"control": {"mpl": 5}})

    def test_unregistered_spec_cannot_encode(self):
        class Rogue(StaticMpl):
            pass

        with pytest.raises(ValueError):
            ScenarioSpec(control=Rogue(2)).to_json_dict()

    def test_control_base_class_is_abstract(self):
        from repro.core.scenario import ControlSpec

        with pytest.raises(NotImplementedError):
            ControlSpec().config_mpl()
        with pytest.raises(NotImplementedError):
            ControlSpec().apply(None, None)

    def test_internal_policy_round_trip(self):
        for policy in (InternalPolicy.pow_locks(), InternalPolicy.cpu_priorities()):
            spec = ScenarioSpec(internal=policy)
            assert ScenarioSpec.from_json(spec.to_json()).internal == policy


class TestTraceArrivals:
    def test_digest_is_stable_and_content_sensitive(self):
        a = TraceArrivals("online-retailer", transactions=300)
        b = TraceArrivals("online-retailer", transactions=300)
        assert a.digest and a.digest == b.digest
        assert TraceArrivals("online-retailer", transactions=301).digest != a.digest
        assert TraceArrivals("online-retailer", transactions=300, seed=1).digest != a.digest
        assert TraceArrivals("auction-site", transactions=300).digest != a.digest

    def test_digest_changes_scenario_fingerprint(self):
        def fingerprint(**kwargs):
            return ScenarioSpec(
                arrival=TraceArrivals("online-retailer", **kwargs)
            ).fingerprint()

        assert fingerprint(transactions=300) == fingerprint(transactions=300)
        assert fingerprint(transactions=300) != fingerprint(transactions=400)

    def test_replay_is_deterministic(self):
        spec = ScenarioSpec(
            workload=WorkloadRef(
                setup_id=None, trace="online-retailer", trace_transactions=600
            ),
            arrival=TraceArrivals("online-retailer", transactions=600),
            control=StaticMpl(8),
            measurement=MeasurementSpec(transactions=300),
        )
        assert execute_scenario(spec).result == execute_scenario(spec).result

    def test_replay_follows_trace_timestamps(self):
        trace = get_trace("online-retailer", 50)
        system = build_system(
            ScenarioSpec(
                arrival=TraceArrivals("online-retailer", transactions=50),
                control=StaticMpl(4),
            )
        )
        assert isinstance(system.source, TraceReplay)
        records = system.run_transactions(50)
        arrivals = sorted(r.arrival_time for r in records)
        expected = [r.arrival_time for r in trace.records]
        assert arrivals == pytest.approx(expected)

    def test_time_scale_stretches_arrivals(self):
        system = build_system(
            ScenarioSpec(
                arrival=TraceArrivals(
                    "online-retailer", transactions=50, time_scale=2.0
                ),
                control=StaticMpl(4),
            )
        )
        records = system.run_transactions(50)
        trace = get_trace("online-retailer", 50)
        assert min(r.arrival_time for r in records) == pytest.approx(
            2.0 * trace.records[0].arrival_time
        )

    def test_loop_wraps_past_trace_end(self):
        system = build_system(
            ScenarioSpec(
                arrival=TraceArrivals(
                    "online-retailer", transactions=40, loop=True
                ),
                control=StaticMpl(4),
            )
        )
        records = system.run_transactions(100)
        assert len(records) == 100
        assert system.source.replayed >= 100

    def test_demo_trace_scenarios_run(self):
        demos = demo_scenarios()
        for name in ("trace-retailer", "trace-auction"):
            outcome = execute_scenario(
                dataclasses.replace(
                    demos[name], measurement=MeasurementSpec(
                        transactions=200, metrics=("standard", "percentiles")
                    )
                )
            )
            assert outcome.result.completed > 0
            assert outcome.result.throughput > 0
            assert outcome.percentiles["all"]["p95"] > 0


class TestFeedbackScenario:
    def test_feedback_runs_from_spec_and_reports(self):
        spec = ScenarioSpec(
            control=FeedbackMpl(
                initial_mpl=None, window=80, baseline_transactions=400
            ),
            measurement=MeasurementSpec(transactions=200),
            seed=5,
        )
        outcome = execute_scenario(spec)
        assert isinstance(outcome.control, ControllerReport)
        assert outcome.control.final_mpl >= 1
        assert outcome.result.completed >= 160
        # the reported window excludes the control phase
        assert outcome.result.mpl == outcome.control.final_mpl

    def test_explicit_baseline_skips_the_twin_run(self):
        """A pre-measured baseline produces the same loop as a twin run."""
        twin = ScenarioSpec(control=StaticMpl(None),
                            measurement=MeasurementSpec(transactions=400),
                            seed=5)
        reference = execute_scenario(twin).result
        injected = ScenarioSpec(
            control=FeedbackMpl(
                initial_mpl=4, window=80,
                baseline_throughput=reference.throughput,
                baseline_response_time=reference.mean_response_time,
            ),
            measurement=MeasurementSpec(transactions=200),
            seed=5,
        )
        measured = ScenarioSpec(
            control=FeedbackMpl(
                initial_mpl=4, window=80, baseline_transactions=400,
            ),
            measurement=MeasurementSpec(transactions=200),
            seed=5,
        )
        assert (execute_scenario(injected).control
                == execute_scenario(measured).control)

    def test_open_arrival_spec_jump_starts_like_arrival_rate(self):
        """The §4.2 RT model applies however the open regime is spelled."""
        from repro.core.tuner import model_jump_start
        from repro.core.controller import Thresholds

        reference = execute_scenario(ScenarioSpec(
            arrival_rate=40.0, control=StaticMpl(None),
            measurement=MeasurementSpec(transactions=400), seed=5,
        )).result
        legacy_cfg = ScenarioSpec(arrival_rate=40.0).build_config()
        spec_cfg = ScenarioSpec(arrival=OpenArrivals(rate=40.0)).build_config()
        thresholds = Thresholds()
        assert model_jump_start(
            legacy_cfg, reference, thresholds
        ) == model_jump_start(spec_cfg, reference, thresholds, is_open=True)

    def test_feedback_on_cluster_tunes_each_shard(self):
        spec = ScenarioSpec(
            arrival=PartlyOpenArrivals.for_load(80.0, 4.0, think_time_s=0.1),
            topology=TopologySpec(shards=2, routing="least_in_flight"),
            control=FeedbackMpl(
                initial_mpl=2, window=60, baseline_transactions=300
            ),
            measurement=MeasurementSpec(transactions=200),
            seed=5,
        )
        outcome = execute_scenario(spec)
        assert len(outcome.control.shards) == 2
        assert all(r.final_mpl >= 1 for r in outcome.control.shards)
        payload = outcome.to_json_dict()
        assert payload["control"]["type"] == "shards"
        assert len(payload["control"]["shards"]) == 2


class TestPerClassSlo:
    """The new controller: SLO held, LOW throughput sacrificed knowingly."""

    @staticmethod
    def _scenario(target, seed=7, **kwargs):
        return ScenarioSpec(
            workload=WorkloadRef(setup_id=1),
            policy="priority",
            high_priority_fraction=0.1,
            control=PerClassSlo(
                high_p95_target_s=target, initial_mpl=6, window=120,
                max_mpl=32, max_iterations=15, **kwargs,
            ),
            measurement=MeasurementSpec(
                transactions=500, metrics=("standard", "percentiles")
            ),
            seed=seed,
        )

    def test_converges_under_time_varying_load(self):
        demo = demo_scenarios()["slo-tv"]
        outcome = execute_scenario(demo)
        report = outcome.control
        assert isinstance(report, SloReport)
        assert report.converged
        # the accepted operating point met the SLO when observed
        accepted = [o for o in report.trajectory
                    if o.feasible and o.mpl == report.final_mpl]
        assert accepted
        assert accepted[-1].high_p95 <= demo.control.high_p95_target_s

    def test_high_p95_held_under_target(self):
        scenario = self._scenario(0.5)
        outcome = execute_scenario(scenario)
        report = outcome.control
        assert report.converged
        final_obs = [o for o in report.trajectory if o.mpl == report.final_mpl]
        assert final_obs[-1].feasible
        assert final_obs[-1].high_p95 <= 0.5
        # measured post-control HIGH p95 stays in the target's band
        assert outcome.percentiles[str(int(Priority.HIGH))]["p95"] <= 2 * 0.5

    def test_monotone_low_throughput_sacrifice(self):
        """Tighter targets cost MPL, and below the knee, LOW throughput."""
        outcomes = [
            execute_scenario(self._scenario(target))
            for target in (0.5, 0.15, 0.06)
        ]
        finals = [o.control.final_mpl for o in outcomes]
        assert finals == sorted(finals, reverse=True)
        assert finals[0] > finals[-1]

        def low_throughput(outcome):
            low = outcome.result.count_by_class.get(int(Priority.LOW), 0)
            return outcome.result.throughput * low / outcome.result.completed

        loose, mid, tight = (low_throughput(o) for o in outcomes)
        # saturation hides the first step (both above the knee) ...
        assert mid <= loose * 1.10
        # ... but the sub-knee operating point pays visibly
        assert tight < 0.9 * loose

    def test_unattainable_target_holds_the_floor(self):
        outcome = execute_scenario(self._scenario(0.001))
        assert outcome.control.final_mpl == 1
        assert not outcome.control.converged

    def test_controller_validation(self):
        system = build_system(ScenarioSpec(control=StaticMpl(2)))
        with pytest.raises(ValueError):
            PerClassSloController(system, target_p95_s=0.0, initial_mpl=2)
        with pytest.raises(ValueError):
            PerClassSloController(system, target_p95_s=0.1, initial_mpl=0)
        with pytest.raises(ValueError):
            PerClassSloController(
                system, target_p95_s=0.1, initial_mpl=4, max_mpl=2
            )
        with pytest.raises(ValueError):
            PerClassSloController(
                system, target_p95_s=0.1, initial_mpl=2, window=1
            )
        with pytest.raises(ValueError):
            PerClassSloController(
                system, target_p95_s=0.1, initial_mpl=2, step=0
            )
        with pytest.raises(ValueError, match="max_iterations"):
            PerClassSloController(
                system, target_p95_s=0.1, initial_mpl=2, max_iterations=0
            )
        # the spec applies the controller's rule, so a bad knob never
        # reaches a run: max_iterations=0 used to pin the engine to
        # MPL 1 without a single observation
        for bad in ({"window": 1}, {"step": 0}, {"max_iterations": 0}):
            with pytest.raises(ValueError):
                PerClassSlo(**bad)
            with pytest.raises(ScenarioValidationError) as excinfo:
                ScenarioSpec.validate(
                    {"control": {"type": "per_class_slo", **bad}}
                )
            assert [path for path, _ in excinfo.value.errors] == ["/control"]


class TestScenarioCli:
    def _write(self, tmp_path, payload):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_show_normalizes_a_spec_file(self, tmp_path, capsys):
        path = self._write(tmp_path, {"control": {"type": "static", "mpl": 5}})
        assert cli_main(["scenario", "show", path]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["control"] == {"type": "static", "mpl": 5}
        assert shown["workload"]["setup_id"] == 1

    def test_fingerprint_matches_api(self, tmp_path, capsys):
        path = self._write(tmp_path, ScenarioSpec().to_json_dict())
        assert cli_main(["scenario", "fingerprint", path, "--components"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fingerprint"] == ScenarioSpec().fingerprint()
        assert payload["components"] == ScenarioSpec().component_fingerprints()

    def test_grid_show_then_fingerprint_round_trip(self, tmp_path, capsys):
        assert cli_main(["scenario", "show", "--grid", "smoke"]) == 0
        shown = capsys.readouterr().out
        path = tmp_path / "grid.json"
        path.write_text(shown)
        assert cli_main(["scenario", "fingerprint", str(path)]) == 0
        from_file = json.loads(capsys.readouterr().out)
        assert cli_main(["scenario", "fingerprint", "--grid", "smoke"]) == 0
        direct = json.loads(capsys.readouterr().out)
        assert from_file == direct

    def test_run_per_class_slo_from_json(self, tmp_path, capsys):
        spec = ScenarioSpec(
            policy="priority",
            high_priority_fraction=0.1,
            control=PerClassSlo(
                high_p95_target_s=0.5, initial_mpl=4, window=60,
                max_mpl=16, max_iterations=6,
            ),
            measurement=MeasurementSpec(
                transactions=150, metrics=("standard", "percentiles")
            ),
        )
        path = self._write(tmp_path, spec.to_json_dict())
        out_path = tmp_path / "outcome.json"
        assert cli_main(
            ["scenario", "run", path, "--output", str(out_path)]
        ) == 0
        outcome = json.loads(out_path.read_text())
        assert outcome["control"]["type"] == "per_class_slo"
        assert outcome["control"]["final_mpl"] >= 1
        assert outcome["result"]["throughput"] > 0
        assert outcome["fingerprint"] == spec.fingerprint()
        assert outcome["percentiles"]

    def test_run_demo_by_name(self, capsys):
        assert cli_main(["scenario", "run", "--demo", "trace-retailer"]) == 0
        outcome = json.loads(capsys.readouterr().out)
        assert outcome["result"]["completed"] > 0

    def test_list_demos(self, capsys):
        assert cli_main(["scenario", "--list-demos"]) == 0
        names = capsys.readouterr().out.split()
        assert "slo-tv" in names and "trace-retailer" in names
        assert cli_main(["scenario", "show", "--list-demos"]) == 0

    def test_missing_action_errors(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["scenario"])

    def test_input_source_errors(self, tmp_path, capsys):
        assert cli_main(["scenario", "show"]) == 2
        assert cli_main(["scenario", "show", "--grid", "nope"]) == 2
        assert cli_main(["scenario", "show", "--demo", "nope"]) == 2
        assert cli_main(["scenario", "show", str(tmp_path / "missing.json")]) == 2
        path = self._write(tmp_path, {"control": {"type": "static", "mpl": 5}})
        assert cli_main(["scenario", "show", path, "--grid", "smoke"]) == 2


class TestDemos:
    def test_every_demo_builds_and_fingerprints(self):
        demos = demo_scenarios()
        assert set(demos) == {
            "trace-retailer", "trace-auction", "slo-tv", "failover",
        }
        digests = {name: spec.fingerprint() for name, spec in demos.items()}
        assert len(set(digests.values())) == len(digests)
        for spec in demos.values():
            clone = ScenarioSpec.from_json(spec.to_json())
            assert clone.fingerprint() == spec.fingerprint()


class TestScenarioV2:
    """Replica groups, faults, elasticity, timelines — the v2 axes."""

    FAULTED = dict(
        topology=TopologySpec(shards=2, replicas_per_shard=1),
        faults=FaultSpec(events=(
            KillShard(at=0.5, shard=0),
            RestoreShard(at=1.5, shard=0),
        )),
    )

    def test_topology_v2_validation(self):
        with pytest.raises(ValueError):
            TopologySpec(replicas_per_shard=-1)
        with pytest.raises(ValueError):
            TopologySpec(read_fanout="nope")
        with pytest.raises(ValueError):
            TopologySpec(election_timeout_s=-0.1)
        with pytest.raises(ValueError):
            MeasurementSpec(timeline_bucket_s=0.0)

    def test_faults_need_a_clustered_topology(self):
        with pytest.raises(ValueError):
            ScenarioSpec(faults=FaultSpec(events=(KillShard(at=1.0, shard=0),)))
        with pytest.raises(ValueError):
            # event shard out of range for the topology
            ScenarioSpec(
                topology=TopologySpec(shards=2),
                faults=FaultSpec(events=(KillShard(at=1.0, shard=2),)),
            )
        with pytest.raises(ValueError):
            ScenarioSpec(faults="kill")
        # a replicated single shard IS clustered: faults are fine
        ScenarioSpec(
            topology=TopologySpec(shards=1, replicas_per_shard=1),
            faults=FaultSpec(events=(KillShard(at=1.0, shard=0),)),
        )

    def test_elastic_needs_a_cluster_and_enough_mpl(self):
        with pytest.raises(ValueError):
            ElasticMpl(mpl=0)
        with pytest.raises(ValueError):
            ElasticMpl(interval_s=0.0)
        with pytest.raises(ValueError):
            ElasticMpl(low_watermark=0.9, high_watermark=0.5)
        with pytest.raises(ValueError):
            ElasticMpl(min_shards=0)
        with pytest.raises(ValueError):
            ScenarioSpec(control=ElasticMpl(mpl=8))  # single engine
        with pytest.raises(ValueError):
            ScenarioSpec(
                topology=TopologySpec(shards=4),
                control=ElasticMpl(mpl=2),  # cannot cover 4 shards
            )
        with pytest.raises(ValueError):
            ElasticMpl(mpl=8).apply(
                SimulatedSystem(ScenarioSpec().build_config()), ScenarioSpec()
            )

    def test_v2_axes_round_trip_with_stable_fingerprints(self):
        spec = ScenarioSpec(
            arrival=OpenArrivals(rate=90.0),
            topology=TopologySpec(
                shards=2, routing="least_in_flight",
                replicas_per_shard=1, read_fanout="least_in_flight",
                election_timeout_s=0.25,
            ),
            control=ElasticMpl(
                mpl=12, interval_s=0.5, high_watermark=0.8,
                low_watermark=0.2, min_shards=1,
            ),
            faults=FaultSpec(events=(
                KillShard(at=0.5, shard=0),
                DegradeShard(at=1.0, shard=1, factor=0.5),
                RestoreShard(at=1.5, shard=0),
            )),
            measurement=MeasurementSpec(
                transactions=200,
                metrics=("standard", "percentiles", "timeline"),
                timeline_bucket_s=0.5,
            ),
        )
        clone = ScenarioSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.fingerprint() == spec.fingerprint()
        payload = spec.to_json_dict()
        assert payload["control"]["type"] == "elastic"
        assert payload["faults"]["events"][0]["type"] == "kill"
        # the fault axis is individually fingerprinted
        assert "faults" in spec.component_fingerprints()

    def test_default_v2_fields_do_not_change_legacy_digests(self):
        """Explicitly-default v2 knobs hash like they don't exist."""
        legacy = ScenarioSpec(topology=TopologySpec(shards=2))
        explicit = ScenarioSpec(topology=TopologySpec(
            shards=2, replicas_per_shard=0, read_fanout="round_robin",
            election_timeout_s=0.5,
        ))
        assert explicit.fingerprint() == legacy.fingerprint()
        assert (
            ScenarioSpec(measurement=MeasurementSpec(timeline_bucket_s=1.0))
            .fingerprint() == ScenarioSpec().fingerprint()
        )

    def test_validate_collects_every_problem_with_paths(self):
        payload = {
            "nope": 1,
            "topology": {"shards": 0},
            "control": {"type": "wat"},
            "faults": {"events": [{"type": "zap"}], "oops": 2},
            "measurement": {"transactions": -5},
        }
        with pytest.raises(ScenarioValidationError) as excinfo:
            ScenarioSpec.validate(payload)
        paths = [path for path, _message in excinfo.value.errors]
        assert "/nope" in paths
        assert "/topology" in paths
        assert "/control" in paths
        assert "/faults/oops" in paths
        assert "/faults/events/0" in paths
        assert "/measurement" in paths
        assert len(paths) >= 6
        # the message is one line per problem
        assert str(excinfo.value).count("\n") >= len(paths)

    def test_validate_reports_cross_field_problems_at_the_root(self):
        with pytest.raises(ScenarioValidationError) as excinfo:
            ScenarioSpec.validate({
                "faults": {"events": [
                    {"type": "kill", "at": 1.0, "shard": 0}
                ]},
            })
        assert any(path == "" for path, _message in excinfo.value.errors)
        with pytest.raises(ScenarioValidationError):
            ScenarioSpec.validate([1, 2])

    def test_validate_accepts_what_from_json_dict_accepts(self):
        for spec in (ScenarioSpec(), demo_scenarios()["failover"]):
            payload = spec.to_json_dict()
            assert ScenarioSpec.validate(payload) == spec

    def test_failover_demo_executes_with_timeline_and_fault_log(self):
        # the demo is sized so the restore (t=8s) fires mid-run
        demo = demo_scenarios()["failover"]
        outcome = execute_scenario(demo)
        assert outcome.result.completed >= 900  # 1200 minus warmup
        kinds = [fault["kind"] for fault in outcome.faults]
        assert kinds == ["kill", "restore"]
        assert outcome.faults[0]["at"] == pytest.approx(3.0)
        assert outcome.timeline
        assert {"t", "completions", "throughput", "mean_response_time",
                "p95_response_time"} <= set(outcome.timeline[0])
        payload = outcome.to_json_dict()
        assert payload["control"]["type"] == "elastic"
        assert payload["faults"] == outcome.faults
        assert payload["timeline"] == outcome.timeline
        report = outcome.control
        assert isinstance(report, ElasticReport)
        assert sum(report.final_mpls) == demo.control.mpl

    def test_timeline_works_on_a_single_engine(self):
        outcome = execute_scenario(ScenarioSpec(
            arrival_rate=50.0,
            control=StaticMpl(8),
            measurement=MeasurementSpec(
                transactions=150, metrics=("standard", "timeline"),
                timeline_bucket_s=0.5,
            ),
        ))
        assert outcome.timeline
        assert sum(row["completions"] for row in outcome.timeline) == 150
        # buckets are anchored at absolute t=0 and strictly increasing
        ts = [row["t"] for row in outcome.timeline]
        assert ts == sorted(ts)
        assert all(t == pytest.approx(round(t / 0.5) * 0.5) for t in ts)

    def test_run_failover_demo_via_cli(self, tmp_path, capsys):
        path = tmp_path / "failover.json"
        path.write_text(demo_scenarios()["failover"].to_json())
        out_path = tmp_path / "outcome.json"
        assert cli_main(
            ["scenario", "run", str(path), "--output", str(out_path)]
        ) == 0
        outcome = json.loads(out_path.read_text())
        assert outcome["control"]["type"] == "elastic"
        assert [f["kind"] for f in outcome["faults"]] == ["kill", "restore"]
        assert outcome["timeline"]

    def test_cli_reports_every_validation_problem(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "nope": 1,
            "topology": {"shards": 0},
            "faults": {"events": [{"type": "zap"}]},
        }))
        assert cli_main(["scenario", "show", str(path)]) == 2
        err = capsys.readouterr().err
        assert "/nope" in err
        assert "/topology" in err
        assert "/faults/events/0" in err
