"""Tests for the pluggable arrival layer.

Covers the new sources (partly-open sessions, modulated rates), their
bit-identical determinism under any ``--jobs N``, and — critically —
the fingerprint-stability guarantee: legacy ``SystemConfig`` values
must hash to the exact digests they produced before the ``arrival``
field existed, so every pre-existing cache entry still hits.
"""

import math
import random

import pytest

from repro.core.arrivals import (
    ClosedArrivals,
    ClosedPopulation,
    ModulatedArrivals,
    OpenArrivals,
    OpenPoisson,
    PartlyOpenArrivals,
    PartlyOpenSessions,
    PiecewiseRate,
    SinusoidRate,
    fraction_high_assigner,
)
from repro.core.frontend import ExternalScheduler
from repro.core.system import SimulatedSystem, SystemConfig
from repro.dbms.config import HardwareConfig
from repro.dbms.engine import DatabaseEngine
from repro.dbms.transaction import Priority
from repro.experiments.parallel import ParallelRunner
from repro.experiments.runner import scenario_for
from repro.metrics.collector import MetricsCollector
from repro.sim.distributions import Deterministic, Exponential
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from repro.workloads.setups import get_setup
from repro.workloads.synthetic import synthetic_workload


def _config(arrival=None, **kwargs):
    setup = get_setup(1)
    return SystemConfig(
        workload=setup.workload,
        hardware=setup.hardware,
        isolation=setup.isolation,
        arrival=arrival,
        **kwargs,
    )


class TestFingerprintStability:
    """Legacy configs must keep their pre-`arrival` content hashes.

    The expected digests below were produced at the commit *before*
    the arrival layer existed; a mismatch means existing result caches
    silently stop hitting.
    """

    EXPECTED = {
        (1, 5, 300, 11, "fifo", 0.0, None):
            "47affd2ecb66d0aa7dffcdf436ed6259a0de0e2c618fac76ec253345849028d6",
        (3, None, 150, 7, "priority", 0.1, None):
            "c3b9eb7fc51d133c3fa37fda4d1d12175caa7b3ce6342e4567935a1f0ceb2bf1",
        (5, 2, 100, 5, "fifo", 0.0, 4.0):
            "184cdbf8ff63ec4ddbc2232944bbe681d8867188388469de33f6c048f0a13889",
    }

    def test_legacy_runspec_fingerprints_unchanged(self):
        for (sid, mpl, txns, seed, policy, high, rate), digest in self.EXPECTED.items():
            spec = scenario_for(
                get_setup(sid), mpl=mpl, transactions=txns, seed=seed,
                policy=policy, high_priority_fraction=high, arrival_rate=rate,
            )
            assert spec.fingerprint() == digest, spec

    def test_legacy_config_fingerprints_unchanged(self):
        config = _config(mpl=4, seed=2)
        assert config.fingerprint() == (
            "c8ab3b88ad3a980e35795060155ff50d937f2595c5479dd10e71f77f0d2b9e47"
        )
        assert config.fingerprint(transactions=500, warmup_fraction=0.2) == (
            "81c1b78b977fecdd56207882e6775b24193d36198ea3c5cdc0d51fe62d167964"
        )

    def test_arrival_spec_changes_fingerprint(self):
        base = _config(mpl=4, seed=2)
        closed = _config(mpl=4, seed=2, arrival=ClosedArrivals())
        partly = _config(
            mpl=4, seed=2, arrival=PartlyOpenArrivals(session_rate=5.0)
        )
        assert base.fingerprint() != closed.fingerprint()
        assert closed.fingerprint() != partly.fingerprint()

    def test_distinct_arrival_specs_hash_distinct(self):
        specs = [
            PartlyOpenArrivals(session_rate=5.0),
            PartlyOpenArrivals(session_rate=5.0, mean_session_length=2.0),
            ModulatedArrivals(SinusoidRate(base=10.0, amplitude=5.0, period=8.0)),
            ModulatedArrivals(SinusoidRate(base=10.0, amplitude=6.0, period=8.0)),
            ModulatedArrivals(PiecewiseRate(points=((0.0, 10.0), (4.0, 20.0)))),
        ]
        digests = {_config(arrival=spec).fingerprint() for spec in specs}
        assert len(digests) == len(specs)


class TestLegacyNormalization:
    def test_default_is_closed(self):
        assert _config().arrival_spec() == ClosedArrivals(
            num_clients=100, think_time_s=0.0
        )

    def test_arrival_rate_is_open(self):
        assert _config(arrival_rate=7.5).arrival_spec() == OpenArrivals(rate=7.5)

    def test_explicit_spec_wins(self):
        spec = PartlyOpenArrivals(session_rate=2.0)
        assert _config(arrival=spec).arrival_spec() is spec

    def test_spec_and_legacy_rate_conflict(self):
        with pytest.raises(ValueError):
            _config(arrival=OpenArrivals(rate=1.0), arrival_rate=2.0)


class TestJobsDeterminism:
    """Partly-open and modulated runs must be --jobs invariant."""

    def _grid(self):
        return [
            scenario_for(
                get_setup(1), mpl=mpl, transactions=150, seed=9,
                arrival=PartlyOpenArrivals.for_load(30.0, 4.0, think_time_s=0.05),
            )
            for mpl in (2, 6)
        ] + [
            scenario_for(
                get_setup(1), mpl=mpl, transactions=150, seed=9,
                arrival=ModulatedArrivals(
                    SinusoidRate(base=25.0, amplitude=15.0, period=10.0)
                ),
            )
            for mpl in (2, 6)
        ] + [
            scenario_for(
                get_setup(1), mpl=4, transactions=150, seed=9,
                arrival=ModulatedArrivals(
                    PiecewiseRate(points=((0.0, 10.0), (3.0, 40.0)), period=6.0)
                ),
            )
        ]

    def test_parallel_bit_identical_to_sequential(self):
        specs = self._grid()
        sequential = ParallelRunner(jobs=1).run(specs)
        parallel = ParallelRunner(jobs=4).run(specs)
        assert [r.to_json_dict() for r in sequential] == [
            r.to_json_dict() for r in parallel
        ]

    def test_cache_round_trip(self, tmp_path):
        specs = self._grid()[:2]
        cold = ParallelRunner(jobs=1, cache_dir=str(tmp_path))
        cold_results = cold.run(specs)
        warm = ParallelRunner(jobs=1, cache_dir=str(tmp_path))
        warm_results = warm.run(specs)
        assert warm.stats.executed == 0
        assert warm.stats.cache_hits == len(specs)
        assert [r.to_json_dict() for r in warm_results] == [
            r.to_json_dict() for r in cold_results
        ]


class TestPartlyOpenSessions:
    def test_for_load_holds_transaction_rate(self):
        spec = PartlyOpenArrivals.for_load(40.0, 8.0)
        assert spec.session_rate == pytest.approx(5.0)
        assert spec.transaction_rate == pytest.approx(40.0)

    def test_session_lengths_have_geometric_mean(self):
        config = _config(arrival=PartlyOpenArrivals(session_rate=1.0))
        system = SimulatedSystem(config)
        source = system.source
        assert isinstance(source, PartlyOpenSessions)
        rng = random.Random(42)
        source._rng = rng
        draws = [source._session_length() for _ in range(4000)]
        assert min(draws) >= 1
        assert sum(draws) / len(draws) == pytest.approx(5.0, rel=0.1)

    def test_mean_one_degenerates_to_single_transaction(self):
        config = _config(
            arrival=PartlyOpenArrivals(session_rate=1.0, mean_session_length=1.0)
        )
        source = SimulatedSystem(config).source
        assert all(source._session_length() == 1 for _ in range(50))

    def test_sessions_complete(self):
        config = _config(
            mpl=4,
            arrival=PartlyOpenArrivals(
                session_rate=8.0, mean_session_length=3.0, think_time_s=0.01
            ),
        )
        system = SimulatedSystem(config)
        system.run_transactions(200)
        source = system.source
        assert source.sessions_started > 0
        assert 0 <= source.active_sessions <= source.sessions_started

    def test_validation(self):
        with pytest.raises(ValueError):
            PartlyOpenArrivals(session_rate=0.0)
        with pytest.raises(ValueError):
            PartlyOpenArrivals(session_rate=1.0, mean_session_length=0.5)
        with pytest.raises(ValueError):
            PartlyOpenArrivals(session_rate=1.0, think_time_s=-1.0)


class TestRateFunctions:
    def test_piecewise_steps_and_period(self):
        rate = PiecewiseRate(points=((0.0, 5.0), (10.0, 20.0)), period=30.0)
        assert rate.rate(0.0) == 5.0
        assert rate.rate(9.999) == 5.0
        assert rate.rate(10.0) == 20.0
        assert rate.rate(29.0) == 20.0
        assert rate.rate(31.0) == 5.0  # wrapped
        assert rate.max_rate() == 20.0

    def test_piecewise_without_period_holds_last_rate(self):
        rate = PiecewiseRate(points=((0.0, 5.0), (10.0, 20.0)))
        assert rate.rate(1e9) == 20.0

    def test_piecewise_validation(self):
        with pytest.raises(ValueError):
            PiecewiseRate(points=())
        with pytest.raises(ValueError):
            PiecewiseRate(points=((1.0, 5.0),))  # must start at 0
        with pytest.raises(ValueError):
            PiecewiseRate(points=((0.0, 5.0), (0.0, 6.0)))  # ascending
        with pytest.raises(ValueError):
            PiecewiseRate(points=((0.0, -5.0),))
        with pytest.raises(ValueError):
            PiecewiseRate(points=((0.0, 5.0), (10.0, 6.0)), period=10.0)

    def test_sinusoid_profile(self):
        rate = SinusoidRate(base=10.0, amplitude=4.0, period=8.0)
        assert rate.rate(0.0) == pytest.approx(10.0)
        assert rate.rate(2.0) == pytest.approx(14.0)  # peak at period/4
        assert rate.rate(6.0) == pytest.approx(6.0)  # trough
        assert rate.max_rate() == 14.0

    def test_sinusoid_clips_at_zero(self):
        rate = SinusoidRate(base=1.0, amplitude=5.0, period=4.0)
        assert rate.rate(3.0) == 0.0  # trough would be negative

    def test_sinusoid_validation(self):
        with pytest.raises(ValueError):
            SinusoidRate(base=0.0, amplitude=1.0, period=1.0)
        with pytest.raises(ValueError):
            SinusoidRate(base=1.0, amplitude=-1.0, period=1.0)
        with pytest.raises(ValueError):
            SinusoidRate(base=1.0, amplitude=1.0, period=0.0)


class TestModulatedThroughput:
    def test_observed_rate_tracks_profile(self):
        """Thinned arrivals should average the profile's mean rate."""
        rate_function = SinusoidRate(base=30.0, amplitude=20.0, period=5.0)
        config = _config(
            mpl=None, arrival=ModulatedArrivals(rate_function), seed=3
        )
        system = SimulatedSystem(config)
        records = system.run_transactions(600)
        elapsed = records[-1].completion_time - records[0].completion_time
        observed = (len(records) - 1) / elapsed
        # mean of the sinusoid is its base; allow simulation noise
        assert observed == pytest.approx(rate_function.base, rel=0.25)

    def test_piecewise_bursts_modulate_arrivals(self):
        """Arrivals during a high-rate phase outnumber the low phase."""
        rate_function = PiecewiseRate(points=((0.0, 5.0), (5.0, 50.0)), period=10.0)
        config = _config(mpl=None, arrival=ModulatedArrivals(rate_function), seed=3)
        system = SimulatedSystem(config)
        records = system.run_transactions(400)
        low = sum(1 for r in records if (r.arrival_time % 10.0) < 5.0)
        high = len(records) - low
        assert high > 2 * low


def _stack(mpl=None):
    """A bare front-end + engine to drive sources against directly."""
    sim = Simulator()
    streams = RandomStreams(9)
    engine = DatabaseEngine(
        sim,
        HardwareConfig(memory_mb=3072, bufferpool_mb=1024),
        db_pages=1000,
        streams=streams,
    )
    collector = MetricsCollector()
    frontend = ExternalScheduler(sim, engine, mpl=mpl, collector=collector)
    workload = synthetic_workload("s", demand_mean_ms=5.0, scv=1.0)
    return sim, streams, frontend, collector, workload


class TestClosedPopulation:
    """Behavior of the closed source."""

    def test_keeps_n_outstanding(self):
        sim, streams, frontend, collector, workload = _stack()
        clients = ClosedPopulation(
            sim, frontend, workload, num_clients=7, think_time=None,
            rng=streams.stream("clients"),
        )
        clients.start()
        sim.run(until=0.5)
        # at any time exactly 7 transactions are in the system (no think)
        assert frontend.in_service + frontend.queue_length == 7
        assert collector.arrivals >= 7

    def test_start_idempotent(self):
        sim, streams, frontend, collector, workload = _stack()
        clients = ClosedPopulation(
            sim, frontend, workload, num_clients=3, think_time=None,
            rng=streams.stream("clients"),
        )
        clients.start()
        clients.start()
        sim.run(until=0.1)
        assert frontend.in_service + frontend.queue_length == 3

    def test_think_time_idles_clients(self):
        sim, streams, frontend, collector, workload = _stack()
        clients = ClosedPopulation(
            sim, frontend, workload, num_clients=5,
            think_time=Deterministic(10.0), rng=streams.stream("clients"),
        )
        clients.start()
        sim.run(until=1.0)
        # after the first round everyone is thinking
        assert frontend.in_service == 0

    def test_priority_assigner_applied(self):
        sim, streams, frontend, collector, workload = _stack()
        clients = ClosedPopulation(
            sim, frontend, workload, num_clients=4, think_time=None,
            rng=streams.stream("clients"),
            priority_assigner=fraction_high_assigner(1.0),
        )
        clients.start()
        sim.run(until=0.2)
        assert all(r.priority == Priority.HIGH for r in collector.records)

    def test_validation(self):
        sim, streams, frontend, _collector, workload = _stack()
        with pytest.raises(ValueError):
            ClosedPopulation(
                sim, frontend, workload, num_clients=0, think_time=None,
                rng=streams.stream("clients"),
            )
        with pytest.raises(ValueError):
            fraction_high_assigner(1.5)


class TestOpenPoissonSource:
    """Behavior of the open source."""

    def test_rate(self):
        sim, streams, frontend, collector, workload = _stack(mpl=50)
        source = OpenPoisson(
            sim, frontend, workload, interarrival=Exponential(0.01),
            rng=streams.stream("arrivals"),
        )
        source.start()
        sim.run(until=10.0)
        # ~100/s for 10s
        assert collector.arrivals == pytest.approx(1000, rel=0.15)

    def test_max_arrivals(self):
        sim, streams, frontend, collector, workload = _stack()
        source = OpenPoisson(
            sim, frontend, workload, interarrival=Deterministic(0.001),
            rng=streams.stream("arrivals"), max_arrivals=25,
        )
        source.start()
        sim.run()
        assert collector.arrivals == 25


class TestTraceReplayZeroSpan:
    """Looping a zero-span stream must be rejected, not livelock.

    The wrap offset is the trace's span; with a single record (or all
    timestamps equal at zero) the span is zero and the pre-fix replay
    loop re-submitted the whole stream at the same instant forever.
    These construct the replay directly — the generated-trace twin of
    the CSV-level check in ``tests/test_scenario.py``.
    """

    def _replay(self, times, loop):
        from repro.core.arrivals import TraceReplay

        return TraceReplay(
            sim=None, frontend=None, workload=None,
            arrival_times=times, rng=random.Random(0), loop=loop,
        )

    def test_rejects_single_record_loop(self):
        with pytest.raises(ValueError, match="zero-span"):
            self._replay([0.0], loop=True)

    def test_rejects_all_zero_timestamps_loop(self):
        with pytest.raises(ValueError, match="zero-span"):
            self._replay([0.0, 0.0, 0.0], loop=True)

    def test_accepts_zero_span_without_loop(self):
        replay = self._replay([0.0, 0.0], loop=False)
        assert replay.arrival_times == [0.0, 0.0]

    def test_accepts_positive_span_loop(self):
        replay = self._replay([0.0, 0.5, 1.0], loop=True)
        assert replay.loop


class TestGeometryOfGeometric:
    """The closed-form geometric sampler must match its distribution."""

    def test_matches_naive_bernoulli_mean(self):
        mean = 7.0
        rng = random.Random(7)
        p = 1.0 / mean
        draws = []
        for _ in range(4000):
            u = rng.random()
            draws.append(1 + int(math.log(1.0 - u) / math.log(1.0 - p)))
        assert sum(draws) / len(draws) == pytest.approx(mean, rel=0.1)
