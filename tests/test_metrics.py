"""Tests for order-flow stylized-fact fits and execution comparisons.

The distribution fits are checked against scipy's fitters and
distributions as independent oracles; the implementations under test only
borrow scipy's special functions, never its estimation code.
"""

import json
import math

import numpy as np
import pytest
from scipy import stats

from lobsim.agents import ExchangeAgent, MarketReplayAgent, MomentumAgent, MomentumConfig
from lobsim.book import Side
from lobsim.kernel import NANOS_PER_SECOND, KernelConfig, LogRecord, SimulationLog, build_kernel
from lobsim.lobster import EventType, LobsterEvent, SyntheticFlowConfig, generate_synthetic
from lobsim.messages import (
    EXCHANGE_ID,
    CancelOrder,
    LimitOrder,
    MarketDataQuery,
    MarketOrder,
    OrderAccepted,
)
from lobsim.metrics import (
    FitRefusal,
    FitReport,
    FlowSeries,
    InsufficientDataError,
    UnorderedFlowError,
    execution_report,
    fit_deltas,
    fit_exponential,
    fit_gamma,
    fit_lognormal,
    fit_weibull,
    interarrival_fit,
    intraday_profile,
    ks_distance,
    report_to_json,
    samples_to_csv,
    trace_distance,
    windowed_volume,
)
from lobsim.rl import EpisodeResult


def seconds(value: float) -> int:
    return int(round(value * NANOS_PER_SECOND))


def limit_flow(times_seconds, sizes=None, session=None) -> FlowSeries:
    if sizes is None:
        sizes = [100] * len(times_seconds)
    return FlowSeries([seconds(t) for t in times_seconds], sizes, session=session)


def event(at_seconds, event_type, size=10, direction=1) -> LobsterEvent:
    return LobsterEvent(seconds(at_seconds), event_type, 1, size, 100_000, direction)


class TestFlowSeries:
    def test_records_must_be_time_ordered(self):
        with pytest.raises(UnorderedFlowError, match="time-ordered"):
            FlowSeries([seconds(10), seconds(5)], [5, 5])
        events = [event(10, EventType.NEW_LIMIT), event(5, EventType.NEW_LIMIT)]
        with pytest.raises(UnorderedFlowError, match="time-ordered"):
            FlowSeries.from_events(events)

    def test_only_the_limit_sample_must_be_ordered(self):
        events = [
            event(1, EventType.NEW_LIMIT, 10),
            event(3, EventType.NEW_LIMIT, 20),
            event(2, EventType.DELETE),  # out of order, read but not sampled
        ]
        flow = FlowSeries.from_events(events)
        assert flow.times.tolist() == [seconds(1), seconds(3)]
        assert flow.records_read == 3
        assert flow.session == (seconds(1), seconds(3))

    def test_session_defaults_to_record_span(self):
        flow = limit_flow([1.0, 4.0, 9.0])
        assert flow.session == (seconds(1), seconds(9))
        # from a flow: every record read counts, limit or not; a halt is not read
        events = [
            event(0.5, EventType.DELETE),
            event(1, EventType.NEW_LIMIT),
            event(12, EventType.EXECUTE_VISIBLE),
            event(20, EventType.HALT),
        ]
        assert FlowSeries.from_events(events).session == (seconds(0.5), seconds(12))

    def test_explicit_session_wins(self):
        flow = limit_flow([1.0, 4.0], session=(0, seconds(60)))
        assert flow.session == (0, seconds(60))
        events = [event(1, EventType.NEW_LIMIT), event(2, EventType.DELETE)]
        flow = FlowSeries.from_events(events, session=(0, seconds(60)))
        assert flow.session == (0, seconds(60))

    def test_empty_flow(self):
        for flow in (FlowSeries([], []), FlowSeries.from_events([]),
                     FlowSeries.from_log(SimulationLog())):
            assert flow.records_read == 0
            assert len(flow.times) == 0
            assert flow.session == (0, 0)

    def test_limit_orders_filter(self):
        events = [
            event(1, EventType.NEW_LIMIT, 10),
            event(2, EventType.EXECUTE_VISIBLE, 20),
            event(3, EventType.DELETE, 5),
            event(4, EventType.NEW_LIMIT, 30),
        ]
        flow = FlowSeries.from_events(events)
        assert flow.times.tolist() == [seconds(1), seconds(4)]
        assert flow.sizes.tolist() == [10, 30]
        assert flow.times.dtype == flow.sizes.dtype == np.int64

    def test_from_events_maps_every_replayable_type(self):
        events = [
            LobsterEvent(seconds(1), EventType.NEW_LIMIT, 1, 50, 100_000, 1),
            LobsterEvent(seconds(2), EventType.PARTIAL_CANCEL, 1, 20, 100_000, 1),
            LobsterEvent(seconds(3), EventType.DELETE, 1, 30, 100_000, 1),
            LobsterEvent(seconds(4), EventType.EXECUTE_VISIBLE, 2, 10, 100_100, -1),
            LobsterEvent(seconds(5), EventType.EXECUTE_HIDDEN, 0, 5, 100_050, -1),
            LobsterEvent(seconds(6), EventType.HALT, 0, 0, 0, -1),
        ]
        flow = FlowSeries.from_events(events)
        assert flow.records_read == 5
        assert flow.session == (seconds(1), seconds(5))
        assert flow.times.tolist() == [seconds(1)]
        assert flow.sizes.tolist() == [50]

    def test_from_log_reads_exchange_inbound_traffic(self):
        log = SimulationLog()
        for at, sender, recipient, payload in [
            (1, 3, 0, LimitOrder(1, Side.BID, 50, 10_000)),
            (2, 3, 0, MarketOrder(2, Side.ASK, 10)),
            (3, 3, 0, CancelOrder(7)),
            (4, 3, 0, LimitOrder(3, Side.ASK, 15, 10_002)),
            (5, 3, 0, CancelOrder(8, 20)),
            # not exchange-inbound, or not order flow: all ignored
            (6, 0, 3, LimitOrder(9, Side.ASK, 5, 10_001)),
            (7, 0, 3, OrderAccepted(9)),
            (8, 3, 0, MarketDataQuery(1)),
        ]:
            log.append(LogRecord(seconds(at), sender, recipient, payload))
        flow = FlowSeries.from_log(log)
        assert flow.times.tolist() == [seconds(1), seconds(4)]
        assert flow.sizes.tolist() == [50, 15]
        assert flow.records_read == 5
        assert flow.session == (seconds(1), seconds(5))

    def test_from_log_selects_the_rows_the_kernel_delivered_to_the_exchange(self):
        # the log's id columns are int16: read as int64 they select other rows
        flow = generate_synthetic(SyntheticFlowConfig(
            arrival_rate_per_side=8.0, initial_mid_ticks=10_000,
            session_start_ns=seconds(99), session_end_ns=seconds(106)))
        momentum = MomentumConfig(short_window=2, long_window=3, poll_interval=seconds(0.2))
        agents = [ExchangeAgent(), MarketReplayAgent(flow),
                  MomentumAgent(momentum, name="m0"),
                  MomentumAgent(momentum, poll_offset=seconds(0.1), name="m1")]
        log = build_kernel(KernelConfig(seconds(98), seconds(107), latency_nanos=1_000_000),
                           agents).run()
        read = [r for r in log.records if r.recipient_id == EXCHANGE_ID
                and isinstance(r.payload, (LimitOrder, MarketOrder, CancelOrder))]
        limits = [r for r in read if isinstance(r.payload, LimitOrder)]
        assert {r.sender_id for r in read} == {1, 2, 3}
        assert len({r.recipient_id for r in log.records}) == 4
        series = FlowSeries.from_log(log)
        assert series.records_read == len(read)
        assert series.times.tolist() == [r.time for r in limits]
        assert series.sizes.tolist() == [r.payload.quantity for r in limits]

    def test_from_log_respects_session_argument(self):
        log = SimulationLog()
        payload = LimitOrder(1, Side.BID, 50, 10_000)
        log.append(LogRecord(seconds(1), 3, 0, payload))
        flow = FlowSeries.from_log(log, session=(0, seconds(60)))
        assert flow.session == (0, seconds(60))


class TestKsDistance:
    def test_matches_scipy_statistic(self):
        rng = np.random.default_rng(11)
        samples = rng.uniform(0.0, 1.0, size=500)
        ours = ks_distance(samples, stats.uniform.cdf)
        reference = stats.kstest(samples, stats.uniform.cdf).statistic
        assert ours == pytest.approx(reference, abs=1e-12)

    def test_matches_scipy_under_misspecification(self):
        rng = np.random.default_rng(12)
        samples = rng.exponential(scale=2.0, size=400)
        cdf = stats.gamma(a=3.0, scale=1.0).cdf
        ours = ks_distance(samples, cdf)
        reference = stats.kstest(samples, cdf).statistic
        assert ours == pytest.approx(reference, abs=1e-12)

    def test_invariant_to_sample_order(self):
        rng = np.random.default_rng(13)
        samples = rng.exponential(scale=1.0, size=200)
        cdf = stats.expon(scale=1.0).cdf
        shuffled = samples.copy()
        rng.shuffle(shuffled)
        assert ks_distance(samples, cdf) == ks_distance(shuffled, cdf)

    def test_within_unit_interval(self):
        rng = np.random.default_rng(14)
        for scale in (0.1, 1.0, 10.0):
            samples = rng.exponential(scale=scale, size=100)
            distance = ks_distance(samples, stats.expon(scale=1.0).cdf)
            assert 0.0 <= distance <= 1.0


class TestFittedCdfs:
    def test_ks_distances_equal_scipy_stats_bit_for_bit(self):
        # The fits write their CDFs with special functions; realism reports
        # stay byte-identical only while these equal the frozen distributions.
        rng = np.random.default_rng(15)
        for _ in range(20):
            x = rng.gamma(rng.uniform(0.5, 4.0), rng.uniform(0.5, 20.0), size=300)
            gamma, lognormal = fit_gamma(x), fit_lognormal(x)
            exponential, weibull = fit_exponential(x), fit_weibull(x)
            assert gamma.ks_distance == ks_distance(
                x, stats.gamma(a=gamma.params["shape"], scale=gamma.params["scale"]).cdf)
            assert lognormal.ks_distance == ks_distance(
                x, stats.lognorm(s=lognormal.params["sigma"],
                                 scale=math.exp(lognormal.params["mu"])).cdf)
            assert exponential.ks_distance == ks_distance(x, stats.expon(scale=x.mean()).cdf)
            assert weibull.ks_distance == ks_distance(
                x, stats.weibull_min(c=weibull.params["shape"],
                                     scale=weibull.params["scale"]).cdf)


class TestGammaFit:
    def test_matches_scipy_mle(self):
        rng = np.random.default_rng(21)
        samples = rng.gamma(shape=2.0, scale=3.0, size=20_000)
        report = fit_gamma(samples)
        shape_ref, _, scale_ref = stats.gamma.fit(samples, floc=0)
        assert report.params["shape"] == pytest.approx(shape_ref, rel=1e-3)
        assert report.params["scale"] == pytest.approx(scale_ref, rel=1e-3)

    def test_recovers_ground_truth(self):
        rng = np.random.default_rng(22)
        samples = rng.gamma(shape=2.0, scale=3.0, size=20_000)
        report = fit_gamma(samples)
        assert report.params["shape"] == pytest.approx(2.0, rel=0.1)
        assert report.params["scale"] == pytest.approx(3.0, rel=0.1)
        assert report.sample_count == 20_000
        assert 0.0 <= report.ks_distance <= 0.02

    def test_deterministic_in_the_sample(self):
        rng = np.random.default_rng(23)
        samples = tuple(rng.gamma(shape=1.5, scale=2.0, size=100))
        assert fit_gamma(samples) == fit_gamma(samples)

    def test_empty_rejected(self):
        with pytest.raises(InsufficientDataError):
            fit_gamma([])

    def test_non_positive_refused(self):
        outcome = fit_gamma([1.0, -2.0, 3.0])
        assert isinstance(outcome, FitRefusal)
        assert "non-positive" in outcome.refused

    def test_zero_variance_refused(self):
        outcome = fit_gamma([5.0] * 40)
        assert isinstance(outcome, FitRefusal)
        assert "variance" in outcome.refused
        assert outcome.sample_count == 40


class TestLognormalFit:
    def test_matches_scipy_mle(self):
        rng = np.random.default_rng(31)
        samples = rng.lognormal(mean=0.8, sigma=0.4, size=20_000)
        report = fit_lognormal(samples)
        sigma_ref, _, scale_ref = stats.lognorm.fit(samples, floc=0)
        assert report.params["sigma"] == pytest.approx(sigma_ref, rel=1e-4)
        assert report.params["mu"] == pytest.approx(math.log(scale_ref), rel=1e-4)

    def test_recovers_ground_truth(self):
        rng = np.random.default_rng(32)
        samples = rng.lognormal(mean=0.8, sigma=0.4, size=20_000)
        report = fit_lognormal(samples)
        assert report.params["mu"] == pytest.approx(0.8, abs=0.05)
        assert report.params["sigma"] == pytest.approx(0.4, rel=0.05)

    def test_empty_rejected(self):
        with pytest.raises(InsufficientDataError):
            fit_lognormal([])

    def test_non_positive_refused(self):
        outcome = fit_lognormal([0.0, 1.0])
        assert isinstance(outcome, FitRefusal)

    def test_zero_variance_refused(self):
        outcome = fit_lognormal([10.0] * 50)
        assert isinstance(outcome, FitRefusal)
        assert "variance" in outcome.refused


class TestExponentialFit:
    def test_rate_is_reciprocal_mean(self):
        report = fit_exponential([2.0, 4.0])
        assert report.params["rate"] == pytest.approx(1.0 / 3.0)
        assert report.sample_count == 2

    def test_ks_matches_scipy(self):
        rng = np.random.default_rng(41)
        samples = rng.exponential(scale=0.5, size=300)
        report = fit_exponential(samples)
        cdf = stats.expon(scale=samples.mean()).cdf
        assert report.ks_distance == pytest.approx(
            stats.kstest(samples, cdf).statistic, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(InsufficientDataError):
            fit_exponential([])

    def test_zero_mean_rejected(self):
        with pytest.raises(InsufficientDataError, match="positive mean"):
            fit_exponential([0.0, 0.0])


class TestWeibullFit:
    def test_exponential_data_gives_unit_shape(self):
        # Exponential is Weibull with shape 1; the estimate must land nearby.
        rng = np.random.default_rng(51)
        samples = rng.exponential(scale=0.5, size=10_000)
        report = fit_weibull(samples)
        assert 0.95 <= report.params["shape"] <= 1.05
        assert report.params["scale"] == pytest.approx(0.5, rel=0.05)

    def test_matches_scipy_mle(self):
        rng = np.random.default_rng(52)
        samples = rng.weibull(1.7, size=8_000) * 2.5
        report = fit_weibull(samples)
        shape_ref, _, scale_ref = stats.weibull_min.fit(samples, floc=0)
        assert report.params["shape"] == pytest.approx(shape_ref, rel=1e-3)
        assert report.params["scale"] == pytest.approx(scale_ref, rel=1e-3)

    def test_single_sample_refused(self):
        outcome = fit_weibull([1.5])
        assert isinstance(outcome, FitRefusal)
        assert "two samples" in outcome.refused

    def test_non_positive_refused(self):
        outcome = fit_weibull([1.0, 0.0])
        assert isinstance(outcome, FitRefusal)

    def test_constant_sample_refused(self):
        outcome = fit_weibull([2.0, 2.0, 2.0])
        assert isinstance(outcome, FitRefusal)
        assert "variance" in outcome.refused


class TestWindowedVolume:
    def test_window_sums_match_manual_partition(self):
        # Session pinned to five 60 s windows; far too few for a fit.
        session = (0, seconds(300))
        flow = FlowSeries.from_events(
            [
                event(10, EventType.NEW_LIMIT, 15),
                event(59, EventType.EXECUTE_VISIBLE, 999),  # not a limit order
                event(130, EventType.NEW_LIMIT, 7),
                event(250, EventType.NEW_LIMIT, 22),
                event(300, EventType.NEW_LIMIT, 5),  # end boundary, last window
            ],
            session=session,
        )
        result = windowed_volume(flow)
        assert result.samples == [15, 0, 7, 0, 27]
        assert all(type(v) is int for v in result.samples)  # written as JSON and CSV
        assert result.zero_windows == 2
        assert isinstance(result.gamma, FitRefusal)
        assert isinstance(result.lognormal, FitRefusal)
        assert "nonzero windows" in result.gamma.refused

    def test_gamma_fit_matches_oracle_on_window_sums(self):
        # Poisson-like arrivals with gamma-distributed sizes; the oracle is
        # scipy's MLE run on the same per-window sums.
        rng = np.random.default_rng(61)
        horizon = 3600.0
        times = np.cumsum(rng.exponential(scale=0.5, size=9000))
        times = times[times < horizon]
        sizes = np.maximum(1, np.round(rng.gamma(2.0, 3.0, size=len(times)))).astype(int)
        flow = FlowSeries([seconds(t) for t in times], sizes, session=(0, seconds(horizon)))
        result = windowed_volume(flow)
        nonzero = [v for v in result.samples if v > 0]
        assert len(nonzero) >= 30
        shape_ref, _, scale_ref = stats.gamma.fit(nonzero, floc=0)
        assert isinstance(result.gamma, FitReport)
        assert result.gamma.params["shape"] == pytest.approx(shape_ref, rel=0.1)
        assert result.gamma.params["scale"] == pytest.approx(scale_ref, rel=0.1)
        assert isinstance(result.lognormal, FitReport)
        assert result.lognormal.sample_count == len(nonzero)

    def test_degenerate_constant_windows_refused(self):
        # One size-10 order per window leaves nothing for either fit.
        times = [60.0 * i + 30.0 for i in range(40)]
        flow = limit_flow(times, sizes=[10] * 40, session=(0, seconds(2400)))
        result = windowed_volume(flow)
        assert result.zero_windows == 0
        assert isinstance(result.gamma, FitRefusal)
        assert "variance" in result.gamma.refused
        assert isinstance(result.lognormal, FitRefusal)

    def test_records_outside_session_ignored(self):
        flow = limit_flow([50.0, 150.0, 250.0], sizes=[100, 40, 100],
                          session=(seconds(100), seconds(200)))
        assert sum(windowed_volume(flow).samples) == 40
        profile = intraday_profile(flow, bucket_minutes=0.5)
        assert profile.volumes == [0, 40, 0, 0]

    def test_empty_flow_rejected(self):
        with pytest.raises(InsufficientDataError, match="empty"):
            windowed_volume(FlowSeries.from_events([]))

    def test_flow_without_limits_rejected(self):
        flow = FlowSeries.from_events([event(1, EventType.EXECUTE_VISIBLE)])
        with pytest.raises(InsufficientDataError, match="no limit orders"):
            windowed_volume(flow)

    def test_nonpositive_window_rejected(self):
        flow = limit_flow([1.0, 2.0])
        with pytest.raises(ValueError, match="window"):
            windowed_volume(flow, window_seconds=0.0)

    def test_to_dict_shape(self, tmp_path):
        # the report counts the windows instead of listing them, and writes
        # each fit as its fields
        times = [60.0 * i + 5.0 for i in range(35)]
        sizes = [10 + (i % 7) for i in range(35)]
        flow = limit_flow(times, sizes=sizes, session=(0, seconds(2100)))
        report_to_json({"volume": windowed_volume(flow)}, tmp_path / "report.json")
        body = json.loads((tmp_path / "report.json").read_text())["volume"]
        assert set(body) == {"window_seconds", "windows", "zero_windows", "gamma", "lognormal"}
        assert body["windows"] == 35
        assert body["zero_windows"] == 0
        assert set(body["gamma"]) == {"distribution", "params", "ks_distance", "sample_count"}
        assert body["gamma"]["distribution"] == "gamma"


class TestInterarrivalFit:
    def test_recovers_exponential_rate(self):
        rng = np.random.default_rng(71)
        gaps = rng.exponential(scale=0.5, size=10_000)
        times = np.cumsum(gaps)
        flow = FlowSeries([seconds(t) for t in times], [10] * len(times))
        result = interarrival_fit(flow)
        assert 1.9 <= result.exponential.params["rate"] <= 2.1
        # Exponential data is Weibull with shape 1.
        assert 0.95 <= result.weibull.params["shape"] <= 1.05

    def test_single_gap(self):
        flow = limit_flow([0.0, 3.0])
        result = interarrival_fit(flow)
        assert result.exponential.params["rate"] == pytest.approx(1.0 / 3.0)
        assert isinstance(result.weibull, FitRefusal)

    def test_zero_gaps_counted_and_excluded_from_weibull(self):
        flow = limit_flow([0.0, 0.0, 1.0, 1.0, 3.0])
        result = interarrival_fit(flow)
        assert result.zero_gaps == 2
        assert result.exponential.sample_count == 4
        # Mean gap over all four is 0.75 s.
        assert result.exponential.params["rate"] == pytest.approx(4.0 / 3.0)
        assert result.weibull.sample_count == 2

    def test_non_limit_events_do_not_contribute(self):
        events = [
            event(0, EventType.NEW_LIMIT),
            event(1, EventType.EXECUTE_VISIBLE, 50),
            event(2, EventType.DELETE),
            event(4, EventType.NEW_LIMIT),
        ]
        result = interarrival_fit(FlowSeries.from_events(events))
        assert result.exponential.params["rate"] == pytest.approx(0.25)

    def test_fewer_than_two_limits_rejected(self):
        flow = FlowSeries.from_events([event(1, EventType.NEW_LIMIT),
                                       event(2, EventType.DELETE)])
        with pytest.raises(InsufficientDataError, match="two limit orders"):
            interarrival_fit(flow)

    def test_all_zero_gaps_rejected(self):
        flow = limit_flow([5.0, 5.0, 5.0])
        with pytest.raises(InsufficientDataError, match="zero"):
            interarrival_fit(flow)


def bucketed_flow(volume_for_midpoint, session_seconds=21_600.0,
                  bucket_seconds=900.0) -> FlowSeries:
    """One limit order per 15-minute bucket, sized by the given profile."""
    n_buckets = int(session_seconds / bucket_seconds)
    midpoints = [(i + 0.5) * bucket_seconds for i in range(n_buckets)]
    return limit_flow(midpoints, [int(volume_for_midpoint(m)) for m in midpoints],
                      session=(0, seconds(session_seconds)))


class TestIntradayProfile:
    def test_u_shaped_volume_detected(self):
        mid_session = 10_800.0
        flow = bucketed_flow(lambda m: round((m - mid_session) ** 2 / 5000.0) + 50)
        profile = intraday_profile(flow)
        assert profile.u_shape
        assert profile.coefficients[0] > 0
        assert profile.vertex_seconds == pytest.approx(mid_session, abs=900.0)

    def test_flat_volume_not_u_shaped(self):
        rng = np.random.default_rng(81)
        noise = rng.integers(-5, 6, size=24)
        flow = bucketed_flow(lambda m: 200 + noise[int(m // 900.0)])
        profile = intraday_profile(flow)
        assert not profile.u_shape
        assert abs(profile.coefficients[0]) < 1e-3

    def test_monotone_volume_vertex_outside_session(self):
        # Convex and increasing across the whole session: the fitted
        # parabola's vertex sits before the open.
        flow = bucketed_flow(lambda m: round((m + 30_000.0) ** 2 / 1e5))
        profile = intraday_profile(flow)
        assert not profile.u_shape
        assert profile.coefficients[0] > 0
        assert profile.vertex_seconds < 0

    def test_bucket_volumes_partition_the_session(self):
        flow = FlowSeries.from_events(
            [
                event(100, EventType.NEW_LIMIT, 5),
                event(200, EventType.PARTIAL_CANCEL, 50),  # not a limit order
                event(1000, EventType.NEW_LIMIT, 7),
                event(2600, EventType.NEW_LIMIT, 9),
                event(2700, EventType.NEW_LIMIT, 1),  # end boundary
            ],
            session=(0, seconds(2700)),
        )
        profile = intraday_profile(flow)
        assert profile.volumes == [5, 7, 10]
        assert all(type(v) is int for v in profile.volumes)

    def test_too_few_buckets_rejected(self):
        flow = limit_flow([0.0, 600.0, 1200.0], session=(0, seconds(1200)))
        with pytest.raises(InsufficientDataError, match="buckets"):
            intraday_profile(flow)

    def test_empty_flow_rejected(self):
        with pytest.raises(InsufficientDataError):
            intraday_profile(FlowSeries.from_events([]))

    def test_to_dict_round_trips_through_json(self, tmp_path):
        flow = bucketed_flow(lambda m: round((m - 10_800.0) ** 2 / 5000.0) + 50)
        profile = intraday_profile(flow)
        report_to_json({"intraday": profile}, tmp_path / "report.json")
        body = json.loads((tmp_path / "report.json").read_text())["intraday"]
        assert set(body) == {"bucket_minutes", "volumes", "coefficients", "stderr_a",
                             "vertex_seconds", "u_shape"}
        assert body["u_shape"] is True
        assert body["volumes"] == profile.volumes and len(body["volumes"]) == 24
        assert body["coefficients"] == list(profile.coefficients)


class TestTraceDistance:
    def test_empty_trace(self):
        assert trace_distance([]) == 0.0

    def test_unit_multiplier_everywhere(self):
        # Indices 8..11 all carry multiplier 1.0 with different placements.
        assert trace_distance([8, 9, 10, 11]) == 0.0

    def test_alternating_half_and_three_halves(self):
        # |0.5 - 1| and |1.5 - 1| both contribute 0.5.
        assert trace_distance([4, 12, 4, 12]) == pytest.approx(0.5)

    def test_mean_over_mixed_multipliers(self):
        # 0.1 and 2.5 sit at the extremes of the multiplier grid.
        assert trace_distance([0, 20]) == pytest.approx(1.2)



def episode(parent=6600, trace=None, vwap=10_010.0, arrival=10_000.0,
            filled=6600, reward=3.3) -> EpisodeResult:
    return EpisodeResult(
        episode=0,
        parent_quantity=parent,
        total_reward=reward,
        filled_quantity=filled,
        fill_vwap=vwap,
        arrival_price=arrival,
        action_trace=list(trace if trace is not None else [8] * 5),
    )


class TestExecutionReport:
    def test_twap_against_itself(self):
        baseline = episode()
        comparison = execution_report(baseline, baseline)
        assert comparison.action_trace_distance == 0.0
        assert comparison.candidate == comparison.baseline
        assert comparison.candidate["slippage"] == pytest.approx(0.001)

    def test_unit_multiplier_trace_has_zero_distance(self):
        comparison = execution_report(episode(trace=[9, 10, 11, 8, 9]), episode())
        assert comparison.action_trace_distance == 0.0

    def test_alternating_trace_distance(self):
        candidate = episode(trace=[4, 12, 4, 12])
        baseline = episode(trace=[8, 8, 8, 8])
        comparison = execution_report(candidate, baseline)
        assert comparison.action_trace_distance == pytest.approx(0.5)

    def test_summary_fields(self):
        comparison = execution_report(episode(), episode())
        assert set(comparison.candidate) == {
            "slippage", "fill_ratio", "reward_sum", "fill_vwap",
            "arrival_price", "filled_quantity",
        }
        assert comparison.candidate["fill_ratio"] == 1.0

    def test_parent_quantity_mismatch_rejected(self):
        with pytest.raises(ValueError, match="parent"):
            execution_report(episode(parent=6600), episode(parent=6000))

    def test_trace_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="period"):
            execution_report(episode(trace=[8, 8]), episode(trace=[8, 8, 8]))

    def test_to_dict(self, tmp_path):
        report_to_json({"comparison": execution_report(episode(), episode())},
                       tmp_path / "report.json")
        body = json.loads((tmp_path / "report.json").read_text())["comparison"]
        assert set(body) == {"candidate", "baseline", "action_trace_distance"}
        assert body["action_trace_distance"] == 0.0
        assert body["candidate"]["filled_quantity"] == 6600


class TestFitDeltas:
    def test_relative_parameter_changes(self):
        before = {"gamma": FitReport("gamma", {"shape": 2.0, "scale": 3.0}, 0.01, 100)}
        after = {"gamma": FitReport("gamma", {"shape": 2.1, "scale": 2.85}, 0.01, 100)}
        deltas = fit_deltas(before, after)
        assert deltas["gamma.shape"] == pytest.approx(0.05)
        assert deltas["gamma.scale"] == pytest.approx(0.05)

    def test_refusal_on_either_side_maps_to_none(self):
        report = FitReport("gamma", {"shape": 2.0, "scale": 3.0}, 0.01, 100)
        refusal = FitRefusal("gamma", "zero variance", 100)
        assert fit_deltas({"gamma": refusal}, {"gamma": report}) == {"gamma": None}
        assert fit_deltas({"gamma": report}, {"gamma": refusal}) == {"gamma": None}

    def test_missing_counterpart_maps_to_none(self):
        report = FitReport("gamma", {"shape": 2.0}, 0.01, 100)
        assert fit_deltas({"gamma": report}, {}) == {"gamma": None}

    def test_zero_baseline_parameter_maps_to_none(self):
        before = {"shifted": FitReport("shifted", {"location": 0.0}, 0.01, 10)}
        after = {"shifted": FitReport("shifted", {"location": 0.5}, 0.01, 10)}
        assert fit_deltas(before, after) == {"shifted.location": None}


class TestSingleAgentImpact:
    def test_one_agent_moves_every_fit_under_five_percent(self):
        """Adding one execution agent's child orders to flow that carries at
        least fifty times its volume must leave each fitted parameter within
        5% of its prior value."""
        rng = np.random.default_rng(91)
        horizon = 3600.0
        times = np.cumsum(rng.exponential(scale=0.5, size=9000))
        times = times[times < horizon]
        sizes = np.maximum(1, np.round(rng.gamma(2.0, 40.0, size=len(times)))).astype(int)
        base_times = np.array([seconds(t) for t in times], dtype=np.int64)
        base_volume = int(sizes.sum())

        child_size = 100
        agent_times = np.array([seconds(30.0 + 60.0 * i) for i in range(60)], dtype=np.int64)
        assert base_volume >= 50 * child_size * len(agent_times)

        session = (0, seconds(horizon))
        merged_times = np.concatenate([base_times, agent_times])
        merged_sizes = np.concatenate([sizes, np.full(len(agent_times), child_size)])
        order = np.argsort(merged_times, kind="stable")
        before_flow = FlowSeries(base_times, sizes, session=session)
        after_flow = FlowSeries(merged_times[order], merged_sizes[order], session=session)

        def fits(flow):
            volume = windowed_volume(flow)
            gaps = interarrival_fit(flow)
            return {
                "gamma": volume.gamma,
                "lognormal": volume.lognormal,
                "exponential": gaps.exponential,
                "weibull": gaps.weibull,
            }

        deltas = fit_deltas(fits(before_flow), fits(after_flow))
        assert len(deltas) == 7
        for key, value in deltas.items():
            assert value is not None, key
            assert value < 0.05, (key, value)


class TestSerializationHelpers:
    def test_report_to_json_applies_to_dict(self, tmp_path):
        path = tmp_path / "report.json"
        sections = {
            "gamma": FitReport("gamma", {"shape": 2.0, "scale": 3.0}, 0.04, 60),
            "weibull": FitRefusal("weibull", "zero variance", 3),
            "run": {"episodes": 5},
        }
        report_to_json(sections, path)
        body = json.loads(path.read_text())
        assert body["gamma"]["params"]["shape"] == 2.0
        # each field is written under its own name
        assert body["weibull"] == {"distribution": "weibull", "refused": "zero variance",
                                   "sample_count": 3}
        assert body["run"]["episodes"] == 5
        assert path.read_text().endswith("\n")

    def test_report_to_json_sorts_keys(self, tmp_path):
        path = tmp_path / "report.json"
        report_to_json({"zeta": {"z": 1}, "alpha": {"a": 1}}, path)
        text = path.read_text()
        assert text.index('"alpha"') < text.index('"zeta"')

    def test_samples_to_csv(self, tmp_path):
        path = tmp_path / "samples.csv"
        samples_to_csv([1.5, 2.0, 3.25], path, column="volume")
        assert path.read_text() == "volume\n1.5\n2.0\n3.25\n"
