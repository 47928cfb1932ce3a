"""Stylized-fact fits over order flow and execution-quality comparisons.

Three flow facts are measured: windowed order volume (gamma and log-normal
fits), limit-order interarrival times (exponential and Weibull), and the
intraday volume profile (quadratic U-shape test).  Fits are maximum
likelihood, computed here; scipy supplies only the special functions that
the fits and their CDFs are written in, and only the fits import it, so no
other command loads scipy.  Every fit is deterministic in the sample.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .kernel import NANOS_PER_SECOND, SimulationLog
from .lobster import EventType, FlowColumns, LobsterEvent
from .messages import EXCHANGE_ID, CancelOrder, LimitOrder, MarketOrder
from .rl import ActionSpace, EpisodeResult


class InsufficientDataError(Exception):
    pass


class UnorderedFlowError(ValueError):
    pass


class FlowSeries:
    """The limit orders of an order flow as int64 time and size arrays: the
    one sample every fit reads.  `records_read` counts every flow record
    read, limit or not, and `session` defaults to their span."""

    def __init__(self, times, sizes, session: Optional[tuple] = None,
                 records_read: Optional[int] = None):
        self.times = np.asarray(times, dtype=np.int64)
        self.sizes = np.asarray(sizes, dtype=np.int64)
        if np.any(self.times[1:] < self.times[:-1]):
            raise UnorderedFlowError("limit orders must be time-ordered")
        self.records_read = len(self.times) if records_read is None else records_read
        if session is None:
            session = (int(self.times[0]), int(self.times[-1])) if len(self.times) else (0, 0)
        self.session = session

    @classmethod
    def _sample(cls, read_times, limit_times, limit_sizes,
                session: Optional[tuple]) -> "FlowSeries":
        if session is None and len(read_times):
            session = (int(np.min(read_times)), int(np.max(read_times)))
        return cls(limit_times, limit_sizes, session, len(read_times))

    @classmethod
    def from_events(cls, events: Iterable[LobsterEvent],
                    session: Optional[tuple] = None) -> "FlowSeries":
        """Every replayable event is read; NEW_LIMIT events form the sample."""
        flow = FlowColumns.of(events)
        times, types, sizes = (np.frombuffer(column, dtype=np.int64)
                               for column in (flow.time, flow.type, flow.size))
        limits = types == EventType.NEW_LIMIT
        return cls._sample(times[types != EventType.HALT], times[limits], sizes[limits], session)

    @classmethod
    def from_log(cls, log: SimulationLog, session: Optional[tuple] = None) -> "FlowSeries":
        """Inbound order traffic to the exchange, read off the kernel log;
        its limit orders form the sample."""
        to_exchange = np.frombuffer(log.recipients, dtype=log.recipients.typecode) == EXCHANGE_ID
        payloads = log.payloads
        read, limits, sizes = [], [], []
        for i in np.flatnonzero(to_exchange).tolist():
            payload = payloads[i]
            if isinstance(payload, LimitOrder):
                limits.append(i)
                sizes.append(payload.quantity)
            elif not isinstance(payload, (MarketOrder, CancelOrder)):
                continue
            read.append(i)
        times = np.frombuffer(log.times, dtype=np.int64)
        return cls._sample(times[read], times[limits], sizes, session)


@dataclass(frozen=True)
class FitReport:
    distribution: str
    params: dict
    ks_distance: float
    sample_count: int


@dataclass(frozen=True)
class FitRefusal:
    distribution: str
    refused: str  # why the fit was refused
    sample_count: int


FitOutcome = Union[FitReport, FitRefusal]


def ks_distance(samples: np.ndarray, cdf) -> float:
    """Kolmogorov-Smirnov statistic against a fitted CDF; order-invariant."""
    ordered = np.sort(np.asarray(samples, dtype=np.float64))
    n = len(ordered)
    fitted = cdf(ordered)
    upper = np.arange(1, n + 1) / n - fitted
    lower = fitted - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))


def _refusal_reason(x: np.ndarray) -> Optional[str]:
    """Why a positive-support fit refuses the sample `x`, or None."""
    if np.any(x <= 0):
        return "non-positive samples"
    if x.min() == x.max():  # exact, unlike a var() == 0 test under rounding
        return "zero variance"
    return None


def _newton_shape(shape: float, residual_and_slope) -> float:
    """A positive root of a shape equation by Newton's method from `shape`:
    at most 100 steps, a step to a non-positive shape halves the shape
    instead, and the iteration stops once a step moves it less than 1e-10."""
    for _ in range(100):
        residual, slope = residual_and_slope(shape)
        updated = shape - residual / slope
        if updated <= 0:
            updated = shape / 2.0
        if abs(updated - shape) < 1e-10:
            return updated
        shape = updated
    return shape


def fit_gamma(samples: Sequence[float]) -> FitOutcome:
    """Gamma MLE: Newton iteration on ln(k) - digamma(k) = ln(mean) -
    mean(ln x), initialized at the method-of-moments shape."""
    from scipy import special
    x = np.asarray(samples, dtype=np.float64)
    if len(x) == 0:
        raise InsufficientDataError("gamma fit needs samples")
    if reason := _refusal_reason(x):
        return FitRefusal("gamma", reason, len(x))
    mean = x.mean()
    variance = x.var()
    target = math.log(mean) - np.log(x).mean()
    shape = _newton_shape(mean * mean / variance,  # moment start
                          lambda k: (math.log(k) - special.digamma(k) - target,
                                     1.0 / k - special.polygamma(1, k)))
    scale = mean / shape
    distance = ks_distance(x, lambda v: special.gammainc(shape, v / scale))
    return FitReport("gamma", {"shape": float(shape), "scale": float(scale)},
                     distance, len(x))


def fit_lognormal(samples: Sequence[float]) -> FitOutcome:
    from scipy import special
    x = np.asarray(samples, dtype=np.float64)
    if len(x) == 0:
        raise InsufficientDataError("log-normal fit needs samples")
    if reason := _refusal_reason(x):
        return FitRefusal("lognormal", reason, len(x))
    logs = np.log(x)
    mu = float(logs.mean())
    sigma = float(logs.std())
    scale = math.exp(mu)
    distance = ks_distance(x, lambda v: special.ndtr(np.log(v / scale) / sigma))
    return FitReport("lognormal", {"mu": mu, "sigma": sigma}, distance, len(x))


def fit_exponential(samples: Sequence[float]) -> FitOutcome:
    from scipy import special
    x = np.asarray(samples, dtype=np.float64)
    if len(x) == 0:
        raise InsufficientDataError("exponential fit needs samples")
    mean = x.mean()
    if mean <= 0:
        raise InsufficientDataError("exponential fit needs a positive mean gap")
    rate = 1.0 / mean
    distance = ks_distance(x, lambda v: -special.expm1(-v / mean))
    return FitReport("exponential", {"rate": float(rate)}, distance, len(x))


def fit_weibull(samples: Sequence[float]) -> FitOutcome:
    """Weibull MLE via Newton on the profile shape equation; zero gaps are
    outside the support and excluded by the caller."""
    from scipy import special
    x = np.asarray(samples, dtype=np.float64)
    if len(x) < 2:
        return FitRefusal("weibull", "need at least two samples", len(x))
    if reason := _refusal_reason(x):
        return FitRefusal("weibull", reason, len(x))
    logs = np.log(x)
    mean_log = logs.mean()

    def residual_and_slope(shape):
        powered = x**shape
        weighted = (powered * logs).sum() / powered.sum()
        d_weighted = (powered * logs * logs).sum() / powered.sum() - weighted**2
        return weighted - 1.0 / shape - mean_log, d_weighted + 1.0 / (shape * shape)

    shape = _newton_shape(1.0, residual_and_slope)
    scale = float((x**shape).mean() ** (1.0 / shape))
    distance = ks_distance(x, lambda v: -special.expm1(-(v / scale) ** shape))
    return FitReport("weibull", {"shape": float(shape), "scale": scale},
                     distance, len(x))


@dataclass
class WindowedVolumeResult:
    window_seconds: float
    samples: list  # per-window volumes, zero windows included
    zero_windows: int
    gamma: FitOutcome
    lognormal: FitOutcome

    def to_dict(self) -> dict:
        return {
            "window_seconds": self.window_seconds,
            "windows": len(self.samples),
            "zero_windows": self.zero_windows,
            "gamma": self.gamma,
            "lognormal": self.lognormal,
        }


MIN_NONZERO_WINDOWS = 30


def _binned_volume(flow: FlowSeries, width_ns: int) -> list:
    """Limit volume per bin of width_ns from the session start, as ints.
    Orders outside the session are dropped and the end boundary falls in
    the last bin; there is at least one bin."""
    start, end = flow.session
    n_bins = max(1, -((start - end) // width_ns))  # ceil over the session
    inside = (flow.times >= start) & (flow.times <= end)
    index = np.minimum((flow.times[inside] - start) // width_ns, n_bins - 1)
    # float64 sums of int sizes are exact below 2**53
    volumes = np.bincount(index, weights=flow.sizes[inside], minlength=n_bins)
    return volumes.astype(np.int64).tolist()


def windowed_volume(flow: FlowSeries, window_seconds: float = 60.0) -> WindowedVolumeResult:
    """Limit-order volume per non-overlapping window across the session.
    Zero-volume windows are excluded from both fits and counted; fewer than
    30 nonzero windows refuses the fits with a sample-size reason."""
    if flow.records_read == 0:
        raise InsufficientDataError("empty flow")
    if len(flow.times) == 0:
        raise InsufficientDataError("flow has no limit orders")
    window_ns = int(round(window_seconds * NANOS_PER_SECOND))
    if window_ns <= 0:
        raise ValueError("window must be positive")
    volumes = _binned_volume(flow, window_ns)
    nonzero = [v for v in volumes if v > 0]
    zero_windows = len(volumes) - len(nonzero)
    if len(nonzero) < MIN_NONZERO_WINDOWS:
        reason = f"only {len(nonzero)} nonzero windows (< {MIN_NONZERO_WINDOWS})"
        return WindowedVolumeResult(window_seconds, volumes, zero_windows,
                                    FitRefusal("gamma", reason, len(nonzero)),
                                    FitRefusal("lognormal", reason, len(nonzero)))
    return WindowedVolumeResult(window_seconds, volumes, zero_windows,
                                fit_gamma(nonzero), fit_lognormal(nonzero))


@dataclass
class InterarrivalResult:
    gaps_seconds: list
    zero_gaps: int
    exponential: FitOutcome
    weibull: FitOutcome

    def to_dict(self) -> dict:
        return {
            "gaps": len(self.gaps_seconds),
            "zero_gaps": self.zero_gaps,
            "exponential": self.exponential,
            "weibull": self.weibull,
        }


def interarrival_fit(flow: FlowSeries) -> InterarrivalResult:
    """Consecutive limit-order gap fits.  The exponential rate is 1/mean over
    all gaps; zero gaps fall outside the Weibull support and are excluded
    from that fit with a count."""
    if len(flow.times) < 2:
        raise InsufficientDataError("need at least two limit orders")
    gaps = np.diff(flow.times) / NANOS_PER_SECOND
    if gaps.sum() == 0:
        raise InsufficientDataError("all interarrival gaps are zero")
    positive = gaps[gaps > 0]
    zero_gaps = int(len(gaps) - len(positive))
    exponential = fit_exponential(gaps)
    weibull = fit_weibull(positive)
    return InterarrivalResult(list(gaps), zero_gaps, exponential, weibull)


@dataclass
class IntradayProfile:
    bucket_minutes: float
    volumes: list
    coefficients: tuple  # (a, b, c) of a*x^2 + b*x + c
    stderr_a: float
    vertex_seconds: Optional[float]
    u_shape: bool


def intraday_profile(flow: FlowSeries, bucket_minutes: float = 15.0) -> IntradayProfile:
    """Least-squares quadratic over per-bucket limit volume.  U-shaped means
    the curvature is positive, significant (|a| > 2 SE), and the vertex sits
    strictly inside the session."""
    if flow.records_read == 0:
        raise InsufficientDataError("empty flow")
    bucket_ns = int(round(bucket_minutes * 60 * NANOS_PER_SECOND))
    volumes = _binned_volume(flow, bucket_ns)
    n_buckets = len(volumes)
    if n_buckets < 3:
        raise InsufficientDataError(f"flow spans {n_buckets} buckets; need >= 3")
    x = np.asarray([((i + 0.5) * bucket_ns) / NANOS_PER_SECOND for i in range(n_buckets)])
    y = np.asarray(volumes, dtype=np.float64)
    design = np.column_stack([x**2, x, np.ones_like(x)])
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    a, b, c = (float(v) for v in beta)
    residuals = y - design @ beta
    dof = len(x) - 3
    if dof > 0:
        sigma2 = float(residuals @ residuals) / dof
        covariance = sigma2 * np.linalg.inv(design.T @ design)
        stderr_a = float(math.sqrt(max(covariance[0, 0], 0.0)))
    else:
        stderr_a = 0.0
    vertex = -b / (2 * a) if a != 0 else None
    start, end = flow.session
    session_seconds = (end - start) / NANOS_PER_SECOND
    u_shape = (
        a > 0
        and abs(a) > 2 * stderr_a
        and vertex is not None
        and 0.0 < vertex < session_seconds
    )
    return IntradayProfile(bucket_minutes, volumes, (a, b, c),
                           stderr_a, vertex, u_shape)


@dataclass
class ExecutionComparison:
    candidate: dict
    baseline: dict
    action_trace_distance: float


def trace_distance(action_trace: Sequence[int]) -> float:
    """Mean |a_i - 1| over the trace's multipliers.  0 means every period
    sized its orders at round(parent / periods) shares, which is TWAP's
    sizing only when the period count divides the parent: TWAP sends the
    remainder's extra shares in the earliest periods."""
    if not action_trace:
        return 0.0
    return float(np.mean([abs(ActionSpace().decode(i).multiplier - 1.0) for i in action_trace]))


def _run_summary(result: EpisodeResult) -> dict:
    return {
        "slippage": result.slippage,
        "fill_ratio": result.fill_ratio,
        "reward_sum": result.total_reward,
        "fill_vwap": result.fill_vwap,
        "arrival_price": result.arrival_price,
        "filled_quantity": result.filled_quantity,
    }


def execution_report(episode: EpisodeResult, twap_baseline: EpisodeResult) -> ExecutionComparison:
    """Side-by-side execution quality, candidate vs the TWAP baseline run on
    identical data and seeds."""
    if episode.parent_quantity != twap_baseline.parent_quantity:
        raise ValueError("runs trade different parent quantities")
    if len(episode.action_trace) != len(twap_baseline.action_trace):
        raise ValueError("runs cover different period counts")
    return ExecutionComparison(
        candidate=_run_summary(episode),
        baseline=_run_summary(twap_baseline),
        action_trace_distance=trace_distance(episode.action_trace),
    )


def fit_deltas(before: dict, after: dict) -> dict:
    """Relative parameter changes between two fit-report dicts, keyed
    distribution.param; None marks refusals on either side."""
    deltas: dict[str, Optional[float]] = {}
    for name, report in before.items():
        other = after.get(name)
        if not isinstance(report, FitReport) or not isinstance(other, FitReport):
            deltas[name] = None
            continue
        for param, value in report.params.items():
            reference = other.params[param]
            key = f"{name}.{param}"
            if value == 0:
                deltas[key] = None
            else:
                deltas[key] = abs(reference - value) / abs(value)
    return deltas


def report_to_json(sections: dict, path) -> None:
    """Write a mapping of plain values and reports, at any depth, as sorted,
    indented JSON with a final newline.  A report is written as its
    to_dict() when it has one, and otherwise as its dataclass fields, each
    under its own name.  Every .json artifact but LOBSTER's sidecar is
    written here."""
    with open(path, "w") as fh:
        json.dump(sections, fh, indent=2, sort_keys=True,
                  default=lambda report: report.to_dict() if hasattr(report, "to_dict")
                  else asdict(report))
        fh.write("\n")


def samples_to_csv(samples: Sequence[float], path, column: str = "value") -> None:
    with open(path, "w") as fh:
        fh.write(column + "\n")
        for value in samples:
            fh.write(f"{value}\n")
