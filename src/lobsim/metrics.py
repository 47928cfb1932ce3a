"""Stylized-fact fits over order flow and execution-quality comparisons.

Three flow facts are measured: windowed order volume (gamma and log-normal
fits), limit-order interarrival times (exponential and Weibull), and the
intraday volume profile (quadratic U-shape test).  Fits are maximum
likelihood, computed here; scipy supplies only special functions and CDFs.
Every fit is deterministic in the sample.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

import numpy as np
from scipy import special, stats

from .book import Side
from .kernel import NANOS_PER_SECOND, SimulationLog, SimTime
from .lobster import EventType, LobsterEvent
from .messages import CancelOrder, LimitOrder, MarketOrder
from .rl import ActionSpace, EpisodeResult


class InsufficientDataError(Exception):
    pass


@dataclass(frozen=True)
class FlowPoint:
    time: SimTime
    kind: str  # "limit", "market", "cancel", "reduce", "execution", "hidden"
    size: int
    side: Optional[Side] = None


class FlowSeries:
    """Time-ordered order-flow records; the raw material for all fits."""

    def __init__(self, records: Sequence[FlowPoint],
                 session: Optional[tuple] = None):
        self.records = list(records)
        for earlier, later in zip(self.records, self.records[1:]):
            if later.time < earlier.time:
                raise ValueError("flow records must be time-ordered")
        if session is not None:
            self.session = session
        elif self.records:
            self.session = (self.records[0].time, self.records[-1].time)
        else:
            self.session = (0, 0)

    def __len__(self) -> int:
        return len(self.records)

    def limit_orders(self) -> list:
        return [r for r in self.records if r.kind == "limit"]

    _EVENT_KIND = {
        EventType.NEW_LIMIT: "limit",
        EventType.PARTIAL_CANCEL: "reduce",
        EventType.DELETE: "cancel",
        EventType.EXECUTE_VISIBLE: "execution",
        EventType.EXECUTE_HIDDEN: "hidden",
    }

    @classmethod
    def from_events(cls, events: Iterable[LobsterEvent],
                    session: Optional[tuple] = None) -> "FlowSeries":
        records = [
            FlowPoint(e.time_ns, cls._EVENT_KIND[e.event_type], e.size, e.side)
            for e in events
            if e.event_type in cls._EVENT_KIND
        ]
        return cls(records, session)

    @classmethod
    def from_log(cls, log: SimulationLog, exchange_id: int = 0,
                 session: Optional[tuple] = None) -> "FlowSeries":
        """Inbound order traffic to the exchange, read off the kernel log."""
        records = []
        for rec in log.records:
            if rec.recipient_id != exchange_id:
                continue
            payload = rec.payload
            if isinstance(payload, LimitOrder):
                records.append(FlowPoint(rec.time, "limit", payload.quantity, payload.side))
            elif isinstance(payload, MarketOrder):
                records.append(FlowPoint(rec.time, "market", payload.quantity, payload.side))
            elif isinstance(payload, CancelOrder):
                quantity = payload.quantity
                kind = "cancel" if quantity is None else "reduce"
                records.append(FlowPoint(rec.time, kind, quantity or 0, None))
        return cls(records, session)


@dataclass(frozen=True)
class FitReport:
    distribution: str
    params: dict
    ks_distance: float
    sample_count: int

    def to_dict(self) -> dict:
        return {
            "distribution": self.distribution,
            "params": dict(self.params),
            "ks_distance": self.ks_distance,
            "sample_count": self.sample_count,
        }


@dataclass(frozen=True)
class FitRefusal:
    distribution: str
    reason: str
    sample_count: int

    def to_dict(self) -> dict:
        return {
            "distribution": self.distribution,
            "refused": self.reason,
            "sample_count": self.sample_count,
        }


FitOutcome = Union[FitReport, FitRefusal]


def ks_distance(samples: np.ndarray, cdf) -> float:
    """Kolmogorov-Smirnov statistic against a fitted CDF; order-invariant."""
    ordered = np.sort(np.asarray(samples, dtype=np.float64))
    n = len(ordered)
    fitted = cdf(ordered)
    upper = np.arange(1, n + 1) / n - fitted
    lower = fitted - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))


def fit_gamma(samples: Sequence[float]) -> FitOutcome:
    """Gamma MLE: Newton iteration on ln(k) - digamma(k) = ln(mean) -
    mean(ln x), initialized at the method-of-moments shape."""
    x = np.asarray(samples, dtype=np.float64)
    if len(x) == 0:
        raise InsufficientDataError("gamma fit needs samples")
    if np.any(x <= 0):
        return FitRefusal("gamma", "non-positive samples", len(x))
    if x.min() == x.max():  # exact, unlike a var() == 0 test under rounding
        return FitRefusal("gamma", "zero variance", len(x))
    mean = x.mean()
    variance = x.var()
    target = math.log(mean) - np.log(x).mean()
    shape = mean * mean / variance  # moment start
    for _ in range(100):
        residual = math.log(shape) - special.digamma(shape) - target
        slope = 1.0 / shape - special.polygamma(1, shape)
        step = residual / slope
        updated = shape - step
        if updated <= 0:
            updated = shape / 2.0
        if abs(updated - shape) < 1e-10:
            shape = updated
            break
        shape = updated
    scale = mean / shape
    distance = ks_distance(x, stats.gamma(a=shape, scale=scale).cdf)
    return FitReport("gamma", {"shape": float(shape), "scale": float(scale)},
                     distance, len(x))


def fit_lognormal(samples: Sequence[float]) -> FitOutcome:
    x = np.asarray(samples, dtype=np.float64)
    if len(x) == 0:
        raise InsufficientDataError("log-normal fit needs samples")
    if np.any(x <= 0):
        return FitRefusal("lognormal", "non-positive samples", len(x))
    if x.min() == x.max():
        return FitRefusal("lognormal", "zero variance", len(x))
    logs = np.log(x)
    mu = float(logs.mean())
    sigma = float(logs.std())
    distance = ks_distance(x, stats.lognorm(s=sigma, scale=math.exp(mu)).cdf)
    return FitReport("lognormal", {"mu": mu, "sigma": sigma}, distance, len(x))


def fit_exponential(samples: Sequence[float]) -> FitOutcome:
    x = np.asarray(samples, dtype=np.float64)
    if len(x) == 0:
        raise InsufficientDataError("exponential fit needs samples")
    mean = x.mean()
    if mean <= 0:
        raise InsufficientDataError("exponential fit needs a positive mean gap")
    rate = 1.0 / mean
    distance = ks_distance(x, stats.expon(scale=mean).cdf)
    return FitReport("exponential", {"rate": float(rate)}, distance, len(x))


def fit_weibull(samples: Sequence[float]) -> FitOutcome:
    """Weibull MLE via Newton on the profile shape equation; zero gaps are
    outside the support and excluded by the caller."""
    x = np.asarray(samples, dtype=np.float64)
    if len(x) < 2:
        return FitRefusal("weibull", "need at least two samples", len(x))
    if np.any(x <= 0):
        return FitRefusal("weibull", "non-positive samples", len(x))
    if x.min() == x.max():
        return FitRefusal("weibull", "zero variance", len(x))
    logs = np.log(x)
    mean_log = logs.mean()
    shape = 1.0
    for _ in range(100):
        powered = x**shape
        weighted = (powered * logs).sum() / powered.sum()
        g = weighted - 1.0 / shape - mean_log
        powered_log2 = (powered * logs * logs).sum()
        d_weighted = powered_log2 / powered.sum() - weighted**2
        slope = d_weighted + 1.0 / (shape * shape)
        step = g / slope
        updated = shape - step
        if updated <= 0:
            updated = shape / 2.0
        if abs(updated - shape) < 1e-10:
            shape = updated
            break
        shape = updated
    scale = float((x**shape).mean() ** (1.0 / shape))
    distance = ks_distance(x, stats.weibull_min(c=shape, scale=scale).cdf)
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
            "gamma": self.gamma.to_dict(),
            "lognormal": self.lognormal.to_dict(),
        }


MIN_NONZERO_WINDOWS = 30


def windowed_volume(flow: FlowSeries, window_seconds: float = 60.0) -> WindowedVolumeResult:
    """Limit-order volume per non-overlapping window across the session.
    Zero-volume windows are excluded from both fits and counted; fewer than
    30 nonzero windows refuses the fits with a sample-size reason."""
    if len(flow) == 0:
        raise InsufficientDataError("empty flow")
    limits = flow.limit_orders()
    if not limits:
        raise InsufficientDataError("flow has no limit orders")
    start, end = flow.session
    window_ns = int(round(window_seconds * NANOS_PER_SECOND))
    if window_ns <= 0:
        raise ValueError("window must be positive")
    n_windows = max(1, -((start - end) // window_ns))  # ceil over the session
    volumes = [0] * n_windows
    for record in limits:
        if not start <= record.time <= end:
            continue
        index = min((record.time - start) // window_ns, n_windows - 1)
        volumes[index] += record.size
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
            "exponential": self.exponential.to_dict(),
            "weibull": self.weibull.to_dict(),
        }


def interarrival_fit(flow: FlowSeries) -> InterarrivalResult:
    """Consecutive limit-order gap fits.  The exponential rate is 1/mean over
    all gaps; zero gaps fall outside the Weibull support and are excluded
    from that fit with a count."""
    limits = flow.limit_orders()
    if len(limits) < 2:
        raise InsufficientDataError("need at least two limit orders")
    times = np.array([r.time for r in limits], dtype=np.int64)
    gaps = np.diff(times) / NANOS_PER_SECOND
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
    bucket_midpoints: list  # seconds from session start
    volumes: list
    coefficients: tuple  # (a, b, c) of a*x^2 + b*x + c
    stderr_a: float
    vertex_seconds: Optional[float]
    u_shape: bool

    def to_dict(self) -> dict:
        return {
            "bucket_minutes": self.bucket_minutes,
            "volumes": list(self.volumes),
            "coefficients": list(self.coefficients),
            "stderr_a": self.stderr_a,
            "vertex_seconds": self.vertex_seconds,
            "u_shape": self.u_shape,
        }


def intraday_profile(flow: FlowSeries, bucket_minutes: float = 15.0) -> IntradayProfile:
    """Least-squares quadratic over per-bucket limit volume.  U-shaped means
    the curvature is positive, significant (|a| > 2 SE), and the vertex sits
    strictly inside the session."""
    if len(flow) == 0:
        raise InsufficientDataError("empty flow")
    start, end = flow.session
    bucket_ns = int(round(bucket_minutes * 60 * NANOS_PER_SECOND))
    span = end - start
    n_buckets = max(1, -((-span) // bucket_ns)) if span > 0 else 1
    if n_buckets < 3:
        raise InsufficientDataError(f"flow spans {n_buckets} buckets; need >= 3")
    volumes = [0] * n_buckets
    for record in flow.limit_orders():
        if not start <= record.time <= end:
            continue
        index = min((record.time - start) // bucket_ns, n_buckets - 1)
        volumes[index] += record.size
    midpoints = [((i + 0.5) * bucket_ns) / NANOS_PER_SECOND for i in range(n_buckets)]
    x = np.asarray(midpoints)
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
    session_seconds = span / NANOS_PER_SECOND
    u_shape = (
        a > 0
        and abs(a) > 2 * stderr_a
        and vertex is not None
        and 0.0 < vertex < session_seconds
    )
    return IntradayProfile(bucket_minutes, midpoints, volumes, (a, b, c),
                           stderr_a, vertex, u_shape)


@dataclass
class ExecutionComparison:
    candidate: dict
    baseline: dict
    action_trace_distance: float

    def to_dict(self) -> dict:
        return {
            "candidate": self.candidate,
            "baseline": self.baseline,
            "action_trace_distance": self.action_trace_distance,
        }


def trace_distance(action_trace: Sequence[int],
                   action_space: Optional[ActionSpace] = None) -> float:
    """Mean |a_i - 1| over the trace's multipliers: 0 means TWAP-identical
    sizing, since |a*N - N|/N reduces to |a - 1|."""
    if not action_trace:
        return 0.0
    space = action_space or ActionSpace()
    return float(np.mean([abs(space.decode(i).multiplier - 1.0) for i in action_trace]))


def _run_summary(result: EpisodeResult) -> dict:
    return {
        "slippage": result.slippage,
        "fill_ratio": result.fill_ratio,
        "reward_sum": result.total_reward,
        "fill_vwap": result.fill_vwap,
        "arrival_price": result.arrival_price,
        "filled_quantity": result.filled_quantity,
    }


def execution_report(episode: EpisodeResult, twap_baseline: EpisodeResult,
                     action_space: Optional[ActionSpace] = None) -> ExecutionComparison:
    """Side-by-side execution quality, candidate vs the TWAP baseline run on
    identical data and seeds."""
    if episode.parent_quantity != twap_baseline.parent_quantity:
        raise ValueError("runs trade different parent quantities")
    if len(episode.action_trace) != len(twap_baseline.action_trace):
        raise ValueError("runs cover different period counts")
    return ExecutionComparison(
        candidate=_run_summary(episode),
        baseline=_run_summary(twap_baseline),
        action_trace_distance=trace_distance(episode.action_trace, action_space),
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
    """Serialize a mapping of plain values and reports, at any depth; a
    report is written as its to_dict()."""
    with open(path, "w") as fh:
        json.dump(sections, fh, indent=2, sort_keys=True,
                  default=lambda report: report.to_dict())
        fh.write("\n")


def samples_to_csv(samples: Sequence[float], path, column: str = "value") -> None:
    with open(path, "w") as fh:
        fh.write(column + "\n")
        for value in samples:
            fh.write(f"{value}\n")
