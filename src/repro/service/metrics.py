"""Request counters and latency quantiles for the ``stats`` op.

Everything here is plain in-process bookkeeping on the event loop thread
(no locks needed: asyncio handlers never run concurrently with each
other), sized O(1) per request — latency samples live in a bounded ring
so a long-lived server's memory does not grow with traffic.
"""

from __future__ import annotations

import math
import time
from collections import Counter, deque

DEFAULT_SAMPLE_LIMIT = 4096


def quantile(samples: list[float], q: float) -> float:
    """Nearest-rank quantile of ``samples`` (``q`` in [0, 1]).

    Returns ``nan`` for an empty sample set; ``q=0.5`` on one sample is
    that sample.  Nearest-rank keeps the answer an actual observed value.
    """
    if not samples:
        return math.nan
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


class LatencyRecorder:
    """A bounded ring of request latencies with summary quantiles."""

    def __init__(self, sample_limit: int = DEFAULT_SAMPLE_LIMIT) -> None:
        self._samples: deque[float] = deque(maxlen=sample_limit)
        self.count = 0

    def record(self, seconds: float) -> None:
        self._samples.append(seconds)
        self.count += 1

    def summary(self) -> dict[str, float | int]:
        """Count plus p50/p90/p99 and mean over the retained window, in
        milliseconds (requests are sub-second; ms reads naturally)."""
        samples = list(self._samples)
        to_ms = 1000.0
        return {
            "count": self.count,
            "p50_ms": quantile(samples, 0.50) * to_ms if samples else None,
            "p90_ms": quantile(samples, 0.90) * to_ms if samples else None,
            "p99_ms": quantile(samples, 0.99) * to_ms if samples else None,
            "mean_ms": (sum(samples) / len(samples)) * to_ms if samples else None,
        }


class ServiceMetrics:
    """All serving counters in one place.

    The coalescing ratio is *requests served per computation* among the
    requests that reached the compute path: ``(computations + coalesced)
    / computations``.  It is 1.0 when every compute request paid its own
    computation and grows as duplicate in-flight requests share one.

    The per-op tables gain a key for every distinct ``op`` recorded, so
    callers pass a protocol op or ``None``, never a client's raw string.
    """

    def __init__(self) -> None:
        self.started_monotonic = time.monotonic()
        self.requests_total = 0
        self.requests_by_op: Counter[str] = Counter()
        self.errors_by_code: Counter[str] = Counter()
        self.timeouts = 0
        self.computations = 0
        self.coalesced = 0
        self.progress_frames = 0
        self.overall_latency = LatencyRecorder()
        self.latency_by_op: dict[str, LatencyRecorder] = {}

    def record_request(self, op: str | None) -> None:
        self.requests_total += 1
        if op is not None:
            self.requests_by_op[op] += 1

    def record_error(self, code: str) -> None:
        self.errors_by_code[code] += 1

    def record_latency(self, op: str | None, seconds: float) -> None:
        self.overall_latency.record(seconds)
        if op is not None:
            recorder = self.latency_by_op.get(op)
            if recorder is None:
                recorder = self.latency_by_op[op] = LatencyRecorder()
            recorder.record(seconds)

    def coalescing_ratio(self) -> float:
        if self.computations == 0:
            return 0.0
        return (self.computations + self.coalesced) / self.computations

    def snapshot(self) -> dict:
        """JSON-able stats block (the server adds cache/truth sections)."""
        return {
            "uptime_seconds": time.monotonic() - self.started_monotonic,
            "requests": {
                "total": self.requests_total,
                "by_op": dict(self.requests_by_op),
            },
            "errors": {
                "total": sum(self.errors_by_code.values()),
                "by_code": dict(self.errors_by_code),
            },
            "timeouts": self.timeouts,
            "computations": self.computations,
            "coalesced": self.coalesced,
            "coalescing_ratio": self.coalescing_ratio(),
            "progress_frames": self.progress_frames,
            "latency": {
                "overall": self.overall_latency.summary(),
                "by_op": {
                    op: recorder.summary()
                    for op, recorder in self.latency_by_op.items()
                },
            },
        }
