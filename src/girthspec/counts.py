"""Shared result types for cycle counting routes."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import NumericalError, RouteInapplicableError

__all__ = ["CycleCounts", "counts_from_traces", "cycle_window_end"]

FOREST = "forest input: no cycles to count"  # every route's refusal


@dataclass(frozen=True)
class CycleCounts:
    """Map from even cycle length k to the exact count N_k.

    ``residuals`` records, for spectral routes, the distance from the raw
    floating value to the rounded integer; exact routes leave it empty.
    """

    girth: int
    counts: dict[int, int]
    residuals: dict[int, float] = field(default_factory=dict)


def cycle_window_end(girth: int | None, max_k: int | None) -> int:
    """max_k, by default 2g - 2, once checked against the window of even
    k in [g, 2g - 2] where tailless backtrackless closed (TBC) walks of
    length k are exactly the k-cycles, traversed both ways from each node;
    a forest (girth None) has no window."""
    if girth is None:
        raise RouteInapplicableError(FOREST)
    if max_k is None:
        max_k = 2 * girth - 2
    if max_k % 2 or girth % 2 or not girth <= max_k <= 2 * girth - 2:
        raise RouteInapplicableError(
            f"max_k={max_k} must be even and within [g, 2g-2] = [{girth}, "
            f"{2 * girth - 2}]: TBC walks and cycles part ways at length 2g")
    return max_k


def counts_from_traces(traces: dict[int, int]) -> CycleCounts:
    """The girth g, the first k where tr(A_e^k) = 2g N_g is not 0, and N_k
    = tr(A_e^k) / 2k from g on, from a map k -> tr(A_e^k) over even k; a
    trace that 2k does not divide means the arithmetic went wrong."""
    girth = min(k for k, t in traces.items() if t)
    window = {k: t for k, t in traces.items() if k >= girth}
    for k, t in window.items():
        if t % (2 * k):
            raise NumericalError(f"tr(A_e^{k}) = {t} is not divisible by 2k")
    return CycleCounts(girth, {k: t // (2 * k) for k, t in window.items()})
