"""Shared result types for cycle counting routes."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import RouteInapplicableError

__all__ = ["CycleCounts", "cycle_window_end"]


@dataclass(frozen=True)
class CycleCounts:
    """Map from even cycle length k to the exact count N_k.

    ``residuals`` records, for spectral routes, the distance from the raw
    floating value to the rounded integer; exact routes leave it empty.
    """

    girth: int
    counts: dict[int, int]
    residuals: dict[int, float] = field(default_factory=dict)


def cycle_window_end(girth: int, max_k: int | None) -> int:
    """max_k, by default 2g - 2, once checked against the window of even
    k in [g, 2g - 2] where tailless backtrackless closed (TBC) walks of
    length k are exactly the k-cycles, traversed both ways from each node."""
    if max_k is None:
        max_k = 2 * girth - 2
    if max_k % 2 or girth % 2 or not girth <= max_k <= 2 * girth - 2:
        raise RouteInapplicableError(
            f"max_k={max_k} must be even and within [g, 2g-2] = [{girth}, "
            f"{2 * girth - 2}]: TBC walks and cycles part ways at length 2g")
    return max_k
