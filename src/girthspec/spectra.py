"""Adjacency spectrum of a bipartite graph from one SVD of its biadjacency block.

For A = [[0, D], [D^T, 0]] the eigenvalues are +/- the singular values of
the n x m block D, plus |V| - 2 Rank(D) zeros, so the spectrum is
symmetric about the origin by construction. Singular values are clustered
into (value, multiplicity) pairs so that downstream integer bookkeeping
can rely on exact multiplicities. Both tolerances are fixed, relative to
the largest singular value: the zero tolerance only has to reproduce the
rank, which is audited exactly over GF(p), and a mismatch is an error,
not a silent choice. ``_cluster`` is the one clusterer of all three float
spectra: this one, the derived edge spectrum and the direct baseline's.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, SizeCapError
from .graph_core import BipartiteGraph, neighbor_lists

__all__ = [
    "AdjacencySpectrum",
    "adjacency_spectrum",
    "rank_of_biadjacency",
]

DEFAULT_DENSE_CAP = 4096
# Fixed primes near 2^31 for the exact rank audit; the second is tried
# only when the first gives a rank below the singular-value count.
RANK_PRIMES = (2_147_483_647, 2_147_483_629)
# Cost model of the GF(p) elimination, in numpy element updates of its
# dense phase (about 8 ns each): the weight of one dict-row update of the
# sparse phase, and the fixed cost of one dense step's numpy calls. Both
# were tuned on array codes, random bi-regular graphs of degree 3 to 20
# and small bi-regular graphs of girth 6.
_DICT_OVER_DENSE_COST = 128
_DENSE_STEP_OVERHEAD = 4000


@dataclass(frozen=True)
class AdjacencySpectrum:
    """Clustered real spectrum of the symmetric adjacency matrix.

    ``eigenvalues`` holds (value, multiplicity) pairs with values strictly
    decreasing; multiplicities sum to ``total`` = |V|. It comes from one
    SVD of the biadjacency block D, so it is symmetric about the origin by
    construction; ``rank`` = 2 Rank(D) is audited exactly over GF(p).
    """

    eigenvalues: tuple[tuple[float, int], ...]
    total: int
    rank: int
    nullity: int

    def power_sum(self, k: int) -> float:
        return float(sum(mult * value ** k for value, mult in self.eigenvalues))

    def max_abs(self) -> float:
        return max((abs(v) for v, _ in self.eigenvalues), default=0.0)


def _cluster(values: np.ndarray, tol: float,
             mults: np.ndarray | None = None) -> list[tuple[complex, int]]:
    """Greedy centroid clustering of real or complex values within
    distance tol, each counted ``mults`` times (once by default): the
    (centroid, multiplicity) pairs in (real, imag) order."""
    order = np.lexsort((values.imag, values.real))
    weights = [1] * len(order) if mults is None else mults[order].tolist()
    centroids: list[complex] = []
    sums: list[complex] = []
    sizes: list[int] = []
    for v, w in zip(values[order].tolist(), weights):
        placed = False
        for idx in range(len(centroids) - 1, -1, -1):
            if v.real - centroids[idx].real > tol:
                break
            if abs(v - centroids[idx]) <= tol:
                sums[idx] += w * v
                sizes[idx] += w
                centroids[idx] = sums[idx] / sizes[idx]
                placed = True
                break
        if not placed:
            centroids.append(v)
            sums.append(w * v)
            sizes.append(w)
    return sorted(zip(centroids, sizes), key=lambda t: (t[0].real, t[0].imag))


def adjacency_spectrum(g: BipartiteGraph,
                       dense_cap: int = DEFAULT_DENSE_CAP) -> AdjacencySpectrum:
    """Clustered spectrum of the adjacency matrix, from one SVD of D.

    The nonzero eigenvalues are +/- the singular values of D above the
    zero tolerance 1e-7 * max(1, |lambda|_max), clustered within
    max(1e-8, 1e-10 * |lambda|_max), where |lambda|_max is the largest
    singular value; the other |V| - 2 Rank(D) eigenvalues are exactly 0.
    """
    if g.node_count > dense_cap:
        raise SizeCapError(f"|V| = {g.node_count} exceeds dense cap {dense_cap}")
    sv = np.linalg.svd(g.dense(), compute_uv=False)  # descending
    lam_max = float(sv[0])
    zero_tolerance = 1e-7 * max(1.0, lam_max)

    nonzero = sv[sv > zero_tolerance]
    float_rank = len(nonzero)
    audit = rank_of_biadjacency(g)
    if audit < float_rank:
        # rank over GF(p) never exceeds rank over Q: a deficit may be an
        # unlucky prime, so a second one decides
        audit = max(audit, rank_of_biadjacency(g, prime=RANK_PRIMES[1]))
    if audit != float_rank:
        below = sv[sv <= zero_tolerance]
        largest_below = float(below[0]) if below.size else None
        smallest_above = float(nonzero[-1]) if float_rank else None
        raise NumericalError(
            f"rank audit failed: {float_rank} singular values of D exceed "
            f"zero_tolerance = {zero_tolerance!r} but D has exact rank {audit} "
            "over GF(p), p near 2^31; largest singular value at or below the "
            f"tolerance: {largest_below!r}, smallest above: {smallest_above!r}")

    clusters = _cluster(nonzero, max(1e-8, 1e-10 * lam_max))
    nullity = g.node_count - 2 * float_rank
    eigenvalues = ([(v, m) for v, m in reversed(clusters)]
                   + ([(0.0, nullity)] if nullity else [])
                   + [(-v, m) for v, m in clusters])
    return AdjacencySpectrum(
        eigenvalues=tuple(eigenvalues),
        total=g.node_count,
        rank=2 * float_rank,
        nullity=nullity,
    )


def rank_of_biadjacency(g: BipartiteGraph, *,
                        prime: int = RANK_PRIMES[0]) -> int:
    """Exact rank of the biadjacency block D over GF(prime).

    Rank over GF(p) is at most the rank over Q, and equal to it unless p
    divides every minor of D of the rational rank's size, which a prime
    near 2^31 makes unlikely for 0/1 matrices. A small field is no audit:
    the 6-cycle's D has rank 3 over Q but 2 over GF(2). Rows are taken
    from the smaller side, so at most min(n, m) pivots are eliminated.
    """
    rows, _ = g._roots()
    return _rank_mod_p([dict.fromkeys(nbrs, 1)
                        for nbrs in neighbor_lists(rows)], prime)


def _rank_mod_p(rows: list[dict[int, int]], p: int) -> int:
    """Rank over GF(p) of a sparse matrix given as rows {column: value}.

    Markowitz-style elimination, in place: the lightest live row is the
    next pivot row and its column shared by the fewest live rows is the
    pivot column, which keeps fill-in low on sparse graphs. Once the next
    sparse pivot would cost more than one step of dense elimination on
    the rows left, those rows finish densely in numpy; on random graphs
    fill-in makes the sparse phase alone several times slower.
    """
    col_rows: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        for c in row:
            col_rows.setdefault(c, set()).add(i)
    live = {i for i, row in enumerate(rows) if row}
    heap = [(len(rows[i]), i) for i in live]
    heapq.heapify(heap)
    rank = 0
    while heap:
        weight, i = heapq.heappop(heap)
        if i not in live or weight != len(rows[i]):
            continue  # stale entry: a current one is queued
        pivot = rows[i]
        c = min(pivot, key=lambda col: len(col_rows[col]))
        sparse_cost = weight * len(col_rows[c]) * _DICT_OVER_DENSE_COST
        if sparse_cost > len(live) * len(col_rows) + _DENSE_STEP_OVERHEAD:
            break
        live.discard(i)
        rank += 1
        inv = pow(pivot[c], -1, p)
        for col in pivot:
            col_rows[col].discard(i)
        for j in list(col_rows[c]):
            row = rows[j]
            before = len(row)
            f = row[c] * inv % p
            for col, v in pivot.items():
                value = (row.get(col, 0) - f * v) % p
                if value:
                    if col not in row:
                        col_rows[col].add(j)
                    row[col] = value
                elif col in row:
                    del row[col]
                    col_rows[col].discard(j)
            if not row:
                live.discard(j)
            elif len(row) != before:
                heapq.heappush(heap, (len(row), j))
        for col in pivot:
            if not col_rows[col]:
                del col_rows[col]
    if not live:
        return rank
    index = {c: k for k, c in enumerate(col_rows)}
    dense = np.zeros((len(live), len(index)), dtype=np.int64)
    for k, i in enumerate(live):
        for c, v in rows[i].items():
            dense[k, index[c]] = v
    if dense.shape[0] > dense.shape[1]:
        dense = np.ascontiguousarray(dense.T)
    return rank + _dense_rank_mod_p(dense, p)


def _dense_rank_mod_p(a: np.ndarray, p: int) -> int:
    """Rank over GF(p) of an int64 matrix with entries in [0, p), p < 2^31.

    Overwrites ``a``. Products of two residues stay below 2^62, so no
    int64 step overflows.
    """
    rank = 0
    for col in range(a.shape[1]):
        if rank == a.shape[0]:
            break
        nz = np.flatnonzero(a[rank:, col])
        if not nz.size:
            continue
        piv = rank + int(nz[0])
        a[[rank, piv]] = a[[piv, rank]]
        pivot_row = a[rank, col:] * pow(int(a[rank, col]), -1, p) % p
        below = a[rank + 1:, col:]
        below -= np.outer(below[:, 0], pivot_row)
        np.remainder(below, p, out=below)
        rank += 1
    return rank
