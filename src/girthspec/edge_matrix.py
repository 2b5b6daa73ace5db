"""The exact trace engine, trace powers via Ihara-Bass, and A_e itself.

No counting route builds the 2|E| x 2|E| directed edge matrix A_e. Both
exact routes count from traces of powers of a small integer matrix, taken
by one engine, ``power_traces``: ``trace`` from the 2|V| x 2|V| Ihara-Bass
matrix M = [[A, I - D], [I, 0]], as tr(A_e^k) = tr(M^k) + (|E| - |V|)(1 +
(-1)^k) (Bass 1992; Kotani & Sunada 2000), and ``transfer`` from the Gram
matrix D^T D. Each trace is read off two half powers, exactly: a bound on
the walk sums picks dense float64, sparse int64 or Python integers.

``build_edge_matrix`` constructs A_e itself, the reference the tests
compare against. Arcs are numbered so that arc i and arc |E| + i are
mutual inverses, with all U -> W arcs first; edges are taken in
lexicographic (u, w) order, so the construction is deterministic. With
that order A_e = [[0, X], [Y, 0]], and the ``direct`` baseline gets its
eigenvalues as the square roots, with both signs, of the eigenvalues of
the |E| x |E| product XY.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .counts import CycleCounts, counts_from_traces, cycle_window_end
from .errors import NumericalError, RouteInapplicableError, SizeCapError
from .graph_core import DENSE_MAX_SIZE, BipartiteGraph, GraphProfile, profile

__all__ = [
    "DirectedEdgeMatrix",
    "EdgeSpectrum",
    "build_edge_matrix",
    "ihara_bass_matrix",
    "power_traces",
    "trace_powers",
    "trace_power_counts",
    "edge_spectrum_direct",
    "multiset_matching_distance",
]

DEFAULT_DIRECT_CAP = 6000  # cap on 2|E| for the dense nonsymmetric eigensolve
INT64_LIMIT = 2 ** 62  # power_traces leaves int64 from this bound on
# edge_spectrum_direct's cluster distance, looser than for a symmetric
# matrix: nonsymmetric eigenproblems are less well conditioned
DIRECT_CLUSTER_TOL = 1e-6

log = logging.getLogger("girthspec")


@dataclass(frozen=True)
class DirectedEdgeMatrix:
    """Sparse 0/1 matrix over the 2|E| arcs of the symmetric digraph.

    ``arcs[i]`` is (origin, terminus) in combined node ids (left node u is
    id u, right node w is id left_count + w). ``rows[i]`` lists the arcs j
    that continue arc i without reversing it.
    """

    arc_count: int
    arcs: tuple[tuple[int, int], ...]
    rows: tuple[tuple[int, ...], ...]

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.arc_count, self.arc_count))
        for i, row in enumerate(self.rows):
            for j in row:
                a[i, j] = 1.0
        return a


@dataclass(frozen=True)
class EdgeSpectrum:
    """Clustered complex spectrum of the directed edge matrix."""

    eigenvalues: tuple[tuple[complex, int], ...]
    total: int

    def power_sum(self, k: int) -> complex:
        return sum(mult * value ** k for value, mult in self.eigenvalues)

    def expand(self) -> list[complex]:
        return [v for v, mult in self.eigenvalues for _ in range(mult)]

    def max_abs(self) -> float:
        return max((abs(v) for v, _ in self.eigenvalues), default=0.0)

    def multiplicity_of(self, value: complex, tol: float = 1e-6) -> int:
        return sum(m for v, m in self.eigenvalues if abs(v - value) <= tol)


def build_edge_matrix(g: BipartiteGraph) -> DirectedEdgeMatrix:
    """Construct the 2|E| x 2|E| directed edge matrix of the graph."""
    n = g.left_count
    edges = sorted(g.edges)
    e = len(edges)
    # arc i = (u, w), arc e + i = (w, u), in combined node ids
    arcs = [(u, n + w) for u, w in edges] + [(n + w, u) for u, w in edges]
    # arcs grouped by origin node
    by_origin: dict[int, list[int]] = {}
    for i, (o, _) in enumerate(arcs):
        by_origin.setdefault(o, []).append(i)
    rows = []
    for i, (_, t) in enumerate(arcs):
        inverse = e + i if i < e else i - e
        rows.append(tuple(j for j in by_origin.get(t, ()) if j != inverse))
    return DirectedEdgeMatrix(2 * e, tuple(arcs), tuple(rows))


def ihara_bass_matrix(g: BipartiteGraph) -> sp.csr_array:
    """M = [[A, I - D], [I, 0]], the 2|V| x 2|V| int64 Ihara-Bass matrix.

    A is the adjacency matrix and D the degree matrix over combined node
    ids (left node u is id u, right node w is id left_count + w), so
    isolated nodes take part; ``trace_powers`` corrects for all of them.
    """
    n, v = g.left_count, g.node_count
    # int32 node ids give int32 index arrays, in M and in its powers
    d = g.biadjacency
    ids = np.arange(v, dtype=np.int32)
    left, right = np.repeat(ids[:n], np.diff(d.indptr)), n + d.indices
    loss = 1 - np.bincount(np.concatenate([left, right]), minlength=v)  # 1 - d
    rows = np.concatenate([left, right, ids, v + ids])
    cols = np.concatenate([right, left, v + ids, ids])
    data = np.concatenate([np.ones(2 * g.edge_count, dtype=np.int64), loss,
                           np.ones(v, dtype=np.int64)])
    return sp.csr_array((data, (rows, cols)), shape=(2 * v, 2 * v))


def _traces_bigint(m: sp.csr_array, max_k: int) -> dict[int, int]:
    """tr(M^k), k = 1 .. max_k, as ``power_traces`` takes them, in Python
    integers over the weighted rows of M."""
    rows = [dict(zip(m.indices[m.indptr[i]:m.indptr[i + 1]].tolist(),
                     m.data[m.indptr[i]:m.indptr[i + 1]].tolist()))
            for i in range(m.shape[0])]
    powers = [[{i: 1} for i in range(len(rows))]]
    for _ in range((max_k + 1) // 2):
        product = []
        for row in powers[-1]:
            acc: dict[int, int] = {}
            for t, x in row.items():
                for j, y in rows[t].items():
                    acc[j] = acc.get(j, 0) + x * y
            product.append(acc)
        powers.append(product)
    return {k: sum(x * powers[k // 2][j].get(i, 0)
                   for i, row in enumerate(powers[(k + 1) // 2])
                   for j, x in row.items())
            for k in range(1, max_k + 1)}


def power_traces(mat: sp.csr_array, top: int) -> list[int]:
    """[tr(P^0), ..., tr(P^top)] of a square integer matrix P, exactly.

    tr(P^t) = sum(P^a o (P^b)^T) with a = ceil(t/2), b = floor(t/2), so
    powers are multiplied to depth ceil(top/2) only. 1^T |P|^t 1 bounds
    every entry of P^j (j <= t), every partial sum of their products and
    tr(P^t); twice its largest value over t <= top, computed in float64
    (the factor 2 covers rounding), picks the tier: Python integers from
    INT64_LIMIT, dense float64 (exact below 2^53) up to DENSE_MAX_SIZE,
    sparse int64 otherwise.
    """
    size = mat.shape[0]
    a = sp.csr_array((np.abs(mat.data).astype(np.float64), mat.indices,
                      mat.indptr), shape=mat.shape)
    walk = np.ones(size)
    bound = float(size)
    for _ in range(top):
        walk = a @ walk
        bound = max(bound, float(walk.sum()))
    bound *= 2
    if bound >= INT64_LIMIT:
        tier = "bigint"
    elif bound < 2 ** 53 and size <= DENSE_MAX_SIZE:
        tier = "dense"
    else:
        tier = "sparse"
    log.debug("power_traces tier=%s size=%d top=%d bound=%.3g",
              tier, size, top, bound)
    if tier == "bigint":
        return [size, *_traces_bigint(mat, top).values()]
    p = mat.toarray().astype(np.float64) if tier == "dense" else mat
    powers = [None, p]
    while len(powers) <= (top + 1) // 2:
        powers.append(powers[-1] @ p)
    transposed = [None] + [q.T for q in powers[1:top // 2 + 1]]
    return [size, int(p.diagonal().sum())][:top + 1] + [
        int((powers[(t + 1) // 2] * transposed[t // 2]).sum())
        for t in range(2, top + 1)]


def trace_powers(g: BipartiteGraph, max_k: int) -> dict[int, int]:
    """Exact tr(A_e^k) for k = 1 .. max_k, without building A_e.

    Ihara-Bass: tr(A_e^k) = tr(M^k) + (|E| - |V|)(1 + (-1)^k).
    """
    traces = power_traces(ihara_bass_matrix(g), max_k)
    shift = 2 * (g.edge_count - g.node_count)
    return {k: traces[k] + (0 if k % 2 else shift) for k in range(1, max_k + 1)}


def trace_power_counts(g: BipartiteGraph, max_k: int | None = None,
                       prof: GraphProfile | None = None) -> CycleCounts:
    """Exact N_k = tr(A_e^k) / 2k for even k in [g, max_k].

    Valid for any bipartite graph (irregular included); the window is
    capped at 2g - 2 because TBC walks and cycles part ways at length 2g.
    """
    if prof is None:
        prof = profile(g)
    if prof.girth is None:
        raise RouteInapplicableError("forest input: no cycles to count")
    girth = prof.girth
    max_k = cycle_window_end(girth, max_k)
    traces = trace_powers(g, max_k)
    return counts_from_traces(girth, {k: traces[k]
                                      for k in range(girth, max_k + 1, 2)})


def _cluster_complex(values: np.ndarray, tol: float) -> list[tuple[complex, int]]:
    """Greedy centroid clustering of complex values within distance tol."""
    order = np.lexsort((values.imag, values.real))
    centroids: list[complex] = []
    sums: list[complex] = []
    sizes: list[int] = []
    for v in values[order]:
        v = complex(v)
        placed = False
        for idx in range(len(centroids) - 1, -1, -1):
            if v.real - centroids[idx].real > tol:
                break
            if abs(v - centroids[idx]) <= tol:
                sums[idx] += v
                sizes[idx] += 1
                centroids[idx] = sums[idx] / sizes[idx]
                placed = True
                break
        if not placed:
            centroids.append(v)
            sums.append(v)
            sizes.append(1)
    return sorted(zip(centroids, sizes), key=lambda t: (t[0].real, t[0].imag))


def edge_spectrum_direct(g: BipartiteGraph,
                         dense_cap: int = DEFAULT_DIRECT_CAP) -> EdgeSpectrum:
    """Complex eigenvalues of A_e; the O(|E|^3) baseline.

    A_e = [[0, X], [Y, 0]] has characteristic polynomial det(lambda^2 I - XY),
    so the dense eigensolve runs on the |E| x |E| product XY, built from the
    biadjacency block without A_e, and each of its eigenvalues mu gives
    +/- sqrt(mu); they are clustered within DIRECT_CLUSTER_TOL. Exists for
    verification and benchmarking of the transfer route.
    """
    e = g.edge_count
    if 2 * e > dense_cap:
        raise SizeCapError(f"2|E| = {2 * e} exceeds dense cap {dense_cap}")
    # edges in lexicographic (u, w) order, as build_edge_matrix takes them
    d = g.biadjacency
    u, w = np.repeat(np.arange(g.left_count), np.diff(d.indptr)), d.indices
    linked = d.toarray().astype(bool)
    # XY is the U -> W corner of A_e^2: arc u_i -> w_i reaches arc u_j -> w_j
    # through arc w_i -> u_j, so XY[i, j] = 1 iff (u_j, w_i) is an edge
    # other than edges i and j.
    xy = (linked[u[None, :], w[:, None]] & (u[:, None] != u[None, :])
          & (w[:, None] != w[None, :])).astype(np.float64)
    roots = np.sqrt(np.linalg.eigvals(xy).astype(complex))
    clusters = _cluster_complex(np.concatenate([roots, -roots]),
                                DIRECT_CLUSTER_TOL)
    total = sum(m for _, m in clusters)
    if total != 2 * e:
        raise NumericalError("edge spectrum clustering lost eigenvalues")
    return EdgeSpectrum(eigenvalues=tuple(clusters), total=total)


def multiset_matching_distance(a: EdgeSpectrum, b: EdgeSpectrum) -> float:
    """Largest pairing distance under the optimal matching of two spectra."""
    if a.total != b.total:
        raise NumericalError(
            f"spectra have different sizes: {a.total} vs {b.total}")
    from scipy.optimize import linear_sum_assignment

    xs = np.array(a.expand())
    ys = np.array(b.expand())
    cost = np.abs(xs[:, None] - ys[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())
