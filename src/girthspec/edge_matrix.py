"""Exact trace powers via Ihara-Bass, and the directed edge matrix A_e.

No counting route builds the 2|E| x 2|E| directed edge matrix A_e.
The ``trace`` route uses the Ihara-Bass identity (Bass 1992; Kotani &
Sunada 2000), tr(A_e^k) = tr(M^k) + (|E| - |V|)(1 + (-1)^k), with the sparse
2|V| x 2|V| integer matrix M = [[A, I - D], [I, 0]]. Powers of M are
multiplied to depth ceil(k/2) only, and each trace is read off two half
powers. Traces are exact: the int64 fast path is guarded by a proven bound
and falls back to Python big integers.

``build_edge_matrix`` constructs A_e itself, the reference the tests
compare against. Arcs are numbered so that arc i and arc |E| + i are
mutual inverses, with all U -> W arcs first; edges are taken in
lexicographic (u, w) order, so the construction is deterministic. With
that order A_e = [[0, X], [Y, 0]], and the ``direct`` baseline gets its
eigenvalues as the square roots, with both signs, of the eigenvalues of
the |E| x |E| product XY.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .counts import CycleCounts, cycle_window_end
from .errors import NumericalError, RouteInapplicableError, SizeCapError
from .graph_core import BipartiteGraph, GraphProfile, profile

__all__ = [
    "DirectedEdgeMatrix",
    "EdgeSpectrum",
    "build_edge_matrix",
    "ihara_bass_matrix",
    "trace_powers",
    "trace_power_counts",
    "edge_spectrum_direct",
    "multiset_matching_distance",
]

DEFAULT_DIRECT_CAP = 6000  # cap on 2|E| for the dense nonsymmetric eigensolve
INT64_LIMIT = 2 ** 62  # int64 traces run only while 1^T |M|^K 1 stays below


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
    edges = g.sorted_edges
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


def ihara_bass_matrix(g: BipartiteGraph) -> sp.csr_matrix:
    """M = [[A, I - D], [I, 0]], the 2|V| x 2|V| int64 Ihara-Bass matrix.

    A is the adjacency matrix and D the degree matrix over combined node
    ids (left node u is id u, right node w is id left_count + w), so
    isolated nodes take part; ``trace_powers`` corrects for all of them.
    """
    n, v = g.left_count, g.node_count
    edges = np.array(g.sorted_edges, dtype=np.int64).reshape(-1, 2)
    left, right = edges[:, 0], n + edges[:, 1]
    ids = np.arange(v, dtype=np.int64)
    loss = 1 - np.bincount(np.concatenate([left, right]), minlength=v)  # 1 - d
    rows = np.concatenate([left, right, ids, v + ids])
    cols = np.concatenate([right, left, v + ids, ids])
    data = np.concatenate([np.ones(2 * len(edges), dtype=np.int64), loss,
                           np.ones(v, dtype=np.int64)])
    return sp.csr_matrix((data, (rows, cols)), shape=(2 * v, 2 * v))


def _int64_safe(m: sp.csr_matrix, max_k: int) -> bool:
    """True if the int64 half-power traces of M up to max_k cannot overflow.

    Every row of |M| sums to at least 1, so 1^T |M|^k 1 grows with k; at
    k = max_k it bounds every entry of M^j (j <= max_k), every partial sum
    of their products and every trace. It is computed in float64, and the
    factor 2 covers its rounding.
    """
    a = abs(m).astype(np.float64)
    bound = np.ones(m.shape[0])
    for _ in range(max_k):
        bound = a @ bound
    return 2 * float(bound.sum()) < INT64_LIMIT


def _traces_int64(m: sp.csr_matrix, max_k: int) -> dict[int, int]:
    """tr(M^k) = sum(P_a o P_b^T), P_j = M^j, a = ceil(k/2), b = floor(k/2)."""
    powers = [sp.identity(m.shape[0], dtype=np.int64, format="csr"), m]
    while len(powers) <= (max_k + 1) // 2:
        powers.append(powers[-1] @ m)
    transposed = [p.T.tocsr() for p in powers[:max_k // 2 + 1]]
    return {k: int(powers[(k + 1) // 2].multiply(transposed[k // 2]).sum())
            for k in range(1, max_k + 1)}


def _traces_bigint(m: sp.csr_matrix, max_k: int) -> dict[int, int]:
    """``_traces_int64`` in Python integers, over the weighted rows of M."""
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


def trace_powers(g: BipartiteGraph, max_k: int) -> dict[int, int]:
    """Exact tr(A_e^k) for k = 1 .. max_k, without building A_e.

    Ihara-Bass: tr(A_e^k) = tr(M^k) + (|E| - |V|)(1 + (-1)^k).
    """
    m = ihara_bass_matrix(g)
    if _int64_safe(m, max_k):
        traces = _traces_int64(m, max_k)
    else:
        traces = _traces_bigint(m, max_k)
    shift = 2 * (g.edge_count - g.node_count)
    return {k: t + (0 if k % 2 else shift) for k, t in traces.items()}


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
    counts = {}
    for k in range(girth, max_k + 1, 2):
        t = traces[k]
        if t % (2 * k):
            raise NumericalError(f"tr(A_e^{k}) = {t} is not divisible by 2k")
        counts[k] = t // (2 * k)
    return CycleCounts(girth=girth, counts=counts)


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
                         cluster_tolerance: float = 1e-6,
                         dense_cap: int = DEFAULT_DIRECT_CAP) -> EdgeSpectrum:
    """Complex eigenvalues of A_e; the O(|E|^3) baseline.

    A_e = [[0, X], [Y, 0]] has characteristic polynomial det(lambda^2 I - XY),
    so the dense eigensolve runs on the |E| x |E| product XY, built from the
    edge list without A_e, and each of its eigenvalues mu gives +/- sqrt(mu).
    Exists for verification and benchmarking of the transfer route; the
    default cluster tolerance is looser than the symmetric case because
    nonsymmetric eigenproblems are less well conditioned.
    """
    e = g.edge_count
    if 2 * e > dense_cap:
        raise SizeCapError(f"2|E| = {2 * e} exceeds dense cap {dense_cap}")
    u, w = np.array(g.sorted_edges, dtype=np.int64).reshape(-1, 2).T
    linked = np.zeros((g.left_count, g.right_count), dtype=bool)
    linked[u, w] = True
    # XY is the U -> W corner of A_e^2: arc u_i -> w_i reaches arc u_j -> w_j
    # through arc w_i -> u_j, so XY[i, j] = 1 iff (u_j, w_i) is an edge
    # other than edges i and j.
    xy = (linked[u[None, :], w[:, None]] & (u[:, None] != u[None, :])
          & (w[:, None] != w[None, :])).astype(np.float64)
    roots = np.sqrt(np.linalg.eigvals(xy).astype(complex))
    clusters = _cluster_complex(np.concatenate([roots, -roots]), cluster_tolerance)
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
