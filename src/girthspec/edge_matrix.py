"""The exact trace engine, trace powers via Ihara-Bass, and A_e itself.

No counting route builds the 2|E| x 2|E| directed edge matrix A_e. Both
exact routes take their traces from one engine, ``power_traces``, over
M = [[A, L], [I, 0]] (A the adjacency matrix, L diagonal): ``trace`` with
L = I - deg, as tr(A_e^k) = tr(M^k) + (|E| - |V|)(1 + (-1)^k) (Bass 1992;
Kotani & Sunada 2000), ``transfer`` with L = 0, where tr(M^(2a)) =
tr(A^(2a)) = 2 tr((D^T D)^a). M^a = [[P_a, P_(a-1) L], [P_(a-1), P_(a-2)
L]] with P_0 = I, P_1 = A and P_c = A P_(c-1) + L P_(c-2), all symmetric,
so tr(M^(2a)) = sum_ij (P_a)_ij^2 + 2 L_j (P_(a-1))_ij^2 + L_i L_j
(P_(a-2))_ij^2, P_(-1) = 0: sums of squares of |V|-sized walk matrices,
with no transpose. A walk-sum bound picks float64, int64 or Python ints.

``build_edge_matrix`` constructs A_e itself; no route calls it, and the
tests read it as the reference they compare against. Arcs are numbered
so that arc i and arc |E| + i are mutual inverses, with all U -> W arcs
first; edges are taken in lexicographic (u, w) order, so the
construction is deterministic. With that order A_e = [[0, X], [Y, 0]],
and the ``direct`` baseline gets its eigenvalues as the square roots,
with both signs, of the eigenvalues of the |E| x |E| product XY.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .counts import CycleCounts, counts_from_traces, cycle_window_end
from .errors import NumericalError, SizeCapError
from .graph_core import DENSE_MAX_SIZE, BipartiteGraph, profile

__all__ = [
    "DirectedEdgeMatrix",
    "EdgeSpectrum",
    "build_edge_matrix",
    "power_traces",
    "trace_powers",
    "trace_power_counts",
    "edge_spectrum_direct",
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


def power_traces(d: sp.sparray, loss: np.ndarray, top: int) -> list[int]:
    """[tr(M^0), tr(M^2), ..., tr(M^(2 top))], exactly, for an n x m
    integer block D and L = diag(loss); tr(M^k) = 0 for odd k, as M is
    bipartite as a digraph.

    P_c is off-diagonal for odd c (block R_c, n x m), block diagonal for
    even c (S_c, T_c). Its W columns follow from T_0 = I, R_c = D T_(c-1) +
    L_U R_(c-2), T_c = D^T R_(c-1) + L_W T_(c-2), its U columns from the
    same chain with D^T for D; each side adds its columns' terms of the sum
    of squares. With L = 0 both sides give the same sums, so the W side
    runs alone and counts twice (callers put the smaller side there); else
    the U side stops short of an odd top, as R_top^T has R_top's squares.

    Each entry of P_c, and each partial sum forming it, is at most that of
    P_c for |M| in absolute value, and each summed term is at most a term
    of tr(|M|^(2a)). So twice the largest walk sum 1^T |M|^t 1, t <= 2 top,
    in float64 (the factor 2 covers its rounding), bounds every number
    computed and picks the tier: dense Python integers from INT64_LIMIT,
    dense float64 (exact below 2^53) while D is at most DENSE_MAX_SIZE on
    each side, sparse int64 otherwise.
    """
    d = d.tocsr()
    n, m = d.shape
    small = max(n, m) <= DENSE_MAX_SIZE
    # 1^T |M|^t 1 = 1^T (y_t + y_(t-1)) for y_t = |A| y_(t-1) + |L| y_(t-2)
    # and y_0 = y_(-1) = 1
    walks = abs(d.toarray() if small else d).astype(np.float64)
    prev = cur = np.ones(n + m)
    bound = 2.0 * (n + m)
    for _ in range(2 * top):
        prev, cur = cur, (np.concatenate([walks @ cur[n:], walks.T @ cur[:n]])
                          + np.abs(loss) * prev)
        bound = max(bound, float(cur.sum() + prev.sum()))
    bound *= 2
    tier = ("bigint" if bound >= INT64_LIMIT else
            "dense" if bound < 2 ** 53 and small else "sparse")
    if tier == "bigint":
        d, loss = d.toarray().astype(object), loss.astype(object)
    # sparse products need D^T in CSR; dense blocks take it as a view
    dt = d.T.tocsr() if tier == "sparse" else d.T
    sides = [(d, dt, loss[:n], loss[n:])]
    if loss.any():
        sides.append((dt, d, loss[n:], loss[:n]))
    log.debug("power_traces tier=%s form=%s shape=%s top=%d bound=%.3g",
              tier, "ihara-bass" if len(sides) == 2 else "adjacency",
              (n, m), top, bound)
    traces = [2 * (n + m)] + [0] * top
    dense = tier != "sparse"
    short = len(sides) == 2 and top % 2 == 1

    def rows(x, w):  # w over the rows of block x, shaped like its values
        return w[:, None] if dense else np.repeat(w, np.diff(x.indptr))

    for side, (x, xt, lr, lc) in enumerate(sides):  # blocks of x's columns
        if dense:
            kind = loss.dtype if tier == "bigint" else np.float64
            prev, cur = np.zeros(x.shape, kind), np.eye(x.shape[1], dtype=kind)
        else:
            prev = sp.csr_array(x.shape, dtype=np.int64)
            cur = sp.eye_array(x.shape[1], dtype=np.int64, format="csr")
        for c in range(top + 1 - (short and side)):
            rw = lr if c % 2 else lc  # L on the rows of block c
            if c:
                step = (x if c % 2 else xt) @ cur
                if rw.any():  # block c - 2 is not needed again: scale in place
                    data = prev if dense else prev.data
                    data *= rows(prev, rw)
                    step = step + prev
                prev, cur = cur, step
            data = cur if dense else cur.data
            if c:
                traces[c] += int(np.vdot(data, data)) * (1 + (short and c == top))
            if c < top and lc.any():  # squares weighted by L_j, then by L_i
                t = data * data * (lc if dense else lc[cur.indices])
                traces[c + 1] += 2 * int(t.sum())
                if c < top - 1:
                    traces[c + 2] += int((t * rows(cur, rw)).sum())
    if len(sides) == 1:
        traces[1:] = [2 * t for t in traces[1:]]
    return traces


def trace_powers(g: BipartiteGraph, max_k: int) -> dict[int, int]:
    """Exact tr(A_e^k) for k = 1 .. max_k, without building A_e: Ihara-Bass,
    tr(A_e^k) = tr(M^k) + (|E| - |V|)(1 + (-1)^k) for M with L = I - deg."""
    d = g.biadjacency
    degrees = np.concatenate([np.diff(d.indptr),
                              np.bincount(d.indices, minlength=g.right_count)])
    traces = power_traces(d, 1 - degrees, max_k // 2)
    shift = 2 * (g.edge_count - g.node_count)
    return {k: 0 if k % 2 else traces[k // 2] + shift
            for k in range(1, max_k + 1)}


def trace_power_counts(g: BipartiteGraph,
                       max_k: int | None = None) -> CycleCounts:
    """Exact N_k = tr(A_e^k) / 2k for even k in [g, max_k].

    Valid for any bipartite graph (irregular included); the window is
    capped at 2g - 2 because TBC walks and cycles part ways at length 2g.
    """
    girth = profile(g).girth
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

