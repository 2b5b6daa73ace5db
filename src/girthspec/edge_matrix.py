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
with no transpose. Each level's tier is picked by guards on the numbers
it forms, and the engine reads D and D^T off the graph in that tier's
form: float64, int64 (sparse, the one tier that imports scipy) or Python
ints; with L = 0 it runs one side alone.

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
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .counts import CycleCounts, counts_from_traces, cycle_window_end
from .errors import NumericalError, SizeCapError
from . import graph_core
# profile stays bound though unused here: perfbench's traced pass wraps
# each module's binding of it (perfbench/tracing.py)
from .graph_core import (BipartiteGraph, _plus_diagonal, _rows, _scaled,
                         _start_form, profile)

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
INT64_LIMIT = 2 ** 62  # a power_traces level leaves int64 from this guard on
TIERS = ("dense", "sparse", "bigint")  # power_traces' tiers, in climbing order
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


def power_traces(g: BipartiteGraph, loss: np.ndarray,
                 top: int | Callable[[list[int]], int | None]) -> list[int]:
    """[tr(M^0), tr(M^2), ..., tr(M^(2 top))], exactly, for the n x m
    biadjacency block D of a graph and L = diag(loss); tr(M^k) = 0 for odd
    k, as M is bipartite as a digraph.

    ``top`` is the last level, or, with L = 0 only, a rule: after each
    level c it is given the traces to tr(M^(2c)), all complete, as one
    side runs, and returns the last level, at least c, or None while it
    cannot tell yet. It is not called again once it has told.

    P_c is off-diagonal for odd c (block R_c, n x m), block diagonal for
    even c (S_c, T_c). Its W columns follow from T_0 = I, R_1 = D, T_2 =
    D^T D + L_W, R_c = D T_(c-1) + L_U R_(c-2) and T_c = D^T R_(c-1) +
    L_W T_(c-2), its U columns from the same chain with D^T for D; each
    side adds its columns' terms of the sum of squares, and T_0 = I adds
    only its L-weighted ones. The side ``g._roots()`` picks takes its Gram
    block from ``g.gram``. With L = 0 both sides give the same sums, so
    that side runs alone and counts twice; else the U side stops short of
    an odd top, as R_top^T has R_top's squares.

    Each level is guarded by the numbers it forms. Every partial sum of
    X_c = s X_(c-1) + L X_(c-2) is at most maxdeg max|X_(c-1)| + max|L|
    max|X_(c-2)|, and each sum of squares of X_c, plain or weighted by
    one or two entries of L, at most nnz max|X_c|^2 max(1, max|L|)^2. The
    maxima are first taken from the recursive bound b_c = maxdeg b_(c-1)
    + max|L| b_(c-2), and from one abs-max pass over the blocks only when
    that bound reaches the limit. A chain starts in the graph's start
    form, dense float64 numpy (exact below 2^53) or scipy sparse int64
    (below INT64_LIMIT); a level whose guard reaches its tier's limit
    moves its live blocks, exactly, to the next tier: sparse int64, then
    dense Python integers, which have no limit. The DEBUG record gives the
    highest tier that ran, each side's levels by the initial of their
    tier, the limit of each tier that ran, as ``peak=`` the largest value
    a guard decided on, and as ``girth=`` the level at which a rule told
    the last level (g/2 for ``transfer_counts``), or - for an integer
    top. Where the recursive bound passed, ``peak=`` is the bound, which
    can sit 10-50 times above the largest number formed (W(11)); the
    headroom under a limit needs the tight value.
    """
    n, m = g.shape
    # float64 is exact below 2^53; no tier's limit is above the next one's
    limits = {"dense": min(2 ** 53, INT64_LIMIT), "sparse": INT64_LIMIT}
    maxdeg = int(max(np.diff(g.indptr).max(), np.diff(g.transpose.indptr).max()))
    lmax = int(np.abs(loss).max())
    rule = None if isinstance(top, int) else top
    if rule is not None and lmax:
        raise ValueError("a rule for the last level needs L = 0")
    weights = max(1, lmax) ** 2
    peak = 2 * (n + m)  # tr(M^0)

    def checked(tier, value):
        """The first tier from ``tier`` on whose limit is above value."""
        nonlocal peak
        if tier in limits:
            peak = max(peak, value)
        while tier in limits and value >= limits[tier]:
            tier = TIERS[TIERS.index(tier) + 1]
        return tier

    start = checked(_start_form(g), peak)
    gram_side = "U" if g._roots()[0] is g else "W"  # the side of g.gram
    sides = {"W": (g, g.transpose, loss[:n], loss[n:]),
             "U": (g.transpose, g, loss[n:], loss[:n])}
    if not lmax:
        sides = {gram_side: sides[gram_side]}
    traces = [2 * (n + m)] + [0] * (0 if rule else top)
    short = len(sides) == 2 and top % 2 == 1
    told = None  # the level at which the rule told the last one
    ran, levels = {start}, []
    for side, (a, b, lr, lc) in sides.items():  # on a's right side's columns
        if top and lc.any():  # T_0 = I: squares weighted by L_j, then L_i
            traces[1] += 2 * int(lc.sum())
            if top > 1:
                traces[2] += int((lc * lc).sum())
        tier, letters = start, ""
        x, xt, wr, wc = _forms(a, b, lr, lc, tier)
        prev = cur = None  # X_(c-2), X_(c-1) once formed
        b_prev, b_cur = 0, 1  # bounds on their largest |entry|
        c = 0
        while (rule and told is None) or c < top - (short and side == "U"):
            c += 1
            if c == len(traces):  # a rule's chain grows level by level
                traces.append(0)
            bound = maxdeg * b_cur + lmax * b_prev
            if c > 2 and tier in limits and bound >= limits[tier]:
                b_prev, b_cur = _absmax(prev), _absmax(cur)
                bound = maxdeg * b_cur + lmax * b_prev
            up = checked(tier, bound)
            if up != tier:
                tier = up
                x, xt, wr, wc = _forms(a, b, lr, lc, tier)
                prev, cur = _in_tier(prev, tier), _in_tier(cur, tier)
            rw = wr if c % 2 else wc  # L on the rows of block c
            if c == 1:
                new, bound = x, 1
            elif c == 2:
                new = _in_tier(g.gram if side == gram_side else xt @ x, tier)
                new = _plus_diagonal(new, wc)
            else:
                new = (x if c % 2 else xt) @ cur
                if rw.any():
                    new = new + _scaled(prev, rw)
            total = new.size * bound ** 2 * weights  # nnz, when sparse
            if tier in limits and total >= limits[tier]:
                bound = _absmax(new)
                total = new.size * bound ** 2 * weights
            up = checked(tier, total)
            if up != tier:
                tier = up
                x, xt, wr, wc = _forms(a, b, lr, lc, tier)
                new, cur = _in_tier(new, tier), _in_tier(cur, tier)
            dense = tier != "sparse"
            data = new if dense else new.data
            traces[c] += int(np.vdot(data, data)) * (
                1 + (len(sides) == 1 or short and c == top))
            if lc.any() and c < top:  # squares weighted by L_j, then by L_i
                t = data * data * (wc if dense else wc[new.indices])
                traces[c + 1] += 2 * int(t.sum())
                if c < top - 1:
                    traces[c + 2] += int((t * _rows(new, rw)).sum())
            letters += tier[0]
            ran.add(tier)
            prev, cur, b_prev, b_cur = cur, new, b_cur, bound
            if rule and told is None and (last := rule(traces)) is not None:
                told, top = c, last
        levels.append(f"{side}:{letters}")
    ran = [t for t in TIERS if t in ran]
    log.debug("power_traces tier=%s form=%s shape=%s top=%d peak=%.3g "
              "sides=%s levels=%s limits=%s girth=%s", ran[-1],
              "ihara-bass" if len(sides) == 2 else "adjacency", (n, m), top,
              peak, "".join(sorted(sides)), " ".join(levels),
              ",".join(f"{t}:{limits[t]:.4g}" if t in limits else f"{t}:none"
                       for t in ran), "-" if told is None else told)
    return traces


def _forms(a: BipartiteGraph, b: BipartiteGraph, lr: np.ndarray,
           lc: np.ndarray, tier: str):
    """D_a, D_a^T = D_b and the two parts of L in the form of ``tier``."""
    if tier == "bigint":
        lr, lc = lr.astype(object), lc.astype(object)
    return (*graph_core._forms(a, b, tier), lr, lc)


def _in_tier(block, tier: str):
    """An integer block, dense or sparse, in the form of ``tier``; as
    it is, when it has that form already or is None (not formed yet)."""
    if block is None:
        return None
    if tier == "sparse":
        if not isinstance(block, np.ndarray):
            return block
        import scipy.sparse as sp

        return sp.csr_array(block.astype(np.int64))
    if not isinstance(block, np.ndarray):
        block = block.toarray()
    dtype = np.float64 if tier == "dense" else object
    return block if block.dtype == dtype else block.astype(np.int64).astype(dtype)


def _absmax(block) -> int:
    """The largest |entry|, read off the stored values: scipy's abs sorts
    the indices in place, which a cached block does not allow."""
    values = block if isinstance(block, np.ndarray) else block.data
    return int(abs(values).max()) if values.size else 0


def trace_powers(g: BipartiteGraph, max_k: int) -> dict[int, int]:
    """Exact tr(A_e^k) for k = 1 .. max_k, without building A_e: Ihara-Bass,
    tr(A_e^k) = tr(M^k) + (|E| - |V|)(1 + (-1)^k) for M with L = I - deg."""
    degrees = np.concatenate([np.diff(g.indptr), np.diff(g.transpose.indptr)])
    traces = power_traces(g, 1 - degrees, max_k // 2)
    shift = 2 * (g.edge_count - g.node_count)
    return {k: 0 if k % 2 else traces[k // 2] + shift
            for k in range(1, max_k + 1)}


def trace_power_counts(g: BipartiteGraph,
                       max_k: int | None = None) -> CycleCounts:
    """Exact N_k = tr(A_e^k) / 2k for even k in [g, max_k].

    Valid for any bipartite graph (irregular included); the window is
    capped at 2g - 2 because TBC walks and cycles part ways at length 2g.
    """
    girth = graph_core.girth(g)
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
    u, w = g._rows(), g.indices
    linked = g.dense(bool)
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

