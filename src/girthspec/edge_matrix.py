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
with no transpose; each level past 2 is one ``graph_core._step``, the
girth walk's step. Neither route walks: each reads the girth off its own
chain, which one rule, ``_girth_rule``, ends at the window's end.

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

from .counts import FOREST, CycleCounts, counts_from_traces, cycle_window_end
from .errors import NumericalError, RouteInapplicableError, SizeCapError
from .graph_core import (BipartiteGraph, _forms, _plus_diagonal, _rows,
                         _start_form, _step, profile)
from .spectra import _cluster

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
INT64_LIMIT = 2 ** 62  # power_traces' sparse int64 limit, on products and sums
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
                 top: int | Callable[..., int | None]) -> list[int]:
    """[tr(M^0), tr(M^2), ..., tr(M^(2 top))], exactly, for the n x m
    biadjacency block D of a graph and L = diag(loss); tr(M^k) = 0 for odd
    k, as M is bipartite as a digraph.

    ``top`` is the last level, or a rule: after each level c of the first
    side, until it tells, rule(c, traces, X_c) returns the last level, at
    least c, or None. The traces, complete to c only with L = 0, where one
    side runs, reach c + 2, as level c's L-weighted sums do.

    P_c is off-diagonal for odd c (block R_c, n x m), block diagonal for
    even c (S_c, T_c). Its W columns follow from T_0 = I, R_1 = D, T_2 =
    D^T D + L_W, R_c = D T_(c-1) + L_U R_(c-2) and T_c = D^T R_(c-1) +
    L_W T_(c-2), its U columns from the same chain with D^T for D; each
    side adds its columns' terms of the sum of squares, and T_0 = I adds
    only its L-weighted ones. With L = 0 both sides give the same sums, so
    the side ``g._roots()`` picks runs alone and counts twice. Else W runs
    first, U second; as R_top^T has R_top's squares, where the top is odd
    W counts its top sum once more and U stops short of it.

    Levels 1 and 2 form in the start form, as no entry passes maxdeg +
    max|L|, and each later one in one ``_step``. A chain starts in the
    graph's start form, dense float64 numpy (exact below 2^53) or scipy
    sparse int64 (below INT64_LIMIT), and may leave it once, for dense
    Python ints, which have no limit. Before each product, every partial
    sum of X_c = s X_(c-1) + L X_(c-2) is at most
    maxdeg max|X_(c-1)| + max|L| max|X_(c-2)|, the maxima taken from the
    recursive bound b_c = maxdeg b_(c-1) + max|L| b_(c-2), or from an
    abs-max pass over the blocks when that bound reaches the limit; a
    level whose guard reaches it moves its live blocks to Python ints.
    So a graph with both sides at most DENSE_MAX_SIZE never imports
    scipy, and a chain that takes it past 2^53 (transfer's does on an
    even cycle of length 58 or more) runs on in row sums of Python ints.
    Each sum of squares of X_c, plain or weighted by one or two entries
    of L, is at most nnz max|X_c|^2 max(1, max|L|)^2 (tightened by an
    abs-max of X_c at the limit); from the limit on it runs in Python
    ints over a copy of the values, and the blocks stay. The DEBUG
    record gives the last form that ran, each side's levels by their
    form's initial, upper case where the sums left it, the limit of each
    form that ran, as ``peak=`` the largest product guard, and as
    ``girth=`` the level at which a rule told the last level (g/2 for
    both exact routes), or - for an integer top. Where the recursive
    bound passed, ``peak=`` is the bound, which can sit 10-50 times
    above the largest number formed (W(11)); the headroom under a limit
    needs the tight value.
    """
    n, m = g.shape
    form = _start_form(g)
    # float64 is exact below 2^53; Python ints have no limit
    limits = {form: min(2 ** 53, INT64_LIMIT) if form == "dense"
              else INT64_LIMIT}
    maxdeg = int(max(np.diff(g.indptr).max(), np.diff(g.transpose.indptr).max()))
    lmax = int(np.abs(loss).max())
    rule, top = (None, top) if isinstance(top, int) else (top, None)
    weights = max(1, lmax) ** 2
    peak = 2 * (n + m)  # tr(M^0)

    def checked(tier, value):
        """The tier, or "bigint" once value reaches the tier's limit."""
        nonlocal peak
        if tier not in limits:
            return tier
        peak = max(peak, value)
        return "bigint" if value >= limits[tier] else tier

    start = checked(form, peak)
    sides = {"W": (g, g.transpose, loss[:n], loss[n:]),
             "U": (g.transpose, g, loss[n:], loss[:n])}
    if not lmax:
        side = "U" if g._roots()[0] is g else "W"
        sides = {side: sides[side]}
    traces = [2 * (n + m)] + [0] * (2 if top is None else top)
    told = None  # the level at which the rule told the last one
    short = sq = 0  # the second side's shortfall; the last sum of squares
    ran, levels = {start}, []
    for side, (a, b, lr, lc) in sides.items():  # on a's right side's columns
        if len(traces) > 1 and lc.any():  # T_0 = I: weighted by L_j, then L_i
            traces[1] += 2 * int(lc.sum())
            if len(traces) > 2:
                traces[2] += int((lc * lc).sum())
        tier, letters = start, ""
        x, xt = _forms(a, b, form)
        # each form's steps to X_c by the parity of c, over D^T and D
        steps = {t: (_step(p, lc), _step(q, lr))
                 for t, (p, q) in ((form, (xt, x)), ("bigint", (b, a)))}
        prev = cur = None  # X_(c-2), X_(c-1) once formed
        b_prev, b_cur = 0, 1  # bounds on their largest |entry|
        c = 0
        while top is None or c < top - short:
            c += 1
            if top is None:
                traces.append(0)
            bound = maxdeg * b_cur + lmax * b_prev
            if c > 2 and tier in limits and bound >= limits[tier]:
                b_prev, b_cur = _absmax(prev), _absmax(cur)
                bound = maxdeg * b_cur + lmax * b_prev
            if checked(tier, bound) != tier:
                tier = "bigint"
                prev, cur = _as_ints(prev), _as_ints(cur)
            rw = lr if c % 2 else lc  # L on the rows of block c
            if c == 1:
                new, bound = x, 1
            elif c == 2:
                new = _plus_diagonal(xt @ x, lc)
            else:
                new = steps[tier][c % 2](cur, prev)
            if c < 3 and tier == "bigint":  # formed exactly in start form
                new = _as_ints(new)
            dense = tier != "sparse"
            data = new if dense else new.data
            total = new.size * bound ** 2 * weights  # nnz, when sparse
            if tier in limits and total >= limits[tier]:
                bound = _absmax(new)
                total = new.size * bound ** 2 * weights
            big = tier in limits and total >= limits[tier]
            if big:  # the sums, not the block, leave the tier
                data = _as_ints(data)
            sq = int(np.dot(data.ravel(), data.ravel()))
            traces[c] += sq * (1 + (len(sides) == 1))
            if lc.any() and c + 1 < len(traces):  # weighted by L_j, then L_i
                t = data * data * (lc if dense else lc[new.indices])
                traces[c + 1] += 2 * int(t.sum())
                if c + 2 < len(traces):
                    traces[c + 2] += int((t * _rows(new, rw)).sum())
            letters += tier[0].upper() if big else tier[0]
            ran.add(tier)
            prev, cur, b_prev, b_cur = cur, new, b_cur, bound
            if top is None and (last := rule(c, traces, new)) is not None:
                told, top = c, last
                traces = (traces + [0] * top)[:top + 1]
        if len(sides) == 2 and top % 2 and not short:
            short, traces[top] = 1, traces[top] + sq
        levels.append(f"{side}:{letters}")
    ran = [t for t in (form, "bigint") if t in ran]
    log.debug("power_traces tier=%s form=%s shape=%s top=%d peak=%.3g "
              "sides=%s levels=%s limits=%s girth=%s", ran[-1],
              "ihara-bass" if len(sides) == 2 else "adjacency", (n, m), top,
              peak, "".join(sorted(sides)), " ".join(levels),
              ",".join(f"{t}:{limits[t]:.4g}" if t in limits else f"{t}:none"
                       for t in ran), "-" if told is None else told)
    return traces


def _as_ints(block):
    """An integer block, dense or sparse, or its values, as dense Python
    ints; None (not formed yet) as it is."""
    if block is None:
        return None
    if not isinstance(block, np.ndarray):
        block = block.toarray()
    return block.astype(np.int64).astype(object)


def _absmax(block) -> int:
    """The largest |entry|, read off the stored values: scipy's abs sorts
    the indices in place, which a cached block does not allow."""
    values = block if isinstance(block, np.ndarray) else block.data
    return int(abs(values).max()) if values.size else 0


def trace_powers(g: BipartiteGraph, top) -> dict[int, int]:
    """Exact tr(A_e^k) for even k = 2 .. 2 top, top a level or a
    ``power_traces`` rule, without building A_e (odd k give 0): Ihara-Bass,
    tr(A_e^k) = tr(M^k) + (|E| - |V|)(1 + (-1)^k) for L = I - deg."""
    degrees = np.concatenate([np.diff(g.indptr), np.diff(g.transpose.indptr)])
    shift = 2 * (g.edge_count - g.node_count)
    return {2 * c: t + shift
            for c, t in enumerate(power_traces(g, 1 - degrees, top)) if c}


def trace_power_counts(g: BipartiteGraph,
                       max_k: int | None = None) -> CycleCounts:
    """Exact N_k = tr(A_e^k) / 2k for even k in [g, max_k], and the girth
    g, read off the same chain, of any bipartite graph (irregular
    included); the window is capped at 2g - 2 because TBC walks and
    cycles part ways at length 2g."""
    return counts_from_traces(trace_powers(g, _girth_rule(g, max_k,
                                                          _two_walks)))


def _girth_rule(g: BipartiteGraph, max_k: int | None, met):
    """The ``power_traces`` rule of both exact routes, which refuse a
    forest before any work: once ``met(c, traces, block)``, the route's
    own test, tells that level c is g/2, the window [g, max_k] gives the
    last level. A girth is at most 2 min(n, m): no cycle met by then fails."""
    if profile(g).is_forest:
        raise RouteInapplicableError(FOREST)

    def rule(c: int, traces: list[int], block) -> int | None:
        if met(c, traces, block):
            return cycle_window_end(2 * c, max_k) // 2
        if c >= min(g.shape):
            raise NumericalError(f"no cycle met by level {c} = min(n, m), "
                                 "where every girth is met")
    return rule


def _two_walks(c: int, traces: list[int], block) -> bool:
    """The trace route's girth test on its first side's block of P_c =
    sum_j W_(c-2j) >= 0, W_l the girth walk's counts (``graph_core._girth``):
    0/1 below g/2, where balls are trees, with an entry >= 2 at g/2 (the
    antipodes of a shortest cycle, met on both sides at even c)."""
    return _absmax(block) >= 2


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
    clusters = _cluster(np.concatenate([roots, -roots]), DIRECT_CLUSTER_TOL)
    total = sum(m for _, m in clusters)
    if total != 2 * e:
        raise NumericalError("edge spectrum clustering lost eigenvalues")
    return EdgeSpectrum(eigenvalues=tuple(clusters), total=total)

