"""Cycle counts from edge spectra, plus oracles and cross-checks.

The spectral route turns an edge spectrum into counts via
N_k = sum_i eta_i^k / (2k). The brute-force oracle enumerates cycles by
canonical-rooted DFS, pruned by BFS distance back to the root, and is
valid for any length. The (g+4) cross-check recomputes one count from
the adjacency spectrum alone, using closed cycle-free walk counts on the
bi-regular covering tree.
"""

from __future__ import annotations

import logging
from math import comb

from .counts import CycleCounts, cycle_window_end
from .edge_matrix import EdgeSpectrum
from .errors import NumericalError, RouteInapplicableError, SizeCapError
from .graph_core import BipartiteGraph, neighbor_lists, profile
from .spectra import AdjacencySpectrum

__all__ = [
    "CycleCounts",
    "counts_from_spectrum",
    "brute_force_counts",
    "tree_walk_count",
    "g_plus_4_cross_check",
]

DEFAULT_BRUTE_CAP = 200  # cap on |E| for the DFS enumeration
RESIDUAL_TOL = 1e-4
IMAG_RTOL = 1e-6

log = logging.getLogger("girthspec")


def counts_from_spectrum(es: EdgeSpectrum, girth: int,
                         max_k: int | None = None) -> CycleCounts:
    """N_k = sum eta_i^k / (2k) for even k in [girth, max_k].

    The raw value must land within RESIDUAL_TOL of an integer and its
    imaginary part must be relatively tiny; anything else is reported as a
    numerical failure rather than rounded over.
    """
    max_k = cycle_window_end(girth, max_k)
    if es.total % 2:
        raise NumericalError("edge spectrum size must be even (2|E|)")

    counts: dict[int, int] = {}
    residuals: dict[int, float] = {}
    for k in range(girth, max_k + 1, 2):
        s = es.power_sum(k)
        if abs(s.imag) > IMAG_RTOL * max(1.0, abs(s)):
            raise NumericalError(
                f"power sum for k={k} has imaginary part {s.imag}")
        raw = s.real / (2 * k)
        nearest = round(raw)
        residual = abs(raw - nearest)
        if residual > RESIDUAL_TOL:
            raise NumericalError(
                f"N_{k} residual {residual:.3g} exceeds {RESIDUAL_TOL}: "
                "numerically corrupted spectrum")
        if nearest < 0:
            raise NumericalError(f"N_{k} rounded to a negative value {nearest}")
        counts[k] = int(nearest)
        residuals[k] = residual
    return CycleCounts(girth=girth, counts=counts, residuals=residuals)


def brute_force_counts(g: BipartiteGraph, max_k: int,
                       edge_cap: int = DEFAULT_BRUTE_CAP) -> CycleCounts:
    """Exact cycle counts by canonical-rooted DFS enumeration.

    Paths grow from each root s through nodes with larger combined id only,
    and close back to s; every cycle is visited exactly twice (once per
    direction) from its minimum node. Valid for any k, unlike the spectral
    routes. A path steps to v only if its depth there plus dist(v) is at
    most max_k, where dist is the BFS distance from s through nodes above
    s, kept to depth max_k // 2 (beyond it a node counts as unreachable).
    Exact: on a cycle of length k <= max_k with minimum node s, the rest
    of the cycle is a path back to s through nodes above s, so a node at
    depth d has dist <= min(k - d, k / 2). The ``girthspec`` logger gets
    one DEBUG record per enumeration with the node count, max_k and the
    total size of the roots' BFS balls, root excluded.
    """
    if g.edge_count > edge_cap:
        raise SizeCapError(f"|E| = {g.edge_count} exceeds brute-force cap {edge_cap}")
    if max_k < 4 or max_k % 2:
        raise RouteInapplicableError(f"max_k={max_k} must be an even integer >= 4")
    if (girth := profile(g).girth) is None:
        raise RouteInapplicableError("forest input: no cycles to count")

    # neighbors over combined ids: left node u is u, right node w is n + w
    n = g.left_count
    adj = ([[n + w for w in nbrs] for nbrs in neighbor_lists(g)]
           + neighbor_lists(g.transpose))
    raw = {k: 0 for k in range(4, max_k + 1, 2)}
    on_path = [False] * g.node_count
    # dist[v] for the current root's ball; far, for every other node
    # (those at or below the root included), fails the prune at any depth
    far = max_k + 1
    dist = [far] * g.node_count
    ball_total = 0

    def extend(s: int) -> None:
        """Grow every pruned path from s on an explicit stack, free of the
        recursion limit; stack[-1] iterates over path[-1]'s neighbors. A
        step to v closes a cycle when dist[v] == 1; s itself fails every
        prune, as its dist is far."""
        path, stack = [s], [iter(adj[s])]
        while stack:
            depth = len(path)  # edges from s to v
            budget = max_k - depth
            for v in stack[-1]:
                if dist[v] > budget or on_path[v]:
                    continue
                if dist[v] == 1 and depth >= 3:
                    raw[depth + 1] += 1
                if budget > 1:  # else no step from v passes the prune
                    on_path[v] = True
                    path.append(v)
                    stack.append(iter(adj[v]))
                    break
            else:
                stack.pop()
                on_path[path.pop()] = False

    for s in range(g.node_count):
        ball, start = [s], 0
        for hop in range(1, max_k // 2 + 1):
            end = len(ball)
            for u in ball[start:end]:
                for v in adj[u]:
                    if v > s and dist[v] == far:
                        dist[v] = hop
                        ball.append(v)
            start = end
        ball_total += len(ball) - 1
        extend(s)
        for v in ball:
            dist[v] = far
    log.debug("brute_force_counts nodes=%d max_k=%d ball=%d",
              g.node_count, max_k, ball_total)

    counts: dict[int, int] = {}
    for k in range(girth, max_k + 1, 2):
        if raw[k] % 2:
            raise NumericalError("cycle enumeration parity broken")
        counts[k] = raw[k] // 2
    return CycleCounts(girth=girth, counts=counts)


def tree_walk_count(d_root: int, d_other: int, length: int) -> int:
    """Closed walks of the given length from the root of the infinite
    bi-regular tree (root degree d_root, levels alternating d_other, d_root).

    Equals the number of closed cycle-free walks from a node of degree
    d_root in any graph whose girth is large enough. Exact integers; odd
    lengths return 0.
    """
    if length < 0:
        raise ValueError("length must be nonnegative")
    if length % 2:
        return 0
    max_depth = length // 2
    # walks[d] = number of partial walks currently at depth d
    walks = [0] * (max_depth + 1)
    walks[0] = 1
    for _ in range(length):
        nxt = [0] * (max_depth + 1)
        for d, ways in enumerate(walks):
            if not ways:
                continue
            if d > 0:
                nxt[d - 1] += ways  # the single up-edge
            if d < max_depth:
                if d == 0:
                    down = d_root
                elif d % 2:
                    down = d_other - 1
                else:
                    down = d_root - 1
                nxt[d + 1] += ways * down
        walks = nxt
    return walks[0]


def _psi_g_plus_4_over_2i(g: int, d_v: int, d_c: int, n_g: int,
                          n_g2: int) -> int:
    """Closed walks *with* a cycle, length g+4, divided by 2(g+4)."""
    h = g // 2
    term1 = n_g2 * ((g + 2) // 2 * (d_v + d_c) - (g + 2))
    term2 = n_g * (h * (d_v - 2) * (d_c - 1) + h * (d_c - 2) * (d_v - 1))
    term3 = n_g * ((comb(h, 2) + h) * (d_v - 2) ** 2
                   + (comb(h, 2) + h) * (d_c - 2) ** 2
                   + h * h * (d_v - 2) * (d_c - 2))
    term4 = n_g * (comb(g, 2) + 2 * g
                   + (g + 2) * (h * (d_v - 2) + h * (d_c - 2)))
    return term1 + term2 + term3 + term4


def g_plus_4_cross_check(g_graph: BipartiteGraph, spec: AdjacencySpectrum,
                         n4_counts: CycleCounts) -> int:
    """N_{g+4} from the adjacency power sum, tree walks, and N_g, N_{g+2}.

    Independent of the edge spectrum entirely; only defined when
    g + 4 <= 2g - 2, i.e. girth >= 6.
    """
    prof = profile(g_graph)
    if not (prof.is_biregular and prof.is_connected):
        raise RouteInapplicableError("cross-check needs a connected bi-regular graph")
    g = prof.girth
    if g is None or g < 6:
        raise RouteInapplicableError("cross-check needs girth >= 6")
    if g not in n4_counts.counts or g + 2 not in n4_counts.counts:
        raise RouteInapplicableError("cross-check needs N_g and N_{g+2}")

    i = g + 4
    d_v, d_c = prof.d_v, prof.d_c
    n, m = g_graph.left_count, g_graph.right_count
    omega = n * tree_walk_count(d_v, d_c, i) + m * tree_walk_count(d_c, d_v, i)
    psi_over_2i = _psi_g_plus_4_over_2i(g, d_v, d_c, n4_counts.counts[g],
                                        n4_counts.counts[g + 2])
    raw = (spec.power_sum(i) - omega) / (2 * i) - psi_over_2i
    nearest = round(raw)
    if abs(raw - nearest) > RESIDUAL_TOL:
        raise NumericalError(
            f"cross-check residual {abs(raw - nearest):.3g} exceeds {RESIDUAL_TOL}")
    return int(nearest)
