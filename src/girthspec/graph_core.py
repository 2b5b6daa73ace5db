"""Bipartite graph model, validation, girth computation and generators.

Node identity is 0-based dense indices per side: ``u`` indexes the left
(variable) side ``U`` and ``w`` indexes the right (check) side ``W``.
A graph stores one structure, its biadjacency block D on
``BipartiteGraph.biadjacency``: a read-only CSR array with sorted rows,
built by ``_from_keys`` from the edge keys u * right_count + w. The
parsers in ``graph_io``, ``from_edges`` and the generators all reduce
their input to those keys. Every layer reads D, the writers and the DFS
through ``neighbor_lists``. ``edges``, the (u, w) pairs derived from D, is
read only by the references the tests check the package against.
``profile`` reads everything off D: the degrees from its row pointers,
connectivity from one BFS over its index lists, and the exact girth from
counts of non-backtracking walks (the walks A_e counts) rooted on the
smaller side, one sparse product per BFS level, to depth g/2. Like
``edges`` it is cached on the graph, so every layer calls ``profile(g)``.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np
import scipy.sparse as sp

from .errors import GenerationError, ParseError

__all__ = [
    "BipartiteGraph",
    "GraphProfile",
    "neighbor_lists",
    "profile",
    "random_biregular",
    "complete_bipartite",
    "even_cycle",
    "tesseract",
]

# Largest side of D for dense float64 products, sparse int64 above, in
# edge_matrix.power_traces and in _girth. One BLAS thread, dense vs sparse
# ms, median of 15 warm calls. power_traces (top g - 1), L = I - deg, n x m:
# array codes 186 x 93 2.04 vs 3.64, 222 x 111 2.68 vs 4.01, 258 x 129 3.85
# vs 3.59, 366 x 183 8.87 vs 4.15; configuration models 240 x 162 3.48 vs
# 4.35, 300 x 205 4.24 vs 3.22; L = 0: 186 x 93 0.84 vs 1.52, 366 x 183
# 1.02 vs 1.28. _girth, roots x others: array codes 93 x 186 0.36 vs 0.51,
# 141 x 282 1.43 vs 0.44; configuration models 205 x 300 0.95 vs 0.33;
# random (2,3)-regular 120 x 180 0.25 vs 0.16. Dense products cost roots^2
# x others, so _girth goes dense only when both sides fit. Crossovers: the
# engine near 250 (above 366 for L = 0), _girth below 282; at 200 each
# stays within about a factor 1.5 of its faster tier.
DENSE_MAX_SIZE = 200
GENERATION_ATTEMPTS = 200  # seeds random_biregular tries before giving up

log = logging.getLogger("girthspec")


@dataclass(frozen=True, eq=False)
class BipartiteGraph:
    """Simple bipartite graph with ``left_count`` + ``right_count`` nodes.

    ``biadjacency`` is the left_count x right_count 0/1 block D, the one
    structure a graph stores: int64 CSR with int32 indices and sorted,
    duplicate-free rows, so ``indptr`` holds the left degrees; read-only.
    Build graphs with :meth:`from_edges`, a parser or a generator, which
    all go through ``_from_keys``. Graphs compare by identity.
    """

    left_count: int
    right_count: int
    biadjacency: sp.csr_array

    @classmethod
    def from_edges(cls, left_count: int, right_count: int,
                   edges) -> "BipartiteGraph":
        """The graph on the (u, w) pairs of ``edges``; repeats collapse."""
        ends = np.fromiter(chain.from_iterable(edges), dtype=np.int64)
        u, w = ends[::2], ends[1::2]
        out = np.flatnonzero((u < 0) | (u >= left_count)
                             | (w < 0) | (w >= right_count))
        if out.size:
            raise ParseError(f"edge ({u[out[0]]}, {w[out[0]]}) out of range "
                             f"({left_count} x {right_count})")
        return _from_keys(left_count, right_count, u * right_count + w)

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The (u, w) pairs, read off D; for the references only."""
        d = self.biadjacency
        rows = np.repeat(np.arange(self.left_count), np.diff(d.indptr))
        return frozenset(zip(rows.tolist(), d.indices.tolist()))

    @cached_property
    def _profile(self) -> GraphProfile:
        """What :func:`profile` returns, computed on first use."""
        d = self.biadjacency
        dt = d.T.tocsr()
        left, right = np.diff(d.indptr), np.diff(dt.indptr)
        biregular = bool(left.min() == left.max() and right.min() == right.max())
        return GraphProfile(
            is_connected=_connected(d, dt),
            is_biregular=biregular,
            d_v=int(left[0]) if biregular else None,
            d_c=int(right[0]) if biregular else None,
            girth=_girth(d, dt) if d.shape[0] <= d.shape[1] else _girth(dt, d),
        )

    @property
    def edge_count(self) -> int:
        return self.biadjacency.nnz

    @property
    def node_count(self) -> int:
        return self.left_count + self.right_count


def _from_keys(n: int, m: int, keys: np.ndarray) -> BipartiteGraph:
    """The n x m graph whose edges have the int64 keys u * m + w, each in
    range; repeats collapse. The keys are made distinct, ascending, by one
    sort and a mask, np.unique's result: np.unique hashes first, and took
    0.74 ms against 0.05 ms on 6803 keys. int32 ids give int32 index
    arrays, in D and its products."""
    if n <= 0 or m <= 0:
        raise ParseError("both sides must have at least one node")
    keys = np.sort(keys)
    new = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    keys = keys[new]
    indptr = np.searchsorted(keys, np.arange(n + 1) * m).astype(np.int32)
    d = sp.csr_array((np.ones(len(keys), dtype=np.int64),
                      (keys % m).astype(np.int32), indptr), shape=(n, m))
    for array in (d.data, d.indices, d.indptr):
        array.flags.writeable = False
    return BipartiteGraph(n, m, d)


@dataclass(frozen=True)
class GraphProfile:
    """Structural summary of a :class:`BipartiteGraph`."""

    is_connected: bool
    is_biregular: bool
    d_v: int | None
    d_c: int | None
    girth: int | None  # None marks infinite girth (forest)


# ---------------------------------------------------------------------------
# Profiling
# ---------------------------------------------------------------------------

def neighbor_lists(d: sp.csr_array) -> list[list[int]]:
    """The column indices of each row of a CSR matrix, ascending in a
    sorted one, as Python lists: the neighbors of each left node for
    ``g.biadjacency``, and of each right node for its transpose."""
    ptr, idx = d.indptr.tolist(), d.indices.tolist()
    return [idx[a:b] for a, b in zip(ptr, ptr[1:])]


def _connected(d: sp.csr_array, dt: sp.csr_array) -> bool:
    """Whether a BFS from left node 0 over the index lists of D and D^T
    reaches every node."""
    sides = [neighbor_lists(d), neighbor_lists(dt)]
    seen = [[False] * d.shape[0], [False] * d.shape[1]]
    seen[0][0] = True
    frontier, side, reached = [0], 0, 1
    while frontier:
        adj, other, nxt = sides[side], seen[1 - side], []
        for a in frontier:
            for b in adj[a]:
                if not other[b]:
                    other[b] = True
                    nxt.append(b)
        reached += len(nxt)
        frontier, side = nxt, 1 - side
    return reached == d.shape[0] + d.shape[1]


def _girth(x: sp.csr_array, y: sp.csr_array) -> int | None:
    """Exact girth from non-backtracking walk counts; None for forests.

    x is the roots x others biadjacency, roots on the smaller side, and
    y = x^T. W_l[r, v] counts the non-backtracking walks of length l from
    root r to v: W_1 = x, W_2 = x y - diag(deg), and W_{l+1} = W_l s -
    W_{l-1} diag(deg - 1), with s alternating y and x and deg taken on the
    side of W_{l-1}'s columns. Balls of radius below g/2 are trees, so
    W_l is 0/1 for l < g/2, and a root on a shortest cycle has two walks
    to its antipode at l = g/2: the girth is 2l for the first l with an
    entry >= 2. Every cycle meets both sides, so these roots see them
    all, and W_l dies out exactly when no cycle is reachable. The products
    are dense float64, exact on these small counts, while both sides are
    at most DENSE_MAX_SIZE, and sparse int64 otherwise.
    """
    roots = x.shape[0]
    degs = (np.diff(x.indptr), np.diff(y.indptr))  # roots' side, others'
    dense = max(x.shape) <= DENSE_MAX_SIZE
    if dense:
        x, y = x.toarray().astype(np.float64), y.toarray().astype(np.float64)
    prev, cur = x, x @ y
    if dense:
        cur.flat[::roots + 1] -= degs[0]
    else:
        rows = np.repeat(np.arange(roots), np.diff(cur.indptr))
        diagonal = cur.indices == rows
        cur.data[diagonal] -= degs[0][rows[diagonal]]
    level, peak, girth = 2, int(degs[0].sum()), None  # W_1 has |E| entries
    while True:
        values = cur if dense else cur.data
        nnz = np.count_nonzero(values)
        peak = max(peak, nnz)
        if not nnz:
            break
        if values.max() >= 2:
            girth = 2 * level
            break
        back = degs[(level - 1) % 2] - 1  # on the side of prev's columns
        if dense:
            back = prev * back
        else:
            back = sp.csr_array((prev.data * back[prev.indices], prev.indices,
                                 prev.indptr), shape=prev.shape)
        prev, cur = cur, cur @ (x if level % 2 == 0 else y) - back
        level += 1
    log.debug("girth tier=%s roots=%d levels=%d peak_nnz=%d",
              "dense" if dense else "sparse", roots, level, peak)
    return girth


def profile(g: BipartiteGraph) -> GraphProfile:
    """Connectivity, bi-regularity, degree sequences and exact girth, all
    read off the biadjacency block D in CSR form; computed by the first
    call and cached on g, as D is read-only."""
    return g._profile


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def random_biregular(n: int, m: int, d_v: int, d_c: int,
                     seed: int) -> BipartiteGraph:
    """Random simple connected (d_v, d_c)-regular bipartite graph.

    Configuration model with edge-swap repair of parallel edges; the whole
    attempt is retried with an incremented seed until the result is simple
    and connected. Deterministic given (n, m, d_v, d_c, seed).
    """
    if n <= 0 or m <= 0 or d_v <= 0 or d_c <= 0:
        raise GenerationError("all parameters must be positive")
    if n * d_v != m * d_c:
        raise GenerationError(f"infeasible degrees: {n}*{d_v} != {m}*{d_c}")
    if d_v > m or d_c > n:
        raise GenerationError("requested degree exceeds the opposite side size")

    for attempt in range(GENERATION_ATTEMPTS):
        rng = random.Random(seed + attempt)
        left_stubs = [u for u in range(n) for _ in range(d_v)]
        right_stubs = [w for w in range(m) for _ in range(d_c)]
        rng.shuffle(right_stubs)
        pairs = list(zip(left_stubs, right_stubs))
        if _repair_parallel(pairs, rng, max_swaps=50 * len(pairs)):
            g = BipartiteGraph.from_edges(n, m, pairs)
            if g.edge_count == n * d_v and profile(g).is_connected:
                return g
    raise GenerationError(
        f"no simple connected graph found in {GENERATION_ATTEMPTS} attempts "
        f"(n={n}, m={m}, d_v={d_v}, d_c={d_c}, seed={seed})")


def _repair_parallel(pairs: list[tuple[int, int]], rng: random.Random,
                     max_swaps: int) -> bool:
    """Swap right endpoints until no stub pairing is duplicated."""
    from collections import Counter

    counts = Counter(pairs)

    def badness(c: int) -> int:
        return c * (c - 1) // 2

    for _ in range(max_swaps):
        dups = [i for i, p in enumerate(pairs) if counts[p] > 1]
        if not dups:
            return True
        i = rng.choice(dups)
        j = rng.randrange(len(pairs))
        if i == j:
            continue
        (ui, wi), (uj, wj) = pairs[i], pairs[j]
        old_i, old_j = pairs[i], pairs[j]
        new_i, new_j = (ui, wj), (uj, wi)
        affected = {old_i, old_j, new_i, new_j}
        before = sum(badness(counts[e]) for e in affected)
        counts[old_i] -= 1
        counts[old_j] -= 1
        counts[new_i] += 1
        counts[new_j] += 1
        if sum(badness(counts[e]) for e in affected) < before:
            pairs[i], pairs[j] = new_i, new_j
        else:
            counts[new_i] -= 1
            counts[new_j] -= 1
            counts[old_i] += 1
            counts[old_j] += 1
    return all(counts[p] == 1 for p in pairs)


def complete_bipartite(n: int, m: int) -> BipartiteGraph:
    """K_{n,m} with n left and m right nodes."""
    return _from_keys(n, m, np.arange(n * m))


def even_cycle(length: int) -> BipartiteGraph:
    """Single cycle of the given even length as a bipartite graph."""
    if length < 4 or length % 2:
        raise ValueError("cycle length must be an even integer >= 4")
    t = length // 2
    i = np.arange(t)
    return _from_keys(t, t, np.r_[i * t + i, i * t + (i + 1) % t])


def tesseract() -> BipartiteGraph:
    """The 4-dimensional hypercube Q4, bipartitioned by bit parity."""
    evens = [v for v in range(16) if bin(v).count("1") % 2 == 0]
    odds = [v for v in range(16) if bin(v).count("1") % 2 == 1]
    e_idx = {v: i for i, v in enumerate(evens)}
    o_idx = {v: i for i, v in enumerate(odds)}
    edges = set()
    for v in evens:
        for bit in range(4):
            edges.add((e_idx[v], o_idx[v ^ (1 << bit)]))
    return BipartiteGraph.from_edges(8, 8, edges)
