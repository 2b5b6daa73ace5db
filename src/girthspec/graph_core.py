"""Bipartite graph model, validation, girth computation and generators.

Node identity is 0-based dense indices per side: ``u`` indexes the left
(variable) side ``U`` and ``w`` indexes the right (check) side ``W``.
A graph stores one structure, its biadjacency block D in CSR form: two
read-only int32 numpy arrays, ``indptr`` and ``indices`` (sorted rows),
built by ``_from_keys`` from the edge keys u * right_count + w. The
parsers in ``graph_io``, ``from_edges`` and the generators all reduce
their input to those keys. Derived forms are built on first use and
cached: ``transpose``, the same graph with its sides swapped (D^T, from
the swapped keys w * left_count + u), and ``biadjacency``, a scipy CSR
array over the stored arrays. Only the sparse form reads
``biadjacency``, and scipy is imported there, so a graph whose sides are
at most DENSE_MAX_SIZE is counted by numpy alone; the other layers read
the arrays, ``dense()`` or ``neighbor_lists``. ``edges``, the (u, w)
pairs, is read only by the references the tests check the package
against. The walk-block tools the girth walk shares with the trace
engine, its one walk step ``_step`` among them, live here. ``profile``
reads the degrees from the row pointers of D and D^T and the component
count from labels set in numpy over the edge arrays; |E| = |V| -
components marks a forest. ``girth`` walks, unless the graph is a
forest, counts of non-backtracking walks (the walks A_e counts) rooted
on the smaller side, one engine step per level, to depth g/2, for
direct, brute, verify's window and the N_(g+4) check. Both are cached
on the graph as plain values that hold no reference back to it, so
every layer calls them and a graph is freed without the cyclic
collector.
"""

from __future__ import annotations

import logging
import operator
import random
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import GenerationError, ParseError

__all__ = [
    "BipartiteGraph",
    "GraphProfile",
    "neighbor_lists",
    "profile",
    "girth",
    "random_biregular",
    "complete_bipartite",
    "even_cycle",
    "tesseract",
]

# Largest side of D for dense float64 numpy products, scipy sparse int64
# above, in edge_matrix.power_traces and in _girth; up to it scipy is
# never imported, however far a chain of power_traces runs. One BLAS
# thread, dense vs sparse ms, each the median of 3 runs of the median of
# 15 warm calls. power_traces (top g - 1), L = I - deg, n x m: array codes
# 186 x 93 2.58 vs 2.34, 222 x 111 3.97 vs 2.82, 258 x 129 5.12 vs 3.04,
# 366 x 183 12.49 vs 3.12; configuration models 240 x 162 3.64 vs 1.66,
# 300 x 205 6.13 vs 2.70; L = 0: 186 x 93 0.85 vs 1.44, 366 x 183 5.39 vs
# 1.68. _girth, roots x others: array codes 93 x 186 0.29 vs 0.36, 141 x
# 282 0.69 vs 0.41; configuration models 205 x 300 0.52 vs 0.21; random
# (2,3)-regular 120 x 180 0.16 vs 0.11. Dense products cost roots^2 x
# others, so _girth goes dense only when both sides fit. Crossovers: the
# engine near 186 (L = I - deg; between 186 and 366 for L = 0), _girth
# near 120 x 180. At 200 each stays within about a factor 1.5 of its
# faster tier, and a lower cap would bring the scipy import back onto
# small graphs, where it costs more than any tier.
DENSE_MAX_SIZE = 200
GENERATION_ATTEMPTS = 200  # seeds random_biregular tries before giving up

log = logging.getLogger("girthspec")


@dataclass(frozen=True, eq=False)
class BipartiteGraph:
    """Simple bipartite graph with ``left_count`` + ``right_count`` nodes.

    ``indptr`` and ``indices`` hold the left_count x right_count 0/1 block
    D in CSR form, the one structure a graph stores: int32, read-only,
    with sorted, duplicate-free rows, so ``indptr`` holds the left degrees.
    Build graphs with :meth:`from_edges`, a parser or a generator, which
    all go through ``_from_keys``. Graphs compare by identity.
    """

    left_count: int
    right_count: int
    indptr: np.ndarray
    indices: np.ndarray

    @classmethod
    def from_edges(cls, left_count: int, right_count: int,
                   edges) -> "BipartiteGraph":
        """The graph on the (u, w) pairs of ``edges``; repeats collapse.
        Each pair is two ints (``operator.index`` reads them) in range."""
        keys = []
        for pair in edges:
            try:
                u, w = map(operator.index, pair)
            except (TypeError, ValueError):
                raise ParseError(f"edge {pair!r} is not a pair of ints") from None
            if not (0 <= u < left_count and 0 <= w < right_count):
                raise ParseError(f"edge ({u}, {w}) out of range "
                                 f"({left_count} x {right_count})")
            keys.append(u * right_count + w)
        return _from_keys(left_count, right_count, np.array(keys, dtype=np.int64))

    def _rows(self) -> np.ndarray:
        """The left end of each stored edge, in storage order."""
        return np.repeat(np.arange(self.left_count, dtype=np.int32),
                         np.diff(self.indptr))

    def dense(self, dtype=np.float64) -> np.ndarray:
        """D as a new dense array of the given dtype."""
        d = np.zeros(self.shape, dtype=dtype)
        d[self._rows(), self.indices] = 1
        return d

    @cached_property
    def transpose(self) -> "BipartiteGraph":
        """The same graph with its sides swapped, so that it stores D^T,
        built from the swapped keys w * left_count + u. Sorting these
        int64 keys took 0.12 ms on 6780 edges, a stable argsort of
        ``indices`` 0.44 ms."""
        return _from_keys(self.right_count, self.left_count,
                          self.indices * np.int64(self.left_count)
                          + self._rows())

    @cached_property
    def biadjacency(self):
        """D as a scipy ``csr_array`` over the stored arrays, with a
        read-only int64 ``data`` of ones; for the sparse form only, as it
        imports scipy."""
        import scipy.sparse as sp

        ones = np.ones(self.edge_count, dtype=np.int64)
        ones.flags.writeable = False
        return sp.csr_array((ones, self.indices, self.indptr),
                            shape=self.shape)

    def _roots(self) -> tuple["BipartiteGraph", "BipartiteGraph"]:
        """(r, r^T) for r the graph whose left side is this graph's smaller
        side, the left on a tie: the one side rule of the girth walk's
        roots, the engine's lone side with L = 0 and the rank audit's rows."""
        if self.left_count <= self.right_count:
            return self, self.transpose
        return self.transpose, self

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The (u, w) pairs, read off D; for the references only."""
        return frozenset(zip(self._rows().tolist(), self.indices.tolist()))

    @cached_property
    def _profile(self) -> GraphProfile:
        """What :func:`profile` returns, computed on first use."""
        left, right = np.diff(self.indptr), np.diff(self.transpose.indptr)
        biregular = bool(left.min() == left.max() and right.min() == right.max())
        parts, hooks = _components(self)
        log.debug("profile parts=%d hooks=%d", parts, hooks)
        return GraphProfile(
            is_connected=parts == 1,
            is_biregular=biregular,
            d_v=int(left[0]) if biregular else None,
            d_c=int(right[0]) if biregular else None,
            is_forest=self.edge_count == self.node_count - parts,
        )

    @cached_property
    def _walked_girth(self) -> int | None:
        """What :func:`girth` returns, walked on first use."""
        if self._profile.is_forest:
            girth, walk = None, ("none", 0, 0, 0)
        else:
            girth, walk = _girth(self)
        log.debug("girth tier=%s roots=%d levels=%d peak_nnz=%d", *walk)
        return girth

    @property
    def shape(self) -> tuple[int, int]:
        """The shape of D."""
        return self.left_count, self.right_count

    @property
    def edge_count(self) -> int:
        return len(self.indices)

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
    indices = (keys % m).astype(np.int32)
    for array in (indptr, indices):
        array.flags.writeable = False
    return BipartiteGraph(n, m, indptr, indices)


@dataclass(frozen=True)
class GraphProfile:
    """Structural summary of a :class:`BipartiteGraph`."""

    is_connected: bool
    is_biregular: bool
    d_v: int | None
    d_c: int | None
    is_forest: bool  # |E| = |V| - components: no cycle


# ---------------------------------------------------------------------------
# Profiling
# ---------------------------------------------------------------------------

def neighbor_lists(g: BipartiteGraph) -> list[list[int]]:
    """The neighbours of each left node, ascending, as Python lists;
    ``neighbor_lists(g.transpose)`` gives those of each right node."""
    ptr, idx = g.indptr.tolist(), g.indices.tolist()
    return [idx[a:b] for a, b in zip(ptr, ptr[1:])]


def _components(g: BipartiteGraph) -> tuple[int, int]:
    """The component count, isolated nodes included, and the hooking rounds.

    Components are labelled over the edge arrays (Shiloach & Vishkin
    1982): each round hooks the larger label of every edge whose ends
    differ onto the smaller, then jumps pointers until every label is a
    root. Labels only fall, so no hook makes a cycle. The arrays are intp:
    with int32 ids the labelling took 1.4 times as long on 6803 edges."""
    label = np.arange(g.node_count, dtype=np.intp)
    a = g._rows().astype(np.intp)  # the edge ends, in combined ids
    b = g.indices + np.intp(g.left_count)
    rounds = 0
    while True:
        la, lb = label[a], label[b]
        if np.array_equal(la, lb):
            return int((label == np.arange(g.node_count)).sum()), rounds
        rounds += 1
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        up = label[label]
        while not np.array_equal(up, label):
            label, up = up, up[up]


def _girth(g: BipartiteGraph) -> tuple[int, tuple]:
    """Exact girth of a graph that is not a forest, from non-backtracking
    walk counts, and the walk's tier, root count, last level and peak nnz.

    The roots are the left side of r in (r, t) = ``g._roots()``, x = D_r
    and xt = D_t = x^T. W_l[v, root] counts the non-backtracking walks of
    length l between v and a root: W_1 = xt, W_2 = x xt - diag(deg),
    and W_(l+1) = s W_l + diag(1 - deg) W_(l-1), the trace engine's
    ``_step`` with L = I - deg on the rows and s alternating xt and x; the
    two steps are built once. Balls of radius below g/2 are trees, so W_l
    is 0/1 for l < g/2, and a root on a shortest cycle has two walks to
    its antipode at l = g/2: the girth is 2l for the first l with an
    entry >= 2. Every cycle meets both sides, so these roots see them all.
    The blocks take the start form: dense float64 (exact on these small
    counts) or scipy sparse int64.
    """
    r, t = g._roots()
    tier = _start_form(g)
    x, xt = _forms(r, t, tier)
    deg = np.diff(r.indptr)  # the roots'
    steps = (_step(x, 1 - deg), _step(xt, 1 - np.diff(t.indptr)))
    prev, cur = xt, _plus_diagonal(x @ xt, -deg)
    level, peak = 2, g.edge_count  # W_1 has |E| entries
    while True:
        values = cur if tier == "dense" else cur.data
        peak = max(peak, np.count_nonzero(values))
        if values.max() >= 2:
            return 2 * level, (tier, r.left_count, level, peak)
        # W_(l+1) has W_(l-1)'s rows
        prev, cur = cur, steps[(level + 1) % 2](cur, prev)
        level += 1


def _start_form(g: BipartiteGraph) -> str:
    """The form a graph's walk blocks start in: "dense" float64 numpy
    while both sides are at most DENSE_MAX_SIZE, else "sparse" int64."""
    return "dense" if max(g.shape) <= DENSE_MAX_SIZE else "sparse"


def _forms(a: BipartiteGraph, b: BipartiteGraph, tier: str):
    """D_a and D_a^T = D_b in the start form ``tier``: scipy int64, or
    dense float64, read-only, so no chain scales D in place."""
    if tier == "sparse":
        return a.biadjacency, b.biadjacency
    x = a.dense()
    x.flags.writeable = False
    return x, x.T


def _step(s, w: np.ndarray):
    """The walk step (X_(c-1), X_(c-2)) -> s X_(c-1) + diag(w) X_(c-2) of
    the trace engine and the girth walk, for s = D_a in the blocks' form:
    - scipy: one product [s | diag(w)] [X_(c-1); X_(c-2)], the operator
      ``_appended`` to s on first use, as a walk may stop short of it,
      and the stacked block joined from the two blocks' arrays. So no
      sparse add runs, and each partial sum of a row is one of
      s X_(c-1) + diag(w) X_(c-2)'s;
    - dense Python ints, for s the graph a itself: row i sums the rows of
      X_(c-1) at a's column indices of row i, nnz(D) k additions where an
      object product makes n m k;
    - dense float64: s X_(c-1) by BLAS, plus the scaled block.
    """
    scaled = w.any()
    if isinstance(s, BipartiteGraph):
        def product(cur):
            rows = np.flatnonzero(np.diff(s.indptr))  # reduceat: non-empty
            new = np.zeros((s.left_count, cur.shape[1]), dtype=object)
            new[rows] = np.add.reduceat(cur[s.indices], s.indptr[rows])
            return new
    elif isinstance(s, np.ndarray) or not scaled:
        product = s.__matmul__
    else:
        n, m = s.shape
        op = cache(lambda: _appended(s, s.data, m + np.arange(n), w, (n, m + n)))

        def stacked(cur, prev):
            # int32 indices while they fit: one int64 array takes a whole
            # scipy product, and the copies it makes, to int64
            indptr = np.concatenate((cur.indptr, prev.indptr[1:]), dtype=(
                np.int32 if cur.nnz + prev.nnz < 2 ** 31 else np.int64))
            indptr[len(cur.indptr):] += cur.nnz
            return op() @ type(cur)((
                np.concatenate((cur.data, prev.data)),
                np.concatenate((cur.indices, prev.indices)), indptr),
                shape=(m + n, cur.shape[1]))
        return stacked
    if not scaled:
        return lambda cur, prev: product(cur)
    return lambda cur, prev: product(cur) + w[:, None] * prev


def _rows(block, w: np.ndarray):
    """w over the rows of block, shaped like its values."""
    if isinstance(block, np.ndarray):
        return w[:, None]
    return np.repeat(w, np.diff(block.indptr))


def _plus_diagonal(block, w: np.ndarray):
    """block + diag(w) for a square dense or scipy block, a fresh product
    whose values it adds w to in place. A sparse one takes w on its stored
    diagonal, and a Gram block stores all of it but the entries of nodes
    with no edge, which ``_appended`` puts at the ends of their rows."""
    if not w.any():
        return block
    k = len(w)
    if isinstance(block, np.ndarray):
        block.flat[::k + 1] += w
        return block
    rows = np.repeat(np.arange(k), np.diff(block.indptr))
    on = np.flatnonzero(block.indices == rows)
    data, missing = block.data, w.copy()
    data[on] += w[rows[on]]
    missing[rows[on]] = 0
    return _appended(block, data, np.arange(k), missing, block.shape)


def _appended(block, data: np.ndarray, columns: np.ndarray, w: np.ndarray,
              shape: tuple[int, int]):
    """The scipy block of the given shape with ``data`` on block's
    pattern, and entry w_i at column columns[i] after the entries of each
    row i where w_i != 0; so no sparse add runs."""
    live = np.flatnonzero(w)
    if not live.size:  # as np.insert would copy the arrays
        return type(block)((data, block.indices, block.indptr), shape=shape)
    ends = block.indptr[live + 1]
    return type(block)((np.insert(data, ends, w[live]),
                        np.insert(block.indices, ends, columns[live]),
                        block.indptr + np.cumsum(np.r_[0, w != 0],
                                                 dtype=block.indptr.dtype)),
                       shape=shape)


def profile(g: BipartiteGraph) -> GraphProfile:
    """Connectivity, the forest flag and bi-regularity, all read off the
    biadjacency block D and its transpose; computed by the first call and
    cached on g, as D is read-only."""
    return g._profile


def girth(g: BipartiteGraph) -> int | None:
    """The exact girth, None for a forest (which is not walked); walked
    by the first call and cached on g."""
    return g._walked_girth


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
