"""Shared helpers for the test suite."""

from __future__ import annotations

import functools
import itertools
import logging
import math
import random
import warnings
from collections import deque
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from girthspec import (
    BipartiteGraph,
    CycleCounts,
    EdgeSpectrum,
    GraphProfile,
    NumericalError,
    ParseError,
    RouteInapplicableError,
    complete_bipartite,
    even_cycle,
    girth,
    profile,
    random_biregular,
)
from girthspec.graph_core import neighbor_lists


# 2 x 2 alist whose columns both list both rows, while row 1 lists column 1
# only and row 2 lists nothing, as its degree header (1, 0) says
ROW_SIDE_SHORT_ALIST = "2 2\n2 1\n2 2\n1 0\n1 2\n1 2\n1\n0\n"


def reference_adjacency(g: BipartiteGraph) -> list[list[int]]:
    """Adjacency lists built from ``g.edges`` pair by pair: left node u
    has id u, right node w id left_count + w."""
    n = g.left_count
    adj: list[list[int]] = [[] for _ in range(g.node_count)]
    for u, w in g.edges:
        adj[u].append(n + w)
        adj[n + w].append(u)
    return adj


def reference_girth(g: BipartiteGraph) -> int | None:
    """Exact girth by a BFS from every node; None for forests.

    For each root, any non-tree edge (u, v) seen during BFS closes a walk of
    length dist(u) + dist(v) + 1 through the root. Minimizing over all roots
    is exact for graphs of even girth, which covers all bipartite inputs.
    Roots in a component whose first BFS meets no non-tree edge, a tree,
    are skipped: no cycle passes through them.
    """
    adj = reference_adjacency(g)
    best: int | None = None
    n = len(adj)
    dist = [-1] * n
    parent = [-1] * n
    cyclic = [None] * n
    for start in range(n):
        if cyclic[start] is not None:
            continue
        members, queue, closed = [start], deque([start]), False
        cyclic[start] = False
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if cyclic[v] is None:
                    cyclic[v], parent[v] = False, u
                    members.append(v)
                    queue.append(v)
                elif v != parent[u]:
                    closed = True
        for v in members:
            cyclic[v], parent[v] = closed, -1
    for root in range(n):
        if not cyclic[root]:
            continue
        touched = [root]
        dist[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            if best is not None and 2 * dist[u] >= best:
                break
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    parent[v] = u
                    touched.append(v)
                    queue.append(v)
                elif v != parent[u]:
                    cand = dist[u] + dist[v] + 1
                    if best is None or cand < best:
                        best = cand
        for v in touched:
            dist[v] = -1
            parent[v] = -1
    return best


def reference_profile(g: BipartiteGraph) -> GraphProfile:
    """The profile read off ``reference_adjacency`` by BFS alone: what
    ``profile`` must equal on every input. ``reference_girth`` is the
    reference for ``girth``."""
    adj = reference_adjacency(g)
    seen = [False] * g.node_count
    parts = 0
    for root in range(g.node_count):
        if seen[root]:
            continue
        parts += 1
        seen[root] = True
        queue = deque([root])
        while queue:
            for v in adj[queue.popleft()]:
                if not seen[v]:
                    seen[v] = True
                    queue.append(v)
    n = g.left_count
    left = [len(a) for a in adj[:n]]
    right = [len(a) for a in adj[n:]]
    biregular = len(set(left)) == 1 and len(set(right)) == 1
    return GraphProfile(
        is_connected=parts == 1,
        is_biregular=biregular,
        d_v=left[0] if biregular else None,
        d_c=right[0] if biregular else None,
        is_forest=g.edge_count == g.node_count - parts,
    )


def random_bipartite(rng: random.Random, max_side: int = 8,
                     require_cycle: bool = True) -> BipartiteGraph:
    """Random simple bipartite graph, resampled until it contains a cycle."""
    while True:
        n = rng.randint(2, max_side)
        m = rng.randint(2, max_side)
        p = rng.uniform(0.25, 0.7)
        edges = {(u, w) for u in range(n) for w in range(m) if rng.random() < p}
        if not edges:
            continue
        g = BipartiteGraph.from_edges(n, m, edges)
        if not require_cycle or girth(g) is not None:
            return g


def biregular_girth6_graphs(count: int, max_seed: int = 4000):
    """Generated connected bi-regular graphs with girth >= 6, varied sizes."""
    out = []
    families = [(9, 6, 2, 3), (12, 8, 2, 3), (15, 10, 2, 3), (18, 12, 2, 3),
                (8, 4, 2, 4), (12, 6, 2, 4), (16, 8, 2, 4)]
    seed = 0
    while len(out) < count and seed < max_seed:
        n, m, d_v, d_c = families[seed % len(families)]
        g = random_biregular(n, m, d_v, d_c, seed=seed)
        if (gi := girth(g)) is not None and gi >= 6:
            out.append((g, profile(g)))
        seed += 1
    if len(out) < count:
        pytest.fail(f"only found {len(out)} girth>=6 bi-regular graphs")
    return out


def step_totals(es, prof) -> tuple[int, int, int]:
    """Eigenvalue totals of a transferred edge spectrum per transfer step:
    (quadratic roots, lambda = 0 roots +/- i sqrt(q), +/- 1).

    A quadratic root equals +/- i sqrt(q) only if lambda = 0 and +/- 1 only
    if lambda^2 = d_v d_c, both excluded from step 1, so steps 2 and 3 can
    be read off by value and step 1 is the rest of es.total = 2|E|.
    """
    s3 = es.multiplicity_of(1.0) + es.multiplicity_of(-1.0)
    s2 = sum(es.multiplicity_of(sign * 1j * math.sqrt(d - 1))
             for d in {prof.d_v, prof.d_c} for sign in (1, -1))
    return es.total - s2 - s3, s2, s3


@st.composite
def edge_sets(draw):
    """(n, m, edges) of any simple bipartite graph on up to 6 + 6 nodes:
    irregular, disconnected, with leaves, isolated nodes or no edges at
    all. The edge set is the parser-free reference for what D stores."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 6))
    cells = [(u, w) for u in range(n) for w in range(m)]
    return n, m, frozenset(draw(st.sets(st.sampled_from(cells))))


def bipartite_graphs():
    """The graphs of :func:`edge_sets`."""
    return edge_sets().map(lambda drawn: BipartiteGraph.from_edges(*drawn))


def stored_edges(g: BipartiteGraph) -> list[tuple[int, int]]:
    """The (u, w) pairs D stores, in storage order, read off its index
    arrays rather than through ``g.edges``."""
    rows = np.repeat(np.arange(g.left_count), np.diff(g.indptr))
    return list(zip(rows.tolist(), g.indices.tolist()))


@contextmanager
def logged_tiers():
    """The tiers of the ``power_traces`` calls made inside the block, in
    order, read off the engine's DEBUG records."""
    tiers = []
    handler = logging.Handler(logging.DEBUG)

    def emit(record):
        if record.msg.startswith("power_traces"):
            tiers.append(record.args[0])

    handler.emit = emit
    logger = logging.getLogger("girthspec")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        yield tiers
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def walk_record(caplog) -> str:
    """The message of the one girth walk record among those captured."""
    [message] = [r.getMessage() for r in caplog.records
                 if r.msg.startswith("girth tier=")]
    return message


def array_code(p: int, k: int) -> BipartiteGraph:
    """The (3, k) array code: a 3 x k grid of p x p circulant permutations,
    bi-regular, of girth 6 for a prime p (Fossorier 2004)."""
    return BipartiteGraph.from_edges(k * p, 3 * p, [
        (c * p + (i + r * c) % p, r * p + i)
        for r in range(3) for c in range(k) for i in range(p)])


def configuration_model(n: int, seed: int) -> BipartiteGraph:
    """Irregular graph: n left nodes of degree 2, 3, 4 or 8, stubs dealt
    to checks of degree 6 or 5, duplicate stub pairs dropped."""
    rng = random.Random(seed)
    degrees = [rng.choice((2, 3, 4, 8)) for _ in range(n)]
    m = -(-sum(degrees) // 6)
    checks = [i % m for i in range(sum(degrees))]
    rng.shuffle(checks)
    lefts = [u for u, deg in enumerate(degrees) for _ in range(deg)]
    return BipartiteGraph.from_edges(n, m, set(zip(lefts, checks)))


def disjoint_union(*graphs: BipartiteGraph) -> BipartiteGraph:
    """The graphs side by side, left sides joined and right sides joined."""
    edges, n, m = set(), 0, 0
    for g in graphs:
        edges |= {(n + u, m + w) for u, w in g.edges}
        n, m = n + g.left_count, m + g.right_count
    return BipartiteGraph.from_edges(n, m, edges)


@functools.cache
def symplectic_quadrangle(q: int) -> BipartiteGraph:
    """W(q), q prime: the incidence graph of the points and the totally
    isotropic lines of PG(3, q) under omega(x, y) = x0 y1 - x1 y0 + x2 y3
    - x3 y2. It is (q + 1)-regular and connected, of girth 8, with
    (q + 1)(q^2 + 1) nodes a side; W(2) is the Tutte 8-cage. A point is a
    vector whose first nonzero coordinate is 1. The lines through p are
    the spans of p and each other point x of its perp, and such a line is
    its own perp: the points orthogonal to both p and x."""
    points = np.array([v for v in itertools.product(range(q), repeat=4)
                       if any(v) and v[next(i for i, c in enumerate(v) if c)] == 1])
    omega = np.array([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    perp = points @ omega @ points.T % q == 0
    lines = sorted({tuple(np.flatnonzero(perp[p] & perp[x]).tolist())
                    for p in range(len(points)) for x in np.flatnonzero(perp[p])
                    if x != p})
    return BipartiteGraph.from_edges(len(points), len(lines), [
        (x, i) for i, line in enumerate(lines) for x in line])


def symplectic_quadrangle_counts(q: int) -> dict[int, int]:
    """N_8 .. N_14 of W(q), sharing no code with the package, from its
    known adjacency spectrum (Brouwer, Cohen & Neumaier 1989): +/- (q + 1)
    once, +/- sqrt(2q) s times each, s = q (q + 1)^2 / 2, and 0 otherwise,
    P = (q + 1)(q^2 + 1) nodes a side. The paper's three transfer steps
    take -(q + 1) to +/- q, -sqrt(2q) to the four square roots of +/- i q
    (s times each), the zeros to +/- i sqrt(q) (P - 1 - s times on each
    side), and add +/- 1 at the cyclomatic number P (q - 1) + 1. So, for
    h = k / 2, tr(A_e^k) = 2 q^k + 4 s q^h Re(i^h) + 4 (P - 1 - s) q^h
    (-1)^h + 2 (P (q - 1) + 1), and N_k = tr(A_e^k) / 2k."""
    points, s = (q + 1) * (q * q + 1), q * (q + 1) ** 2 // 2
    counts = {}
    for k in range(8, 15, 2):
        h = k // 2
        trace = (2 * q ** k + 4 * s * q ** h * (1, 0, -1, 0)[h % 4]
                 + 4 * (points - 1 - s) * q ** h * (-1) ** h
                 + 2 * (points * (q - 1) + 1))
        assert trace % (2 * k) == 0
        counts[k] = trace // (2 * k)
    return counts


def subdivision(g: BipartiteGraph) -> BipartiteGraph:
    """S(g): left side V(g), with left node u as u and right node w as
    left_count + w, and right side E(g), edge e joined to both its ends.
    Its cycles are g's at twice the length, so N_2k(S(g)) = N_k(g)."""
    n, edges = g.left_count, sorted(g.edges)
    return BipartiteGraph.from_edges(g.node_count, len(edges), [
        (end, e) for e, (u, w) in enumerate(edges) for end in (u, n + w)])


def path_subdivision(g: BipartiteGraph) -> BipartiteGraph:
    """g with each edge e = (u, w) replaced by the path u x_e y_e w, x_e a
    new right node and y_e a new left node: g's sides, degrees d and 2,
    and N_3k = N_k(g)."""
    n, m, edges = g.left_count, g.right_count, sorted(g.edges)
    return BipartiteGraph.from_edges(n + len(edges), m + len(edges), [
        pair for e, (u, w) in enumerate(edges)
        for pair in ((u, m + e), (n + e, m + e), (n + e, w))])


# (left degree, right degree); the left side has the larger degree in some
BIREGULAR_DEGREES = [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3), (3, 4),
                     (4, 3)]


@st.composite
def biregular_graphs(draw):
    """Bi-regular graphs, often disconnected: a disjoint union of one to
    three components of the same degrees, each an even cycle, a K_{m,n} or
    a random connected bi-regular graph."""
    d_left, d_right = draw(st.sampled_from(BIREGULAR_DEGREES))
    kinds = ["complete", "random"] + (["cycle"] if d_left == d_right == 2 else [])
    parts = []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=3)):
        if kind == "cycle":
            parts.append(even_cycle(2 * draw(st.integers(2, 7))))
        elif kind == "complete":
            parts.append(complete_bipartite(d_right, d_left))
        else:
            t = draw(st.integers(1, 3))
            parts.append(random_biregular(d_right * t, d_left * t, d_left,
                                          d_right, seed=draw(st.integers(0, 999))))
    return disjoint_union(*parts)


# ---------------------------------------------------------------------------
# References for the spectra and the counts, read only by the tests.
# ---------------------------------------------------------------------------

def adjacency_matrix(g: BipartiteGraph) -> np.ndarray:
    """Symmetric |V| x |V| adjacency matrix, U block first; the reference
    for ``adjacency_spectrum``, so it sets entries pair by pair from
    ``g.edges`` rather than using the sparse algebra of D."""
    n = g.left_count
    a = np.zeros((g.node_count, g.node_count))
    for u, w in g.edges:
        a[u, n + w] = a[n + w, u] = 1.0
    return a


def complete_bipartite_closed_form(m: int, n: int, k: int) -> int:
    """Exact N_4 or N_6 of K_{m,n}."""
    if m < 1 or n < 1:
        raise ValueError("side sizes must be positive")
    if k == 4:
        num = (m - 1) * (n - 1) * m * n
        assert num % 4 == 0
        return num // 4
    if k == 6:
        num = m * (m - 1) * (m - 2) * n * (n - 1) * (n - 2)
        assert num % 6 == 0
        return num // 6
    raise ValueError(f"no closed form for k={k}")


def multiset_matching_distance(a: EdgeSpectrum, b: EdgeSpectrum) -> float:
    """Largest pairing distance under the optimal matching of two spectra,
    each expanded to one value per multiplicity."""
    if a.total != b.total:
        raise NumericalError(
            f"spectra have different sizes: {a.total} vs {b.total}")
    xs, ys = (np.array([v for v, mult in spec.eigenvalues for _ in range(mult)])
              for spec in (a, b))
    cost = np.abs(xs[:, None] - ys[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


# ---------------------------------------------------------------------------
# Line-by-line parsers: the readers the numpy tokenizer in graph_io
# replaced, kept as test oracles. Each returns (n, m, edge set); every
# ParseError message and duplicate warning must match the package's.
# ---------------------------------------------------------------------------

def _as_text(data) -> str:
    """``data`` as ASCII text, a str UTF-8 encoded first; the first byte
    above 0x7f is a ParseError naming the line str.splitlines puts it on."""
    if isinstance(data, str):
        data = data.encode("utf-8", "surrogatepass")
    # latin-1 maps each byte to one character, so a line holds its bytes
    lines = bytes(data).decode("latin-1").splitlines(keepends=True)
    for lineno, line in enumerate(lines, start=1):
        wide = [ch for ch in line if ord(ch) > 0x7f]
        if wide:
            raise ParseError(f"line {lineno}: byte {ord(wide[0]):#04x} is not ASCII")
    return "".join(lines)


def _number(token: str) -> int:
    """A graph-file number: 1 to 18 ASCII digits, else a ValueError."""
    if not (token.isascii() and token.isdigit() and len(token) <= 18):
        raise ValueError(f"not 1 to 18 decimal digits: {token!r}")
    return int(token)


def line_parse_edge_list(text) -> tuple[int, int, frozenset[tuple[int, int]]]:
    """Parse the plain edge-list format.

    First meaningful line is ``n m``; each following line is ``u w`` with
    0-based indices. ``#`` starts a comment; blank lines are skipped.
    Duplicate edges collapse to one with a warning.
    """
    lines = _as_text(text).splitlines()
    header: tuple[int, int] | None = None
    edges: set[tuple[int, int]] = set()
    dup = 0
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected two integers, got {raw!r}")
        try:
            a, b = _number(parts[0]), _number(parts[1])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: tokens must be 1 to 18 decimal digits, "
                             f"got {raw!r}") from exc
        if header is None:
            if a <= 0 or b <= 0:
                raise ParseError(f"line {lineno}: node counts must be positive")
            header = (a, b)
            continue
        n, m = header
        if not (0 <= a < n and 0 <= b < m):
            raise ParseError(f"line {lineno}: edge ({a}, {b}) out of range")
        if (a, b) in edges:
            dup += 1
        else:
            edges.add((a, b))
    if header is None:
        raise ParseError("empty input: missing 'n m' header line")
    if dup:
        warnings.warn(f"collapsed {dup} duplicate edge line(s)", stacklevel=2)
    return header[0], header[1], frozenset(edges)


def line_parse_alist(text) -> tuple[int, int, frozenset[tuple[int, int]]]:
    """Parse the alist interchange format (1-indexed, zero padding allowed).

    The alist's column (variable) side becomes the left side ``U``.
    """
    rows = [ln.split() for ln in _as_text(text).splitlines() if ln.strip()]
    try:
        toks = [[_number(t) for t in row] for row in rows]
    except ValueError as exc:
        raise ParseError("alist tokens must be 1 to 18 decimal digits") from exc
    if len(toks) < 4:
        raise ParseError("alist too short: need header, max-degrees, two degree rows")
    if len(toks[0]) != 2 or len(toks[1]) != 2:
        raise ParseError("alist header lines must contain exactly two integers")
    n, m = toks[0]
    if n <= 0 or m <= 0:
        raise ParseError("alist node counts must be positive")
    max_col, max_row = toks[1]
    if len(toks) != 4 + n + m:
        raise ParseError(f"alist should have {4 + n + m} lines, found {len(toks)}")
    col_deg, row_deg = toks[2], toks[3]
    if len(col_deg) != n or len(row_deg) != m:
        raise ParseError("degree rows do not match the declared node counts")
    if col_deg and max(col_deg) > max_col or row_deg and max(row_deg) > max_row:
        raise ParseError("declared maximum degree exceeded in a degree row")

    edges: set[tuple[int, int]] = set()
    for u in range(n):
        nbrs = [t for t in toks[4 + u] if t != 0]
        if len(nbrs) != col_deg[u]:
            raise ParseError(f"column {u + 1}: {len(nbrs)} neighbors listed, "
                             f"degree header says {col_deg[u]}")
        for w in nbrs:
            if not (1 <= w <= m):
                raise ParseError(f"column {u + 1}: row index {w} out of range")
            edges.add((u, w - 1))
    for w in range(m):
        nbrs = [t for t in toks[4 + n + w] if t != 0]
        if len(nbrs) != row_deg[w]:
            raise ParseError(f"row {w + 1}: {len(nbrs)} neighbors listed, "
                             f"degree header says {row_deg[w]}")
        for u in nbrs:
            if not (1 <= u <= n):
                raise ParseError(f"row {w + 1}: column index {u} out of range")
            if (u - 1, w) not in edges:
                raise ParseError(f"row {w + 1} lists column {u} but the column "
                                 "side does not list the reverse")
    if len(edges) != sum(col_deg):
        raise ParseError("column degree total disagrees with the edge set")
    if len(edges) != sum(row_deg):
        raise ParseError("row degree total disagrees with the edge set")
    return n, m, frozenset(edges)


def unpruned_brute_force_counts(g: BipartiteGraph, max_k: int) -> CycleCounts:
    """The canonical-rooted DFS that ``brute_force_counts`` ran before it
    pruned by distance back to the root, kept as a test oracle: every
    simple path from s through nodes above s grows to length max_k - 1.
    It refuses what ``brute_force_counts`` refuses, bar the size cap."""
    if max_k < 4 or max_k % 2:
        raise RouteInapplicableError(f"max_k={max_k} must be an even integer >= 4")
    if (shortest := girth(g)) is None:
        raise RouteInapplicableError("forest input: no cycles to count")

    # neighbors over combined ids: left node u is u, right node w is n + w
    n = g.left_count
    adj = ([[n + w for w in nbrs] for nbrs in neighbor_lists(g)]
           + neighbor_lists(g.transpose))
    raw = {k: 0 for k in range(4, max_k + 1, 2)}
    on_path = [False] * g.node_count

    def extend(s: int, u: int, depth: int) -> None:
        for v in adj[u]:
            if v == s:
                if depth + 1 >= 4:
                    raw[depth + 1] += 1
            elif v > s and not on_path[v] and depth + 1 < max_k:
                on_path[v] = True
                extend(s, v, depth + 1)
                on_path[v] = False

    for s in range(g.node_count):
        on_path[s] = True
        extend(s, s, 0)
        on_path[s] = False

    counts: dict[int, int] = {}
    for k in range(shortest, max_k + 1, 2):
        if raw[k] % 2:
            raise NumericalError("cycle enumeration parity broken")
        counts[k] = raw[k] // 2
    return CycleCounts(girth=shortest, counts=counts)
