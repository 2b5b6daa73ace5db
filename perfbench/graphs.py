"""Seeded input generators for the benchmark.

Each graph has a fixed structure, named by its parameters; the run seed
only relabels its nodes, which reorders the file the program reads and
the arc order it builds. Cycle counts do not change under relabelling,
so the frozen counts in references.json check every op for any seed.
The generators share no code with the package under test.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass


@dataclass(frozen=True)
class Graph:
    """Bipartite graph: ``n`` variable (left) nodes, ``m`` check (right)
    nodes, edges as (variable, check) pairs."""

    name: str
    n: int
    m: int
    edges: tuple[tuple[int, int], ...]


def qc_array(p: int, j: int, k: int) -> Graph:
    """Array code: a j x k grid of p x p circulant permutations P^(r*c).

    With p prime, j = 3 and k <= p the girth is 6 (Fossorier 2004).
    """
    edges = tuple((c * p + (i + r * c) % p, r * p + i)
                  for r in range(j) for c in range(k) for i in range(p))
    return Graph(f"qc-p{p}-j{j}-k{k}", k * p, j * p, edges)


def config_model(n: int, degrees: tuple[int, ...], check_degree: int,
                 structure_seed: int) -> Graph:
    """Irregular configuration model with duplicate stub pairs dropped.

    Variable degrees are drawn from ``degrees``; check degrees are all
    ``check_degree`` or one less, so that the stub totals match.
    """
    rng = random.Random(structure_seed)
    var_deg = [rng.choice(degrees) for _ in range(n)]
    total = sum(var_deg)
    m = -(-total // check_degree)
    var_stubs = [u for u, d in enumerate(var_deg) for _ in range(d)]
    check_stubs = [i % m for i in range(total)]
    rng.shuffle(check_stubs)
    edges = tuple(sorted(set(zip(var_stubs, check_stubs))))
    deg_tag = "".join(map(str, degrees))
    return Graph(f"irr-n{n}-d{deg_tag}-c{check_degree}-s{structure_seed}",
                 n, m, edges)


def biregular_girth6(n: int, m: int, d_v: int, d_c: int,
                     structure_seed: int) -> Graph:
    """Connected (d_v, d_c)-regular graph of girth >= 6, by rejection."""
    rng = random.Random(structure_seed)
    for _ in range(100_000):
        var_stubs = [u for u in range(n) for _ in range(d_v)]
        check_stubs = [w for w in range(m) for _ in range(d_c)]
        rng.shuffle(check_stubs)
        edges = set(zip(var_stubs, check_stubs))
        if len(edges) == n * d_v:
            g = Graph(f"bireg-n{n}-m{m}-d{d_v}{d_c}-s{structure_seed}",
                      n, m, tuple(sorted(edges)))
            if connected(g) and girth(g) >= 6:
                return g
    raise RuntimeError(f"no girth-6 ({d_v},{d_c}) graph on {n}+{m} nodes")


def relabel(g: Graph, seed: int) -> Graph:
    """Same graph with both sides' node ids permuted by ``seed``."""
    rng = random.Random(seed)
    var_perm = list(range(g.n))
    check_perm = list(range(g.m))
    rng.shuffle(var_perm)
    rng.shuffle(check_perm)
    edges = tuple(sorted((var_perm[u], check_perm[w]) for u, w in g.edges))
    return Graph(g.name, g.n, g.m, edges)


def _adjacency(g: Graph) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(g.n + g.m)]
    for u, w in g.edges:
        adj[u].append(g.n + w)
        adj[g.n + w].append(u)
    return adj


def connected(g: Graph) -> bool:
    adj = _adjacency(g)
    seen = {0}
    queue = deque([0])
    while queue:
        for v in adj[queue.popleft()]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == len(adj)


def girth(g: Graph) -> float:
    """Shortest cycle length by BFS from every node; inf for a forest."""
    adj = _adjacency(g)
    best = float("inf")
    for root in range(len(adj)):
        dist = {root: 0}
        parent = {root: -1}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            if 2 * dist[u] >= best:
                break
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    parent[v] = u
                    queue.append(v)
                elif v != parent[u]:
                    best = min(best, dist[u] + dist[v] + 1)
    return best


def write_edge_list(g: Graph, path) -> None:
    """Plain edge list: ``n m`` header, then one 0-based ``u w`` per line."""
    lines = [f"{g.n} {g.m}"] + [f"{u} {w}" for u, w in g.edges]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_alist(g: Graph, path) -> None:
    """alist: columns are variables, rows are checks, 1-based, 0-padded."""
    cols: list[list[int]] = [[] for _ in range(g.n)]
    rows: list[list[int]] = [[] for _ in range(g.m)]
    for u, w in g.edges:
        cols[u].append(w + 1)
        rows[w].append(u + 1)
    max_col = max(map(len, cols))
    max_row = max(map(len, rows))
    lines = [f"{g.n} {g.m}", f"{max_col} {max_row}",
             " ".join(str(len(c)) for c in cols),
             " ".join(str(len(r)) for r in rows)]
    lines += [" ".join(map(str, c + [0] * (max_col - len(c)))) for c in cols]
    lines += [" ".join(map(str, r + [0] * (max_row - len(r)))) for r in rows]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
