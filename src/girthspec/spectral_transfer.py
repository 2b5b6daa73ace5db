"""Derive the edge-matrix spectrum from the adjacency spectrum.

For a connected (d_v, d_c)-regular bipartite graph, every eigenvalue of
the directed edge matrix comes from one of three sources:

1. each strictly negative adjacency eigenvalue lambda feeds the quadratic
   xi^2 + (-lambda^2 + q1 + q2) xi + q1 q2 = 0 with q1 = d_v - 1 and
   q2 = d_c - 1; each root xi != 1 contributes +/- sqrt(xi) at the
   multiplicity of lambda;
2. +/- i sqrt(q1) and +/- i sqrt(q2), at multiplicities n - Rank(A)/2 and
   m - Rank(A)/2 (the lambda = 0 roots);
3. +/- 1, each at the cyclomatic number |E| - (m + n) + 1.

Every step total is verified against its closed form and the grand total
must be exactly 2|E|; any mismatch fails loudly.

``transfer_counts`` sums each quadratic's roots into an integer polynomial
in lambda^2 and counts any bi-regular graph exactly from the adjacency
power sums tr(A^(2t)) = 2 tr((D^T D)^t), taken by the shared engine
``edge_matrix.power_traces`` with L = 0.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .counts import CycleCounts, counts_from_traces
from .edge_matrix import EdgeSpectrum, _girth_rule, power_traces
from .errors import NumericalError, RouteInapplicableError
from .graph_core import BipartiteGraph, profile
from .spectra import AdjacencySpectrum, _cluster

__all__ = [
    "TransferParameters",
    "solve_transfer_quadratic",
    "derive_edge_spectrum",
    "transfer_counts",
]

XI_ONE_TOL = 1e-6          # |xi - 1| below this means the excluded root
LAMBDA_MAX_TOL = 1e-5      # cross-check |lambda^2 - d_v d_c| for that root
VIETA_RTOL = 1e-9


def _sorted_sides(g: BipartiteGraph) -> tuple[int, int, int, int]:
    """d_v, d_c, n, m of a bi-regular graph, its sides sorted so that d_v
    <= d_c: n counts the side of degree d_v, m that of degree d_c."""
    prof = profile(g)
    if not prof.is_biregular:
        raise RouteInapplicableError("graph is not bi-regular")
    if prof.d_v <= prof.d_c:
        return prof.d_v, prof.d_c, g.left_count, g.right_count
    return prof.d_c, prof.d_v, g.right_count, g.left_count


@dataclass(frozen=True)
class TransferParameters:
    """Degree bookkeeping for the float transfer, which needs a connected
    bi-regular graph with q1 = d_v - 1 >= 1 and q2 = d_c - 1 >= 2; ``n``
    counts the side of degree q1 + 1, ``m`` that of degree q2 + 1 >= q1 + 1.
    """

    q1: int
    q2: int
    n: int
    m: int
    edge_count: int

    @classmethod
    def from_graph(cls, g: BipartiteGraph) -> "TransferParameters":
        d_v, d_c, n, m = _sorted_sides(g)
        if not profile(g).is_connected:
            raise RouteInapplicableError("graph is not connected")
        if d_c < 3 or d_v < 2:
            raise RouteInapplicableError(
                f"degrees (d_v={d_v}, d_c={d_c}) outside the q2 >= 2, q1 >= 1 "
                "hypothesis; use the trace route instead")
        return cls(q1=d_v - 1, q2=d_c - 1, n=n, m=m, edge_count=g.edge_count)


def solve_transfer_quadratic(lam: float,
                             params: TransferParameters) -> tuple[complex, complex]:
    """Stable roots (xi1, xi2) of xi^2 + (q1 + q2 - lambda^2) xi + q1 q2 = 0.

    The larger-magnitude root uses the sign-aware formula; the smaller one
    comes from the Vieta product, avoiding cancellation. Both Vieta
    relations are checked to VIETA_RTOL.
    """
    q1, q2 = params.q1, params.q2
    b = float(q1 + q2 - lam * lam)
    c = float(q1 * q2)
    disc = b * b - 4.0 * c
    if disc >= 0.0:
        sq = math.sqrt(disc)
        big = (-b - sq) / 2.0 if b >= 0.0 else (-b + sq) / 2.0
        xi1, xi2 = complex(big), complex(c / big)
    else:
        re, im = -b / 2.0, math.sqrt(-disc) / 2.0
        xi1, xi2 = complex(re, im), complex(re, -im)
    prod, tot = q1 * q2, lam * lam - q1 - q2
    if abs(xi1 * xi2 - prod) > VIETA_RTOL * max(1.0, abs(prod)):
        raise NumericalError("xi root product violates Vieta")
    if abs(xi1 + xi2 - tot) > VIETA_RTOL * max(1.0, abs(tot)):
        raise NumericalError("xi root sum violates Vieta")
    return xi1, xi2


def derive_edge_spectrum(spec: AdjacencySpectrum,
                         params: TransferParameters) -> EdgeSpectrum:
    """Edge spectrum of a connected bi-regular graph from its adjacency spectrum.

    Integer bookkeeping throughout; the three step totals and the grand
    total 2|E| are asserted, so a corrupted input spectrum cannot pass
    silently.
    """
    if spec.total != params.n + params.m:
        raise NumericalError("spectrum size disagrees with |V|")
    if spec.rank % 2:
        raise NumericalError(f"Rank(A) = {spec.rank} is odd: tolerance failure")
    d_prod = (params.q1 + 1) * (params.q2 + 1)  # d_v * d_c
    entries: list[tuple[complex, int]] = []

    # Step 1: negative eigenvalues through the quadratic; the zero is exact.
    step1 = 0
    for lam, mult in spec.eigenvalues:
        if lam >= 0.0:
            continue
        for xi in solve_transfer_quadratic(lam, params):
            if abs(xi - 1.0) <= XI_ONE_TOL:
                if abs(lam * lam - d_prod) > LAMBDA_MAX_TOL * max(1.0, d_prod):
                    raise NumericalError(
                        f"root xi ~ 1 arose from lambda = {lam}, not from "
                        "+/- sqrt(d_v d_c): the input spectrum is corrupted")
                continue
            eta = cmath.sqrt(xi)
            entries.append((eta, mult))
            entries.append((-eta, mult))
            step1 += 2 * mult
    expect1 = 2 * (params.m + params.n) - 2 * spec.nullity - 2
    if step1 != expect1:
        raise NumericalError(
            f"step 1 produced {step1} eigenvalues, expected {expect1}")

    # Step 2: the lambda = 0 roots +/- i sqrt(q1), +/- i sqrt(q2).
    for q, side in ((params.q1, params.n), (params.q2, params.m)):
        mult = side - spec.rank // 2
        if mult < 0:
            raise NumericalError("negative step-2 multiplicity: rank too large")
        if mult:
            root = complex(0.0, math.sqrt(q))
            entries.append((root, mult))
            entries.append((-root, mult))
    step2 = sum(m for _, m in entries) - step1
    if step2 != 2 * spec.nullity:
        raise NumericalError(
            f"step 2 produced {step2} eigenvalues, expected {2 * spec.nullity}")

    # Step 3: +/- 1 at the cyclomatic number.
    cyclomatic = params.edge_count - (params.m + params.n) + 1
    if cyclomatic < 0:
        raise NumericalError("negative cyclomatic number: inconsistent counts")
    if cyclomatic:
        entries.append((complex(1.0), cyclomatic))
        entries.append((complex(-1.0), cyclomatic))

    total = sum(m for _, m in entries)
    if total != 2 * params.edge_count:
        raise NumericalError(
            f"derived spectrum has {total} eigenvalues, expected "
            f"{2 * params.edge_count}")

    # coincident values merge (q1 == q2 makes step 2 roots collide)
    values, mults = zip(*entries)
    return EdgeSpectrum(eigenvalues=tuple(_cluster(
        np.array(values), 1e-12, np.array(mults))), total=total)


def _edge_trace(poly: list[int], a: list[int], tail: int) -> int:
    """tr(A_e^(2j)) = sum_t c_{j,t} a_t + tail, for p_j's coefficients."""
    return sum(c * t for c, t in zip(poly, a)) + tail


def transfer_counts(g: BipartiteGraph,
                    max_k: int | None = None) -> CycleCounts:
    """Exact N_k for even k in [g, max_k] of any bi-regular graph, and its
    girth g, read off the same traces; other graphs and forests are
    refused before any work, an invalid window at level g/2.

    With sides sorted so that d_v <= d_c, q1 = d_v - 1, q2 = d_c - 1, n the
    d_v side, m the d_c side, and c_{j,t} the coefficients of p_0 = 2,
    p_1 = x - q1 - q2, p_j = (x - q1 - q2) p_{j-1} - q1 q2 p_{j-2}:
    tr(A_e^{2j}) = sum_t c_{j,t} a_t + 2 (n - m)(-q1)^j + 2 (|E| - |V|),
    with a_t = tr(A^{2t}) = 2 tr((D^T D)^t) for t >= 1 and a_0 = 2m. The
    a_t come from ``power_traces`` with L = 0, which runs the smaller side,
    the d_c side, alone. tr(A_e^{2j}) counts closed non-backtracking walks,
    so it is 0 for 2j < g and 2g N_g at 2j = g: ``_girth_rule`` meets the
    girth at the first level c with a nonzero edge trace, g = 2c."""
    d_v, d_c, n, m = _sorted_sides(g)
    q1, q2, shift = d_v - 1, d_c - 1, g.edge_count - g.node_count
    s, r = q1 + q2, q1 * q2
    polys = [[2], [-s, 1]]  # p_0 and p_1, lowest coefficient first

    def edge_trace(traces: list[int], j: int) -> int:
        while len(polys) <= j:
            prev, poly = polys[-2:]
            polys.append([a - s * b - r * c for a, b, c in
                          zip([0] + poly, poly + [0], prev + [0, 0])])
        return _edge_trace(polys[j], [2 * m, *traces[1:j + 1]],
                           2 * ((n - m) * (-q1) ** j + shift))

    traces = power_traces(g, np.zeros(n + m, dtype=np.int64), _girth_rule(
        g, max_k, lambda c, traces, block: edge_trace(traces, c)))
    return counts_from_traces({2 * j: edge_trace(traces, j)
                               for j in range(1, len(traces))})
