import cmath
import math
import random

import pytest

from girthspec import (
    BipartiteGraph,
    NumericalError,
    RouteInapplicableError,
    adjacency_spectrum,
    complete_bipartite,
    derive_edge_spectrum,
    edge_spectrum_direct,
    even_cycle,
    multiset_matching_distance,
    profile,
    random_biregular,
    solve_transfer_quadratic,
    tesseract,
)
from girthspec.cli import transfer_spectra
from girthspec.spectral_transfer import TransferParameters

from conftest import step_totals


def params_for(g):
    """Adjacency spectrum, edge spectrum and transfer parameters of g."""
    spec, es = transfer_spectra(g, profile(g))
    return spec, es, TransferParameters.from_graph(g, spec)


def root_set(roots, digits=9):
    return {complex(round(x.real, digits), round(x.imag, digits))
            for x in (roots.xi1, roots.xi2)}


class TestTransferParameters:
    def test_side_swap_normalization(self):
        # left side has the larger degree; sides must swap so q2 >= q1
        g = complete_bipartite(3, 4)  # left degree 4, right degree 3
        _, _, params = params_for(g)
        assert params.q2 >= params.q1
        assert params.n * (params.q1 + 1) == params.edge_count
        assert params.m * (params.q2 + 1) == params.edge_count

    def test_rejects_irregular(self):
        g = BipartiteGraph.from_edges(2, 2, [(0, 0), (0, 1), (1, 0)])
        spec = adjacency_spectrum(g)
        with pytest.raises(RouteInapplicableError, match="bi-regular"):
            TransferParameters.from_graph(g, spec)

    def test_rejects_disconnected(self):
        g4, g4b = even_cycle(4), even_cycle(4)
        edges = set(g4.edges) | {(u + 2, w + 2) for u, w in g4b.edges}
        g = BipartiteGraph.from_edges(4, 4, edges)
        spec = adjacency_spectrum(g)
        with pytest.raises(RouteInapplicableError, match="connected"):
            TransferParameters.from_graph(g, spec)

    def test_rejects_degree_two_both_sides(self):
        g = even_cycle(8)
        spec = adjacency_spectrum(g)
        with pytest.raises(RouteInapplicableError, match="q2"):
            TransferParameters.from_graph(g, spec)


class TestTransferQuadratic:
    def test_extreme_eigenvalue_gives_one_and_q1q2(self):
        _, _, params = params_for(complete_bipartite(3, 4))
        lam = -math.sqrt((params.q1 + 1) * (params.q2 + 1))
        assert root_set(solve_transfer_quadratic(lam, params)) == {
            complex(1.0), complex(params.q1 * params.q2)}

    def test_zero_gives_minus_q1_minus_q2(self):
        _, _, params = params_for(complete_bipartite(3, 4))
        assert root_set(solve_transfer_quadratic(0.0, params)) == {
            complex(-params.q1), complex(-params.q2)}

    def test_tesseract_complex_pair(self):
        _, _, params = params_for(tesseract())
        roots = root_set(solve_transfer_quadratic(-2.0, params), digits=9)
        expect = {complex(-1.0, 2 * math.sqrt(2)), complex(-1.0, -2 * math.sqrt(2))}
        assert all(min(abs(r - e) for e in expect) < 1e-9 for r in roots)

    def test_vieta_holds_over_lambda_range(self):
        _, _, params = params_for(random_biregular(8, 6, 3, 4, seed=1))
        for lam in (-3.3, -2.0, -1.0, -0.5, 0.0, 1.7):
            roots = solve_transfer_quadratic(lam, params)
            assert abs(roots.xi1 * roots.xi2 - params.q1 * params.q2) < 1e-9
            assert abs(roots.xi1 + roots.xi2 - (lam * lam - params.q1 - params.q2)) < 1e-9


def spectrum_as_dict(es, digits=6):
    return {complex(round(v.real, digits), round(v.imag, digits)): m
            for v, m in es.eigenvalues}


class TestDeriveEdgeSpectrum:
    @pytest.mark.parametrize("m,n", [(2, 3), (3, 4), (4, 4), (5, 3), (7, 6)])
    def test_complete_bipartite_closed_form_spectrum(self, m, n):
        g = complete_bipartite(m, n)
        _, es, _ = params_for(g)
        got = spectrum_as_dict(es)
        r = round(math.sqrt((m - 1) * (n - 1)), 6)
        expect = {
            complex(r): 1, complex(-r): 1,
            complex(1.0): m * n - m - n + 1, complex(-1.0): m * n - m - n + 1,
        }
        qs = {}
        for q, mult in ((m - 1, n - 1), (n - 1, m - 1)):
            key = round(math.sqrt(q), 6)
            qs[complex(0, key)] = qs.get(complex(0, key), 0) + mult
            qs[complex(0, -key)] = qs.get(complex(0, -key), 0) + mult
        expect.update(qs)
        assert got == expect

    def test_tesseract_exact(self):
        g = tesseract()
        _, es, _ = params_for(g)
        assert step_totals(es, profile(g)) == (18, 12, 34)
        got = spectrum_as_dict(es)
        s = round(2 * math.sqrt(2), 6)
        xi_pos = cmath.sqrt(complex(-1, 2 * math.sqrt(2)))
        xi_neg = cmath.sqrt(complex(-1, -2 * math.sqrt(2)))
        expect = {complex(3.0): 1, complex(-3.0): 1,
                  complex(0, round(math.sqrt(3), 6)): 6,
                  complex(0, -round(math.sqrt(3), 6)): 6,
                  complex(1.0): 17, complex(-1.0): 17}
        for eta in (xi_pos, -xi_pos, xi_neg, -xi_neg):
            expect[complex(round(eta.real, 6), round(eta.imag, 6))] = 4
        assert got == expect

    def test_rejects_eight_cycle(self):
        g = even_cycle(8)
        spec = adjacency_spectrum(g)
        with pytest.raises(RouteInapplicableError):
            TransferParameters.from_graph(g, spec)

    def test_total_is_two_edge_count(self):
        for seed in range(5):
            g = random_biregular(8, 6, 3, 4, seed=seed)
            _, es, _ = params_for(g)
            assert es.total == 2 * g.edge_count
            assert sum(m for _, m in es.eigenvalues) == es.total

    def test_symmetric_and_conjugation_closed(self):
        g = random_biregular(10, 6, 3, 5, seed=0)
        _, es, _ = params_for(g)
        d = spectrum_as_dict(es)
        for v, m in d.items():
            assert d.get(-v) == m
            assert d.get(v.conjugate()) == m

    def test_plus_one_multiplicity_is_cyclomatic(self):
        for seed in range(5):
            g = random_biregular(9, 6, 2, 3, seed=seed)
            _, es, _ = params_for(g)
            assert es.multiplicity_of(1.0) == g.edge_count - g.node_count + 1

    @pytest.mark.parametrize("n,m,dv,dc,seed", [
        (6, 4, 2, 3, 0), (8, 6, 3, 4, 1), (10, 6, 3, 5, 2),
        (12, 6, 3, 6, 3), (8, 8, 4, 4, 4),
    ])
    def test_oracle_equivalence(self, n, m, dv, dc, seed):
        g = random_biregular(n, m, dv, dc, seed=seed)
        _, es, _ = params_for(g)
        direct = edge_spectrum_direct(g)
        tol = 1e-5 * max(1.0, es.max_abs())
        assert multiset_matching_distance(es, direct) < tol

    def test_odd_power_sums_vanish(self):
        g = random_biregular(8, 6, 3, 4, seed=9)
        _, es, _ = params_for(g)
        scale = max(es.max_abs(), 1.0)
        for k in (1, 3, 5, 7):
            assert abs(es.power_sum(k)) < 1e-6 * scale ** k * es.total

    def test_corrupted_spectrum_fails_loudly(self):
        g = complete_bipartite(3, 4)
        spec, _, params = params_for(g)
        # tamper with the negative eigenvalue's multiplicity: step 1 must notice
        bad = spec.__class__(
            eigenvalues=spec.eigenvalues[:-1] + ((spec.eigenvalues[-1][0], 2),),
            total=spec.total + 1, rank=spec.rank, nullity=spec.nullity,
            zero_tolerance=spec.zero_tolerance)
        with pytest.raises(NumericalError):
            derive_edge_spectrum(bad, params)
