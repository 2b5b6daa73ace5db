import cmath
import dataclasses
import logging
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings

from girthspec import (
    BipartiteGraph,
    NumericalError,
    RouteInapplicableError,
    brute_force_counts,
    complete_bipartite,
    counts_from_spectrum,
    derive_edge_spectrum,
    edge_spectrum_direct,
    even_cycle,
    girth,
    profile,
    random_biregular,
    solve_transfer_quadratic,
    tesseract,
    trace_power_counts,
    transfer_counts,
)
from girthspec import edge_matrix, graph_core, spectral_transfer
from girthspec.cli import transfer_spectra
from girthspec.edge_matrix import power_traces, trace_powers
from girthspec.spectral_transfer import TransferParameters

from conftest import (
    biregular_graphs,
    disjoint_union,
    logged_tiers,
    multiset_matching_distance,
    random_bipartite,
    reference_girth,
    step_totals,
    symplectic_quadrangle,
)


def params_for(g):
    """Adjacency spectrum, edge spectrum and transfer parameters of g."""
    spec, es = transfer_spectra(g)
    return spec, es, TransferParameters.from_graph(g)


def root_set(roots, digits=9):
    return {complex(round(x.real, digits), round(x.imag, digits))
            for x in roots}


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
        with pytest.raises(RouteInapplicableError, match="bi-regular"):
            TransferParameters.from_graph(g)

    def test_rejects_disconnected(self):
        g4, g4b = even_cycle(4), even_cycle(4)
        edges = set(g4.edges) | {(u + 2, w + 2) for u, w in g4b.edges}
        g = BipartiteGraph.from_edges(4, 4, edges)
        with pytest.raises(RouteInapplicableError, match="connected"):
            TransferParameters.from_graph(g)

    def test_rejects_degree_two_both_sides(self):
        g = even_cycle(8)
        with pytest.raises(RouteInapplicableError, match="q2"):
            TransferParameters.from_graph(g)


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
            xi1, xi2 = solve_transfer_quadratic(lam, params)
            assert abs(xi1 * xi2 - params.q1 * params.q2) < 1e-9
            assert abs(xi1 + xi2 - (lam * lam - params.q1 - params.q2)) < 1e-9


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
        with pytest.raises(RouteInapplicableError):
            TransferParameters.from_graph(even_cycle(8))

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
        # tamper with the negative eigenvalue's multiplicity: the size check
        # notices, and step 1 does when the total is left as it was
        bad = spec.__class__(
            eigenvalues=spec.eigenvalues[:-1] + ((spec.eigenvalues[-1][0], 2),),
            total=spec.total + 1, rank=spec.rank, nullity=spec.nullity)
        with pytest.raises(NumericalError):
            derive_edge_spectrum(bad, params)
        with pytest.raises(NumericalError, match="step 1 produced 4"):
            derive_edge_spectrum(dataclasses.replace(bad, total=spec.total),
                                 params)

    def test_rejects_wrong_size_and_odd_rank(self):
        spec, _, params = params_for(complete_bipartite(3, 4))
        with pytest.raises(NumericalError, match="spectrum size disagrees"):
            derive_edge_spectrum(dataclasses.replace(spec, total=8), params)
        with pytest.raises(NumericalError, match=r"Rank\(A\) = 3 is odd"):
            derive_edge_spectrum(dataclasses.replace(spec, rank=3), params)


def trace_counts(g):
    """N_k = tr(A_e^k) / 2k at every even k in [g, 2g - 2], from the
    Ihara-Bass traces of the trace route."""
    gi = girth(g)
    traces = trace_powers(g, gi - 1)
    assert all(traces[k] % (2 * k) == 0 for k in range(gi, 2 * gi - 1, 2))
    return {k: traces[k] // (2 * k) for k in range(gi, 2 * gi - 1, 2)}


def levels_told(levels):
    """power_traces, whose rule appends to ``levels`` each level it is
    given."""
    def run(g, loss, rule):
        return power_traces(g, loss, lambda c, traces, block: levels.append(
            c) or rule(c, traces, block))
    return run


def two_random_23():
    return disjoint_union(random_biregular(9, 6, 2, 3, seed=1),
                          random_biregular(12, 8, 2, 3, seed=2))


FIXED_UNIONS = {
    "C4+C6": disjoint_union(even_cycle(4), even_cycle(6)),
    "K44+Q4": disjoint_union(complete_bipartite(4, 4), tesseract()),
    "two random (2,3)": two_random_23(),
}


class TestTransferCounts:
    @given(biregular_graphs())
    @example(even_cycle(8))
    @example(complete_bipartite(2, 5))  # left degree 5
    @example(complete_bipartite(7, 5))
    @example(complete_bipartite(6, 6))
    @example(disjoint_union(even_cycle(8), even_cycle(12)))
    @example(disjoint_union(complete_bipartite(4, 3), complete_bipartite(4, 3)))
    @settings(max_examples=150, deadline=None)
    def test_equal_trace_counts(self, g):
        cc = transfer_counts(g)
        assert cc.counts == trace_counts(g)
        assert cc.girth == girth(g) == reference_girth(g)

    @pytest.mark.parametrize("name", FIXED_UNIONS)
    def test_disjoint_unions(self, name):
        g = FIXED_UNIONS[name]
        assert not profile(g).is_connected
        cc = transfer_counts(g)
        assert cc.counts == trace_counts(g)
        assert cc.girth == girth(g) == reference_girth(g)

    @pytest.mark.parametrize("g", [
        complete_bipartite(1, 3), complete_bipartite(4, 1),
        BipartiteGraph.from_edges(5, 5, [(i, i) for i in range(5)]),
        disjoint_union(complete_bipartite(1, 3), complete_bipartite(1, 3)),
        BipartiteGraph.from_edges(3, 2, [])],
        ids=["K13", "K41", "matching", "two stars", "no edge"])
    def test_refuses_biregular_forests(self, g):
        assert profile(g).is_biregular and girth(g) is None
        with pytest.raises(RouteInapplicableError,
                           match="^forest input: no cycles to count$"):
            transfer_counts(g)

    @pytest.mark.parametrize("max_k", [0, 2, 6, 7, 9, 15, 16, 100])
    def test_refuses_invalid_windows(self, max_k):
        # W(2): girth 8, so the window is [8, 14]
        with pytest.raises(RouteInapplicableError) as refused:
            transfer_counts(symplectic_quadrangle(2), max_k)
        assert str(refused.value) == (
            f"max_k={max_k} must be even and within [g, 2g-2] = [8, 14]: "
            "TBC walks and cycles part ways at length 2g")

    def test_no_edge_trace_by_min_side_fails_loudly(self, monkeypatch):
        # with every edge trace read as 0, no level meets the girth: the
        # chain stops at level min(n, m) = 2 of K_{3,2}, not past it
        levels = []
        monkeypatch.setattr(spectral_transfer, "_edge_trace", lambda *a: 0)
        monkeypatch.setattr(spectral_transfer, "power_traces",
                            levels_told(levels))
        with pytest.raises(NumericalError, match="by level 2 = min"):
            transfer_counts(complete_bipartite(3, 2))
        assert levels == [1, 2]

    def test_fixed_union_values(self):
        assert transfer_counts(FIXED_UNIONS["C4+C6"]).counts == {4: 1, 6: 1}
        # K_{4,4} has 36 four-cycles and Q4 has 24
        assert transfer_counts(FIXED_UNIONS["K44+Q4"]).counts == {4: 60, 6: 224}

    def test_side_swap(self):
        # K_{7,5}: left degree 5; K_{5,7}: left degree 7
        a = transfer_counts(complete_bipartite(7, 5)).counts
        b = transfer_counts(complete_bipartite(5, 7)).counts
        assert a == b == trace_counts(complete_bipartite(7, 5))

    @pytest.mark.parametrize("g", [complete_bipartite(7, 5),
                                   complete_bipartite(5, 7), two_random_23()],
                             ids=["K75", "K57", "two (2,3)"])
    def test_gram_matrix_is_on_the_smaller_side(self, g, caplog):
        # the identity holds with either side's Gram matrix (p_j(0) =
        # (-q1)^j + (-q2)^j absorbs the n - m extra zeros); with L = 0 the
        # engine runs the side with fewer nodes alone, and its blocks on
        # that side stand for B
        caplog.set_level(logging.DEBUG, logger="girthspec")
        counts = transfer_counts(g).counts
        records = [r for r in caplog.records
                   if r.msg.startswith("power_traces")]
        assert counts == trace_counts(g)
        smaller = "U" if g.left_count < g.right_count else "W"
        assert [(r.args[1], r.args[5]) for r in records] == [
            ("adjacency", smaller)]

    def test_counts_graphs_the_float_pipeline_refuses(self):
        for g in (even_cycle(8), *FIXED_UNIONS.values()):
            with pytest.raises(RouteInapplicableError):
                transfer_spectra(g)
            assert transfer_counts(g).counts == trace_counts(g)

    def test_matches_float_transfer(self):
        for seed in range(3):
            g = random_biregular(8, 6, 3, 4, seed=seed)
            _, es = transfer_spectra(g)
            assert (transfer_counts(g).counts
                    == counts_from_spectrum(es, girth(g)).counts)

    def test_refuses_irregular_before_any_work(self, monkeypatch):
        def no_traces(*args):
            raise AssertionError("traces computed")
        monkeypatch.setattr(spectral_transfer, "power_traces", no_traces)
        rng = random.Random(3)
        g = next(g for g in iter(lambda: random_bipartite(rng), None)
                 if not profile(g).is_biregular)
        with pytest.raises(RouteInapplicableError, match="not bi-regular"):
            transfer_counts(g)
        with pytest.raises(RouteInapplicableError, match="forest"):
            transfer_counts(complete_bipartite(1, 3))
        # the window waits for the girth, which the chain meets at level
        # g/2 = 2 of K_{3,4}, and no level past it runs
        levels = []
        monkeypatch.setattr(spectral_transfer, "power_traces",
                            levels_told(levels))
        with pytest.raises(RouteInapplicableError, match="max_k=8"):
            transfer_counts(complete_bipartite(3, 4), max_k=8)
        assert levels == [1, 2]

    def test_window(self):
        g = random_biregular(30, 20, 2, 3, seed=0)
        full = transfer_counts(g).counts
        gi = girth(g)
        for max_k in range(gi, 2 * gi - 1, 2):
            assert transfer_counts(g, max_k).counts == {
                k: v for k, v in full.items() if k <= max_k}

    def test_guard_diverts_to_bigint(self, monkeypatch):
        graphs = [*FIXED_UNIONS.values(), complete_bipartite(5, 7),
                  even_cycle(10), random_biregular(8, 6, 3, 4, seed=0)]
        expect = [transfer_counts(g).counts for g in graphs]
        monkeypatch.setattr(edge_matrix, "INT64_LIMIT", 1)
        with logged_tiers() as tiers:
            assert [transfer_counts(g).counts for g in graphs] == expect
        assert tiers == ["bigint"] * len(graphs)

    @pytest.mark.parametrize("g", [
        complete_bipartite(3, 4), tesseract(), two_random_23(),
        random_biregular(40, 20, 2, 4, seed=1),
        random_biregular(12, 9, 3, 4, seed=2)],
        ids=["K34", "Q4", "two (2,3)", "(2,4)", "(3,4)"])
    def test_dense_and_sparse_tiers_agree(self, g, monkeypatch):
        prof = profile(g)
        u, w = np.array(sorted(g.edges)).T
        d = np.zeros((g.left_count, g.right_count), dtype=np.int64)
        d[u, w] = 1
        if prof.d_v > prof.d_c:
            d = d.T
        b = d.T @ d
        # tr(M^(2t)) = tr(A^(2t)) = 2 tr(B^t) for L = 0, and tr(M^0) = 2|V|
        expect = [2 * g.node_count] + [
            2 * int(np.trace(np.linalg.matrix_power(b, t))) for t in range(1, 8)]
        tiers = {}
        for cap in (0, 10 ** 9):
            monkeypatch.setattr(graph_core, "DENSE_MAX_SIZE", cap)
            # a fresh graph per cap, so that its girth walk runs in each form
            h = BipartiteGraph(g.left_count, g.right_count, g.indptr,
                               g.indices)
            tiers[cap] = power_traces(h, np.zeros(h.node_count, dtype=np.int64),
                                      7)
            assert transfer_counts(h).counts == trace_counts(h)
        assert tiers[0] == tiers[10 ** 9] == expect


def test_no_function_takes_a_profile():
    # a profile of another graph would silently break an exact route:
    # each layer profiles the graph it was given
    k34, c8 = complete_bipartite(3, 4), profile(even_cycle(8))
    with pytest.raises(TypeError, match="prof"):
        trace_power_counts(k34, prof=c8)
    for call in (lambda: transfer_spectra(k34, c8),
                 lambda: TransferParameters.from_graph(k34, c8),
                 lambda: brute_force_counts(k34, 6, 200, c8)):
        with pytest.raises(TypeError, match="positional argument"):
            call()
