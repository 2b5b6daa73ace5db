import logging
import math
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from girthspec import (
    BipartiteGraph,
    NumericalError,
    RouteInapplicableError,
    SizeCapError,
    adjacency_spectrum,
    brute_force_counts,
    complete_bipartite,
    counts_from_spectrum,
    edge_spectrum_direct,
    even_cycle,
    g_plus_4_cross_check,
    girth,
    profile,
    random_biregular,
    tesseract,
    trace_power_counts,
    transfer_counts,
    tree_walk_count,
)
from girthspec.cli import transfer_spectra
from girthspec.edge_matrix import EdgeSpectrum

from conftest import (
    biregular_girth6_graphs,
    complete_bipartite_closed_form,
    path_subdivision,
    random_bipartite,
    reference_girth,
    subdivision,
    symplectic_quadrangle,
    symplectic_quadrangle_counts,
    unpruned_brute_force_counts,
    walk_record,
)


@st.composite
def small_graphs(draw):
    """Simple bipartite graphs on up to 7 + 7 nodes and 24 edges: one walk
    u_0 w_0 u_1 w_1 ... of up to 14 steps, closed back to u_0 or not, plus
    up to 10 other edges. Cycles of every even length up to 14 are common,
    and so are leaves, isolated nodes, several components and forests. The
    edge bound keeps the unpruned oracle fast: on K_{7,7} at max_k = 14 it
    grows millions of paths from each root."""
    n, m = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    steps = draw(st.integers(0, 7))
    lefts = draw(st.lists(st.integers(0, n - 1), min_size=steps, max_size=steps))
    rights = draw(st.lists(st.integers(0, m - 1), min_size=steps, max_size=steps))
    ends = lefts[1:] + lefts[:1] if draw(st.booleans()) else lefts[1:]
    cells = [(u, w) for u in range(n) for w in range(m)]
    extra = draw(st.lists(st.sampled_from(cells), max_size=10))
    return BipartiteGraph.from_edges(
        n, m, {*zip(lefts, rights), *zip(ends, rights), *extra})


def float_transfer_counts(g):
    """Counts by the paper's float pipeline, as the CLI runs it."""
    _, es = transfer_spectra(g)
    return counts_from_spectrum(es, girth(g))


class TestCountsFromSpectrum:
    @pytest.mark.parametrize("m,n", [(2, 3), (3, 4), (5, 5), (6, 3)])
    def test_complete_bipartite_closed_forms(self, m, n):
        cc = float_transfer_counts(complete_bipartite(m, n))
        assert cc.counts[4] == (m - 1) * (n - 1) * m * n // 4
        assert cc.counts[6] == m * (m - 1) * (m - 2) * n * (n - 1) * (n - 2) // 6
        assert all(r < 1e-4 for r in cc.residuals.values())

    def test_tesseract_displayed_computation(self):
        # (2*3^4 + 8(-1+2sqrt2 i)^2 + 8(-1-2sqrt2 i)^2 + 12*3^2 + 34) / 8 = 24
        s = 2 * math.sqrt(2)
        total = (2 * 3 ** 4 + 8 * complex(-1, s) ** 2 + 8 * complex(-1, -s) ** 2
                 + 12 * 3 ** 2 + 34)
        assert round(total.real / 8) == 24
        assert float_transfer_counts(tesseract()).counts[4] == 24

    def test_rejects_k_beyond_window(self):
        es = edge_spectrum_direct(complete_bipartite(3, 3))
        with pytest.raises(RouteInapplicableError):
            counts_from_spectrum(es, girth=4, max_k=8)

    def test_refuses_forest(self):
        es = edge_spectrum_direct(BipartiteGraph.from_edges(
            2, 1, [(0, 0), (1, 0)]))
        with pytest.raises(RouteInapplicableError, match="^forest input: "):
            counts_from_spectrum(es, None)

    @pytest.mark.parametrize("max_k", [2, 5, 8])
    def test_window_check_shared_with_trace(self, max_k):
        g = complete_bipartite(3, 3)
        es = edge_spectrum_direct(g)
        with pytest.raises(RouteInapplicableError) as spectral:
            counts_from_spectrum(es, girth=4, max_k=max_k)
        with pytest.raises(RouteInapplicableError) as trace:
            trace_power_counts(g, max_k=max_k)
        assert str(spectral.value) == str(trace.value)

    def test_residual_gate(self):
        # a spectrum that cannot produce integers: single eigenvalue pair
        es = EdgeSpectrum(eigenvalues=((complex(1.1), 1), (complex(-1.1), 1)), total=2)
        with pytest.raises(NumericalError, match="residual"):
            counts_from_spectrum(es, girth=4, max_k=4)


class TestBruteForce:
    def test_six_cycle(self):
        cc = brute_force_counts(even_cycle(6), max_k=10)
        assert cc.girth == 6
        assert cc.counts == {6: 1, 8: 0, 10: 0}

    def test_k23(self):
        assert brute_force_counts(complete_bipartite(2, 3), max_k=4).counts[4] == 3

    def test_tesseract(self):
        assert brute_force_counts(tesseract(), max_k=4).counts[4] == 24

    def test_valid_beyond_two_g(self):
        # K_{2,2} has girth 4; brute force is allowed past 2g-2
        cc = brute_force_counts(complete_bipartite(2, 2), max_k=8)
        assert cc.counts == {4: 1, 6: 0, 8: 0}

    def test_size_cap(self):
        with pytest.raises(SizeCapError):
            brute_force_counts(complete_bipartite(3, 3), max_k=4, edge_cap=5)

    def test_refuses_forest(self):
        with pytest.raises(RouteInapplicableError):
            brute_force_counts(BipartiteGraph.from_edges(2, 1, [(0, 0), (1, 0)]),
                               max_k=4)

    # two 4-cycles sharing an edge, with a leaf; a separate 6-cycle; an
    # isolated node; at max_k = 14 > 2g - 2
    @example(BipartiteGraph.from_edges(7, 7, [
        (0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (2, 1), (2, 2), (2, 6),
        (3, 3), (3, 4), (4, 4), (4, 5), (5, 5), (5, 3)]), 14)
    @given(small_graphs(), st.sampled_from(range(4, 15, 2)))
    @settings(max_examples=300, deadline=None)
    def test_prune_keeps_every_count(self, g, max_k):
        try:
            expected = unpruned_brute_force_counts(g, max_k)
        except RouteInapplicableError as exc:
            with pytest.raises(RouteInapplicableError,
                               match=f"^{re.escape(str(exc))}$"):
                brute_force_counts(g, max_k)
            return
        assert brute_force_counts(g, max_k) == expected

    def test_tutte_8_cage(self):
        # W(2): girth 8, so 14 = 2g - 2 ends every route's window
        g = symplectic_quadrangle(2)
        assert girth(g) == 8 and profile(g).d_v == profile(g).d_c == 3
        expected = {8: 90, 10: 72, 12: 300, 14: 1080}
        assert symplectic_quadrangle_counts(2) == expected
        assert brute_force_counts(g, max_k=14).counts == expected
        assert trace_power_counts(g).counts == expected
        assert transfer_counts(g).counts == expected

    def test_path_longer_than_the_recursion_limit(self):
        # paths of up to 1200 nodes, past Python's default limit of 1000
        g = even_cycle(1200)
        assert brute_force_counts(g, 1200, edge_cap=10 ** 9).counts == {1200: 1}

    def test_logs_nodes_max_k_and_ball(self, caplog):
        # C_6 has left 0-2 and right 3-5 and runs 0-3-2-5-1-4-0. Radius 2:
        # root 0 reaches 3, 4, 2, 1; root 1 reaches 4, 5, 2 (not 0); root
        # 2 reaches 3, 5; roots 3-5 see only smaller nodes. Radius 3 adds 5
        # for root 0 and 3 for root 1.
        caplog.set_level(logging.DEBUG, logger="girthspec")
        brute_force_counts(even_cycle(6), max_k=4)
        brute_force_counts(even_cycle(6), max_k=6)
        with pytest.raises(RouteInapplicableError):
            brute_force_counts(BipartiteGraph.from_edges(1, 1, [(0, 0)]), 4)
        records = [r for r in caplog.records if r.name == "girthspec"
                   and r.msg.startswith("brute_force_counts")]
        assert [r.levelno for r in records] == [logging.DEBUG] * 2
        assert [r.args for r in records] == [(6, 4, 9), (6, 6, 11)]
        assert records[0].getMessage() == (
            "brute_force_counts nodes=6 max_k=4 ball=9")

    def test_agrees_with_trace_on_random_graphs(self):
        rng = random.Random(6)
        for _ in range(15):
            g = random_bipartite(rng)
            tr = trace_power_counts(g)
            br = brute_force_counts(g, max_k=max(tr.counts))
            assert {k: br.counts[k] for k in tr.counts} == tr.counts


class TestSymplecticQuadrangle:
    """W(q), girth 8: both exact routes against a closed form from its
    known spectrum, pinned to the values it gives."""

    @pytest.mark.parametrize("q,expected", [
        (2, (90, 72, 300, 1080)),
        (3, (1620, 5184, 43200, 336960)),
        (5, (73125, 936000, 20280000, 435240000)),
        (7, (960400, 27659520, 1152480000, 48423916800)),
        (11, (32151636, 2572130880, 261499972800, 27123120129600))])
    def test_exact_routes_equal_the_closed_form(self, q, expected, caplog):
        g = symplectic_quadrangle(q)
        points = (q + 1) * (q * q + 1)
        prof = profile(g)
        assert g.left_count == g.right_count == points
        assert (girth(g), prof.d_v, prof.d_c) == (8, q + 1, q + 1)
        assert prof.is_connected
        counts = symplectic_quadrangle_counts(q)
        assert counts == dict(zip((8, 10, 12, 14), expected))
        # N_8 by counting: an 8-cycle is a quadrangle of points, picked as
        # a non-collinear pair and 2 of the q + 1 points collinear with
        # both; each quadrangle has two such diagonals
        assert counts[8] == (points * (points - 1 - q * (q + 1)) // 2
                             * math.comb(q + 1, 2) // 2)
        caplog.set_level(logging.DEBUG, logger="girthspec")
        cc = transfer_counts(g)
        assert cc.counts == counts
        assert trace_power_counts(g).counts == counts
        # the BFS reference takes 5 s on W(11); its girth is 8 by the above
        assert cc.girth == girth(g) == (8 if q == 11 else reference_girth(g))
        # every level's guard stays under INT64_LIMIT: no level leaves int64
        levels = [r.args[6] for r in caplog.records
                  if r.msg.startswith("power_traces")]
        assert len(levels) == 2 and not any("b" in s for s in levels)


class TestSubdivisions:
    """Girth 16 and 24: subdivisions of W(q) against W(q)'s closed form,
    with the lengths mapped and 0 at every other length of the window.
    Their girth walks run to levels 8 and 12."""

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_subdivision_doubles_every_length(self, q, caplog):
        caplog.set_level(logging.DEBUG, logger="girthspec")
        g = subdivision(symplectic_quadrangle(q))
        prof = profile(g)
        assert (girth(g), prof.d_v, prof.d_c) == (16, q + 1, 2)
        assert " levels=8 " in walk_record(caplog)
        counts = symplectic_quadrangle_counts(q)
        expect = {k: counts.get(k // 2, 0) for k in range(16, 31, 2)}
        cc = transfer_counts(g)
        assert cc.counts == expect
        assert cc.girth == girth(g) == reference_girth(g)
        assert trace_power_counts(g).counts == expect

    def test_transfer_keeps_subdivided_w7_in_int64(self, caplog):
        # plain walks grow like sqrt(8 * 2)^c: the squares bound of levels
        # 14 and 15, nnz * max^2, passes 2^62, so their sums run in Python
        # ints, while the largest entry, about 1.4e7, keeps every block in
        # sparse int64
        caplog.set_level(logging.DEBUG, logger="girthspec")
        g = subdivision(symplectic_quadrangle(7))
        counts = symplectic_quadrangle_counts(7)
        expect = {k: counts.get(k // 2, 0) for k in range(16, 31, 2)}
        assert transfer_counts(g).counts == expect
        [levels] = [r.args[6] for r in caplog.records
                    if r.msg.startswith("power_traces")]
        assert levels == "U:" + "s" * 13 + "SS"

    @pytest.mark.parametrize("q", [2, 3])
    def test_path_subdivision_triples_every_length(self, q, caplog):
        caplog.set_level(logging.DEBUG, logger="girthspec")
        g = path_subdivision(symplectic_quadrangle(q))
        assert (girth(g), profile(g).is_biregular) == (24, False)
        assert " levels=12 " in walk_record(caplog)
        counts = symplectic_quadrangle_counts(q)
        expect = {k: counts.get(k // 3, 0) if k % 3 == 0 else 0
                  for k in range(24, 47, 2)}
        assert trace_power_counts(g).counts == expect


class TestClosedForm:
    def test_small_cases(self):
        assert complete_bipartite_closed_form(3, 4, 4) == 18
        assert complete_bipartite_closed_form(2, 2, 4) == 1
        assert complete_bipartite_closed_form(2, 2, 6) == 0

    def test_unsupported_k(self):
        with pytest.raises(ValueError):
            complete_bipartite_closed_form(3, 3, 8)

    @given(st.integers(1, 8), st.integers(1, 8))
    @settings(max_examples=30)
    def test_matches_brute_force(self, m, n):
        g = complete_bipartite(m, n)
        if girth(g) is None:
            assert complete_bipartite_closed_form(m, n, 4) == 0
            return
        cc = brute_force_counts(g, max_k=6)
        assert cc.counts.get(4, 0) == complete_bipartite_closed_form(m, n, 4)
        assert cc.counts.get(6, 0) == complete_bipartite_closed_form(m, n, 6)


class TestTreeWalkCount:
    @given(st.integers(1, 6), st.integers(1, 6))
    def test_length_two(self, d1, d2):
        assert tree_walk_count(d1, d2, 2) == d1

    @given(st.integers(1, 6), st.integers(1, 6))
    def test_length_four_by_hand(self, d1, d2):
        # depth profiles (0,1,2,1,0) and (0,1,0,1,0)
        assert tree_walk_count(d1, d2, 4) == d1 * (d2 - 1) + d1 * d1

    def test_odd_length_zero(self):
        assert tree_walk_count(3, 4, 5) == 0

    def test_length_zero(self):
        assert tree_walk_count(3, 4, 0) == 1

    def test_trace_identity_on_high_girth_graphs(self):
        # tr(A^l) = n*S(dv,dc,l) + m*S(dc,dv,l) whenever girth > l
        for g, prof in biregular_girth6_graphs(6):
            spec = adjacency_spectrum(g)
            for ell in range(2, girth(g), 2):
                expect = (g.left_count * tree_walk_count(prof.d_v, prof.d_c, ell)
                          + g.right_count * tree_walk_count(prof.d_c, prof.d_v, ell))
                assert round(spec.power_sum(ell)) == expect
                assert abs(spec.power_sum(ell) - expect) < 1e-6 * max(1, expect)


class TestGPlus4CrossCheck:
    def test_agrees_with_spectral_route(self):
        for g, _ in biregular_girth6_graphs(8):
            cc = float_transfer_counts(g)
            assert g_plus_4_cross_check(g, adjacency_spectrum(g), cc) == \
                cc.counts[girth(g) + 4]

    def test_refuses_girth_four(self):
        g = complete_bipartite(3, 4)
        cc = float_transfer_counts(g)
        with pytest.raises(RouteInapplicableError, match="girth"):
            g_plus_4_cross_check(g, adjacency_spectrum(g), cc)

    def test_needs_lower_counts(self):
        for g, _ in biregular_girth6_graphs(1):
            cc = float_transfer_counts(g)
            partial = type(cc)(girth=cc.girth, counts={girth(g): cc.counts[girth(g)]})
            with pytest.raises(RouteInapplicableError, match="N_g"):
                g_plus_4_cross_check(g, adjacency_spectrum(g), partial)


class TestRouteAgreement:
    def test_all_routes_identical_on_biregular(self):
        cases = [(6, 4, 2, 3, 0), (8, 6, 3, 4, 1), (8, 8, 4, 4, 2)]
        for n, m, dv, dc, seed in cases:
            g = random_biregular(n, m, dv, dc, seed=seed)
            a = float_transfer_counts(g).counts
            b = trace_power_counts(g).counts
            c = counts_from_spectrum(edge_spectrum_direct(g),
                                     girth(g)).counts
            d = brute_force_counts(g, max_k=max(a)).counts
            e = transfer_counts(g).counts
            assert a == b == c == e == {k: d[k] for k in a}

    def test_girth_count_positive(self):
        rng = random.Random(7)
        for _ in range(10):
            g = random_bipartite(rng)
            cc = trace_power_counts(g)
            assert cc.counts[cc.girth] >= 1
