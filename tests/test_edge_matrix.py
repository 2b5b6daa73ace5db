import logging
import random
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from girthspec import (
    BipartiteGraph,
    RouteInapplicableError,
    SizeCapError,
    build_edge_matrix,
    complete_bipartite,
    edge_spectrum_direct,
    even_cycle,
    girth,
    profile,
    tesseract,
    trace_power_counts,
    transfer_counts,
    write_edge_list,
)
from girthspec import edge_matrix, graph_core
from girthspec.cli import main
from girthspec.edge_matrix import power_traces, trace_powers

from conftest import (
    array_code,
    bipartite_graphs,
    configuration_model,
    logged_tiers,
    random_bipartite,
)

# the 8x8 directed edge matrix of the 4-cycle as printed for the
# bipartite arc ordering (u1v1, u1v2, u2v2, u2v1, then inverses)
FOUR_CYCLE_A_E = [
    [0, 0, 0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, 0, 0, 1, 0],
    [0, 0, 0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 1, 0, 0, 0],
    [0, 1, 0, 0, 0, 0, 0, 0],
    [1, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, 0, 0],
]
# our lexicographic arc order lists (u2,v1) before (u2,v2)
FOUR_CYCLE_PERM = [0, 1, 3, 2, 4, 5, 7, 6]


class TestBuildEdgeMatrix:
    def test_four_cycle_matches_reference_matrix(self):
        em = build_edge_matrix(complete_bipartite(2, 2))
        dense = em.to_dense()
        p = FOUR_CYCLE_PERM
        for i in range(8):
            for j in range(8):
                assert dense[p[i], p[j]] == FOUR_CYCLE_A_E[i][j]

    def test_single_edge_zero_matrix(self):
        em = build_edge_matrix(BipartiteGraph.from_edges(1, 1, [(0, 0)]))
        assert em.arc_count == 2
        assert not any(em.rows[i] for i in range(2))

    def test_star_row_sums(self):
        g = complete_bipartite(1, 3)  # K_{1,3}
        em = build_edge_matrix(g)
        for i, (_, t) in enumerate(em.arcs):
            deg_t = sum(1 for o, _ in em.arcs if o == t)
            assert len(em.rows[i]) == deg_t - 1

    def test_inverse_arc_convention(self):
        g = tesseract()
        em = build_edge_matrix(g)
        e = g.edge_count
        for i in range(e):
            o, t = em.arcs[i]
            assert em.arcs[e + i] == (t, o)

    def test_block_anti_diagonal(self):
        g = complete_bipartite(3, 4)
        em = build_edge_matrix(g)
        e = g.edge_count
        for i, row in enumerate(em.rows):
            for j in row:
                assert (i < e) != (j < e)


# constants, and their modules, that leave each tier the only one open to
# small matrices
FORCE = {"dense": (graph_core, {"DENSE_MAX_SIZE": 10 ** 9}),
         "sparse": (graph_core, {"DENSE_MAX_SIZE": 0}),
         "bigint": (edge_matrix, {"INT64_LIMIT": 1})}


@contextmanager
def forced(tier):
    module, values = FORCE[tier]
    with mock.patch.multiple(module, **values), logged_tiers() as tiers:
        yield
    assert tiers == [tier]


def reference_matrix(d, loss):
    """M = [[A, L], [I, 0]] in object dtype, built with numpy alone."""
    n, m = d.shape
    v = n + m
    mat = np.zeros((2 * v, 2 * v), dtype=object)
    mat[:n, n:v], mat[n:v, :n] = d, d.T
    mat[:v, v:] = np.diag(loss)
    mat[v:, :v] = np.eye(v, dtype=np.int64)
    return mat


def engine_records(caplog):
    """The engine's DEBUG records among those captured."""
    return [r for r in caplog.records if r.msg.startswith("power_traces")]


def adjacency_chain(g, top):
    """power_traces with L = 0 to ``top``, a level or a rule, and the args
    of its DEBUG record."""
    with mock.patch.object(edge_matrix.log, "debug") as debug:
        traces = power_traces(g, np.zeros(g.node_count, dtype=np.int64), top)
    [call] = debug.call_args_list
    return traces, call.args[1:]


def assert_rule_runs_its_top(g, told, last):
    """A rule that tells the last level at level ``told`` gives the traces
    and the DEBUG record of the integer top ``last``, bar ``girth=``; at
    each level it is given the traces so far, complete."""
    fixed, fixed_args = adjacency_chain(g, last)

    def rule(traces):
        assert traces == fixed[:len(traces)]
        return last if len(traces) - 1 == told else None

    ruled, ruled_args = adjacency_chain(g, rule)
    assert ruled == fixed
    assert ruled_args[:-1] == fixed_args[:-1]  # tiers, top, peak, levels
    assert (ruled_args[-1], fixed_args[-1]) == (told, "-")


@st.composite
def engine_inputs(draw):
    """A graph and a signed diagonal L, zero in some draws (the adjacency
    form)."""
    g = draw(bipartite_graphs())
    loss = np.array(draw(st.lists(st.integers(-3, 3), min_size=g.node_count,
                                  max_size=g.node_count)), dtype=np.int64)
    if draw(st.booleans()):
        loss[:] = 0
    return g, loss


class TestPowerTraces:
    @pytest.mark.parametrize("tier", FORCE)
    @given(engine_inputs(), st.integers(0, 5))
    @settings(max_examples=100, deadline=None)
    def test_equals_matrix_power_traces(self, tier, inputs, top):
        g, loss = inputs
        mat = reference_matrix(g.dense(np.int64), loss)
        expect = [int(np.trace(np.linalg.matrix_power(mat, 2 * j)))
                  for j in range(top + 1)]
        with forced(tier):
            assert power_traces(g, loss, top) == expect

    @given(engine_inputs(), st.integers(0, 5), st.integers(1, 400),
           st.sampled_from(["dense", "sparse"]))
    # level 1's squares, 9 * 3^2 = 81, move it up: past X_0, before X_1
    @example((complete_bipartite(3, 3), np.full(6, -3)), 2, 50, "dense")
    # level 2's guard, 56 * 4^2, takes an abs-max of the Gram block itself
    @example((tesseract(), np.zeros(16, dtype=np.int64)), 3, 100, "sparse")
    @settings(max_examples=150, deadline=None)
    def test_levels_climb_mid_chain_exactly(self, inputs, top, limit, start):
        # a limit this small moves the chain up at any level, from either
        # start; started sparse, the guards also read the cached Gram block
        # in its scipy form, read-only and with unsorted indices
        g, loss = inputs
        mat = reference_matrix(g.dense(np.int64), loss)
        expect = [int(np.trace(np.linalg.matrix_power(mat, 2 * j)))
                  for j in range(top + 1)]
        module, values = FORCE[start]
        with mock.patch.multiple(edge_matrix, INT64_LIMIT=limit), \
                mock.patch.multiple(module, **values):
            assert power_traces(g, loss, top) == expect

    @pytest.mark.parametrize("tier", FORCE)
    @given(bipartite_graphs(), st.integers(1, 4), st.integers(0, 2))
    @settings(max_examples=60, deadline=None)
    def test_a_rule_runs_the_chain_of_its_top(self, tier, g, told, extra):
        module, values = FORCE[tier]
        with mock.patch.multiple(module, **values):
            assert_rule_runs_its_top(g, told, told + extra)

    @given(bipartite_graphs(), st.integers(1, 4), st.integers(0, 2),
           st.integers(1, 400), st.sampled_from(["dense", "sparse"]))
    @example(complete_bipartite(3, 3), 2, 3, 50, "dense")
    @example(tesseract(), 3, 0, 100, "sparse")
    @settings(max_examples=80, deadline=None)
    def test_a_rule_climbs_as_its_top_does(self, g, told, extra, limit, start):
        # the patched limits of test_levels_climb_mid_chain_exactly
        module, values = FORCE[start]
        with mock.patch.multiple(edge_matrix, INT64_LIMIT=limit), \
                mock.patch.multiple(module, **values):
            assert_rule_runs_its_top(g, told, told + extra)

    def test_a_rule_needs_l_zero(self):
        # with L != 0 the two sides' traces are complete only at the end
        with pytest.raises(ValueError, match="needs L = 0"):
            power_traces(tesseract(), np.full(16, -3), lambda traces: 3)

    def test_dense_tier_stops_at_2_53(self, caplog):
        # K_{3,3} and L = 0 give tr(M^(2j)) = tr(A^(2j)) = 2 * 9^j for j >= 1;
        # 9^j is odd, so float64 cannot hold it from 2^53 on (j = 17); int64
        # can. U runs alone with X_c = 3^(c-1) J, whose squares sum to 9^c:
        # level 17 is the first whose guard reaches 2^53
        caplog.set_level(logging.DEBUG, logger="girthspec")
        traces = power_traces(complete_bipartite(3, 3),
                              np.zeros(6, dtype=np.int64), 18)
        assert traces == [12] + [2 * 9 ** j for j in range(1, 19)]
        [record] = engine_records(caplog)
        assert record.args[0] == "sparse"
        assert record.args[6] == "U:" + "d" * 16 + "s" * 2
        assert record.args[4] == 9 ** 18

    @pytest.mark.parametrize("start", ["dense", "sparse"])
    def test_guard_at_the_limit_moves_the_level_up(self, caplog, monkeypatch,
                                                   start):
        # K_{3,3}, L = 0: the recursive bound 3^(c-1) on X_c is exact, so
        # level c's guard is 9 * 9^(c-1) = 9^c, and level 5 meets 9^5. A
        # guard under the limit keeps the level in its tier; one at the
        # limit moves it on, past a sparse tier of the same limit
        caplog.set_level(logging.DEBUG, logger="girthspec")
        if start == "sparse":
            monkeypatch.setattr(graph_core, "DENSE_MAX_SIZE", 0)
        g, loss = complete_bipartite(3, 3), np.zeros(6, dtype=np.int64)
        mat = reference_matrix(g.dense(np.int64), loss)
        expect = [int(np.trace(np.linalg.matrix_power(mat, 2 * j)))
                  for j in range(6)]
        for limit, levels, ran in (
                (9 ** 5 + 1, start[0] * 5, f"{start}:5.905e+04"),
                (9 ** 5, start[0] * 4 + "b", f"{start}:5.905e+04,bigint:none")):
            monkeypatch.setattr(edge_matrix, "INT64_LIMIT", limit)
            caplog.clear()
            assert power_traces(g, loss, 5) == expect
            [record] = engine_records(caplog)
            assert record.args[0] == ("bigint" if "b" in levels else start)
            assert record.args[4] == 9 ** 5
            assert record.args[5:] == ("U", "U:" + levels, ran, "-")

    def test_logs_tier_size_top_and_bound(self, caplog, monkeypatch):
        caplog.set_level(logging.DEBUG, logger="girthspec")
        d = tesseract()  # D is 8 x 8, every degree 4
        ihara_bass = np.full(16, -3)
        power_traces(d, ihara_bass, 3)
        monkeypatch.setattr(graph_core, "DENSE_MAX_SIZE", 7)
        power_traces(d, ihara_bass, 3)
        # above every adjacency guard, the largest being level 3's: 64
        # entries times the recursive bound 4 * 4 squared; below the
        # Ihara-Bass guard of W's level 3
        monkeypatch.setattr(edge_matrix, "INT64_LIMIT", 64 * 16 ** 2 + 1)
        power_traces(d, ihara_bass, 3)
        power_traces(d, np.zeros(16, dtype=np.int64), 3)
        records = engine_records(caplog)
        assert [r.levelno for r in records] == [logging.DEBUG] * 4
        assert [r.args[:2] for r in records] == [
            ("dense", "ihara-bass"), ("sparse", "ihara-bass"),
            ("bigint", "ihara-bass"), ("sparse", "adjacency")]
        assert {r.args[2:4] for r in records} == {((8, 8), 3)}
        assert [r.args[5:] for r in records] == [
            ("UW", "W:ddd U:dd", "dense:9.007e+15", "-"),
            ("UW", "W:sss U:ss", "sparse:4.612e+18", "-"),
            ("UW", "W:ssb U:ss", "sparse:1.638e+04,bigint:none", "-"),
            ("U", "U:sss", "sparse:1.638e+04", "-")]
        # the largest guard met: under each limit, unless a level moved up
        peaks = [r.args[4] for r in records]
        assert peaks[0] < 2 ** 53 and peaks[1] < 2 ** 62
        assert peaks[2] >= 64 * 16 ** 2 + 1 > peaks[3]
        assert records[0].getMessage().startswith(
            "power_traces tier=dense form=ihara-bass shape=(8, 8) top=3 peak=")
        assert records[0].getMessage().endswith(
            " sides=UW levels=W:ddd U:dd limits=dense:9.007e+15 girth=-")


class TestTracePowers:
    @given(bipartite_graphs())
    @example(BipartiteGraph.from_edges(  # two 4-cycles, a leaf, isolated nodes
        5, 6, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (2, 3), (3, 2), (3, 3),
               (3, 4)]))
    @example(BipartiteGraph.from_edges(  # 6-cycle with a pendant path
        4, 4, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 0), (3, 2), (3, 3)]))
    @settings(max_examples=150, deadline=None)
    def test_equal_edge_matrix_traces(self, g):
        a = build_edge_matrix(g).to_dense().astype(np.int64)
        expect = {k: int(np.trace(np.linalg.matrix_power(a, k)))
                  for k in range(1, 11)}
        assert trace_powers(g, 10) == expect

    def test_low_traces_vanish(self):
        rng = random.Random(4)
        for _ in range(10):
            g = random_bipartite(rng)
            traces = trace_powers(g, 3)
            assert traces[1] == 0 and traces[2] == 0
            assert traces[3] == 0  # odd, bipartite

    def test_odd_traces_vanish(self):
        traces = trace_powers(tesseract(), 7)
        assert traces[3] == traces[5] == traces[7] == 0

    def test_bigint_matches_int64(self, caplog):
        caplog.set_level(logging.DEBUG, logger="girthspec")
        g = complete_bipartite(4, 5)
        loss = 1 - np.array([5] * 4 + [4] * 5)
        with forced("sparse"):
            int64 = power_traces(g, loss, 3)
        with forced("bigint"):
            assert power_traces(g, loss, 3) == int64
        # 2 * 9^25, a trace of K_{3,3}, is past int64; level c's guard is
        # 9^c, at or past 2^53 from c = 17 and 2^62 from c = 20
        with logged_tiers() as tiers:
            traces = power_traces(complete_bipartite(3, 3),
                                  np.zeros(6, dtype=np.int64), 25)
        assert tiers == ["bigint"]
        assert traces == [12] + [2 * 9 ** j for j in range(1, 26)]
        assert engine_records(caplog)[-1].args[6] == (
            "U:" + "d" * 16 + "s" * 3 + "b" * 6)

    def test_guard_diverts_to_bigint(self, monkeypatch):
        rng = random.Random(7)
        graphs = [random_bipartite(rng) for _ in range(10)] + [tesseract()]
        expect = [trace_power_counts(g).counts for g in graphs]
        with logged_tiers() as tiers:
            monkeypatch.setattr(edge_matrix, "INT64_LIMIT", 1)
            assert [trace_power_counts(g).counts for g in graphs] == expect
        assert tiers == ["bigint"] * len(graphs)

    def test_trace_route_never_builds_edge_matrix(self, monkeypatch, tmp_path,
                                                  capsys):
        def refuse(g):
            raise AssertionError("trace route built A_e")

        monkeypatch.setattr(edge_matrix, "build_edge_matrix", refuse)
        assert trace_power_counts(tesseract(), max_k=4).counts == {4: 24}
        path = tmp_path / "k34.el"
        path.write_text(write_edge_list(complete_bipartite(3, 4)))
        assert main(["count", "--input", str(path), "--route", "trace"]) == 0
        assert '"4": 18' in capsys.readouterr().out


class TestSparseTier:
    """Graphs with a side above DENSE_MAX_SIZE take the sparse int64 tier;
    their counts must equal those read off A_e itself."""

    @pytest.mark.parametrize("g", [array_code(37, 6), configuration_model(240, 0)],
                             ids=["array p=37", "irregular n=240"])
    def test_counts_equal_edge_matrix_traces(self, g):
        prof = profile(g)
        assert max(g.left_count, g.right_count) > graph_core.DENSE_MAX_SIZE
        with logged_tiers() as tiers:
            cc = trace_power_counts(g)
        assert tiers == ["sparse"]
        em = build_edge_matrix(g)
        a_e = sp.csr_array((np.ones(sum(map(len, em.rows)), dtype=np.int64),
                            [j for row in em.rows for j in row],
                            np.cumsum([0] + [len(row) for row in em.rows])),
                           shape=(em.arc_count, em.arc_count))
        walks = np.eye(em.arc_count, dtype=np.int64)
        expect = {}
        for k in range(1, 2 * girth(g) - 1):
            walks = a_e @ walks
            if k >= girth(g) and k % 2 == 0:
                expect[k] = int(walks.trace()) // (2 * k)
        assert cc.counts == expect
        if prof.is_biregular:
            with logged_tiers() as tiers:
                assert transfer_counts(g).counts == expect
            assert tiers == ["sparse"]


class TestTracePowerCounts:
    def test_six_cycle(self):
        cc = trace_power_counts(even_cycle(6))
        assert cc.counts == {6: 1, 8: 0, 10: 0}

    def test_k34(self):
        cc = trace_power_counts(complete_bipartite(3, 4), max_k=4)
        assert cc.counts == {4: 18}

    def test_tesseract(self):
        cc = trace_power_counts(tesseract(), max_k=4)
        assert cc.counts == {4: 24}

    def test_refuses_beyond_window(self):
        with pytest.raises(RouteInapplicableError, match="2g"):
            trace_power_counts(complete_bipartite(3, 4), max_k=8)

    def test_refuses_forest(self):
        with pytest.raises(RouteInapplicableError):
            trace_power_counts(BipartiteGraph.from_edges(1, 2, [(0, 0), (0, 1)]))

    def test_matches_direct_spectrum_power_sums(self):
        rng = random.Random(5)
        for _ in range(10):
            g = random_bipartite(rng)
            prof = profile(g)
            cc = trace_power_counts(g)
            es = edge_spectrum_direct(g)
            for k, n_k in cc.counts.items():
                s = es.power_sum(k)
                assert abs(s.imag) < 1e-6 * max(1.0, abs(s))
                assert abs(s.real / (2 * k) - n_k) < 1e-6 * max(1, n_k)


class TestEdgeSpectrumDirect:
    def test_single_edge(self):
        es = edge_spectrum_direct(BipartiteGraph.from_edges(1, 1, [(0, 0)]))
        assert es.eigenvalues == ((0j, 2),)

    def test_total_is_arc_count(self):
        g = complete_bipartite(3, 3)
        assert edge_spectrum_direct(g).total == 2 * g.edge_count

    def test_dense_cap(self):
        with pytest.raises(SizeCapError):
            edge_spectrum_direct(complete_bipartite(3, 3), dense_cap=4)

    def test_power_sums_match_exact_traces(self):
        rng = random.Random(8)
        for _ in range(20):
            g = random_bipartite(rng, require_cycle=False)
            es = edge_spectrum_direct(g)
            for k, t in trace_powers(g, 8).items():
                assert abs(es.power_sum(k) - t) < 1e-6 * max(1, abs(t))

    def test_conjugation_closed(self):
        es = edge_spectrum_direct(tesseract())
        for v, m in es.eigenvalues:
            conj = [mm for vv, mm in es.eigenvalues if abs(vv - v.conjugate()) < 1e-6]
            assert sum(conj) >= m
