import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from girthspec import graph_core
from girthspec import (
    BipartiteGraph,
    GenerationError,
    GraphProfile,
    ParseError,
    complete_bipartite,
    even_cycle,
    parse_alist,
    parse_edge_list,
    profile,
    random_biregular,
    tesseract,
    write_alist,
    write_edge_list,
)

from conftest import ROW_SIDE_SHORT_ALIST, bipartite_graphs, reference_profile

# DENSE_MAX_SIZE values that leave each girth tier the only one open
GIRTH_TIERS = {"dense": 10 ** 9, "sparse": 0}


@st.composite
def sparse_bipartite_graphs(draw):
    """Up to 12 + 12 nodes and at most |V| + 2 edges, often around one
    planted cycle of length 4 .. 24: forests, isolated nodes, disconnected
    graphs and long cycles, either side the smaller."""
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 12))
    cells = [(u, w) for u in range(n) for w in range(m)]
    edges = draw(st.sets(st.sampled_from(cells), max_size=n + m + 2))
    if min(n, m) >= 2 and draw(st.booleans()):
        t = draw(st.integers(2, min(n, m)))
        us = draw(st.permutations(range(n)))[:t]
        ws = draw(st.permutations(range(m)))[:t]
        edges |= {(us[i], ws[i]) for i in range(t)}
        edges |= {(us[(i + 1) % t], ws[i]) for i in range(t)}
    return BipartiteGraph(n, m, frozenset(edges))


def path(nodes: int) -> BipartiteGraph:
    """The path u0 w0 u1 w1 ... on an even number of nodes."""
    t = nodes // 2
    edges = {(i, i) for i in range(t)} | {(i + 1, i) for i in range(t - 1)}
    return BipartiteGraph(t, t, frozenset(edges))


class TestEdgeListParsing:
    def test_k22(self):
        g = parse_edge_list("2 2\n0 0\n0 1\n1 0\n1 1")
        assert g.edge_count == 4
        assert g.edges == complete_bipartite(2, 2).edges

    def test_duplicate_edge_warns(self):
        with pytest.warns(UserWarning, match="duplicate"):
            g = parse_edge_list("1 1\n0 0\n0 0")
        assert g.edge_count == 1

    def test_comments_and_crlf(self):
        g = parse_edge_list(b"# header\r\n2 2\r\n0 0 # first\r\n\r\n1 1\r\n")
        assert g.edge_count == 2

    def test_malformed_line(self):
        with pytest.raises(ParseError):
            parse_edge_list("2 2\n0 zero")

    def test_index_out_of_range(self):
        with pytest.raises(ParseError):
            parse_edge_list("2 2\n0 5")

    def test_zero_nodes(self):
        with pytest.raises(ParseError):
            parse_edge_list("0 3\n")

    def test_empty(self):
        with pytest.raises(ParseError):
            parse_edge_list("   \n# only a comment\n")

    def test_undecodable_bytes(self):
        with pytest.raises(ParseError, match="not UTF-8"):
            parse_edge_list(b"\xff\xfe2 2\n0 0\n")

    @given(bipartite_graphs())
    def test_round_trip(self, g):
        assert parse_edge_list(write_edge_list(g)).edges == g.edges


class TestAlistParsing:
    def test_k34_transposed_orientation(self):
        g = parse_alist(write_alist(complete_bipartite(4, 3)))
        assert (g.left_count, g.right_count) == (4, 3)
        assert g.edges == complete_bipartite(4, 3).edges

    def test_zero_padding_is_transparent(self):
        g = complete_bipartite(2, 3)
        padded = write_alist(g)
        unpadded = "\n".join(" ".join(t for t in ln.split() if t != "0")
                             for ln in padded.splitlines())
        assert parse_alist(padded).edges == parse_alist(unpadded).edges

    def test_tesseract_alist(self):
        g = parse_alist(write_alist(tesseract()))
        assert (g.left_count, g.right_count, g.edge_count) == (8, 8, 32)

    def test_degree_header_mismatch(self):
        text = write_alist(complete_bipartite(2, 2)).splitlines()
        text[2] = "2 1"  # lie about a column degree
        with pytest.raises(ParseError):
            parse_alist("\n".join(text))

    def test_row_side_leaving_out_edges(self):
        with pytest.raises(ParseError, match="row degree total"):
            parse_alist(ROW_SIDE_SHORT_ALIST)

    def test_neighbor_out_of_range(self):
        with pytest.raises(ParseError):
            parse_alist("1 1\n1 1\n1\n1\n5\n1")

    def test_undecodable_bytes(self):
        with pytest.raises(ParseError, match="not UTF-8"):
            parse_alist(b"1 1\n1 1\n1\n1\n1\n\xff\n")

    @given(bipartite_graphs())
    @settings(max_examples=60)
    def test_round_trip(self, g):
        assert parse_alist(write_alist(g)).edges == g.edges

    def test_biregular_round_trip(self):
        g = random_biregular(8, 6, 3, 4, seed=11)
        assert parse_alist(write_alist(g)).edges == g.edges


class TestBiadjacency:
    @given(bipartite_graphs())
    def test_matches_edges_and_is_read_only(self, g):
        d = g.biadjacency
        assert d.shape == (g.left_count, g.right_count)
        assert d.indices.dtype == np.int32
        # (row, index) pairs in storage order: the edges, each row sorted
        rows = np.repeat(np.arange(g.left_count), np.diff(d.indptr))
        assert list(zip(rows.tolist(), d.indices.tolist())) == sorted(g.edges)
        assert np.all(d.data == 1)
        for array in (d.data, d.indices, d.indptr):
            with pytest.raises(ValueError):
                array[:1] = 0

    def test_cached(self):
        g = tesseract()
        assert g.biadjacency is g.biadjacency


class TestWriters:
    """The exact text of both writers; a round trip alone would pass a
    reordering."""

    # irregular, with left node 2 and right node 3 isolated
    IRREGULAR = BipartiteGraph.from_edges(
        3, 4, [(1, 2), (0, 2), (1, 0), (0, 0), (1, 1)])
    EDGELESS = BipartiteGraph(2, 1, frozenset())

    def test_edge_list(self):
        assert write_edge_list(self.IRREGULAR) == (
            "3 4\n0 0\n0 2\n1 0\n1 1\n1 2\n")

    def test_alist_zero_padding(self):
        assert write_alist(self.IRREGULAR) == (
            "3 4\n3 2\n2 3 0\n2 1 2 0\n"
            "1 3 0\n1 2 3\n0 0 0\n"
            "1 2\n2 0\n1 2\n0 0\n")

    def test_edgeless(self):
        assert write_edge_list(self.EDGELESS) == "2 1\n"
        assert write_alist(self.EDGELESS) == "2 1\n0 0\n0 0\n0\n0\n0\n0\n"


class TestProfile:
    def test_k34(self):
        prof = profile(complete_bipartite(3, 4))
        assert prof.girth == 4
        assert prof.is_biregular and prof.is_connected
        assert prof.degree_sequences == ((4, 4, 4), (3, 3, 3, 3))

    def test_single_edge_is_forest(self):
        prof = profile(BipartiteGraph.from_edges(1, 1, [(0, 0)]))
        assert prof.girth is None
        assert prof.is_connected

    def test_tesseract(self):
        prof = profile(tesseract())
        assert prof.girth == 4
        assert (prof.d_v, prof.d_c) == (4, 4)
        assert prof.is_connected

    def test_even_cycle_girth(self):
        for length in (4, 6, 8, 10):
            assert profile(even_cycle(length)).girth == length

    def test_disconnected(self):
        g = BipartiteGraph.from_edges(2, 2, [(0, 0), (1, 1)])
        assert not profile(g).is_connected

    def test_irregular(self):
        g = BipartiteGraph.from_edges(2, 2, [(0, 0), (0, 1), (1, 0)])
        prof = profile(g)
        assert not prof.is_biregular
        assert prof.d_v is None and prof.d_c is None

    @given(bipartite_graphs())
    def test_girth_even_or_infinite(self, g):
        girth = profile(g).girth
        assert girth is None or (girth % 2 == 0 and girth >= 4)

    def test_two_cycles_sharing_nothing(self):
        # union of a 4-cycle and a 6-cycle, disjoint
        g4, g6 = even_cycle(4), even_cycle(6)
        edges = set(g4.edges) | {(u + 2, w + 2) for u, w in g6.edges}
        g = BipartiteGraph.from_edges(5, 5, edges)
        assert profile(g).girth == 4


class TestProfileEquivalence:
    """``profile`` against the per-root BFS reference in conftest."""

    @pytest.mark.parametrize("tier", GIRTH_TIERS)
    @given(st.one_of(bipartite_graphs(), sparse_bipartite_graphs()))
    @settings(max_examples=150, deadline=None)
    def test_equals_reference(self, tier, g):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph_core, "DENSE_MAX_SIZE", GIRTH_TIERS[tier])
            assert profile(g) == reference_profile(g)

    @pytest.mark.parametrize("tier", GIRTH_TIERS)
    @pytest.mark.parametrize("length", range(4, 42, 2))
    def test_even_cycles(self, monkeypatch, tier, length):
        monkeypatch.setattr(graph_core, "DENSE_MAX_SIZE", GIRTH_TIERS[tier])
        g = even_cycle(length)
        assert profile(g) == reference_profile(g)
        assert profile(g).girth == length

    @pytest.mark.parametrize("tier", GIRTH_TIERS)
    def test_tesseract(self, monkeypatch, tier):
        monkeypatch.setattr(graph_core, "DENSE_MAX_SIZE", GIRTH_TIERS[tier])
        assert profile(tesseract()) == reference_profile(tesseract())

    # large inputs, checked against their known profiles
    def test_cycle_2000(self):
        assert profile(even_cycle(2000)) == GraphProfile(
            True, True, 2, 2, 2000, ((2,) * 1000, (2,) * 1000))

    def test_path_2000(self):
        assert profile(path(2000)) == GraphProfile(
            True, False, None, None, None, ((2,) * 999 + (1,), (2,) * 999 + (1,)))

    def test_k300_300(self):
        assert profile(complete_bipartite(300, 300)) == GraphProfile(
            True, True, 300, 300, 4, ((300,) * 300, (300,) * 300))

    @pytest.mark.parametrize("g, record", [
        (complete_bipartite(3, 4), "roots=3 levels=2 peak_nnz=12"),
        (even_cycle(8), "roots=4 levels=4 peak_nnz=8"),
        (path(6), "roots=3 levels=6 peak_nnz=5"),
    ])
    def test_logs_tier_roots_levels_and_peak(self, caplog, monkeypatch, g,
                                             record):
        caplog.set_level(logging.DEBUG, logger="girthspec")
        for tier, cap in GIRTH_TIERS.items():
            monkeypatch.setattr(graph_core, "DENSE_MAX_SIZE", cap)
            profile(g)
        assert [r.getMessage() for r in caplog.records] == [
            f"girth tier={tier} {record}" for tier in GIRTH_TIERS]


class TestRandomBiregular:
    def test_two_regular_is_even_cycle_union(self):
        g = random_biregular(4, 4, 2, 2, seed=7)
        prof = profile(g)
        assert prof.is_connected  # generator retries until connected
        assert g.edge_count == 8
        assert prof.girth == 8  # connected 2-regular bipartite = one cycle

    @pytest.mark.parametrize("seed", range(100))
    def test_requested_degrees(self, seed):
        g = random_biregular(6, 4, 2, 3, seed=seed)
        prof = profile(g)
        assert prof.is_biregular and prof.is_connected
        assert (prof.d_v, prof.d_c) == (2, 3)
        assert g.edge_count == 12

    def test_deterministic(self):
        a = random_biregular(9, 6, 2, 3, seed=3)
        b = random_biregular(9, 6, 2, 3, seed=3)
        assert a.edges == b.edges

    def test_infeasible(self):
        with pytest.raises(GenerationError):
            random_biregular(3, 3, 2, 3, seed=0)

    def test_degree_exceeds_side(self):
        with pytest.raises(GenerationError):
            random_biregular(2, 4, 6, 3, seed=0)
