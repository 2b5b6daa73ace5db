import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from girthspec import (
    BipartiteGraph,
    GenerationError,
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

from conftest import ROW_SIDE_SHORT_ALIST


# ---------------------------------------------------------------------------
# hypothesis strategy: small random bipartite graphs
# ---------------------------------------------------------------------------

@st.composite
def bipartite_graphs(draw):
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 6))
    all_edges = [(u, w) for u in range(n) for w in range(m)]
    edges = draw(st.sets(st.sampled_from(all_edges)))
    return BipartiteGraph(n, m, frozenset(edges))


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

    @given(bipartite_graphs())
    @settings(max_examples=60)
    def test_round_trip(self, g):
        assert parse_alist(write_alist(g)).edges == g.edges

    def test_biregular_round_trip(self):
        g = random_biregular(8, 6, 3, 4, seed=11)
        assert parse_alist(write_alist(g)).edges == g.edges


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
