import gc
import logging
import random
import re
import warnings
import weakref

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
    girth,
    parse_alist,
    parse_edge_list,
    profile,
    random_biregular,
    tesseract,
    transfer_counts,
    write_alist,
    write_edge_list,
)

from conftest import (
    ROW_SIDE_SHORT_ALIST,
    array_code,
    bipartite_graphs,
    configuration_model,
    disjoint_union,
    edge_sets,
    line_parse_alist,
    line_parse_edge_list,
    reference_girth,
    reference_profile,
    stored_edges,
)


def assert_reference(g: BipartiteGraph) -> None:
    """``profile`` and ``girth`` against the BFS references in conftest."""
    assert profile(g) == reference_profile(g)
    assert girth(g) == reference_girth(g)


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
    return BipartiteGraph.from_edges(n, m, edges)


def path(nodes: int) -> BipartiteGraph:
    """The path u0 w0 u1 w1 ... on an even number of nodes."""
    t = nodes // 2
    edges = {(i, i) for i in range(t)} | {(i + 1, i) for i in range(t - 1)}
    return BipartiteGraph.from_edges(t, t, edges)


class TestEdgeListParsing:
    def test_k22(self):
        g = parse_edge_list("2 2\n0 0\n0 1\n1 0\n1 1")
        assert g.edge_count == 4
        assert stored_edges(g) == [(0, 0), (0, 1), (1, 0), (1, 1)]

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
        with pytest.raises(ParseError, match="^line 1: byte 0xff is not ASCII$"):
            parse_edge_list(b"\xff\xfe2 2\n0 0\n")

    @given(edge_sets())
    def test_round_trip(self, drawn):
        n, m, edges = drawn
        g = BipartiteGraph.from_edges(n, m, edges)
        assert stored_edges(parse_edge_list(write_edge_list(g))) == sorted(edges)


class TestAlistParsing:
    def test_k34_transposed_orientation(self):
        g = parse_alist(write_alist(complete_bipartite(4, 3)))
        assert (g.left_count, g.right_count) == (4, 3)
        assert stored_edges(g) == [(u, w) for u in range(4) for w in range(3)]

    def test_zero_padding_is_transparent(self):
        g = complete_bipartite(2, 3)
        padded = write_alist(g)
        unpadded = "\n".join(" ".join(t for t in ln.split() if t != "0")
                             for ln in padded.splitlines())
        assert stored_edges(parse_alist(padded)) == stored_edges(g)
        assert stored_edges(parse_alist(unpadded)) == stored_edges(g)

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
        with pytest.raises(ParseError, match="^line 6: byte 0xff is not ASCII$"):
            parse_alist(b"1 1\n1 1\n1\n1\n1\n\xff\n")

    @given(edge_sets())
    @settings(max_examples=60)
    def test_round_trip(self, drawn):
        n, m, edges = drawn
        g = BipartiteGraph.from_edges(n, m, edges)
        assert stored_edges(parse_alist(write_alist(g))) == sorted(edges)

    def test_biregular_round_trip(self):
        g = random_biregular(8, 6, 3, 4, seed=11)
        assert stored_edges(parse_alist(write_alist(g))) == stored_edges(g)


class TestBiadjacency:
    @given(edge_sets())
    def test_matches_edges_and_is_read_only(self, drawn):
        n, m, edges = drawn
        g = BipartiteGraph.from_edges(n, m, edges)
        assert g.shape == (g.left_count, g.right_count) == (n, m)
        assert g.indices.dtype == g.indptr.dtype == np.int32
        assert len(g.indptr) == n + 1
        # (row, index) pairs in storage order: the edges, each row sorted
        assert stored_edges(g) == sorted(edges)
        for array in (g.indices, g.indptr):
            with pytest.raises(ValueError):
                array[:1] = 0
        # the derived view: the same pairs, immutable, built once
        assert g.edges == edges and isinstance(g.edges, frozenset)
        assert g.edges is g.edges

    @given(edge_sets())
    def test_transpose_stores_d_transposed(self, drawn):
        n, m, edges = drawn
        g = BipartiteGraph.from_edges(n, m, edges)
        t = g.transpose
        assert t is g.transpose
        assert (t.left_count, t.right_count) == (m, n)
        assert t.indices.dtype == t.indptr.dtype == np.int32
        assert stored_edges(t) == sorted((w, u) for u, w in edges)
        for array in (t.indices, t.indptr):
            with pytest.raises(ValueError):
                array[:1] = 0
        d = g.dense(np.int64)
        assert d.dtype == np.int64 and np.array_equal(t.dense(np.int64), d.T)
        assert d.sum() == len(edges) and all(d[u, w] for u, w in edges)

    @given(edge_sets())
    def test_sparse_view_shares_the_stored_arrays(self, drawn):
        n, m, edges = drawn
        g = BipartiteGraph.from_edges(n, m, edges)
        view = g.biadjacency
        assert view is g.biadjacency
        assert view.format == "csr" and view.shape == (n, m)
        assert view.data.dtype == np.int64 and np.all(view.data == 1)
        assert np.array_equal(view.toarray(), g.dense(np.int64))
        for ours, its in ((g.indices, view.indices), (g.indptr, view.indptr)):
            assert np.array_equal(ours, its)
            assert np.shares_memory(ours, its) or not len(ours)
        for array in (view.data, view.indices, view.indptr):
            with pytest.raises(ValueError):
                array[:1] = 0

    def test_repeats_collapse_and_ranges_are_checked(self):
        g = BipartiteGraph.from_edges(2, 3, [(1, 2), (0, 0), (1, 2)])
        assert stored_edges(g) == [(0, 0), (1, 2)]
        with pytest.raises(ParseError, match=r"edge \(2, 0\) out of range"):
            BipartiteGraph.from_edges(2, 3, [(0, 0), (2, 0)])
        with pytest.raises(ParseError, match="at least one node"):
            BipartiteGraph.from_edges(0, 3, [])

    @pytest.mark.parametrize("pair, message", [
        ((0,), r"edge \(0,\) is not a pair of ints"),
        ((0, 1, 2), r"edge \(0, 1, 2\) is not a pair of ints"),
        ((0.9, 0.9), r"edge \(0.9, 0.9\) is not a pair of ints"),
        (("1", 0), r"edge \('1', 0\) is not a pair of ints"),
        (7, "edge 7 is not a pair of ints"),
        ((2 ** 70, 0), rf"edge \({2 ** 70}, 0\) out of range"),
        ((0, -1), r"edge \(0, -1\) out of range"),
    ], ids=["short", "long", "floats", "str", "int", "beyond-int64", "negative"])
    def test_malformed_pairs_are_refused(self, pair, message):
        with pytest.raises(ParseError, match=f"^{message}"):
            BipartiteGraph.from_edges(2, 2, [pair, (1, 1)])

    @pytest.mark.parametrize("g, edges", [
        (complete_bipartite(2, 3), [(u, w) for u in range(2) for w in range(3)]),
        (even_cycle(6), [(0, 0), (0, 1), (1, 1), (1, 2), (2, 0), (2, 2)]),
    ])
    def test_generators(self, g, edges):
        assert stored_edges(g) == edges

    def test_cached(self):
        g = tesseract()
        assert g.biadjacency is g.biadjacency


# ---------------------------------------------------------------------------
# The numpy tokenizer against the line-by-line readers in conftest
# ---------------------------------------------------------------------------

# ASCII whitespace to str.split that str.splitlines does not break on,
# and the ASCII line breaks it does; tokens that are not 1 to 18 digits
SPACES = [" ", "  ", "\t", "\x1f"]
BREAKS = ["\n", "\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e"]
BAD_TOKENS = ["x", "1.5", "0x1", "+", "-", "+-1", "1__2", "_1", "1_", "#", "1e3",
              "9" * 5000]
# what an ASCII file may meet: Unicode whitespace, line breaks and digits
# that str.split, str.splitlines and int() would read, a byte order mark
# and an accented comment; bytes gain a lone 0xff, text a lone surrogate
NON_ASCII = ["\xa0", "\u2003", "\u3000", "\x85", "\u2028", "\u2029",
             "\u0663", "\uff13", "\ufeff", "# caf\xe9"]
HUGE = 10 ** 25


@st.composite
def spelled(draw, token, odd):
    """An int token in decimal digits, at times zero padded up to 18; with
    ``odd``, also in the other ASCII spellings int() reads, which graph
    files refuse: a plus sign, an underscore, 19 digits. A str as is."""
    if isinstance(token, str):
        return token
    digits = str(abs(token))
    if draw(st.integers(0, 3)) == 3:
        digits = digits.zfill(draw(st.sampled_from(
            [len(digits) + 1, len(digits) + 2, 18] + [19] * odd)))
    if odd and len(digits) > 1 and draw(st.integers(0, 5)) == 5:
        cut = draw(st.integers(1, len(digits) - 1))
        digits = digits[:cut] + "_" + digits[cut:]
    sign = draw(st.sampled_from(["", "", "", "+"])) if odd else ""
    return ("-" if token < 0 else sign) + digits


@st.composite
def rendered(draw, lines, comments):
    """Lines of tokens as one ASCII file: drawn separators and line
    breaks, blank lines, comments when the format has them; text or bytes.
    One file in four spells its numbers in the ways graph files refuse."""
    odd = draw(st.integers(0, 3)) == 3
    blank = st.lists(st.sampled_from(SPACES), max_size=2).map("".join)
    note = st.lists(st.sampled_from(["1", " ", "#", "x", "\t"]),
                    max_size=5).map(lambda chars: "#" + "".join(chars))
    parts = []
    for tokens in lines:
        for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
            parts.append(draw(blank) + (draw(note) if comments and draw(st.booleans())
                                        else ""))
        words = [draw(spelled(t, odd)) for t in tokens]
        line = draw(blank) + "".join(
            w + draw(st.sampled_from(SPACES)) for w in words[:-1]) + "".join(words[-1:])
        if comments and draw(st.integers(0, 3)) == 3:
            line += draw(blank) + draw(note)
        parts.append(line + draw(blank))
    text = "".join(p + draw(st.sampled_from(BREAKS)) for p in parts[:-1])
    text += "".join(parts[-1:]) + draw(st.sampled_from(["", "\n", "\r\n"]))
    return text if draw(st.booleans()) else text.encode()


@st.composite
def non_ascii(draw, files):
    """An ASCII file from ``files`` with one item not ASCII put anywhere."""
    data = draw(files)
    if isinstance(data, str):
        item = draw(st.sampled_from(NON_ASCII + ["\ud800"]))
    else:
        item = draw(st.sampled_from([s.encode() for s in NON_ASCII] + [b"\xff"]))
    at = draw(st.integers(0, len(data)))
    return data[:at] + item + data[at:]


def pick(draw, items):
    return draw(st.integers(0, len(items) - 1))


def bump(tokens, j, delta):
    """Add ``delta`` to token ``j`` if an earlier mutation left one there."""
    if j < len(tokens) and isinstance(tokens[j], int):
        tokens[j] += delta


@st.composite
def edge_list_files(draw):
    """Edge lists written from random graphs, some of them broken."""
    n, m, edges = draw(edge_sets())
    lines = [[n, m]] + [list(e) for e in draw(st.permutations(sorted(edges)))]
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["token", "count", "range", "duplicate",
                                     "duplicate", "header", "empty"]))
        tokens = lines[pick(draw, lines)] if lines else []
        if kind == "token" and tokens:
            tokens[pick(draw, tokens)] = draw(st.sampled_from(BAD_TOKENS))
        elif kind == "count":
            if tokens and draw(st.booleans()):
                tokens.pop()
            else:
                tokens.append(draw(st.integers(0, 3)))
        elif kind == "range" and len(lines) > 1:  # an edge line
            tokens = lines[draw(st.integers(1, len(lines) - 1))]
            tokens[pick(draw, tokens)] = draw(st.sampled_from(
                [-1, n, m, n + m, HUGE, -HUGE]))
        elif kind == "duplicate" and len(lines) > 1:
            lines.insert(draw(st.integers(1, len(lines))), list(lines[-1]))
        elif kind == "header" and lines:
            lines[0] = draw(st.sampled_from([[0, m], [n, -2], [n], [n, m, 1]]))
        elif kind == "empty":
            lines = []
    return draw(rendered(lines, comments=True))


@st.composite
def alist_files(draw):
    """alists written from random graphs, neighbours in any order with
    zeros anywhere, some of them broken."""
    n, m, edges = draw(edge_sets())
    cols = [[w + 1 for w in range(m) if (u, w) in edges] for u in range(n)]
    rows = [[u + 1 for u in range(n) if (u, w) in edges] for w in range(m)]
    degrees = [[len(c) for c in cols], [len(r) for r in rows]]
    lists = [draw(st.permutations(a + [0] * draw(st.integers(not a, 2))))
             for a in cols + rows]
    lines = [[n, m], [max(degrees[0]) + draw(st.integers(0, 1)),
                      max(degrees[1]) + draw(st.integers(0, 1))], *degrees, *lists]
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["token", "count", "range", "degree", "max",
                                     "one-side", "one-side", "repeat", "lines",
                                     "header"]))
        i = pick(draw, lines)
        tokens = lines[i]
        listed = [j for j, t in enumerate(tokens) if t != 0] if i >= 4 else []
        if kind == "token":
            tokens[pick(draw, tokens)] = draw(st.sampled_from(BAD_TOKENS))
        elif kind == "count":
            if len(tokens) > 1 and draw(st.booleans()):
                tokens.pop(pick(draw, tokens))
            else:
                tokens.append(draw(st.integers(0, 3)))
        elif kind == "range" and listed:
            tokens[draw(st.sampled_from(listed))] = draw(st.sampled_from(
                [-1, n + 1, m + 1, HUGE]))
        elif kind == "degree" and i in (2, 3):
            bump(tokens, pick(draw, tokens), draw(st.sampled_from([-1, 1])))
        elif kind == "max":
            bump(lines[1], pick(draw, lines[1]), -1)
        elif kind in ("one-side", "repeat") and listed:
            # a neighbour dropped from, or listed twice on, one side only;
            # its degree entry follows, or not
            j = draw(st.sampled_from(listed))
            if kind == "one-side":
                tokens[j] = 0
            else:
                tokens.append(tokens[j])
            side, at = (2, i - 4) if i < 4 + n else (3, i - 4 - n)
            if draw(st.booleans()):
                bump(lines[side], at, -1 if kind == "one-side" else 1)
        elif kind == "lines":
            if draw(st.booleans()):
                del lines[i]
            else:
                lines.insert(i, [draw(st.integers(0, 2))])
        elif kind == "header":
            lines[0] = draw(st.sampled_from([[0, m], [n, -1], [n + 1, m],
                                             [n, m + 1], [n, m, 1]]))
    return draw(rendered(lines, comments=False))


def outcome(parse, data):
    """What a parser makes of ``data``: ("graph", n, m, sorted pairs,
    warnings) or ("error", message)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = parse(data)
        except ParseError as exc:
            return "error", str(exc)
    if isinstance(result, BipartiteGraph):
        result = result.left_count, result.right_count, stored_edges(result)
    n, m, edges = result
    return "graph", n, m, sorted(edges), [str(w.message) for w in caught]


class TestParserAgreement:
    """Both parsers against the line-by-line readers they replaced: the
    same D, the same ParseError message and the same duplicate warning."""

    @given(edge_list_files())
    @settings(max_examples=250, deadline=None)
    def test_edge_list(self, data):
        assert outcome(parse_edge_list, data) == outcome(line_parse_edge_list, data)

    @given(alist_files())
    @settings(max_examples=250, deadline=None)
    def test_alist(self, data):
        assert outcome(parse_alist, data) == outcome(line_parse_alist, data)

    @given(non_ascii(edge_list_files()))
    @settings(max_examples=100, deadline=None)
    def test_edge_list_not_ascii(self, data):
        got = outcome(parse_edge_list, data)
        assert got == outcome(line_parse_edge_list, data)
        assert re.fullmatch(r"line \d+: byte 0x[89a-f][0-9a-f] is not ASCII", got[1])

    @given(non_ascii(alist_files()))
    @settings(max_examples=100, deadline=None)
    def test_alist_not_ascii(self, data):
        got = outcome(parse_alist, data)
        assert got == outcome(line_parse_alist, data)
        assert re.fullmatch(r"line \d+: byte 0x[89a-f][0-9a-f] is not ASCII", got[1])

    @pytest.mark.parametrize("parse, oracle, data", [
        (parse_edge_list, line_parse_edge_list, "2 2\n0 1\n0 1\n\n1 1\n0 1\n"),
        (parse_edge_list, line_parse_edge_list, b"2 2\r\n0 0 # 1 x\r\n1 x\r\n"),
        (parse_edge_list, line_parse_edge_list, "2\u20032\u20290\xa01\x851 2\n"),
        (parse_edge_list, line_parse_edge_list, "2 2\n0 " + "9" * 30 + "\n"),
        (parse_alist, line_parse_alist, ROW_SIDE_SHORT_ALIST),
        (parse_alist, line_parse_alist, "1 1\n2 1\n2\n1\n1 1\n1\n"),
        # a miscounted line that also lists an index out of range
        (parse_alist, line_parse_alist, "1 1\n2 1\n2\n1\n5\n1\n"),
        (parse_alist, line_parse_alist, "1 1\n1 2\n1\n2\n1\n7\n"),
        (parse_alist, line_parse_alist, "1 1\n1 1\n1\n1\n\u0661\n+01\n"),
        (parse_alist, line_parse_alist, "2 1\n1 2\n1 1\n2\n1\n1\n1 1\n"),
    ])
    def test_examples(self, parse, oracle, data):
        assert outcome(parse, data) == outcome(oracle, data)

    @pytest.mark.parametrize("parse, data, message", [
        (parse_edge_list, "2\u20032\u20290\xa01\x851 2\n", "line 1: byte 0xe2"),
        (parse_alist, "1 1\n1 1\n1\n1\n\u0661\n+01\n", "line 5: byte 0xd9"),
        (parse_edge_list, "2 2\n0 0 # x\u20281 1\n", "line 2: byte 0xe2"),
        (parse_edge_list, "2 2\r\n\ud800\n", "line 2: byte 0xed"),
        (parse_edge_list, b"2 2\r\x85", "line 2: byte 0x85"),
        (parse_edge_list, b"2 2\x1e0 0\v\xef\xbb\xbf1 1\n", "line 3: byte 0xef"),
    ])
    def test_not_ascii_names_the_line(self, parse, data, message):
        """A line break before the byte is one of str.splitlines, \\r\\n
        counted once; text is read as its UTF-8 bytes."""
        assert outcome(parse, data) == ("error", f"{message} is not ASCII")

    @pytest.mark.parametrize("header, oracle, message", [
        pytest.param(f"{2 ** 31} 1", "graph", "line 1: node counts above 2147483647 "
                     "do not fit the int32 indices of D", id=f"{2 ** 31} 1"),
        pytest.param(f"1 {10 ** 25}", "error", "line 1: tokens must be 1 to 18 "
                     f"decimal digits, got '1 {10 ** 25}'", id=f"1 {10 ** 25}"),
    ])
    def test_node_counts_beyond_int32_are_refused(self, header, oracle, message):
        """A header above int32 of at most 18 digits is where the two
        differ: the line-by-line reader takes it, and D's int32 indices
        fail later. A longer one is a bad token to both."""
        data = f"{header}\n0 0\n"
        assert outcome(line_parse_edge_list, data)[0] == oracle
        assert outcome(parse_edge_list, data) == ("error", message)

    def test_degrees_of_19_digits_are_refused(self):
        """A declared maximum or a degree of 19 digits is a bad token,
        though its value, 1, would fit."""
        long = "0" * 18 + "1"
        for data in (f"1 1\n{long} 1\n1\n1\n1\n1\n", f"1 1\n1 1\n{long}\n1\n1\n1\n"):
            assert outcome(parse_alist, data) == outcome(line_parse_alist, data) == (
                "error", "alist tokens must be 1 to 18 decimal digits")


@pytest.mark.parametrize("g", [array_code(293, 6), configuration_model(1600, 0)],
                         ids=["array-code-293", "configuration-1600"])
def test_large_relabelled_graphs_parse_to_the_generators_d(g):
    rng = random.Random(7)
    left, right = list(range(g.left_count)), list(range(g.right_count))
    rng.shuffle(left)
    rng.shuffle(right)
    pairs = [(left[u], right[w]) for u, w in stored_edges(g)]
    rng.shuffle(pairs)
    relabelled = BipartiteGraph.from_edges(g.left_count, g.right_count, pairs)
    header = f"{g.left_count} {g.right_count}\n"
    edge_list = header + "".join(f"{u} {w}\n" for u, w in pairs)
    for parsed in (parse_edge_list(edge_list.encode()),
                   parse_alist(write_alist(relabelled).encode())):
        assert parsed.shape == (g.left_count, g.right_count)
        assert stored_edges(parsed) == sorted(pairs)


def test_logs_one_record_per_parse(caplog):
    caplog.set_level(logging.DEBUG, logger="girthspec")
    with pytest.warns(UserWarning, match="collapsed 1 duplicate"):
        parse_edge_list("2 3\n0 0\n1 2\n0 0\n")
    parse_alist(write_alist(complete_bipartite(2, 3)))
    assert [r.getMessage() for r in caplog.records] == [
        "parse format=edgelist n=2 m=3 edges=2 duplicates=1",
        "parse format=alist n=2 m=3 edges=6 duplicates=0"]


class TestWriters:
    """The exact text of both writers; a round trip alone would pass a
    reordering."""

    # irregular, with left node 2 and right node 3 isolated
    IRREGULAR = BipartiteGraph.from_edges(
        3, 4, [(1, 2), (0, 2), (1, 0), (0, 0), (1, 1)])
    EDGELESS = BipartiteGraph.from_edges(2, 1, [])

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
        g = complete_bipartite(3, 4)
        prof = profile(g)
        assert girth(g) == 4
        assert prof.is_biregular and prof.is_connected and not prof.is_forest

    def test_single_edge_is_forest(self):
        g = BipartiteGraph.from_edges(1, 1, [(0, 0)])
        prof = profile(g)
        assert girth(g) is None
        assert prof.is_connected and prof.is_forest

    def test_tesseract(self):
        g = tesseract()
        prof = profile(g)
        assert girth(g) == 4
        assert (prof.d_v, prof.d_c) == (4, 4)
        assert prof.is_connected

    def test_even_cycle_girth(self):
        for length in (4, 6, 8, 10):
            assert girth(even_cycle(length)) == length

    def test_disconnected(self):
        g = BipartiteGraph.from_edges(2, 2, [(0, 0), (1, 1)])
        assert not profile(g).is_connected

    def test_irregular(self):
        g = BipartiteGraph.from_edges(2, 2, [(0, 0), (0, 1), (1, 0)])
        prof = profile(g)
        assert not prof.is_biregular
        assert prof.d_v is None and prof.d_c is None

    def test_cached_on_the_graph(self, caplog):
        caplog.set_level(logging.DEBUG, logger="girthspec")
        g = tesseract()
        assert profile(g) is profile(g)
        assert girth(g) == girth(g) == 4
        # one profile, one girth walk
        assert [r.getMessage()[:11] for r in caplog.records] == [
            "profile par", "girth tier="]
        fresh = BipartiteGraph(g.left_count, g.right_count, g.indptr,
                               g.indices)
        assert profile(fresh) is not profile(g)
        assert profile(fresh) == profile(g)
        assert girth(fresh) == girth(g)

    @pytest.mark.parametrize("make", [tesseract, lambda: array_code(37, 6)],
                             ids=["dense", "sparse"])
    def test_freed_without_the_cyclic_collector(self, make):
        # nothing cached on a graph refers back to it, so reference counts
        # alone free it
        g = make()
        profile(g), girth(g), transfer_counts(g), g.biadjacency
        ref = weakref.ref(g)
        gc.disable()
        try:
            del g
            assert ref() is None
        finally:
            gc.enable()

    @given(bipartite_graphs())
    def test_girth_even_or_infinite(self, g):
        gi = girth(g)
        assert gi is None or (gi % 2 == 0 and gi >= 4)

    def test_two_cycles_sharing_nothing(self):
        # union of a 4-cycle and a 6-cycle, disjoint
        g4, g6 = even_cycle(4), even_cycle(6)
        edges = set(g4.edges) | {(u + 2, w + 2) for u, w in g6.edges}
        g = BipartiteGraph.from_edges(5, 5, edges)
        assert girth(g) == 4


def relabelled_walk(us: list[int], ws: list[int],
                    closed: bool) -> BipartiteGraph:
    """The path us[0] ws[0] us[1] ws[1] ..., closed into a cycle if asked:
    left node i along it has id us[i], right node i id ws[i]."""
    t = len(us)
    edges = [(us[i], ws[i]) for i in range(t)]
    edges += [(us[i + 1], ws[i]) for i in range(t - 1)]
    if closed:
        edges.append((us[0], ws[-1]))
    return BipartiteGraph.from_edges(t, t, edges)


def zigzag(t: int) -> list[int]:
    """0, t - 1, 1, t - 2, ..."""
    return [i // 2 if i % 2 == 0 else t - 1 - i // 2 for i in range(t)]


def shuffled(t: int, seed: int) -> list[int]:
    ids = list(range(t))
    random.Random(seed).shuffle(ids)
    return ids


# ways to number the nodes along a walk of t nodes a side
WALK_ORDERS = {
    "rising": lambda t: (list(range(t)), list(range(t))),
    "falling": lambda t: (list(range(t))[::-1], list(range(t))[::-1]),
    "zigzag": lambda t: (zigzag(t), zigzag(t)[::-1]),
    "random": lambda t: (shuffled(t, 1), shuffled(t, 2)),
}


class TestConnectivity:
    """Components labelled by hooking and pointer jumping, under labels
    that order the hooks badly, against the BFS of ``reference_profile``."""

    @pytest.mark.parametrize("closed", [False, True], ids=["path", "cycle"])
    @pytest.mark.parametrize("order", WALK_ORDERS)
    def test_relabelled_walks(self, order, closed):
        g = relabelled_walk(*WALK_ORDERS[order](150), closed)
        assert_reference(g)
        assert profile(g).is_connected

    @pytest.mark.parametrize("order", WALK_ORDERS)
    def test_long_relabelled_paths(self, order):
        g = relabelled_walk(*WALK_ORDERS[order](1000), False)
        assert profile(g) == GraphProfile(True, False, None, None, True)
        assert girth(g) is None

    @pytest.mark.parametrize("order", WALK_ORDERS)
    def test_node_0_isolated(self, order):
        # left node 0 touches no edge; the rest is one path or cycle
        us, ws = WALK_ORDERS[order](40)
        for closed in (False, True):
            walk = relabelled_walk(us, ws, closed)
            g = BipartiteGraph.from_edges(41, 40, [(u + 1, w)
                                                   for u, w in walk.edges])
            assert_reference(g)
            assert not profile(g).is_connected

    @pytest.mark.parametrize("seed", range(3))
    def test_many_small_components(self, seed):
        # 20 each of single edges, paths of 3 edges and 4-cycles over
        # 100 + 100 nodes numbered at random; then a chain of edges through
        # them, in random order, joins them into one
        us = iter(shuffled(100, seed))
        ws = iter(shuffled(100, seed + 10))
        edges, heads = [], []
        for kind in [0, 1, 2] * 20:
            a, b = next(us), next(ws)
            heads.append((a, b))
            edges.append((a, b))
            if kind:  # a - b - c - d, closed by (a, d) for kind 2
                c, d = next(us), next(ws)
                edges += [(c, b), (c, d)] + [(a, d)] * (kind == 2)
        g = BipartiteGraph.from_edges(100, 100, edges)
        assert_reference(g)
        assert not profile(g).is_connected
        random.Random(seed).shuffle(heads)
        joins = [(a, d) for (a, _), (_, d) in zip(heads, heads[1:])]
        g = BipartiteGraph.from_edges(100, 100, edges + joins)
        assert_reference(g)
        assert profile(g).is_connected

    @pytest.mark.parametrize("g, connected", [
        (complete_bipartite(1, 30), True),
        (complete_bipartite(30, 1), True),
        # the centre numbered last, next to a node with no edge
        (BipartiteGraph.from_edges(2, 30, [(1, w) for w in range(30)]), False),
        (BipartiteGraph.from_edges(30, 2, [(u, 1) for u in range(30)]), False),
        # two stars whose centres share an edge
        (BipartiteGraph.from_edges(16, 16, [(0, w) for w in range(16)]
                                   + [(u, 0) for u in range(16)]), True),
    ], ids=["K1,30", "K30,1", "left 0 alone", "right 0 alone", "two stars"])
    def test_stars(self, g, connected):
        assert_reference(g)
        assert profile(g).is_connected == connected


class TestProfileEquivalence:
    """``profile`` against the per-root BFS reference in conftest."""

    @pytest.mark.parametrize("tier", GIRTH_TIERS)
    @given(st.one_of(bipartite_graphs(), sparse_bipartite_graphs()))
    @settings(max_examples=150, deadline=None)
    def test_equals_reference(self, tier, g):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph_core, "DENSE_MAX_SIZE", GIRTH_TIERS[tier])
            assert_reference(g)

    @pytest.mark.parametrize("tier", GIRTH_TIERS)
    @pytest.mark.parametrize("length", range(4, 42, 2))
    def test_even_cycles(self, monkeypatch, tier, length):
        monkeypatch.setattr(graph_core, "DENSE_MAX_SIZE", GIRTH_TIERS[tier])
        g = even_cycle(length)
        assert_reference(g)
        assert girth(g) == length

    @pytest.mark.parametrize("tier", GIRTH_TIERS)
    def test_tesseract(self, monkeypatch, tier):
        monkeypatch.setattr(graph_core, "DENSE_MAX_SIZE", GIRTH_TIERS[tier])
        assert_reference(tesseract())

    @pytest.mark.parametrize("g", [
        even_cycle(402), even_cycle(440),
        disjoint_union(even_cycle(402), even_cycle(410)),
        disjoint_union(even_cycle(20), complete_bipartite(3, 3)),
        disjoint_union(tesseract(), even_cycle(6), path(9)),
    ], ids=["C402", "C440", "C402 + C410", "C20 + K33", "Q4 + C6 + path"])
    def test_sparse_walk_steps(self, monkeypatch, g):
        # the walk's two stacked steps, built once, carry W_(l-1) with
        # L = I - deg, leaves' zeros included, into every level past 2
        monkeypatch.setattr(graph_core, "DENSE_MAX_SIZE", 0)
        assert girth(g) == reference_girth(g)

    # large inputs, checked against their known profiles
    def test_cycle_2000(self):
        g = even_cycle(2000)
        assert profile(g) == GraphProfile(True, True, 2, 2, False)
        assert girth(g) == 2000

    def test_path_2000(self):
        g = path(2000)
        assert profile(g) == GraphProfile(True, False, None, None, True)
        assert girth(g) is None

    def test_k300_300(self):
        g = complete_bipartite(300, 300)
        assert profile(g) == GraphProfile(True, True, 300, 300, False)
        assert girth(g) == 4

    @pytest.mark.parametrize("g, record", [
        (complete_bipartite(3, 4), "roots=3 levels=2 peak_nnz=12"),
        (even_cycle(8), "roots=4 levels=4 peak_nnz=8"),
    ])
    def test_logs_tier_roots_levels_and_peak(self, caplog, monkeypatch, g,
                                             record):
        caplog.set_level(logging.DEBUG, logger="girthspec")
        for tier, cap in GIRTH_TIERS.items():
            monkeypatch.setattr(graph_core, "DENSE_MAX_SIZE", cap)
            # a fresh graph per tier: the girth is cached on the graph
            girth(BipartiteGraph(g.left_count, g.right_count, g.indptr,
                                 g.indices))
        # each of these graphs is one component and takes two hooking
        # rounds; the walk reads the forest flag off the profile first
        assert [r.getMessage() for r in caplog.records] == [
            message for tier in GIRTH_TIERS for message in (
                "profile parts=1 hooks=2", f"girth tier={tier} {record}")]

    def test_logs_the_component_count(self, caplog):
        # two 4-cycles and a 6-cycle, apart, and a node with no edge on
        # each side: five components; W_1 has the 14 edges
        caplog.set_level(logging.DEBUG, logger="girthspec")
        g = disjoint_union(even_cycle(4), even_cycle(6), even_cycle(4),
                           BipartiteGraph.from_edges(1, 1, []))
        assert girth(g) == 4
        assert [r.getMessage() for r in caplog.records] == [
            "profile parts=5 hooks=2",
            "girth tier=dense roots=8 levels=2 peak_nnz=14"]


def random_tree(n: int, m: int, seed: int) -> BipartiteGraph:
    """A random spanning tree on n + m nodes: after a first edge, each
    node in a random order joins a random earlier node of the other side."""
    rng = random.Random(seed)
    rest = [(0, u) for u in range(1, n)] + [(1, w) for w in range(1, m)]
    rng.shuffle(rest)
    seen, edges = ([0], [0]), [(0, 0)]
    for side, node in rest:
        other = rng.choice(seen[1 - side])
        edges.append((node, other) if side == 0 else (other, node))
        seen[side].append(node)
    return BipartiteGraph.from_edges(n, m, edges)


class TestForests:
    """A forest, |E| = |V| - components, is profiled with no walk level,
    up to 20 000 nodes."""

    @pytest.mark.parametrize("g, parts", [
        (path(6), 1),
        (path(20000), 1),
        (random_tree(3000, 3000, seed=3), 1),
        # a tree, a path, a star and 300 + 200 nodes with no edge
        (disjoint_union(random_tree(150, 120, seed=4), path(400),
                        complete_bipartite(1, 40),
                        BipartiteGraph.from_edges(300, 200, [])), 503),
    ], ids=["path-6", "path-20000", "tree-3000+3000", "forest-isolated"])
    def test_equal_reference_without_a_level(self, caplog, g, parts):
        caplog.set_level(logging.DEBUG, logger="girthspec")
        # a fresh graph: the profile and girth are cached on the graph
        g = BipartiteGraph(g.left_count, g.right_count, g.indptr, g.indices)
        assert_reference(g)
        assert profile(g).is_forest and girth(g) is None
        profiled, walked = caplog.records
        assert re.fullmatch(rf"profile parts={parts} hooks=\d+",
                            profiled.getMessage())
        assert walked.getMessage() == (
            "girth tier=none roots=0 levels=0 peak_nnz=0")


class TestRandomBiregular:
    def test_two_regular_is_even_cycle_union(self):
        g = random_biregular(4, 4, 2, 2, seed=7)
        prof = profile(g)
        assert prof.is_connected  # generator retries until connected
        assert g.edge_count == 8
        assert girth(g) == 8  # connected 2-regular bipartite = one cycle

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
