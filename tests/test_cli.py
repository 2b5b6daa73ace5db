import dataclasses
import importlib.util
import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from girthspec import (
    BipartiteGraph,
    CycleCounts,
    complete_bipartite,
    even_cycle,
    girth,
    random_biregular,
    tesseract,
    transfer_counts,
    write_alist,
    write_edge_list,
)
from girthspec import cli, edge_matrix, spectra, spectral_transfer
from girthspec.cli import main
from girthspec.graph_core import DENSE_MAX_SIZE

from conftest import (
    ROW_SIDE_SHORT_ALIST,
    array_code,
    configuration_model,
    disjoint_union,
    subdivision,
    symplectic_quadrangle,
    symplectic_quadrangle_counts,
)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
ENSEMBLE = (Path(__file__).resolve().parents[1] / "scripts"
            / "count_random_ensemble.py")
SRC = Path(cli.__file__).resolve().parents[1]

# One CLI call in a fresh interpreter: its exit code, its JSON report and
# whether it imported scipy.
CHILD = """
import contextlib, io, json, sys
from girthspec.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(sys.argv[1:])
print(json.dumps({"code": code, "report": json.loads(out.getvalue()),
                  "scipy": "scipy" in sys.modules}))
"""
# CHILD with its address space capped at 2 GiB, so that an allocation the
# input asks for fails in the child instead of taking the host's memory
CAPPED = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
""" + CHILD


@pytest.fixture
def k34_alist(tmp_path):
    path = tmp_path / "k34.alist"
    path.write_text(write_alist(complete_bipartite(3, 4)))
    return str(path)


@pytest.fixture
def q4_el(tmp_path):
    path = tmp_path / "q4.el"
    path.write_text(write_edge_list(tesseract()))
    return str(path)


@pytest.fixture
def irregular_el(tmp_path):
    g = BipartiteGraph.from_edges(3, 3, [(0, 0), (0, 1), (1, 0), (1, 1),
                                         (1, 2), (2, 1), (2, 2)])
    path = tmp_path / "irregular.el"
    path.write_text(write_edge_list(g))
    return str(path)


@pytest.fixture
def girth6_el(tmp_path):
    """A random (2,3)-regular graph with girth >= 6, and its girth."""
    seed = 0
    while True:
        g = random_biregular(9, 6, 2, 3, seed=seed)
        if (gi := girth(g)) is not None and gi >= 6:
            break
        seed += 1
    path = tmp_path / "g6.el"
    path.write_text(write_edge_list(g))
    return str(path), gi


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def run_json_calls(capsys, argv):
    """run_json, plus the (file name, function name) of every Python
    function the run entered."""
    calls = set()

    def record(frame, event, arg):
        if event == "call":
            calls.add((Path(frame.f_code.co_filename).name,
                       frame.f_code.co_name))
    sys.setprofile(record)
    try:
        code, report = run_json(capsys, argv)
    finally:
        sys.setprofile(None)
    return code, report, calls


def reached(calls):
    """Which of the SVD, the XY eigensolve and the brute DFS a run entered."""
    names = {name for _, name in calls}
    return {"svd": "svd" in names, "eigvals": "eigvals" in names,
            "dfs": ("cycle_count.py", "extend") in calls}


class TestCount:
    def test_transfer_k34(self, capsys, k34_alist):
        code, report = run_json(capsys, ["count", "--input", k34_alist,
                                         "--route", "transfer", "--max-k", "6"])
        assert code == 0
        assert report["schema"] == "girthspec/1"
        assert report["counts"] == {"4": 18, "6": 24}
        assert report["input"]["format"] == "alist"
        assert report["error"] is None

    def test_auto_picks_transfer_on_q4(self, capsys, q4_el):
        code, report = run_json(capsys, ["count", "--input", q4_el,
                                         "--route", "auto"])
        assert code == 0
        assert report["counts"]["4"] == 24
        assert report["routes"][0]["name"] == "transfer"

    def test_transfer_on_irregular_exits_2(self, capsys, irregular_el):
        code, report = run_json(capsys, ["count", "--input", irregular_el,
                                         "--route", "transfer"])
        assert code == 2
        assert "bi-regular" in report["error"]["message"]

    def test_transfer_refuses_before_the_svd(self, capsys, irregular_el,
                                             monkeypatch):
        def no_spectrum(*args, **kwargs):
            raise AssertionError("adjacency spectrum computed")
        monkeypatch.setattr("girthspec.cli.adjacency_spectrum", no_spectrum)
        code, report = run_json(capsys, ["count", "--input", irregular_el,
                                         "--route", "transfer"])
        assert code == 2
        assert report["error"]["message"] == "graph is not bi-regular"

    def test_auto_falls_back_to_trace(self, capsys, irregular_el):
        code, report = run_json(capsys, ["count", "--input", irregular_el,
                                         "--route", "auto"])
        assert code == 0
        assert report["routes"][0]["name"] == "trace"

    def test_parse_error_exits_4(self, capsys, tmp_path):
        bad = tmp_path / "bad.el"
        bad.write_text("not a graph\n")
        code, report = run_json(capsys, ["count", "--input", str(bad)])
        assert code == 4
        assert report["error"]["code"] == 4

    @pytest.mark.parametrize("name, data, message", [
        pytest.param("bad.el", b"\xff\xfe2 2\n0 0\n", "line 1: byte 0xff",
                     id="bad.el"),
        pytest.param("bad.alist", b"\xff\xfe2 2\n0 0\n", "line 1: byte 0xff",
                     id="bad.alist"),
        pytest.param("bom.el", b"\xef\xbb\xbf2 2\r\n0 0\r\n", "line 1: byte 0xef",
                     id="bom.el"),
        pytest.param("accent.alist", "1 1\n1 1\n1\n1\n1 # caf\xe9\n1\n".encode(),
                     "line 5: byte 0xc3", id="accent.alist"),
    ])
    def test_undecodable_input_exits_4(self, capsys, tmp_path, name, data, message):
        bad = tmp_path / name
        bad.write_bytes(data)
        code, report = run_json(capsys, ["count", "--input", str(bad)])
        assert code == 4
        assert report["error"] == {"code": 4, "message": f"{message} is not ASCII"}

    @pytest.mark.parametrize("name, text, fmt, code", [
        ("tree.el", "2 1\n0 0\n1 0\n", "edgelist", 2),
        ("bad.el", "2 1\n0 x\n", "edgelist", 4),
        ("bad.alist", "1 1\n1 1\n1\n1\nx\n1\n", "alist", 4),
        ("c4.el", "2 2\n0 0\n0 1\n1 0\n1 1\n", "edgelist", 0),
        ("c4.alist", "2 2\n2 2\n2 2\n2 2\n1 2\n1 2\n1 2\n1 2\n", "alist", 0),
    ])
    def test_report_names_the_format_read(self, capsys, tmp_path, name, text, fmt,
                                          code):
        """auto is reported as the format the extension chose, on error too."""
        path = tmp_path / name
        path.write_text(text)
        assert run_json(capsys, ["count", "--input", str(path)])[0] == code
        for argv in (["count"], ["verify"], ["count", "--format", fmt]):
            _, report = run_json(capsys, [*argv, "--input", str(path)])
            assert report["input"] == {"path": str(path), "format": fmt}

    def test_alist_row_side_leaving_out_edges_exits_4(self, capsys, tmp_path):
        path = tmp_path / "short.alist"
        path.write_text(ROW_SIDE_SHORT_ALIST)
        code, report = run_json(capsys, ["count", "--input", str(path)])
        assert code == 4
        assert report["error"] == {
            "code": 4, "message": "row degree total disagrees with the edge set"}

    def test_missing_file_exits_4(self, capsys, tmp_path):
        code, report = run_json(capsys, ["count", "--input",
                                         str(tmp_path / "nope.el")])
        assert code == 4

    def test_forest_exits_2(self, capsys, tmp_path):
        path = tmp_path / "tree.el"
        path.write_text("2 1\n0 0\n1 0\n")
        code, report = run_json(capsys, ["count", "--input", str(path)])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["count", "--route", "auto"], ["count", "--route", "transfer"],
        ["count", "--route", "trace"], ["count", "--route", "direct"],
        ["count", "--route", "brute"],
        ["count", "--route", "brute", "--max-k", "4"], ["verify"]])
    def test_every_route_refuses_a_forest(self, capsys, tmp_path, argv):
        # bi-regular, so transfer gets past its hypothesis to the window
        path = tmp_path / "tree.el"
        path.write_text("2 1\n0 0\n1 0\n")
        code, report = run_json(capsys, [argv[0], "--input", str(path),
                                         *argv[1:]])
        assert code == 2
        assert report["error"]["message"] == "forest input: no cycles to count"

    @pytest.mark.parametrize("argv", [["verify"], ["count", "--emit-spectra"]])
    def test_one_girth_walk_per_run(self, capsys, caplog, q4_el, argv):
        # a count by transfer reads the girth off its own traces
        caplog.set_level(logging.DEBUG, logger="girthspec")
        per_run = argv[0] == "verify"
        for run in (1, 2):
            code, _ = run_json(capsys, [argv[0], "--input", q4_el, *argv[1:]])
            assert code == 0
            walks = [r for r in caplog.records
                     if r.getMessage().startswith("girth tier=")]
            assert len(walks) == run * per_run

    @pytest.mark.parametrize("argv, walks", [
        (["count"], 0), (["count", "--emit-spectra"], 0),
        (["count", "--route", "transfer"], 0),
        (["count", "--route", "transfer", "--emit-spectra"], 0),
        (["count", "--route", "trace"], 1), (["count", "--route", "direct"], 1),
        (["count", "--route", "brute"], 1), (["verify"], 1)])
    def test_girth_walks_per_route(self, capsys, caplog, q4_el, argv, walks):
        caplog.set_level(logging.DEBUG, logger="girthspec")
        code, report = run_json(capsys, [argv[0], "--input", q4_el, *argv[1:]])
        assert code == 0 and report["profile"]["girth"] == 4
        messages = [r.getMessage() for r in caplog.records]
        assert sum(m.startswith("girth tier=") for m in messages) == walks
        # transfer's chain, in every run but trace, direct and brute, names
        # the level where it met the girth
        chains = [m for m in messages if " form=adjacency " in m]
        assert [m.endswith(" girth=2") for m in chains] == [True] * (
            walks == 0 or argv[0] == "verify")

    def test_emit_spectra(self, capsys, q4_el):
        code, report = run_json(capsys, ["count", "--input", q4_el,
                                         "--route", "transfer", "--emit-spectra"])
        assert code == 0
        assert {"re", "im", "mult"} == set(report["spectra"]["edge"][0])
        assert sum(e["mult"] for e in report["spectra"]["edge"]) == 64

    def test_json_round_trips(self, capsys, q4_el):
        _, report = run_json(capsys, ["count", "--input", q4_el])
        assert json.loads(json.dumps(report)) == report

    def test_deterministic_output(self, capsys, q4_el):
        _, a = run_json(capsys, ["count", "--input", q4_el])
        _, b = run_json(capsys, ["count", "--input", q4_el])
        a["routes"] = b["routes"] = None  # timings excluded
        assert a == b

    def test_table_mode(self, capsys, k34_alist):
        code = main(["count", "--input", k34_alist, "--table"])
        out = capsys.readouterr().out
        assert code == 0
        assert "N_4 = 18" in out

    @pytest.mark.parametrize("text,code,message", [
        ("2 1\n0 0\n1 0\n", 2, "forest input: no cycles to count"),
        ("2 1\n0 x\n", 4, "line 2: non-integer token in '0 x'")])
    def test_table_mode_prints_the_error(self, capsys, tmp_path, text, code,
                                         message):
        path = tmp_path / "bad.el"
        path.write_text(text)
        assert main(["count", "--input", str(path), "--table"]) == code
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"input: {path} (edgelist)"
        assert lines[1].startswith("error: ") and message in lines[1]
        assert len(lines) == 2

    def test_successive_calls_are_independent(self, capsys, k34_alist, q4_el):
        """One parser serves every call in a process; no flag, default or
        subcommand of one call carries over to the next."""
        assert main(["count", "--input", k34_alist, "--route", "trace",
                     "--max-k", "4", "--table", "--format", "alist"]) == 0
        assert "N_4 = 18" in capsys.readouterr().out
        code, report = run_json(capsys, ["verify", "--input", q4_el])
        assert code == 0 and report["input"]["format"] == "edgelist"
        assert [r["name"] for r in report["routes"]] == [
            "transfer", "trace", "direct", "brute"]
        code, report = run_json(capsys, ["count", "--input", k34_alist])
        assert code == 0
        assert [r["name"] for r in report["routes"]] == ["transfer"]
        assert report["counts"] == {"4": 18, "6": 24}

    def test_dense_cap_and_force(self, capsys, q4_el, monkeypatch):
        # the |V| cap bounds the float pipeline only: over it, transfer
        # still counts exactly and gives no spectra
        monkeypatch.setattr("girthspec.cli.DEFAULT_DENSE_CAP", 4)
        code, report = run_json(capsys, ["count", "--input", q4_el,
                                         "--route", "transfer",
                                         "--emit-spectra"])
        assert code == 0
        assert report["counts"] == {"4": 24, "6": 128}
        assert report["spectra"] == {} and report["residuals"] == {}
        assert report["float_transfer_refused"] == (
            "|V| = 16 exceeds dense cap 4")
        code, report = run_json(capsys, ["count", "--input", q4_el,
                                         "--route", "transfer",
                                         "--emit-spectra", "--force"])
        assert code == 0
        assert sum(e["mult"] for e in report["spectra"]["edge"]) == 64
        assert "float_transfer_refused" not in report

    def test_auto_stays_on_transfer_over_the_dense_cap(self, capsys, q4_el,
                                                       monkeypatch):
        # the exact transfer has no |V| cap, so auto stays on transfer
        monkeypatch.setattr("girthspec.cli.DEFAULT_DENSE_CAP", 10)  # |V| = 16
        code, report = run_json(capsys, ["count", "--input", q4_el])
        assert code == 0
        assert report["routes"][0]["name"] == "transfer"
        assert report["counts"]["4"] == 24

    def test_auto_refuses_transfer_before_the_svd(self, capsys, q4_el,
                                                  irregular_el, monkeypatch):
        _, _, calls = run_json_calls(capsys, ["count", "--input", q4_el,
                                              "--emit-spectra"])
        assert reached(calls)["svd"]  # the probe sees the SVD when it runs
        _, report, calls = run_json_calls(capsys, ["count", "--input",
                                                   irregular_el])
        assert report["routes"][0]["name"] == "trace"
        assert not reached(calls)["svd"]
        monkeypatch.setattr("girthspec.cli.DEFAULT_DENSE_CAP", 10)
        _, report, calls = run_json_calls(capsys, ["count", "--input", q4_el,
                                                   "--emit-spectra"])
        assert report["routes"][0]["name"] == "transfer"
        assert report["spectra"] == {}
        assert not reached(calls)["svd"]

    @pytest.mark.parametrize("route", ["auto", "transfer"])
    def test_counting_skips_the_float_pipeline(self, capsys, q4_el, route):
        code, report, calls = run_json_calls(capsys, ["count", "--input",
                                                      q4_el, "--route", route])
        assert code == 0
        assert report["routes"][0]["name"] == "transfer"
        assert report["counts"] == {"4": 24, "6": 128}
        assert report["residuals"] == {}
        assert "float_transfer_refused" not in report
        assert not reached(calls)["svd"]
        assert ("spectra.py", "rank_of_biadjacency") not in calls
        _, report, calls = run_json_calls(capsys, ["count", "--input", q4_el,
                                                   "--route", route,
                                                   "--emit-spectra"])
        assert report["counts"] == {"4": 24, "6": 128}
        assert set(report["residuals"]) == {"4", "6"}
        assert "float_transfer_refused" not in report
        assert ("spectra.py", "rank_of_biadjacency") in calls

    def test_counts_graphs_the_float_pipeline_refuses(self, capsys, tmp_path):
        path = tmp_path / "c8c12.el"
        path.write_text(write_edge_list(disjoint_union(even_cycle(8),
                                                       even_cycle(12))))
        code, report = run_json(capsys, ["count", "--input", str(path),
                                         "--emit-spectra"])
        assert code == 0
        assert report["routes"][0]["name"] == "transfer"
        assert report["counts"] == {"8": 1, "10": 0, "12": 1, "14": 0}
        assert report["spectra"] == {}
        assert report["float_transfer_refused"] == "graph is not connected"

    @pytest.mark.parametrize("route,argv,work", [
        ("direct", [], "eigvals"), ("transfer", ["--emit-spectra"], "svd")])
    def test_bad_window_refused_before_eigenvalue_work(self, capsys, q4_el,
                                                       route, argv, work):
        code, report, calls = run_json_calls(capsys, [
            "count", "--input", q4_el, "--route", route, "--max-k", "0", *argv])
        assert code == 2
        assert "max_k=0" in report["error"]["message"]
        assert not reached(calls)[work]

    @pytest.mark.parametrize("route", ["auto", "transfer", "trace", "direct",
                                       "brute"])
    def test_max_k_zero_exits_2(self, capsys, k34_alist, route):
        code, report = run_json(capsys, ["count", "--input", k34_alist,
                                         "--route", route, "--max-k", "0"])
        assert code == 2
        assert "max_k=0" in report["error"]["message"]

    def test_brute_counts_past_the_window(self, capsys, k34_alist):
        code, report = run_json(capsys, ["count", "--input", k34_alist,
                                         "--route", "brute", "--max-k", "8"])
        assert code == 0
        assert report["counts"] == {"4": 18, "6": 24, "8": 0}  # 7 nodes

    def test_rank_audit_disagreeing_with_the_svd_exits_3(self, capsys, q4_el,
                                                         monkeypatch):
        # the tesseract's D has singular values 4, 2 (x4), 0 (x3); an audit
        # that over-counts by one trips the gate
        exact = spectra._rank_mod_p
        monkeypatch.setattr(spectra, "_rank_mod_p",
                            lambda rows, p: exact(rows, p) + 1)
        code, report = run_json(capsys, ["count", "--input", q4_el,
                                         "--route", "transfer",
                                         "--emit-spectra"])
        assert code == 3
        assert report["error"]["code"] == 3
        message = report["error"]["message"]
        tol = re.search(r"5 singular values of D exceed zero_tolerance = "
                        r"([0-9.e+-]+) but D has exact rank 6", message)
        assert float(tol.group(1)) == pytest.approx(4e-7)  # 1e-7 * sigma_max
        below = re.search(r"at or below the tolerance: ([0-9.e+-]+)", message)
        above = re.search(r"smallest above: ([0-9.e+-]+)", message)
        assert abs(float(below.group(1))) < 1e-12
        assert float(above.group(1)) == pytest.approx(2.0, abs=1e-9)


class TestVerify:
    def test_q4_all_routes_agree(self, capsys, q4_el):
        code, report = run_json(capsys, ["verify", "--input", q4_el])
        assert code == 0
        assert report["agreement"]["ok"] is True
        names = {r["name"] for r in report["routes"]}
        assert {"transfer", "trace", "direct", "brute"} <= names
        assert "float_transfer_refused" not in report

    def test_random_biregular(self, capsys, tmp_path):
        g = random_biregular(6, 4, 2, 3, seed=5)
        path = tmp_path / "r23.el"
        path.write_text(write_edge_list(g))
        code, report = run_json(capsys, ["verify", "--input", str(path)])
        assert code == 0 and report["agreement"]["ok"]

    def test_girth6_includes_cross_check(self, capsys, girth6_el):
        path, gi = girth6_el
        code, report = run_json(capsys, ["verify", "--input", path])
        assert code == 0
        assert report["cross_check_g_plus_4"] == report["counts"][str(gi + 4)]

    def test_symplectic_quadrangle_at_girth_8(self, capsys, tmp_path):
        # W(5): 156 + 156 nodes, 936 edges, over brute's cap
        path = tmp_path / "w5.el"
        path.write_text(write_edge_list(symplectic_quadrangle(5)))
        code, report = run_json(capsys, ["verify", "--input", str(path)])
        assert code == 0
        assert [r["name"] for r in report["routes"]] == [
            "transfer", "trace", "direct"]
        assert report["counts"] == {
            str(k): n for k, n in symplectic_quadrangle_counts(5).items()}
        assert report["cross_check_g_plus_4"] == 20280000

    @pytest.mark.parametrize("q, routes", [
        (2, ["transfer", "trace", "direct", "brute"]),
        (3, ["transfer", "trace", "direct"])])
    def test_subdivided_quadrangle_at_girth_16(self, capsys, tmp_path, q,
                                               routes):
        # S(W(q)): S(W(3))'s 320 edges are over brute's cap
        path = tmp_path / "sw.el"
        path.write_text(write_edge_list(subdivision(symplectic_quadrangle(q))))
        code, report = run_json(capsys, ["verify", "--input", str(path)])
        assert code == 0 and report["agreement"]["ok"]
        assert [r["name"] for r in report["routes"]] == routes
        counts = symplectic_quadrangle_counts(q)
        assert report["counts"] == {str(k): counts.get(k // 2, 0)
                                    for k in range(16, 31, 2)}
        assert report["cross_check_g_plus_4"] == counts[10]

    def test_skips_transfer_over_the_dense_cap(self, capsys, q4_el,
                                               monkeypatch):
        monkeypatch.setattr("girthspec.cli.DEFAULT_DENSE_CAP", 10)  # |V| = 16
        monkeypatch.setattr("girthspec.cli.DEFAULT_DIRECT_CAP", 10)  # 2|E| = 64
        code, report = run_json(capsys, ["verify", "--input", q4_el])
        assert code == 0 and report["agreement"]["ok"]
        # the cap refuses the float pipeline only; the exact transfer runs
        assert [r["name"] for r in report["routes"]] == ["transfer", "trace",
                                                         "brute"]
        assert report["counts"]["4"] == 24

    def test_no_cross_check_without_transfer(self, capsys, girth6_el,
                                             monkeypatch):
        monkeypatch.setattr("girthspec.cli.DEFAULT_DENSE_CAP", 10)  # |V| = 15
        monkeypatch.setattr("girthspec.cli.DEFAULT_DIRECT_CAP", 10)  # 2|E| = 36
        code, report = run_json(capsys, ["verify", "--input", girth6_el[0]])
        assert code == 0 and report["agreement"]["ok"]
        # the exact transfer runs; the cross-check needs the float spectrum
        assert "transfer" in {r["name"] for r in report["routes"]}
        assert report["cross_check_g_plus_4"] is None
        assert report["residuals"] == {}
        assert report["float_transfer_refused"] == (
            "|V| = 15 exceeds dense cap 10")

    def test_cross_check_needs_n_g_plus_2(self, capsys, girth6_el):
        path, gi = girth6_el
        code, report = run_json(capsys, ["verify", "--input", path,
                                         "--max-k", str(gi)])
        assert code == 0 and report["agreement"]["ok"]
        assert [r["name"] for r in report["routes"]] == [
            "transfer", "trace", "direct", "brute"]
        assert list(report["counts"]) == [str(gi)]
        assert report["cross_check_g_plus_4"] is None

    def test_bad_max_k_exits_2_before_any_route(self, capsys, q4_el):
        # brute has no window; it must not count alone
        code, report = run_json(capsys, ["verify", "--input", q4_el,
                                         "--max-k", "0"])
        assert code == 2
        assert "max_k=0" in report["error"]["message"]

    def test_refused_routes_do_no_work(self, capsys, q4_el, monkeypatch):
        _, _, calls = run_json_calls(capsys, ["verify", "--input", q4_el])
        assert reached(calls) == {"svd": True, "eigvals": True, "dfs": True}
        monkeypatch.setattr("girthspec.cli.DEFAULT_DIRECT_CAP", 10)
        monkeypatch.setattr("girthspec.cli.DEFAULT_BRUTE_CAP", 10)
        code, report, calls = run_json_calls(capsys, ["verify", "--input",
                                                      q4_el])
        assert code == 0 and report["agreement"]["ok"]
        assert [r["name"] for r in report["routes"]] == ["transfer", "trace"]
        assert reached(calls) == {"svd": True, "eigvals": False, "dfs": False}

    def test_flags_a_transfer_girth_off_the_walk(self, capsys, tmp_path,
                                                 monkeypatch):
        # C8, which the float transfer refuses: the transfer's counts stay
        # right, so the girth is the one diff
        path = tmp_path / "c8.el"
        path.write_text(write_edge_list(even_cycle(8)))
        real = cli.transfer_counts
        monkeypatch.setattr(cli, "transfer_counts", lambda g, max_k: (
            dataclasses.replace(real(g, max_k), girth=6)))
        code, report = run_json(capsys, ["verify", "--input", str(path)])
        assert code == 1
        assert report["agreement"]["diffs"] == {"girth": {
            "walk": 8, "transfer": 6, "trace": 8, "direct": 8, "brute": 8}}
        assert report["counts"] == {"8": 1, "10": 0, "12": 0, "14": 0}

    def test_corrupted_input_fixture(self, capsys, tmp_path):
        # edge list whose declared shape cannot parse
        bad = tmp_path / "corrupt.el"
        bad.write_text("3 3\n0 0\n9 9\n")
        code, _ = run_json(capsys, ["verify", "--input", str(bad)])
        assert code == 4


class TestFloatGate:
    """verify and --emit-spectra run the float pipeline, whose counts must
    equal the exact transfer's."""

    @pytest.mark.parametrize("argv", [["verify"], ["count", "--emit-spectra"]])
    def test_float_disagreement_exits_3(self, capsys, q4_el, monkeypatch,
                                        argv):
        real = cli.counts_from_spectrum

        def off_by_one(es, girth, max_k=None):
            cc = real(es, girth, max_k)
            return CycleCounts(girth, {**cc.counts, girth: cc.counts[girth] + 1},
                               cc.residuals)

        monkeypatch.setattr("girthspec.cli.counts_from_spectrum", off_by_one)
        code, report = run_json(capsys, [argv[0], "--input", q4_el, *argv[1:]])
        assert code == 3
        assert report["error"]["code"] == 3
        assert report["error"]["message"] == (
            "N_4: float transfer gives 25, exact transfer 24")

    def test_verify_covers_graphs_the_float_pipeline_refuses(self, capsys,
                                                             tmp_path):
        path = tmp_path / "c8.el"
        path.write_text(write_edge_list(even_cycle(8)))
        code, report = run_json(capsys, ["verify", "--input", str(path)])
        assert code == 0 and report["agreement"]["ok"]
        assert [r["name"] for r in report["routes"]] == [
            "transfer", "trace", "direct", "brute"]
        assert report["cross_check_g_plus_4"] is None
        assert report["counts"] == {"8": 1, "10": 0, "12": 0, "14": 0}
        assert report["float_transfer_refused"].startswith(
            "degrees (d_v=2, d_c=2)")


class TestDivisibilityGate:
    """N_k = tr(A_e^k) / 2k; a trace that 2k does not divide exits 3 on
    both exact routes."""

    # Q4 has 128 six-cycles, so tr(A_e^6) = 1536. The engine's last value
    # is tr(M^6) on trace and tr(A^6) on transfer; one more adds 1 to
    # tr(A_e^6) on both (p_3 is monic)
    @pytest.mark.parametrize("route,value", [("trace", 1537),
                                             ("transfer", 1537)])
    def test_indivisible_trace_exits_3(self, capsys, q4_el, monkeypatch,
                                       route, value):
        real = edge_matrix.power_traces

        def last_off_by_one(d, loss, top):
            traces = real(d, loss, top)
            return traces[:-1] + [traces[-1] + 1]

        for module in (edge_matrix, spectral_transfer):
            monkeypatch.setattr(module, "power_traces", last_off_by_one)
        code, report = run_json(capsys, ["count", "--input", q4_el,
                                         "--route", route])
        assert code == 3
        assert report["error"] == {
            "code": 3, "message": f"tr(A_e^6) = {value} is not divisible by 2k"}


class TestTracedLayers:
    """The benchmark's traced pass times layers by patching module
    attributes; a renamed binding would silently drop its layer."""

    @pytest.fixture(scope="class")
    def tracing(self):
        spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                      TRACING)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_every_layer_has_a_target(self, tracing):
        for metric, targets in tracing.LAYER_TARGETS.items():
            assert any(tracing._resolve(t) for t in targets), metric

    def test_every_target_resolves(self, tracing):
        # profile is imported by name in each module that calls it, so
        # that these bindings trace those calls
        targets = [t for ts in tracing.LAYER_TARGETS.values() for t in ts]
        assert targets
        for target in targets:
            assert tracing._resolve(target) is not None, target


def child(args, **kwargs):
    """``python args`` with the package on its path."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], env=env, text=True,
                          timeout=120, **kwargs)


def run_child(argv, script=CHILD):
    """One CLI call in a fresh interpreter, as ``script`` reports it."""
    proc = child(["-c", script, *argv], capture_output=True, check=True)
    return json.loads(proc.stdout)


class TestFreshProcess:
    """What a cold ``girthspec`` call imports, and how it exits when its
    reader goes away."""

    @pytest.mark.parametrize("command, g", [
        ("count", tesseract()), ("verify", tesseract()),
        ("count", configuration_model(40, 1)),
        ("verify", array_code(31, 6))],
        ids=["count Q4", "verify Q4", "count irregular", "verify (3,6) p=31"])
    def test_small_graph_leaves_scipy_unloaded(self, tmp_path, command, g):
        assert max(g.left_count, g.right_count) <= DENSE_MAX_SIZE
        path = tmp_path / "g.el"
        path.write_text(write_edge_list(g))
        got = run_child([command, "--input", str(path)])
        assert got["code"] == 0 and got["report"]["agreement"]["ok"]
        assert not got["scipy"]

    @pytest.mark.parametrize("g, route, counts", [
        (array_code(37, 6), "transfer", {"6": 444, "8": 4995, "10": 18204}),
        (configuration_model(240, 0), "trace", {"4": 108, "6": 1482})],
        ids=["(3,6) p=37", "irregular n=240"])
    def test_large_side_loads_scipy(self, tmp_path, g, route, counts):
        assert max(g.left_count, g.right_count) > DENSE_MAX_SIZE
        path = tmp_path / "g.el"
        path.write_text(write_edge_list(g))
        got = run_child(["count", "--input", str(path)])
        assert got["code"] == 0 and got["scipy"]
        assert [r["name"] for r in got["report"]["routes"]] == [route]
        assert got["report"]["counts"] == counts

    def test_forest_over_the_dense_cap_is_not_walked(self, tmp_path):
        # a path on 5000 + 5000 nodes: no girth walk, so no sparse tier
        t = 5000
        assert t > DENSE_MAX_SIZE
        path = tmp_path / "path.el"
        path.write_text(f"{t} {t}\n" + "".join(
            f"{i} {i}\n{i + 1} {i}\n" for i in range(t - 1))
            + f"{t - 1} {t - 1}\n")
        got = run_child(["count", "--input", str(path)])
        assert got["code"] == 2 and not got["scipy"]
        assert got["report"]["error"]["message"] == (
            "forest input: no cycles to count")

    def test_small_graph_past_2_53_leaves_scipy_unloaded(self):
        # K_{3,3}, L = 0: tr(M^(2j)) = 2 * 9^j passes 2^53 at j = 17 and
        # level 35's product guard, 3^34, reaches it: the dense blocks
        # move to Python ints, never to scipy
        proc = child(["-c", """
import json, sys
import numpy as np
from girthspec.edge_matrix import power_traces
from girthspec.graph_core import complete_bipartite
traces = power_traces(complete_bipartite(3, 3), np.zeros(6, dtype=np.int64), 40)
print(json.dumps({"traces": traces, "scipy": "scipy" in sys.modules}))
"""], capture_output=True, check=True)
        got = json.loads(proc.stdout)
        assert got["traces"] == [12] + [2 * 9 ** j for j in range(1, 41)]
        assert not got["scipy"]

    @pytest.mark.parametrize("text, code", [
        ("2 2\n0 0\n0 1\n1 0\n1 1\n", 0),
        ("2147483647 1\n0 0\n", 4), ("1 2147483647\n0 0\n", 4)],
        ids=["4-cycle", "U of 2^31 - 1", "W of 2^31 - 1"])
    def test_out_of_memory_exits_4(self, tmp_path, text, code):
        # either header asks for an int64 array of 2^31 entries, 16 GiB,
        # D's indptr or its transpose's; the capped child cannot get it
        path = tmp_path / "g.el"
        path.write_text(text)
        got = run_child(["count", "--input", str(path)], CAPPED)
        assert got["code"] == code
        if code:
            assert got["report"]["error"]["code"] == code
            assert got["report"]["error"]["message"].startswith(
                "out of memory: ")

    @pytest.mark.parametrize("mode", ["--json", "--table"])
    def test_closed_stdout_exits_141(self, q4_el, mode):
        read, write = os.pipe()
        os.close(read)  # the reader is gone before the report is written
        try:
            proc = child(["-m", "girthspec.cli", "count", "--input", q4_el,
                          mode], stdout=write, stderr=subprocess.PIPE)
        finally:
            os.close(write)
        assert proc.returncode == cli.EXIT_PIPE == 141
        assert proc.stderr == ""


class TestEnsembleScript:
    def test_prints_a_row_per_seed_and_the_girth_histogram(self):
        proc = child([str(ENSEMBLE), "--n", "12", "--m", "8", "--dv", "2",
                      "--dc", "3", "--trials", "2", "--seed", "3"],
                     capture_output=True, check=True)
        assert proc.stderr == ""
        lines = proc.stdout.splitlines()
        girths = {}
        for seed, line in zip((3, 4), lines):
            cc = transfer_counts(random_biregular(12, 8, 2, 3, seed=seed))
            girths[cc.girth] = girths.get(cc.girth, 0) + 1
            assert line == f"seed={seed} girth={cc.girth} " + " ".join(
                f"N_{k}={v}" for k, v in sorted(cc.counts.items()))
        assert lines[2:4] == [
            "---", f"girth histogram: {dict(sorted(girths.items()))}"]
