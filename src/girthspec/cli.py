"""Command-line front end: count, verify, and bench subcommands.

JSON output follows the stable "girthspec/1" schema. Exit codes:
0 ok, 1 verification disagreement, 2 route inapplicable, 3 numerical
failure, 4 I/O or parse error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .counts import CycleCounts, Route
from .cycle_count import brute_force_counts, counts_from_spectrum, g_plus_4_cross_check
from .edge_matrix import DEFAULT_DIRECT_CAP, edge_spectrum_direct, trace_power_counts
from .errors import (
    GirthspecError,
    NumericalError,
    ParseError,
    RouteInapplicableError,
)
from .graph_core import (
    BipartiteGraph,
    GraphProfile,
    parse_alist,
    parse_edge_list,
    profile,
    random_biregular,
)
from .spectra import DEFAULT_DENSE_CAP, adjacency_spectrum
from .spectral_transfer import TransferParameters, derive_edge_spectrum

EXIT_OK = 0
EXIT_DISAGREE = 1
EXIT_INAPPLICABLE = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

SCHEMA = "girthspec/1"


def _dense_cap(default: int) -> int:
    value = os.environ.get("GIRTHSPEC_DENSE_CAP")
    return int(value) if value else default


def load_graph(path: str, fmt: str) -> tuple[BipartiteGraph, str]:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if fmt == "auto":
        fmt = "alist" if path.endswith(".alist") else "edgelist"
    if fmt == "alist":
        return parse_alist(data), "alist"
    return parse_edge_list(data), "edgelist"


def _profile_dict(g: BipartiteGraph, prof: GraphProfile) -> dict:
    return {
        "n": g.left_count,
        "m": g.right_count,
        "edges": g.edge_count,
        "d_v": prof.d_v,
        "d_c": prof.d_c,
        "girth": prof.girth,
        "connected": prof.is_connected,
        "biregular": prof.is_biregular,
    }


def _transfer_applicable(prof: GraphProfile) -> bool:
    return (prof.is_biregular and prof.is_connected and prof.girth is not None
            and max(prof.d_v, prof.d_c) >= 3 and min(prof.d_v, prof.d_c) >= 2)


def _spectra_dict(adj_spec, edge_spec) -> dict:
    out = {}
    if adj_spec is not None:
        out["adjacency"] = [{"value": v, "mult": m} for v, m in adj_spec.eigenvalues]
    if edge_spec is not None:
        out["edge"] = [{"re": v.real, "im": v.imag, "mult": m}
                       for v, m in edge_spec.eigenvalues]
    return out


def run_route(route: str, g: BipartiteGraph, prof: GraphProfile,
              args) -> tuple[CycleCounts, dict]:
    """Run one counting route; returns counts and any spectra produced."""
    big = 10 ** 9
    max_k = args.max_k
    spectra = {}
    if route == "transfer":
        cap = big if args.force else _dense_cap(DEFAULT_DENSE_CAP)
        spec = adjacency_spectrum(g, zero_tolerance=args.zero_tol,
                                  cluster_tolerance=args.cluster_tol,
                                  dense_cap=cap)
        params = TransferParameters.from_graph(g, spec, prof)
        es = derive_edge_spectrum(spec, params)
        spectra = {"adjacency": spec, "edge": es}
        return counts_from_spectrum(es, prof.girth, max_k,
                                    route=Route.SPECTRAL_TRANSFER), spectra
    if route == "trace":
        return trace_power_counts(g, max_k, prof), spectra
    if route == "direct":
        es = edge_spectrum_direct(
            g, dense_cap=big if args.force else _dense_cap(DEFAULT_DIRECT_CAP))
        spectra = {"edge": es}
        return counts_from_spectrum(es, prof.girth, max_k,
                                    route=Route.DIRECT_EDGE_SPECTRUM), spectra
    if route == "brute":
        return brute_force_counts(g, max_k if max_k else 2 * prof.girth - 2,
                                  edge_cap=big if args.force else 200,
                                  prof=prof), spectra
    raise RouteInapplicableError(f"unknown route {route!r}")


def _emit(report: dict, as_table: bool) -> None:
    if as_table:
        prof = report.get("profile", {})
        print(f"input: {report['input']['path']} ({report['input']['format']})")
        print("  ".join(f"{k}={v}" for k, v in prof.items()))
        for k, v in sorted(report.get("counts", {}).items(), key=lambda t: int(t[0])):
            print(f"N_{k} = {v}")
        for r in report.get("routes", []):
            print(f"route {r['name']}: {r['ms']:.2f} ms")
    else:
        print(json.dumps(report, indent=2, sort_keys=True))


def _error_report(args, code: int, message: str) -> int:
    report = {
        "schema": SCHEMA,
        "input": {"path": getattr(args, "input", None), "format": args.format},
        "error": {"code": code, "message": message},
    }
    _emit(report, args.table)
    return code


def cmd_count(args) -> int:
    g, fmt = load_graph(args.input, args.format)
    prof = profile(g)
    if prof.girth is None:
        return _error_report(args, EXIT_INAPPLICABLE,
                             "forest input: infinite girth, nothing to count")
    route = args.route
    if route == "auto":
        route = "transfer" if _transfer_applicable(prof) else "trace"
    t0 = time.perf_counter()
    cc, spectra = run_route(route, g, prof, args)
    elapsed = (time.perf_counter() - t0) * 1e3
    report = {
        "schema": SCHEMA,
        "input": {"path": args.input, "format": fmt},
        "profile": _profile_dict(g, prof),
        "routes": [{"name": route, "ms": elapsed}],
        "counts": {str(k): v for k, v in sorted(cc.counts.items())},
        "agreement": {"ok": True, "diffs": {}},
        "residuals": {str(k): v for k, v in sorted(cc.residuals.items())},
        "error": None,
    }
    if args.emit_spectra:
        report["spectra"] = _spectra_dict(spectra.get("adjacency"),
                                          spectra.get("edge"))
    _emit(report, args.table)
    return EXIT_OK


def cmd_verify(args) -> int:
    g, fmt = load_graph(args.input, args.format)
    prof = profile(g)
    if prof.girth is None:
        return _error_report(args, EXIT_INAPPLICABLE,
                             "forest input: infinite girth, nothing to verify")
    candidates = ["trace"]
    if _transfer_applicable(prof):
        candidates.insert(0, "transfer")
    if 2 * g.edge_count <= (10 ** 9 if args.force else _dense_cap(DEFAULT_DIRECT_CAP)):
        candidates.append("direct")
    if g.edge_count <= (10 ** 9 if args.force else 200):
        candidates.append("brute")

    results: dict[str, CycleCounts] = {}
    timings = []
    adj_spec = None
    for route in candidates:
        t0 = time.perf_counter()
        cc, spectra = run_route(route, g, prof, args)
        timings.append({"name": route, "ms": (time.perf_counter() - t0) * 1e3})
        results[route] = cc
        if "adjacency" in spectra:
            adj_spec = spectra["adjacency"]

    ks = sorted(set().union(*(cc.counts for cc in results.values())))
    diffs: dict[str, dict[str, int]] = {}
    reference = results[candidates[0]]
    for k in ks:
        values = {r: cc.counts.get(k) for r, cc in results.items()}
        if len(set(values.values())) > 1:
            diffs[str(k)] = values

    cross = None
    if prof.girth >= 6 and _transfer_applicable(prof):
        # transfer ran first among the candidates, so adj_spec is set
        cross = g_plus_4_cross_check(g, adj_spec, reference, prof)
        spectral = reference.counts.get(prof.girth + 4)
        if spectral is not None and cross != spectral:
            diffs[str(prof.girth + 4)] = {"tree_walk_cross_check": cross,
                                          "spectral": spectral}

    agreement = not diffs
    report = {
        "schema": SCHEMA,
        "input": {"path": args.input, "format": fmt},
        "profile": _profile_dict(g, prof),
        "routes": timings,
        "counts": {str(k): reference.counts[k] for k in reference.counts},
        "agreement": {"ok": agreement, "diffs": diffs},
        "residuals": {str(k): v for k, v in sorted(reference.residuals.items())},
        "cross_check_g_plus_4": cross,
        "error": None,
    }
    if args.emit_spectra:
        report["spectra"] = _spectra_dict(adj_spec, None)
    _emit(report, args.table)
    if args.table:
        header = "k    " + "  ".join(f"{r:>10}" for r in results)
        print(header)
        for k in ks:
            row = f"{k:<4} " + "  ".join(
                f"{results[r].counts.get(k, '-')!s:>10}" for r in results)
            print(row)
    return EXIT_OK if agreement else EXIT_DISAGREE


def cmd_bench(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",") if s]
    d_v, d_c = args.dv, args.dc
    print("n,m,edges,t_transfer_ms,t_direct_ms")
    for n in sizes:
        if (n * d_v) % d_c:
            raise RouteInapplicableError(
                f"infeasible family member: {n}*{d_v} not divisible by {d_c}")
        m = n * d_v // d_c
        g = random_biregular(n, m, d_v, d_c, seed=args.seed)
        prof = profile(g)

        if _transfer_applicable(prof):
            t0 = time.perf_counter()
            spec = adjacency_spectrum(g, dense_cap=10 ** 9)
            params = TransferParameters.from_graph(g, spec, prof)
            derive_edge_spectrum(spec, params)
            t_transfer = f"{(time.perf_counter() - t0) * 1e3:.3f}"
        else:
            t_transfer = "n/a"

        t0 = time.perf_counter()
        edge_spectrum_direct(g, dense_cap=10 ** 9)
        t_direct = f"{(time.perf_counter() - t0) * 1e3:.3f}"
        print(f"{n},{m},{g.edge_count},{t_transfer},{t_direct}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="girthspec",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--input", required=True, help="graph file path")
        p.add_argument("--format", choices=["alist", "edgelist", "auto"],
                       default="auto")
        p.add_argument("--max-k", type=int, default=None, dest="max_k")
        p.add_argument("--zero-tol", type=float, default=None, dest="zero_tol")
        p.add_argument("--cluster-tol", type=float, default=None,
                       dest="cluster_tol")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--emit-spectra", action="store_true")
        p.add_argument("--force", action="store_true",
                       help="lift dense/enumeration size caps")
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--json", dest="table", action="store_false",
                         default=False)
        fmt.add_argument("--table", dest="table", action="store_true")

    p_count = sub.add_parser("count", help="count short cycles via one route")
    add_common(p_count)
    p_count.add_argument("--route",
                         choices=["auto", "transfer", "trace", "direct", "brute"],
                         default="auto")
    p_count.set_defaults(func=cmd_count)

    p_verify = sub.add_parser("verify",
                              help="run all applicable routes and compare")
    add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench",
                             help="time transfer vs direct on a random family")
    p_bench.add_argument("--dv", type=int, required=True)
    p_bench.add_argument("--dc", type=int, required=True)
    p_bench.add_argument("--sizes", required=True,
                         help="comma-separated left-side sizes")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        if hasattr(args, "format"):
            return _error_report(args, EXIT_IO, str(exc))
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NumericalError as exc:
        if hasattr(args, "format"):
            return _error_report(args, EXIT_NUMERICAL, str(exc))
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except RouteInapplicableError as exc:
        if hasattr(args, "format"):
            return _error_report(args, EXIT_INAPPLICABLE, str(exc))
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INAPPLICABLE
    except GirthspecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
