"""Command-line front end: count and verify subcommands.

JSON output follows the stable "girthspec/1" schema. Exit codes:
0 ok, 1 verification disagreement, 2 route inapplicable, 3 numerical
failure, 4 I/O or parse error or out of memory, 141 (128 + SIGPIPE)
stdout closed before the whole report was written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import suppress

from .counts import CycleCounts, cycle_window_end
from .cycle_count import (
    DEFAULT_BRUTE_CAP,
    brute_force_counts,
    counts_from_spectrum,
    g_plus_4_cross_check,
)
from .edge_matrix import (
    DEFAULT_DIRECT_CAP,
    EdgeSpectrum,
    edge_spectrum_direct,
    trace_power_counts,
)
from .errors import (
    GirthspecError,
    NumericalError,
    ParseError,
    RouteInapplicableError,
)
from .graph_core import BipartiteGraph, girth, profile
from .graph_io import parse_alist, parse_edge_list
from .spectra import DEFAULT_DENSE_CAP, AdjacencySpectrum, adjacency_spectrum
from .spectral_transfer import (
    TransferParameters,
    derive_edge_spectrum,
    transfer_counts,
)

EXIT_OK = 0
EXIT_DISAGREE = 1
EXIT_INAPPLICABLE = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4
EXIT_PIPE = 141

SCHEMA = "girthspec/1"

# Checked in this order; other GirthspecErrors exit with EXIT_IO.
EXIT_CODES = ((ParseError, EXIT_IO), (NumericalError, EXIT_NUMERICAL),
              (RouteInapplicableError, EXIT_INAPPLICABLE))


def input_format(path: str, fmt: str) -> str:
    """The format ``path`` is read in: ``fmt``, auto by the extension."""
    if fmt == "auto":
        return "alist" if path.endswith(".alist") else "edgelist"
    return fmt


def load_graph(path: str, fmt: str) -> BipartiteGraph:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    alist = input_format(path, fmt) == "alist"
    return (parse_alist if alist else parse_edge_list)(data)


def _spectra_dict(adj_spec, edge_spec) -> dict:
    out = {}
    if adj_spec is not None:
        out["adjacency"] = [{"value": v, "mult": m} for v, m in adj_spec.eigenvalues]
    if edge_spec is not None:
        out["edge"] = [{"re": v.real, "im": v.imag, "mult": m}
                       for v, m in edge_spec.eigenvalues]
    return out


def transfer_spectra(g: BipartiteGraph, *,
                     dense_cap: int = DEFAULT_DENSE_CAP,
                     ) -> tuple[AdjacencySpectrum, EdgeSpectrum]:
    """Adjacency and edge spectra by the transfer; a graph outside its hypothesis
    is refused before any eigenvalue work. Layers are called by this module's
    names, so patching them here sees every call."""
    params = TransferParameters.from_graph(g)
    spec = adjacency_spectrum(g, dense_cap=dense_cap)
    return spec, derive_edge_spectrum(spec, params)


def _cap(args, cap: int) -> int:
    """A route's size cap, lifted by --force."""
    return 10 ** 9 if args.force else cap


def _run_transfer(g, args):
    """Exact counts; for --emit-spectra and verify the float spectra too."""
    cc = transfer_counts(g, args.max_k)
    if not (args.emit_spectra or args.command == "verify"):
        return cc, {}
    try:
        spec, es = transfer_spectra(g, dense_cap=_cap(args, DEFAULT_DENSE_CAP))
    except RouteInapplicableError as exc:
        return cc, {"float_transfer_refused": str(exc)}
    floats = counts_from_spectrum(es, cc.girth, args.max_k)
    for k, exact in cc.counts.items():
        if floats.counts[k] != exact:
            raise NumericalError(f"N_{k}: float transfer gives "
                                 f"{floats.counts[k]}, exact transfer {exact}")
    return floats, {"adjacency": spec, "edge": es}


def _run_trace(g, args):
    return trace_power_counts(g, args.max_k), {}


def _run_direct(g, args):
    cycle_window_end(girth(g), args.max_k)  # before the eigensolve
    es = edge_spectrum_direct(g, dense_cap=_cap(args, DEFAULT_DIRECT_CAP))
    return counts_from_spectrum(es, girth(g), args.max_k), {"edge": es}


def _run_brute(g, args):
    max_k = (cycle_window_end(girth(g), None) if args.max_k is None
             else args.max_k)
    return brute_force_counts(g, max_k, _cap(args, DEFAULT_BRUTE_CAP)), {}


# name -> run(g, args) -> (CycleCounts, spectra). A route that cannot
# take a graph raises RouteInapplicableError before any work, bar an
# invalid window on transfer and trace: they read the girth off their own
# chains and refuse at level g/2, while direct and brute read girth(g),
# the walk. Table order is the order verify runs the routes in; the first
# route that runs is its reference.
ROUTES = {"transfer": _run_transfer, "trace": _run_trace,
          "direct": _run_direct, "brute": _run_brute}


def _emit(report: dict, as_table: bool) -> None:
    if as_table:
        print(f"input: {report['input']['path']} ({report['input']['format']})")
        if report["error"]:
            print(f"error: {report['error']['message']}")
            return
        print("  ".join(f"{k}={v}" for k, v in report["profile"].items()))
        for k, v in sorted(report["counts"].items(), key=lambda t: int(t[0])):
            print(f"N_{k} = {v}")
        for r in report["routes"]:
            print(f"route {r['name']}: {r['ms']:.2f} ms")
    else:
        print(json.dumps(report, indent=2, sort_keys=True))


def _timed(route: str, g: BipartiteGraph, args):
    """Run one route: its counts, its spectra and its "routes" entry."""
    t0 = time.perf_counter()
    cc, spectra = ROUTES[route](g, args)
    return cc, spectra, {"name": route, "ms": (time.perf_counter() - t0) * 1e3}


def _report(args, g: BipartiteGraph, timings: list[dict],
            cc: CycleCounts, diffs: dict, extras: dict) -> dict:
    prof = profile(g)
    return {
        "schema": SCHEMA,
        "input": {"path": args.input,
                  "format": input_format(args.input, args.format)},
        "profile": {
            "n": g.left_count,
            "m": g.right_count,
            "edges": g.edge_count,
            "d_v": prof.d_v,
            "d_c": prof.d_c,
            "girth": cc.girth,
            "connected": prof.is_connected,
            "biregular": prof.is_biregular,
        },
        "routes": timings,
        "counts": {str(k): v for k, v in sorted(cc.counts.items())},
        "agreement": {"ok": not diffs, "diffs": diffs},
        "residuals": {str(k): v for k, v in sorted(cc.residuals.items())},
        "error": None,
        **{k: v for k, v in extras.items() if k == "float_transfer_refused"},
    }


def cmd_count(args) -> int:
    g = load_graph(args.input, args.format)
    route = "transfer" if args.route == "auto" else args.route
    try:
        cc, spectra, timing = _timed(route, g, args)
    except RouteInapplicableError:
        if args.route != "auto":
            raise
        cc, spectra, timing = _timed("trace", g, args)
    report = _report(args, g, [timing], cc, {}, spectra)
    if args.emit_spectra:
        report["spectra"] = _spectra_dict(spectra.get("adjacency"),
                                          spectra.get("edge"))
    _emit(report, args.table)
    return EXIT_OK


def cmd_verify(args) -> int:
    g = load_graph(args.input, args.format)
    # up front, so that a refusal below is the route's own: brute has no
    # window and would otherwise count alone
    walked = girth(g)
    cycle_window_end(walked, args.max_k)
    results: dict[str, CycleCounts] = {}
    timings = []
    extras: dict = {}  # what the routes gave besides counts
    for route in ROUTES:
        try:
            results[route], spectra, timing = _timed(route, g, args)
        except RouteInapplicableError:
            continue
        timings.append(timing)
        extras |= spectra

    ks = sorted(set().union(*(cc.counts for cc in results.values())))
    diffs: dict[str, dict[str, int]] = {}
    # transfer and trace read their girth off their chains, the rest the walk's
    girths = {r: cc.girth for r, cc in results.items()}
    if set(girths.values()) != {walked}:
        diffs["girth"] = {"walk": walked, **girths}
    reference = next(iter(results.values()))
    for k in ks:
        values = {r: cc.counts.get(k) for r, cc in results.items()}
        if len(set(values.values())) > 1:
            diffs[str(k)] = values

    cross = None
    if "adjacency" in extras:
        with suppress(RouteInapplicableError):  # null when it refuses
            cross = g_plus_4_cross_check(g, extras["adjacency"], reference)
    spectral = reference.counts.get(walked + 4)
    if None not in (cross, spectral) and cross != spectral:
        diffs[str(walked + 4)] = {"tree_walk_cross_check": cross,
                                  "spectral": spectral}

    report = _report(args, g, timings, reference, diffs, extras)
    report["cross_check_g_plus_4"] = cross
    if args.emit_spectra:
        report["spectra"] = _spectra_dict(extras.get("adjacency"), None)
    _emit(report, args.table)
    if args.table:
        print("k    " + "  ".join(f"{r:>10}" for r in results))
        for k in ks:
            print(f"{k:<4} " + "  ".join(
                f"{results[r].counts.get(k, '-')!s:>10}" for r in results))
    return EXIT_DISAGREE if diffs else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="girthspec",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--input", required=True, help="graph file path")
        p.add_argument("--format", choices=["alist", "edgelist", "auto"],
                       default="auto")
        p.add_argument("--max-k", type=int, default=None, dest="max_k")
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
                         choices=["auto", *ROUTES],
                         default="auto")
    p_count.set_defaults(func=cmd_count)

    p_verify = sub.add_parser("verify",
                              help="run all applicable routes and compare")
    add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    return parser


# built once per process: parse_args leaves the parser as it was
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()  # so that a closed reader shows here
    except BrokenPipeError:
        # the reader closed stdout early: point stdout at os.devnull, so
        # that the flush at exit cannot fail too, and exit as SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    return code


def _run(args) -> int:
    """The subcommand's exit code, with its error reported as the code."""
    try:
        return args.func(args)
    except GirthspecError as exc:
        code = next((c for kind, c in EXIT_CODES if isinstance(exc, kind)), None)
        message = str(exc)
    except MemoryError as exc:  # an allocation the input asked for failed
        code, message = EXIT_IO, f"out of memory: {exc}"
    if code is None or not hasattr(args, "format"):
        print(f"error: {message}", file=sys.stderr)
        return EXIT_IO if code is None else code
    _emit({"schema": SCHEMA,
           "input": {"path": args.input,
                     "format": input_format(args.input, args.format)},
           "error": {"code": code, "message": message}}, args.table)
    return code


if __name__ == "__main__":
    sys.exit(main())
