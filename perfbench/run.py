#!/usr/bin/env python3
"""End-to-end benchmark of the girthspec CLI, with an optional traced pass.

    python3 perfbench/run.py --workload transfer-qc --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory. Each op calls ``girthspec.cli.main(argv)`` in this
long-lived process (the console script's own code path) on a generated
graph file, captures stdout, and checks the JSON counts and the exit code
against the frozen references in references.json. One client issues ops
in sequence (closed loop). The first pass is a discarded warm-up; cold
cost is measured only in ``setup_s``, in fresh interpreters started
between the warm passes, so that they sample the same stretch of time.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes (see tracing.py) and prints per-layer self
time and call counts per op, plus the tracing overhead. The last stdout
line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

from graphs import relabel
from tracing import COUNTED, LAYER_TARGETS, ROOT_SPAN, Tracer, patched
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPS = 7

# One cold op in a fresh interpreter, timed from the package import.
SETUP_CHILD = """
import contextlib, io, json, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import girthspec.cli
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    rc = girthspec.cli.main(sys.argv[2:])
seconds = time.perf_counter() - t0
print(json.dumps({"rc": rc, "seconds": seconds, "stdout": buf.getvalue()}))
"""


def pin_blas_threads() -> None:
    """Run BLAS/OpenMP on one thread, for this process and its children.

    On a small shared host, two BLAS threads make each op wait for the
    slower core, and run-to-run spread doubles; one thread measures the
    algorithms' work steadily. Must run before numpy is imported.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def machine_info() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


class Checker:
    """Counts attempted and failed ops; an op fails on a non-zero exit,
    unreadable output or counts that differ from the reference."""

    def __init__(self, references: dict) -> None:
        self.references = references
        self.attempted = 0
        self.failed = 0

    def check(self, name: str, rc, stdout: str) -> dict | None:
        self.attempted += 1
        try:
            report = json.loads(stdout)
        except ValueError:
            report = None
        expected = self.references[name]["counts"]
        if rc != 0 or report is None or report.get("counts") != expected:
            self.failed += 1
            got = report.get("counts") if report else stdout[-500:]
            print(f"FAIL {name}: exit {rc}, counts {got}, expected {expected}",
                  file=sys.stderr)
            return None
        return report


def run_op(cli, argv: list[str]) -> tuple[float, object, str]:
    """One CLI call in this process: (seconds, exit code, stdout)."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except Exception:  # an op that crashes counts as failed; keep running
        traceback.print_exc()
        rc = "exception"
    return time.perf_counter() - t0, rc, buf.getvalue()


def write_inputs(workload, seed: int, directory: Path) -> list[tuple[str, list[str]]]:
    ops = []
    for index, graph in enumerate(workload.graphs()):
        path = directory / f"{index:03d}-{graph.name}{workload.suffix}"
        workload.write(relabel(graph, f"{seed}/{index}"), path)
        ops.append((graph.name, [workload.command, "--input", str(path)]))
    return ops


def write_setup_input(workload, seed: int, directory: Path) -> tuple[str, list[str]]:
    """The cold op ``setup_s`` times: the workload's op on its small graph."""
    graph = workload.setup_graph()
    path = directory / f"setup-{graph.name}{workload.suffix}"
    workload.write(relabel(graph, f"{seed}/setup"), path)
    return graph.name, [workload.command, "--input", str(path)]


def time_cold_op(name: str, argv: list[str], checker: Checker) -> float:
    """Seconds from ``import girthspec.cli`` to the end of one cold op, in a
    fresh interpreter."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC), *argv],
                              cwd=ROOT, capture_output=True, text=True, timeout=60)
        child = json.loads(proc.stdout.splitlines()[-1])
    except (subprocess.TimeoutExpired, IndexError, ValueError) as exc:
        # a failed child still took its time; the check records the failure
        child = {"rc": repr(exc), "stdout": "", "seconds": time.perf_counter() - t0}
    checker.check(name, child["rc"], child["stdout"])
    return child["seconds"]


def run_pass(cli, ops, checker: Checker, tracer=None) -> list[float]:
    """One pass over ``ops``: the program time of each op. The benchmark's
    own parsing and checking sit outside the timings."""
    op_times = []
    for name, argv in ops:
        if tracer is None:
            dt, rc, out = run_op(cli, argv)
        else:
            tracer.op += 1
            with tracer.span(ROOT_SPAN):
                dt, rc, out = run_op(cli, argv)
        checker.check(name, rc, out)
        op_times.append(dt)
    return op_times


def describe(reports: list[dict]) -> dict:
    """Exact input descriptors from the program's own JSON reports."""
    def one_or_histogram(values):
        distinct = Counter(values)
        if len(distinct) == 1:
            return values[0]
        return {str(k): v for k, v in sorted(distinct.items(), key=str)}

    return {
        "input.graphs": len(reports),
        "input.nodes": sum(r["profile"]["n"] + r["profile"]["m"] for r in reports),
        "input.edges": sum(r["profile"]["edges"] for r in reports),
        "input.arcs": sum(2 * r["profile"]["edges"] for r in reports),
        "input.girth": one_or_histogram([r["profile"]["girth"] for r in reports]),
        "input.kmax": one_or_histogram([max(map(int, r["counts"])) for r in reports]),
        "input.route": one_or_histogram(
            ["+".join(x["name"] for x in r["routes"]) for r in reports]),
    }


def end_to_end_metrics(pass_times, op_times, setup_times) -> dict:
    return {
        "wall_s": (statistics.median(pass_times), "s"),
        "op_s.p50": (statistics.median(op_times), "s"),
        "op_s.p90": (statistics.quantiles(op_times, n=10, method="inclusive")[8], "s"),
        "ops_per_s": (len(op_times) / sum(op_times), "1/s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def layer_metrics(tracer, missing, traced_passes, untraced_passes) -> dict:
    ops = tracer.op
    self_times = tracer.self_times()
    calls = tracer.calls()
    metrics = {}
    for metric in [ROOT_SPAN, *LAYER_TARGETS]:
        if metric in missing:
            continue
        metrics[metric] = (self_times.get(metric, 0.0) / ops, "s")
        if metric in COUNTED:
            metrics[COUNTED[metric]] = (calls[metric] / ops, "count")
    # each traced pass against the untraced pass just before it, so that
    # host drift between the two cancels
    metrics["trace.overhead_s"] = (statistics.median(
        t - u for t, u in zip(traced_passes, untraced_passes)), "s")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "girthspec" / "cli.py").is_file():
        print(f"error: no package source at {SRC / 'girthspec'}; run from a "
              "girthspec checkout", file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import girthspec.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "girthspec":
        print(f"error: imported girthspec from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    references = json.loads((HERE / "references.json").read_text())["graphs"]
    checker = Checker(references)
    work = HERE / ".work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        directory = Path(tmp)
        ops = write_inputs(workload, args.seed, directory)

        warmup = []
        for name, argv in ops:
            _, rc, out = run_op(cli, argv)
            report = checker.check(name, rc, out)
            if report is not None:
                warmup.append(report)

        # whole passes until --seconds have elapsed, at least two
        start = time.perf_counter()
        if args.trace:
            # untraced and traced passes alternate, so drift hits both alike
            tracer = Tracer()
            untraced, traced = [], []
            while len(traced) < 2 or time.perf_counter() - start < args.seconds:
                untraced.append(sum(run_pass(cli, ops, checker)))
                with patched(tracer) as missing:
                    traced.append(sum(run_pass(cli, ops, checker, tracer)))
            metrics = layer_metrics(tracer, missing, traced, untraced)
            samples = {"traced_ops": tracer.op, "passes": 2 * len(traced),
                       "trace.missing": missing}
        else:
            # a cold op after each warm pass while SETUP_REPS are not yet
            # taken, the rest after the last pass
            setup_op = write_setup_input(workload, args.seed, directory)
            passes, setup_times = [], []
            while len(passes) < 2 or time.perf_counter() - start < args.seconds:
                passes.append(run_pass(cli, ops, checker))
                if len(setup_times) < SETUP_REPS:
                    setup_times.append(time_cold_op(*setup_op, checker))
            while len(setup_times) < SETUP_REPS:
                setup_times.append(time_cold_op(*setup_op, checker))
            op_times = [t for p in passes for t in p]
            metrics = end_to_end_metrics([sum(p) for p in passes], op_times,
                                         setup_times)
            samples = {"passes": len(passes), "ops": len(op_times),
                       "setup_reps": SETUP_REPS}

    fail_rate = checker.failed / checker.attempted
    info = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "loop": "closed, one client, ops in sequence",
        "samples": samples,
        "fail_rate": fail_rate,
        **(describe(warmup) if warmup else {}),
        "machine": machine_info(),
    }
    print(json.dumps(info, indent=1))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"fail_rate = {fail_rate:.6g} ({checker.failed}/{checker.attempted})")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
