#!/usr/bin/env python3
"""Freeze the reference counts the benchmark checks every op against.

    python3 perfbench/freeze.py

For every graph of every workload, and each workload's setup graph, this
runs the workload's op (``count`` or ``verify``) through the package's CLI,
with the benchmark's BLAS setting, on relabelled copies for seeds
0 .. FREEZE_SEEDS - 1. It also computes the counts independently of the
package: exact traces of the non-backtracking matrix built here, in blocks
of columns. Every run must exit 0 and all counts must agree; the result
is written to references.json. Run it only on a commit whose counts are
trusted, so that no later change can move a route and its reference
together.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from graphs import Graph, girth, relabel
from run import pin_blas_threads
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

FREEZE_SEEDS = 10


def nonbacktracking_counts(g: Graph) -> dict[str, int]:
    """N_k = tr(B^k) / 2k for even k in [girth, 2 girth - 2], B the 2|E|
    x 2|E| non-backtracking matrix, in exact int64 arithmetic."""
    import numpy as np
    import scipy.sparse as sp

    gi = girth(g)
    max_k = 2 * gi - 2
    e = len(g.edges)
    # arc i runs variable -> check along edge i, arc e + i runs back
    tail = np.array([u for u, _ in g.edges] + [g.n + w for _, w in g.edges])
    head = np.concatenate([tail[e:], tail[:e]])
    by_tail: dict[int, list[int]] = {}
    for arc, t in enumerate(tail):
        by_tail.setdefault(int(t), []).append(arc)
    rows, cols = [], []
    for arc in range(2 * e):
        inverse = (arc + e) % (2 * e)
        for nxt in by_tail[int(head[arc])]:
            if nxt != inverse:
                rows.append(arc)
                cols.append(nxt)
    b = sp.csr_matrix((np.ones(len(rows), dtype=np.int64), (rows, cols)),
                      shape=(2 * e, 2 * e))
    max_out = int(np.diff(b.indptr).max())
    if max_out ** max_k >= 2 ** 62:
        raise OverflowError("walk counts could overflow int64")
    traces = [0] * (max_k + 1)
    for start in range(0, 2 * e, 512):
        block = np.arange(start, min(start + 512, 2 * e))
        x = b[:, block].toarray()
        for k in range(1, max_k + 1):
            if k > 1:
                x = b @ x
            traces[k] += int(x[block, block - start].sum())
    counts = {}
    for k in range(gi, max_k + 1, 2):
        if traces[k] % (2 * k):
            raise ArithmeticError(f"tr(B^{k}) = {traces[k]} not divisible by {2 * k}")
        counts[str(k)] = traces[k] // (2 * k)
    return counts


def program_counts(cli, workload, g: Graph, seed: int, directory: Path) -> dict:
    path = directory / f"{g.name}-{seed}{workload.suffix}"
    workload.write(relabel(g, f"freeze/{seed}"), path)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main([workload.command, "--input", str(path)])
    if rc != 0:
        raise SystemExit(f"{workload.name} {g.name} seed {seed}: exit {rc}\n"
                         f"{buf.getvalue()}")
    return json.loads(buf.getvalue())["counts"]


def main() -> int:
    pin_blas_threads()  # the benchmark's setting, before numpy loads
    sys.path.insert(0, str(SRC))
    import girthspec.cli as cli

    references = {}
    work = HERE / ".work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        for workload in WORKLOADS.values():
            for g in [*workload.graphs(), workload.setup_graph()]:
                exact = nonbacktracking_counts(g)
                for seed in range(FREEZE_SEEDS):
                    got = program_counts(cli, workload, g, seed, Path(tmp))
                    if got != exact:
                        raise SystemExit(f"{g.name} seed {seed}: program {got}, "
                                         f"independent {exact}")
                ref = {"counts": exact, "nodes": g.n + g.m, "edges": len(g.edges),
                       "girth": girth(g)}
                if references.setdefault(g.name, ref) != ref:
                    raise SystemExit(f"{g.name} frozen twice with different counts")
                print(g.name, exact, file=sys.stderr)
    out = {"seeds_checked": FREEZE_SEEDS, "graphs": references}
    (HERE / "references.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
