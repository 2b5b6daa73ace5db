"""The benchmark's workloads: which graphs each one runs, and why.

Each op is one ``girthspec`` CLI call on one generated graph file. A
workload's graphs are fixed structures (see graphs.py); the run seed
relabels them. The setup graph is the small graph of the workload's kind
whose cold op ``setup_s`` times in a fresh interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from graphs import (Graph, biregular_girth6, config_model, qc_array, write_alist,
                    write_edge_list)

IRREGULAR_DEGREES = (2, 3, 4, 8)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str            # girthspec subcommand: "count" or "verify"
    suffix: str             # input file format: ".el" or ".alist"
    graphs: Callable[[], list[Graph]]
    setup_graph: Callable[[], Graph]

    def write(self, graph: Graph, path) -> None:
        """Write ``graph`` in this workload's input format."""
        writer = write_alist if self.suffix == ".alist" else write_edge_list
        writer(graph, path)


def _verify_batch() -> list[Graph]:
    out: list[Graph] = []
    # bi-regular, girth >= 6, |E| <= 200: transfer, trace, direct and brute
    # all run, plus the N_{g+4} cross-check
    for s in range(18):
        out += [biregular_girth6(30, 20, 2, 3, s), biregular_girth6(36, 24, 2, 3, s)]
    for s in range(9):
        out += [biregular_girth6(48, 32, 2, 3, s), biregular_girth6(40, 20, 2, 4, s)]
    out += [qc_array(p, 3, k) for p, k in
            ((7, 3), (7, 4), (7, 5), (11, 3), (11, 4), (11, 5), (13, 3), (13, 4))]
    # irregular, girth 4: trace, direct, and brute while |E| <= 200
    for s in range(10):
        out += [config_model(n, IRREGULAR_DEGREES, 6, s) for n in (16, 24, 32, 48)]
    out += [config_model(80, IRREGULAR_DEGREES, 6, s) for s in range(2)]
    # quasi-cyclic, p <= 31: direct up to 2|E| = 1116, no brute
    out += [qc_array(p, 3, k) for p, k in ((17, 4), (19, 5), (23, 5), (31, 6))]
    # Op costs come in clusters, and a percentile that falls in the gap
    # between two clusters jumps between runs. The small bi-regular graphs
    # put op_s.p50 inside the cluster of the nine (2,4) graphs; the six
    # heaviest ops (p = 31, 23, 19, p = 11 k = 5, irregular n = 80) are
    # under 6 % of the batch, so op_s.p90 falls among a dozen ops of similar
    # cost (irregular n = 48, p = 7..17).
    return out


WORKLOADS = {w.name: w for w in (
    Workload(
        name="transfer-qc",
        why=("count (auto -> transfer) on a (3,6) array code, p = 293, "
             "|V| = 2637, |E| = 5274, girth 6, k = 6..10: the adjacency "
             "eigensolve and rank audit (spectra) are almost all of the op; "
             "the edge matrix is never built"),
        command="count", suffix=".el",
        graphs=lambda: [qc_array(293, 3, 6)],
        setup_graph=lambda: qc_array(31, 3, 6)),
    Workload(
        name="trace-irregular",
        why=("count (auto -> trace) on an irregular configuration model read "
             "as alist, variable degrees {2,3,4,8}, check degree 6, "
             "|E| = 6803, girth 4, k = 4..6: sparse trace powers of the edge "
             "matrix are almost all of the op and set peak memory; spectra "
             "is idle"),
        command="count", suffix=".alist",
        graphs=lambda: [config_model(1600, IRREGULAR_DEGREES, 6, 0)],
        setup_graph=lambda: config_model(200, IRREGULAR_DEGREES, 6, 0)),
    Workload(
        name="verify-batch",
        why=("verify over 108 small and mid graphs (bi-regular girth 6 with "
             "brute, irregular girth 4, array codes p <= 31 with direct): "
             "the median op is small, so per-call cost (CLI, profile, "
             "parse, JSON) shows in op_s.p50 and ops_per_s; dense direct "
             "eigensolves are most of wall_s and set op_s.p90"),
        command="verify", suffix=".el",
        graphs=_verify_batch,
        setup_graph=lambda: qc_array(7, 3, 4)),
)}
