"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

import random
import time

import pytest

from girthspec import (
    brute_force_counts,
    complete_bipartite,
    counts_from_spectrum,
    edge_spectrum_direct,
    g_plus_4_cross_check,
    multiset_matching_distance,
    profile,
    random_biregular,
    rank_of_biadjacency,
    tesseract,
    trace_power_counts,
    tree_walk_count,
)
from girthspec.cli import transfer_spectra

from conftest import biregular_girth6_graphs, random_bipartite, step_totals

RESIDUAL_TOL = 1e-4
MATCH_TOL = 1e-5
HYGIENE_RTOL = 1e-6


def announce(num: int, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def biregular_sample():
    """200 random connected bi-regular graphs with d_v in {2,3},
    d_c in {3,4,5,6}, |E| <= 300."""
    graphs = []
    combos = [(d_v, d_c) for d_v in (2, 3) for d_c in (3, 4, 5, 6)]
    seed = 0
    while len(graphs) < 200:
        d_v, d_c = combos[len(graphs) % len(combos)]
        t = 1 + (len(graphs) // len(combos)) % (300 // (d_v * d_c))
        n, m = d_c * t, d_v * t
        if d_v > m or d_c > n:
            seed += 1
            combos.append(combos.pop(0))
            continue
        graphs.append(random_biregular(n, m, d_v, d_c, seed=seed))
        seed += 1
    return graphs


def test_criterion_1_complete_bipartite_closed_forms():
    start = time.perf_counter()
    ok = True
    detail = ""
    for m in range(2, 8):
        for n in range(2, 8):
            g = complete_bipartite(m, n)
            n4 = (m - 1) * (n - 1) * m * n // 4
            n6 = m * (m - 1) * (m - 2) * n * (n - 1) * (n - 2) // 6
            if (m, n) == (2, 2):
                # degree 2 on both sides is outside the transfer hypothesis;
                # the trace route covers this one graph
                cc = trace_power_counts(g, max_k=6)
            else:
                _, es = transfer_spectra(g)
                cc = counts_from_spectrum(es, girth=4, max_k=6)
            brute = brute_force_counts(g, max_k=6)
            if cc.counts != {4: n4, 6: n6} or brute.counts != {4: n4, 6: n6}:
                ok = False
                detail = f"mismatch at K_{{{m},{n}}}"
            if any(r >= RESIDUAL_TOL for r in cc.residuals.values()):
                ok = False
                detail = f"residual too large at K_{{{m},{n}}}"
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        ok, detail = False, f"took {elapsed:.1f}s"
    announce(1, ok, detail or f"{elapsed:.2f}s")


def test_criterion_2_tesseract():
    start = time.perf_counter()
    g = tesseract()
    spec, es = transfer_spectra(g)
    direct = edge_spectrum_direct(g)
    dist = multiset_matching_distance(es, direct)
    cc = counts_from_spectrum(es, girth=4, max_k=4)
    elapsed = time.perf_counter() - start
    ok = (dist < MATCH_TOL and cc.counts[4] == 24
          and es.multiplicity_of(3.0) == 1 and es.multiplicity_of(-3.0) == 1
          and es.multiplicity_of(complex(0, 3 ** 0.5)) == 6
          and es.multiplicity_of(1.0) == 17
          and elapsed < 1.0)
    announce(2, ok, f"match distance {dist:.2e}, N_4={cc.counts[4]}, {elapsed:.2f}s")


def test_criterion_3_step_bookkeeping(biregular_sample):
    start = time.perf_counter()
    ok = True
    detail = ""
    for g in biregular_sample:
        prof = profile(g)
        spec, es = transfer_spectra(g)
        s1, s2, s3 = step_totals(es, prof)
        e, v = g.edge_count, g.node_count
        expect = (2 * v - 2 * spec.nullity - 2, 2 * spec.nullity, 2 * e - 2 * v + 2)
        if (s1, s2, s3) != expect or s1 + s2 + s3 != 2 * e:
            ok, detail = False, f"step totals {(s1, s2, s3)} != {expect}"
            break
        if any(not isinstance(m, int) or m <= 0 for _, m in es.eigenvalues):
            ok, detail = False, "non-integer multiplicity"
            break
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        ok, detail = False, f"took {elapsed:.1f}s"
    announce(3, ok, detail or f"{len(biregular_sample)} graphs, {elapsed:.1f}s")


def test_criterion_4_trace_equals_brute_on_irregular():
    start = time.perf_counter()
    rng = random.Random(2024)
    ok = True
    detail = ""
    checked = 0
    while checked < 100:
        g = random_bipartite(rng, max_side=7)
        if g.edge_count > 60:
            continue
        tr = trace_power_counts(g)
        br = brute_force_counts(g, max_k=max(tr.counts))
        if {k: br.counts[k] for k in tr.counts} != tr.counts:
            ok, detail = False, f"trace/brute mismatch on |E|={g.edge_count}"
            break
        checked += 1
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        ok, detail = False, f"took {elapsed:.1f}s"
    announce(4, ok, detail or f"{checked} graphs, {elapsed:.1f}s")


def test_criterion_5_appendix_facts(biregular_sample):
    ok = True
    detail = ""
    for g in biregular_sample[:60] + [tesseract(), complete_bipartite(3, 4)]:
        spec, es = transfer_spectra(g)
        if spec.rank != 2 * rank_of_biadjacency(g):
            ok, detail = False, "rank identity failed"
            break
        cyclomatic = g.edge_count - g.node_count + 1
        if es.multiplicity_of(1.0) != cyclomatic or \
                es.multiplicity_of(-1.0) != cyclomatic:
            ok, detail = False, "unit eigenvalue multiplicity != |E|-|V|+1"
            break
    announce(5, ok, detail)


def test_criterion_6_tree_walk_cross_check():
    start = time.perf_counter()
    ok = True
    detail = ""
    cases = biregular_girth6_graphs(20)
    for g, prof in cases:
        spec, es = transfer_spectra(g)
        cc = counts_from_spectrum(es, prof.girth)
        cross = g_plus_4_cross_check(g, spec, cc)
        if cross != cc.counts[prof.girth + 4]:
            ok, detail = False, f"cross-check {cross} != spectral"
            break
        # closed cycle-free walk counts validated by the trace identity
        for ell in range(2, prof.girth, 2):
            expect = (g.left_count * tree_walk_count(prof.d_v, prof.d_c, ell)
                      + g.right_count * tree_walk_count(prof.d_c, prof.d_v, ell))
            if round(spec.power_sum(ell)) != expect:
                ok, detail = False, f"tree-walk identity failed at length {ell}"
                break
    elapsed = time.perf_counter() - start
    if elapsed >= 120.0:
        ok, detail = False, f"took {elapsed:.1f}s"
    announce(6, ok, detail or f"{len(cases)} graphs, {elapsed:.1f}s")


def test_criterion_7_complexity_ladder():
    ratios = []
    for total_nodes in (96, 192, 384):
        m = total_nodes // 3
        n = 2 * m
        g = random_biregular(n, m, 3, 6, seed=7)
        profile(g)  # cached on g, so the timings leave it out

        t_transfer = min(_time_once(lambda: transfer_spectra(g))
                         for _ in range(3))
        t_direct = min(_time_once(lambda: edge_spectrum_direct(g, dense_cap=10 ** 9))
                       for _ in range(3))
        ratios.append(t_direct / t_transfer)
    ok = ratios[0] < ratios[1] < ratios[2]
    announce(7, ok, "ratios " + ", ".join(f"{r:.1f}" for r in ratios))


def _time_once(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_8_numerical_hygiene(biregular_sample):
    ok = True
    detail = ""
    sample = biregular_sample[:40] + [tesseract(), complete_bipartite(5, 6)]
    for g in sample:
        prof = profile(g)
        spec, es = transfer_spectra(g)
        scale = max(1.0, es.max_abs())
        for k in range(1, 2 * prof.girth, 2):
            if abs(es.power_sum(k)) > HYGIENE_RTOL * es.total * scale ** k:
                ok, detail = False, f"odd power sum leaked at k={k}"
                break
        cc = counts_from_spectrum(es, prof.girth)
        for k in range(prof.girth, 2 * prof.girth - 1, 2):
            s = es.power_sum(k)
            if abs(s.imag) > HYGIENE_RTOL * max(1.0, abs(s)):
                ok, detail = False, f"even power sum imaginary at k={k}"
                break
        if any(r >= RESIDUAL_TOL for r in cc.residuals.values()):
            ok, detail = False, "residual gate exceeded"
            break
    announce(8, ok, detail or f"{len(sample)} spectra checked")
