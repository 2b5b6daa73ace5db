import math
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings

from girthspec import (
    BipartiteGraph,
    NumericalError,
    SizeCapError,
    adjacency_spectrum,
    complete_bipartite,
    even_cycle,
    rank_of_biadjacency,
    random_biregular,
    tesseract,
)
from girthspec import spectra
from girthspec.spectra import RANK_PRIMES

from conftest import adjacency_matrix, bipartite_graphs, random_bipartite


def as_multiset(spec, digits=6):
    return sorted((round(v, digits), m) for v, m in spec.eigenvalues)


def eigvalsh_clusters(g):
    """Reference: eigvalsh of the dense adjacency matrix, clustered by gaps
    above the default cluster tolerance, in decreasing order."""
    raw = np.sort(np.linalg.eigvalsh(adjacency_matrix(g)))[::-1]
    tol = max(1e-8, 1e-10 * float(np.abs(raw).max()))
    groups = [[raw[0]]]
    for v in raw[1:]:
        if groups[-1][-1] - v > tol:
            groups.append([])
        groups[-1].append(v)
    return [(float(np.mean(c)), len(c)) for c in groups]


def qc_array(p, j, k):
    """Array code: a j x k grid of p x p circulant permutations P^(r*c)."""
    return BipartiteGraph.from_edges(
        k * p, j * p, [(c * p + (i + r * c) % p, r * p + i)
                       for r in range(j) for c in range(k) for i in range(p)])


class TestAdjacencySpectrum:
    @pytest.mark.parametrize("m,n", [(2, 2), (3, 4), (5, 2), (7, 7)])
    def test_complete_bipartite(self, m, n):
        spec = adjacency_spectrum(complete_bipartite(m, n))
        root = round(math.sqrt(m * n), 6)
        assert as_multiset(spec) == sorted([(root, 1), (-root, 1), (0.0, m + n - 2)])
        assert spec.rank == 2
        assert spec.nullity == m + n - 2

    def test_tesseract(self):
        spec = adjacency_spectrum(tesseract())
        assert as_multiset(spec) == sorted(
            [(-4.0, 1), (-2.0, 4), (0.0, 6), (2.0, 4), (4.0, 1)])
        assert spec.rank == 10 and spec.nullity == 6

    def test_four_cycle_hand_values(self):
        # 4x4 matrix of the 4-cycle decomposes to {-2, 0, 0, 2} by hand
        spec = adjacency_spectrum(even_cycle(4))
        assert as_multiset(spec) == sorted([(-2.0, 1), (0.0, 2), (2.0, 1)])

    def test_largest_eigenvalue_biregular(self):
        g = random_biregular(8, 6, 3, 4, seed=2)
        spec = adjacency_spectrum(g)
        top_value, top_mult = spec.eigenvalues[0]
        assert top_mult == 1
        assert top_value == pytest.approx(math.sqrt(3 * 4), abs=1e-9)

    def test_dense_cap(self):
        with pytest.raises(SizeCapError):
            adjacency_spectrum(complete_bipartite(3, 3), dense_cap=4)

    def test_multiplicities_sum_to_node_count(self):
        rng = random.Random(0)
        for _ in range(20):
            g = random_bipartite(rng)
            spec = adjacency_spectrum(g)
            assert spec.total == g.node_count
            assert spec.rank + spec.nullity == g.node_count

    def test_trace_invariants(self):
        rng = random.Random(1)
        for _ in range(20):
            g = random_bipartite(rng)
            spec = adjacency_spectrum(g)
            assert abs(spec.power_sum(1)) < 1e-6 * g.node_count
            assert abs(spec.power_sum(2) - 2 * g.edge_count) < 1e-6 * max(1, g.edge_count)

    def test_values_strictly_decreasing(self):
        spec = adjacency_spectrum(tesseract())
        values = [v for v, _ in spec.eigenvalues]
        assert values == sorted(values, reverse=True)

    def test_symmetric_about_origin(self):
        rng = random.Random(2)
        for _ in range(20):
            g = random_bipartite(rng)
            pairs = dict(adjacency_spectrum(g).eigenvalues)
            for v, m in pairs.items():
                match = [mm for vv, mm in pairs.items() if abs(vv + v) < 1e-6]
                assert match == [m]

    @given(bipartite_graphs())
    @example(complete_bipartite(1, 1))
    @example(complete_bipartite(6, 4))  # Rank(D) = 1
    @example(BipartiteGraph.from_edges(  # 6-cycle + 4-cycle, isolated nodes
        6, 6, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 0),
               (3, 3), (3, 4), (4, 3), (4, 4)]))
    @settings(max_examples=150, deadline=None)
    def test_equals_clustered_eigvalsh(self, g):
        spec = adjacency_spectrum(g)
        expect = eigvalsh_clusters(g)
        assert [m for _, m in spec.eigenvalues] == [m for _, m in expect]
        for (v, _), (ref, _) in zip(spec.eigenvalues, expect):
            assert v == pytest.approx(ref, abs=1e-9)
        assert spec.total == g.node_count
        assert spec.rank == 2 * rank_of_biadjacency(g)

    def test_rank_mismatch_fails_with_numbers(self, monkeypatch):
        # tesseract: singular values of D are 4, 2 (x4), 0 (x3); an audit
        # that over-counts by one disagrees with the 5 above the tolerance
        exact = spectra._rank_mod_p
        monkeypatch.setattr(spectra, "_rank_mod_p",
                            lambda rows, p: exact(rows, p) + 1)
        with pytest.raises(NumericalError) as err:
            adjacency_spectrum(tesseract())
        message = str(err.value)
        tol = re.search(r"5 singular values of D exceed zero_tolerance = "
                        r"([0-9.e+-]+) but D has exact rank 6", message)
        assert float(tol.group(1)) == pytest.approx(4e-7)  # 1e-7 * sigma_max
        below = re.search(r"at or below the tolerance: ([0-9.e+-]+)", message)
        above = re.search(r"smallest above: ([0-9.e+-]+)", message)
        assert abs(float(below.group(1))) < 1e-12
        assert float(above.group(1)) == pytest.approx(2.0, abs=1e-9)
        assert not message.endswith("tolerances")

    def test_second_prime_retries_an_undercount(self, monkeypatch):
        exact = spectra._rank_mod_p
        primes = []

        def first_prime_undercounts(rows, p):
            primes.append(p)
            return exact(rows, p) - (p == RANK_PRIMES[0])

        monkeypatch.setattr(spectra, "_rank_mod_p", first_prime_undercounts)
        spec = adjacency_spectrum(tesseract())
        assert spec.rank == 10 and spec.nullity == 6
        assert primes == list(RANK_PRIMES)

    def test_undercount_at_both_primes_fails(self, monkeypatch):
        exact = spectra._rank_mod_p
        monkeypatch.setattr(spectra, "_rank_mod_p",
                            lambda rows, p: exact(rows, p) - 1)
        with pytest.raises(NumericalError, match="exact rank 4"):
            adjacency_spectrum(tesseract())


class TestRankOfBiadjacency:
    def test_complete_bipartite(self):
        assert rank_of_biadjacency(complete_bipartite(5, 3)) == 1

    def test_tesseract(self):
        assert rank_of_biadjacency(tesseract()) == 5

    def test_perfect_matching(self):
        g = BipartiteGraph.from_edges(3, 3, [(0, 0), (1, 1), (2, 2)])
        assert rank_of_biadjacency(g) == 3

    def test_agrees_with_eigenvalue_rank(self):
        rng = random.Random(3)
        for _ in range(30):
            g = random_bipartite(rng)
            spec = adjacency_spectrum(g)
            assert spec.rank == 2 * rank_of_biadjacency(g)


    def test_six_cycle_needs_a_large_field(self):
        # rank 3 over Q; over GF(2) the three rows of D sum to zero
        g = even_cycle(6)
        assert rank_of_biadjacency(g) == 3
        rows = [{w: 1 for u, w in sorted(g.edges) if u == i} for i in range(3)]
        assert spectra._rank_mod_p(rows, 2) == 2

    @pytest.mark.parametrize("p", [7, 11, 13, 17])
    @pytest.mark.parametrize("cost", [0, spectra._DICT_OVER_DENSE_COST])
    def test_array_codes(self, p, cost, monkeypatch):
        monkeypatch.setattr(spectra, "_DICT_OVER_DENSE_COST", cost)
        assert rank_of_biadjacency(qc_array(p, 3, 5)) == 3 * p - 2

    def test_repeated_row_is_rank_deficient(self):
        g = BipartiteGraph.from_edges(
            3, 4, [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 2), (2, 3)])
        assert rank_of_biadjacency(g) == 2

    @pytest.mark.parametrize("cost", [0, 10 ** 9])
    @given(g=bipartite_graphs())
    @settings(max_examples=60, deadline=None)
    def test_sparse_and_dense_elimination_match_float_rank(self, cost, g):
        # cost 0 never leaves the sparse phase; 10^9 goes dense at once
        d = np.zeros((g.left_count, g.right_count))
        for u, w in g.edges:
            d[u, w] = 1
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectra, "_DICT_OVER_DENSE_COST", cost)
            assert rank_of_biadjacency(g) == np.linalg.matrix_rank(d)

    def test_hybrid_elimination_on_random_biregular(self):
        g = random_biregular(120, 60, 5, 10, seed=3)
        d = np.zeros((120, 60))
        for u, w in g.edges:
            d[u, w] = 1
        assert rank_of_biadjacency(g) == np.linalg.matrix_rank(d)


def test_adjacency_matrix_structure():
    g = complete_bipartite(2, 3)
    a = adjacency_matrix(g)
    assert np.array_equal(a, a.T)
    assert np.all(a[:2, :2] == 0) and np.all(a[2:, 2:] == 0)
    assert a.sum() == 2 * g.edge_count
