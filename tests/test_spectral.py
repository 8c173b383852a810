import logging
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from rewirebench import (InputError, RewireConfig, apply_rewiring,
                         build_graph, effective_resistance, heat_kernel,
                         pagerank_kernel, shift_operator, spectral_gap,
                         spectral_radius)

from rewirebench import spectral
from rewirebench.graph import connected_components
from rewirebench.spectral import (DENSE_GAP_ROWS, EXACT_SPARSE_RADIUS_ROWS,
                                  SCHUR_BLOCK_ENTRIES)

from conftest import (all_resistances, block_union, cheeger_bruteforce,
                      complete_graph, cycle_graph, laplacian_pseudoinverse,
                      path_graph, random_graph, sparse_random_graph)


def series_kernel(t_dense, coeffs):
    out = np.zeros_like(t_dense)
    power = np.eye(t_dense.shape[0])
    for c in coeffs:
        out += c * power
        power = power @ t_dense
    return out


def heat_coeffs(t, terms=60):
    return [math.exp(-t) * t ** m / math.factorial(m) for m in range(terms)]


def pagerank_coeffs(alpha, terms=200):
    return [alpha * (1 - alpha) ** m for m in range(terms)]


def reversed_rows(m):
    """A CSR copy of m with each row's stored entries in reverse order:
    every rewiring's operator is canonical, and this one is not."""
    rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
    order = np.lexsort((-np.arange(m.nnz), rows))
    return sp.csr_matrix((m.data[order], m.indices[order], m.indptr.copy()),
                         shape=m.shape)


class TestSpectralRadius:
    def test_identity(self):
        assert float(spectral_radius(np.eye(5))) == pytest.approx(1.0)

    def test_k2_adjacency(self):
        a = shift_operator(path_graph(2))
        assert float(spectral_radius(a)) == pytest.approx(1.0, abs=1e-8)

    def test_c4_adjacency(self):
        a = shift_operator(cycle_graph(4))
        assert float(spectral_radius(a)) == pytest.approx(2.0, abs=1e-8)

    def test_matches_dense_oracle(self, rng):
        for _ in range(10):
            g = random_graph(12, 0.4, rng)
            a = shift_operator(g).toarray()
            want = np.max(np.abs(np.linalg.eigvals(a)))
            assert float(spectral_radius(a)) == pytest.approx(want, abs=1e-7)

    @pytest.mark.parametrize("n", [1, 2, 30, 200, 1024])
    def test_dense_up_to_1024_rows_is_exact(self, rng, n):
        w = rng.uniform(-1, 1, size=(n, n))
        res = spectral_radius(w, seed=5)
        assert res.value == np.max(np.abs(np.linalg.eigvals(w)))
        assert res.iterations == 0 and res.converged

    def test_dense_above_1024_rows_is_exact(self, rng, monkeypatch):
        # a dense input never reaches ARPACK, whatever its size
        monkeypatch.setattr(spla, "eigs", None)
        w = rng.uniform(-1, 1, size=(1025, 1025))
        res = spectral_radius(w, seed=5)
        assert res.value == np.max(np.abs(np.linalg.eigvals(w)))
        assert res.iterations == 0 and res.converged

    def test_sparse_by_arpack_matches_dense_eigvals(self, rng):
        mats = [shift_operator(random_graph(n, p, rng), "adjacency",
                               norm)
                for n, p, norm in ((65, 0.4, "none"), (80, 0.1, "sym"),
                                   (300, 0.02, "rw"), (300, 0.02, "none"))]
        mats.append(sp.random(500, 500, density=0.02, random_state=1,
                              format="csr"))
        mats.append(sp.csr_matrix(rng.uniform(0, 1, size=(1100, 1100))))
        for seed, m in enumerate(mats):
            res = spectral_radius(m, seed=seed)
            assert res.converged and res.iterations > 0
            exact = np.max(np.abs(np.linalg.eigvals(m.toarray())))
            assert res.value == pytest.approx(exact, rel=1e-13)
            # the seeded start makes a repeated call bitwise equal
            assert spectral_radius(m, seed=seed) == res

    def test_directed_three_cycles_by_arpack(self):
        # 22 directed 3-cycles: 66 sparse rows, above the exact cap, and
        # every eigenvalue a cube root of unity
        cycle = np.roll(np.eye(3), 1, axis=1)
        m = sp.csr_matrix(np.kron(np.eye(22), cycle))
        assert m.shape[0] > EXACT_SPARSE_RADIUS_ROWS
        res = spectral_radius(m)
        assert res.converged and res.iterations > 0
        assert res.value == pytest.approx(1.0, abs=1e-14)
        # one directed 3-cycle is small enough to be solved exactly
        res = spectral_radius(sp.csr_matrix(cycle))
        assert res.converged and res.iterations == 0
        assert res.value == np.max(np.abs(np.linalg.eigvals(cycle)))
        assert res.value == pytest.approx(1.0, abs=1e-15)

    def test_sparse_exact_up_to_64_rows(self):
        for n in (64, 65):
            m = sp.random(n, n, density=0.1, random_state=n, format="csr")
            exact = np.max(np.abs(np.linalg.eigvals(m.toarray())))
            res = spectral_radius(m, seed=3)
            assert res.converged
            if n == 64:
                assert (res.value, res.iterations) == (exact, 0)
            else:
                assert res.iterations > 0
                assert res.value == pytest.approx(exact, rel=1e-13)

    def test_unconverged_above_dense_limit(self, monkeypatch, caplog):
        # a sparse input above the exact cap that ARPACK fails on gets the
        # exact value, flagged, with a warning
        def failing(*args, **kwargs):
            raise spla.ArpackNoConvergence("no convergence", [], [])
        monkeypatch.setattr(spla, "eigs", failing)
        m = sp.csr_matrix(np.kron(np.eye(30), np.roll(np.eye(3), 1, axis=1)))
        with caplog.at_level(logging.WARNING, logger="rewirebench.spectral"):
            res = spectral_radius(m)
        assert not res.converged
        assert res.value == np.max(np.abs(np.linalg.eigvals(m.toarray())))
        assert "dense eigvals fallback used" in caplog.text

    @pytest.mark.parametrize("n", [2, 65, 500])
    def test_edgeless_graph_is_zero_without_arpack(self, monkeypatch, n):
        # ARPACK raises on an all-zero operator (ArpackError -9)
        monkeypatch.setattr(spla, "eigs", None)
        a = shift_operator(build_graph([], np.zeros((n, 1))))
        assert spectral_radius(a) == spectral.SpectralRadiusResult(0.0, 0,
                                                                    True)
        # stored zeros count as zero
        z = sp.csr_matrix((np.zeros(2), ([0, 1], [1, 0])), shape=(n, n))
        assert spectral_radius(z).value == 0.0

    @pytest.mark.parametrize("method", ["heat", "pagerank"])
    def test_kernel_operator_gives_its_closed_form(self, method, monkeypatch):
        g = sparse_random_graph(200, 4.0, 3)
        op = apply_rewiring(g, RewireConfig(method=method)).operator
        monkeypatch.setattr(spla, "eigs", None)   # no eigensolver runs
        monkeypatch.setattr(np.linalg, "eigvals", None)
        assert spectral_radius(op, seed=5) == spectral.SpectralRadiusResult(
            op.rho, 0, True)
        with pytest.raises(InputError, match="sparse block-diagonal"):
            spectral_radius(op, offsets=[0])

    def test_not_square(self):
        with pytest.raises(InputError):
            spectral_radius(np.ones((2, 3)))
        with pytest.raises(InputError):
            spectral_radius(sp.csr_matrix((2, 3)))
        with pytest.raises(InputError):
            spectral_radius(np.ones((4, 2, 3)))
        with pytest.raises(InputError):   # no stack input
            spectral_radius(np.ones((4, 2, 2)))
        with pytest.raises(InputError):
            spectral_radius(np.ones((2, 2, 2, 2)))

    @pytest.mark.parametrize("n", [1, 3, 12, 40])
    def test_stack_equals_each_matrix(self, rng, monkeypatch, n):
        # block mode gives each diagonal block the bits of its own call:
        # repeated n-row blocks (non-symmetric, all-zero and symmetric 0/1)
        # between other sizes, and above the exact cap an edgeless block and
        # EGP's non-symmetric A_Cay A with its rows reversed
        egp = reversed_rows(apply_rewiring(random_graph(70, 0.08, rng),
                                           RewireConfig(method="egp")).operator)
        assert not egp.has_sorted_indices and (abs(egp - egp.T) > 0).nnz
        dense = rng.normal(size=(4, n, n))
        dense[1] = 0.0
        dense[3] = np.triu(rng.random((n, n)) < 0.3, 1)
        dense[3] += dense[3].T
        blocks = [sp.csr_matrix(dense[0]), egp, sp.csr_matrix(dense[1]),
                  sp.random(5, 5, density=0.5, random_state=n, format="csr"),
                  sp.csr_matrix((66, 66)), sp.csr_matrix(dense[2]),
                  sp.csr_matrix(dense[3])]
        m, offsets = block_union(blocks)
        want = [spectral_radius(b, seed=4) for b in blocks]
        # a small sparse block's own call has the bits of its dense copy's
        assert [w.value for w in want[::5]] == [
            float(spectral_radius(d)) for d in dense[::2]]
        stacks, real = [], np.linalg.eigvals

        def recording(a):
            stacks.append(a.shape)
            return real(a)
        monkeypatch.setattr(np.linalg, "eigvals", recording)
        for cap in (1 << 20, 300):
            # 300 doubles put two 12-row blocks in a stack, one 40-row block
            monkeypatch.setattr(spectral, "RADIUS_STACK_ENTRIES", cap)
            stacks.clear()
            res = spectral_radius(m, seed=4, offsets=offsets)
            assert res.value.tolist() == [w.value for w in want]
            assert res.iterations == sum(w.iterations for w in want) > 0
            assert res.converged
            # one eigvals call per stack, each as full as the cap allows
            per = max(1, cap // (n * n))
            want_stacks = [(min(per, 4 - i), n, n) for i in range(0, 4, per)]
            assert sorted(stacks) == sorted([(1, 5, 5)] + want_stacks)

    def test_block_mode_sums_iterations_and_convergence(self, monkeypatch):
        # two blocks above the exact cap, the first one failing in ARPACK
        real, calls = spla.eigs, []

        def first_fails(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise spla.ArpackNoConvergence("no convergence", [], [])
            return real(*args, **kwargs)
        monkeypatch.setattr(spla, "eigs", first_fails)
        cycle = sp.csr_matrix(np.kron(np.eye(30), np.roll(np.eye(3), 1, 1)))
        m, offsets = block_union([cycle, sp.eye(2), cycle])
        res = spectral_radius(m, offsets=offsets)
        first = spectral_radius(cycle)
        assert not res.converged and len(calls) == 3
        assert res.iterations == first.iterations
        assert res.value[1] == 1.0

    def test_block_mode_enters_spectral_radius_once(self, monkeypatch):
        # block mode solves its blocks itself: one entry into the module
        # global, however many blocks lie above the exact cap
        real, calls = spectral.spectral_radius, []

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)
        monkeypatch.setattr(spectral, "spectral_radius", spy)
        cycle = sp.csr_matrix(np.kron(np.eye(30), np.roll(np.eye(3), 1, 1)))
        m, offsets = block_union([cycle, sp.eye(2), cycle])
        res = spectral.spectral_radius(m, offsets=offsets)
        assert len(calls) == 1 and res.converged
        assert res.value.tolist() == pytest.approx([1.0, 1.0, 1.0], abs=1e-14)

    def test_csr_with_repeated_and_stored_zero_entries(self):
        # one entry stored three times, and explicit stored zeros: alone, as
        # a block of a union and by eigvals of toarray(), the same bits
        # (0, 1) is stored three times, as 0.1, 0.2 and 0.3: summed in
        # stored order they give 0.6000000000000001 and this radius, in
        # another order 0.6 and a radius 1.3e-15 larger
        rest = [[1.5, -1.75, -0.625, -1.375], [-0.25, 1.125, -1.125, -1.75],
                [-0.375, -1.25, -1.625, 0.375]]
        dup = sp.csr_matrix((
            np.concatenate([[0.1, -1.625, 0.2, 1.125, 0.3, -1.0], *rest]),
            np.concatenate([[1, 0, 1, 2, 1, 3], np.tile(np.arange(4), 3)]),
            [0, 6, 10, 14, 18]), shape=(4, 4))
        zeros = sp.csr_matrix((np.array([0.0, 2.0, 0.0, -1.0, 0.0]),
                               np.array([2, 1, 0, 0, 2]),
                               np.array([0, 2, 4, 5])), shape=(3, 3))
        assert dup.nnz == 18 and zeros.nnz == 5
        for m in (dup, zeros):
            alone = spectral_radius(m)
            assert alone == spectral.SpectralRadiusResult(
                np.max(np.abs(np.linalg.eigvals(m.toarray()))), 0, True)
            union, offsets = block_union([sp.eye(5), m, m * 3.0])
            res = spectral_radius(union, offsets=offsets)
            assert res.value[1] == alone.value
            assert res.value[2] == spectral_radius(m * 3.0).value
        # a non-CSR input is converted to CSR first
        big = sp.random(80, 80, density=0.1, random_state=2, format="csr")
        for other in (big.tocsc(), big.tocoo()):
            assert spectral_radius(other, seed=1) == spectral_radius(big,
                                                                     seed=1)

    def test_arpack_leaves_its_input_unchanged(self, rng):
        # ARPACK runs on a summed, sorted copy of a CSR that is not
        # canonical, with the bits of the canonical matrix: the caller's
        # unsorted rows and its entry stored twice stay as they were
        a = shift_operator(random_graph(70, 0.08, rng))
        assert a.shape[0] > EXACT_SPARSE_RADIUS_ROWS
        # row 0 reversed, its first entry (1.0) stored as 0.25 and 0.75
        lo, hi = a.indptr[:2]
        assert hi - lo > 1
        row0 = a.data[lo:hi][::-1].copy()
        row0[-1] = 0.75
        m = sp.csr_matrix((
            np.concatenate([[0.25], row0, a.data[hi:]]),
            np.concatenate([a.indices[lo:lo + 1], a.indices[lo:hi][::-1],
                            a.indices[hi:]]),
            np.concatenate([[0], a.indptr[1:] + 1])), shape=a.shape)
        assert not m.has_canonical_format
        before = m.data.copy(), m.indices.copy(), m.indptr.copy(), m.nnz
        res = spectral_radius(m, seed=3)
        assert res.iterations > 0
        assert np.array_equal(m.data, before[0])
        assert np.array_equal(m.indices, before[1])
        assert np.array_equal(m.indptr, before[2]) and m.nnz == before[3]
        assert res == spectral_radius(a, seed=3)
        # an EGP operator with its rows reversed stays so
        op = reversed_rows(apply_rewiring(random_graph(70, 0.08, rng),
                                          RewireConfig(method="egp")).operator)
        assert not op.has_sorted_indices
        indices = op.indices.copy()
        spectral_radius(op)
        assert not op.has_sorted_indices
        assert np.array_equal(op.indices, indices)

    def test_empty_matrix_and_block_are_zero(self):
        empty = sp.csr_matrix((0, 0))
        assert spectral_radius(empty) == spectral.SpectralRadiusResult(
            0.0, 0, True)
        assert type(spectral_radius(empty).value) is float
        assert spectral_radius(np.zeros((0, 0))) == spectral_radius(empty)
        m, offsets = block_union([sp.eye(2), empty, 2.0 * sp.eye(3)])
        assert offsets.tolist() == [0, 2, 2]
        assert spectral_radius(m, offsets=offsets).value.tolist() == [
            1.0, 0.0, 2.0]

    def test_block_mode_refuses_bad_input(self):
        m, offsets = block_union([sp.eye(3), sp.eye(2)])
        with pytest.raises(InputError, match="sparse block-diagonal"):
            spectral_radius(m.toarray(), offsets=offsets)
        for bad in ([1, 3], [0, 6], [0, 3, 2], [[0, 3]]):
            with pytest.raises(InputError, match="offsets"):
                spectral_radius(m, offsets=bad)
        with pytest.raises(InputError, match="outside"):
            spectral_radius(sp.csr_matrix(np.ones((5, 5))), offsets=offsets)
        assert spectral_radius(m, offsets=offsets).value.tolist() == [1.0, 1.0]
        assert spectral_radius(sp.csr_matrix((0, 0)),
                               offsets=[]).value.shape == (0,)


class TestSpectralGap:
    def test_disconnected_gap_positive(self):
        g = build_graph([(0, 1), (2, 3)], np.zeros((4, 1)))
        assert spectral_gap(g) == pytest.approx(2.0)

    def test_matches_dense_oracle(self, rng):
        for _ in range(5):
            g = random_graph(10, 0.5, rng, connected=True)
            lap = shift_operator(g, "laplacian", "sym").toarray()
            vals = np.sort(np.linalg.eigvalsh(lap))
            want = vals[vals > 1e-9][0]
            assert spectral_gap(g) == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("norm", ["sym", "rw", "mean"])
    def test_multi_component_matches_whole_spectrum(self, rng, norm):
        # sparse random graphs: several components, some isolated nodes;
        # the three normalized Laplacians share one spectrum
        for n in (5, 20, 60):
            for _ in range(4):
                g = random_graph(n, 1.5 / n, rng)
                lap = shift_operator(g, "laplacian", norm).toarray()
                vals = np.linalg.eigvals(lap).real
                pos = vals[vals > 1e-9 * max(1.0, np.max(np.abs(vals)))]
                want = pos.min() if pos.size else 0.0
                assert spectral_gap(g) == pytest.approx(want, abs=1e-12)

    def test_many_components_above_dense_limit(self):
        # 2001 disjoint edges (4002 nodes): more components than eigenvalues
        # a partial solver of the whole Laplacian would return
        pairs = 2001
        g = build_graph([(2 * i, 2 * i + 1) for i in range(pairs)],
                        np.zeros((2 * pairs, 1)))
        assert spectral_gap(g) == 2.0

    def test_isolated_node(self):
        # K4 (gap 4/3) plus an isolated node, which has eigenvalue 1
        g = build_graph(complete_graph(4).edges.tolist(), np.zeros((5, 1)))
        assert spectral_gap(g) == pytest.approx(1.0, abs=1e-12)

    @staticmethod
    def cycle_gap(k, monkeypatch):
        """A k-cycle plus one edge: the cycle's lambda_2 is
        1 - cos(2 pi / k). Returns (gap, want, sizes of the blocks given
        to sparse eigsh)."""
        sizes = []
        real = spla.eigsh

        def counting(a, *args, **kwargs):
            sizes.append(a.shape[0])
            return real(a, *args, **kwargs)
        monkeypatch.setattr(spla, "eigsh", counting)
        edges = [(i, (i + 1) % k) for i in range(k)] + [(k, k + 1)]
        g = build_graph(edges, np.zeros((k + 2, 1)))
        return spectral_gap(g), 1.0 - math.cos(2.0 * math.pi / k), sizes

    def test_component_above_dense_limit(self, monkeypatch):
        k = 4100  # one component, four times DENSE_GAP_ROWS
        gap, want, sizes = self.cycle_gap(k, monkeypatch)
        assert gap == pytest.approx(want, rel=1e-9)
        assert sizes == [k]

    @pytest.mark.parametrize("k", [DENSE_GAP_ROWS, DENSE_GAP_ROWS + 1])
    def test_component_at_gap_limit(self, k, monkeypatch):
        # eigsh starts one node past DENSE_GAP_ROWS
        gap, want, sizes = self.cycle_gap(k, monkeypatch)
        assert gap == pytest.approx(want, rel=1e-9)
        assert sizes == ([k] if k > DENSE_GAP_ROWS else [])

    def test_sparse_path_matches_dense_and_repeats(self, monkeypatch):
        g = sparse_random_graph(DENSE_GAP_ROWS + 200, 6.0, 0)
        first, second = spectral_gap(g), spectral_gap(g)
        assert first == second
        monkeypatch.setattr(spectral, "DENSE_GAP_ROWS", g.num_nodes)
        assert first == pytest.approx(spectral_gap(g), rel=1e-10)


class TestPseudoinverseAndResistance:
    def test_k2_pseudoinverse(self):
        lp = laplacian_pseudoinverse(path_graph(2))
        assert np.allclose(lp, 0.25 * np.array([[1, -1], [-1, 1]]))

    def test_l_lplus_l(self, rng):
        g = random_graph(10, 0.4, rng, connected=True)
        lap = shift_operator(g, "laplacian", "none").toarray()
        lp = laplacian_pseudoinverse(g)
        assert np.allclose(lap @ lp @ lap, lap, atol=1e-8)
        assert np.allclose(lp, lp.T)

    def test_nullspace(self, rng):
        g = random_graph(8, 0.5, rng, connected=True)
        lp = laplacian_pseudoinverse(g)
        assert np.allclose(lp @ np.ones(8), 0.0, atol=1e-9)

    def test_single_edge(self):
        res = all_resistances(effective_resistance(path_graph(2)))
        assert res[0, 1] == pytest.approx(1.0)

    def test_path_series(self):
        for k in (3, 4, 6):
            res = all_resistances(effective_resistance(path_graph(k)))
            assert res[0, k - 1] == pytest.approx(k - 1.0, abs=1e-9)

    def test_k3_parallel(self):
        res = all_resistances(effective_resistance(complete_graph(3)))
        assert res[0, 1] == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_cross_component_infinite(self):
        g = build_graph([(0, 1), (2, 3)], np.zeros((4, 1)))
        res = all_resistances(effective_resistance(g))
        assert np.isinf(res[0, 2]) and np.isfinite(res[0, 1])

    def test_triangle_inequality(self, rng):
        for _ in range(10):
            g = random_graph(12, 0.35, rng, connected=True)
            res = all_resistances(effective_resistance(g))
            n = g.num_nodes
            for u in range(n):
                for v in range(n):
                    for w in range(n):
                        assert res[u, w] <= res[u, v] + res[v, w] + 1e-9


class TestDiffusionKernels:
    def test_heat_identity_limit(self):
        t_op = shift_operator(cycle_graph(4), "adjacency", "rw")
        k = heat_kernel(t_op, 1e-8)
        assert np.allclose(k, np.eye(4), atol=1e-6)

    def test_heat_on_identity(self):
        assert np.allclose(heat_kernel(np.eye(3), 2.0), np.eye(3), atol=1e-12)

    def test_heat_matches_series(self):
        t_op = shift_operator(cycle_graph(4), "adjacency", "rw").toarray()
        k = heat_kernel(t_op, 1.0)
        want = series_kernel(t_op, heat_coeffs(1.0, 40))
        assert np.abs(k - want).max() < 1e-10

    def test_pagerank_zero_matrix(self):
        k = pagerank_kernel(build_graph([], np.zeros((3, 1))), 0.7,
                            "rw").toarray()
        assert np.allclose(k, 0.7 * np.eye(3))

    def test_pagerank_near_one(self):
        t_op = shift_operator(cycle_graph(5), "adjacency", "sym").toarray()
        k = pagerank_kernel(cycle_graph(5), 0.99, "sym").toarray()
        want = series_kernel(t_op, pagerank_coeffs(0.99, 60))
        assert np.abs(k - want).max() < 1e-8

    def test_pagerank_k2_series(self):
        t_op = shift_operator(path_graph(2), "adjacency", "sym").toarray()
        k = pagerank_kernel(path_graph(2), 0.5, "sym").toarray()
        want = series_kernel(t_op, pagerank_coeffs(0.5, 60))
        assert np.abs(k - want).max() < 1e-10

    def test_kernel_permutation_equivariance(self, rng):
        g = random_graph(8, 0.5, rng, connected=True)
        perm = rng.permutation(8)
        p = np.eye(8)[perm]
        # node i of the permuted graph is node perm[i] of g
        gp = build_graph(np.argsort(perm)[g.edges], g.features[perm])
        for fn in (lambda h: heat_kernel(
                       shift_operator(h, "adjacency", "rw").toarray(), 0.7),
                   lambda h: pagerank_kernel(h, 0.3, "rw").toarray()):
            assert np.allclose(fn(gp), p @ fn(g) @ p.T, atol=1e-10)


def _pagerank_graphs():
    """Graphs with isolated nodes, several components or no edges, and
    graphs whose factor is all full block (complete) or nearly all sparse
    head (a path)."""
    rng = np.random.default_rng(3)
    # triangle, a 4-path, a 3-star and two isolated nodes
    parts = build_graph([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6),
                         (7, 8), (7, 9), (7, 10)], np.zeros((13, 1)))
    sparse = random_graph(30, 0.06, rng)
    assert 0 in sparse.degrees
    return {"components": parts, "random-isolated": sparse,
            "no-edges": build_graph([], np.zeros((5, 1))),
            "single-node": build_graph([], np.zeros((1, 1))),
            "complete": complete_graph(6), "k2": path_graph(2),
            "path": path_graph(9)}


PAGERANK_GRAPHS = _pagerank_graphs()


class TestPagerankKernel:
    """The sparse-LU kernel's dense form against a dense solve and against
    the power series sum_m alpha (1-alpha)^m T^m."""

    @pytest.mark.parametrize("graph", sorted(PAGERANK_GRAPHS))
    @pytest.mark.parametrize("alpha", [0.05, 0.5, 0.95])
    @pytest.mark.parametrize("norm", ["rw", "sym", "mean"])
    def test_matches_solve_and_series(self, graph, alpha, norm):
        g = PAGERANK_GRAPHS[graph]
        n = g.num_nodes
        t_op = shift_operator(g, "adjacency", norm).toarray()
        k = pagerank_kernel(g, alpha, norm).toarray()
        assert k.flags.c_contiguous and k.dtype == np.float64
        lu = alpha * np.linalg.solve(np.eye(n) - (1 - alpha) * t_op, np.eye(n))
        assert np.abs(k - lu).max() <= 1e-12
        terms = int(np.ceil(np.log(1e-16) / np.log(1 - alpha))) + 1
        series = series_kernel(t_op, pagerank_coeffs(alpha, terms))
        assert np.abs(k - series).max() <= 1e-12
        if g.num_edges == 0:
            assert np.array_equal(k, alpha * np.eye(n))

    @pytest.mark.parametrize("graph, tail", [
        ("complete", 6), ("k2", 2), ("single-node", 1), ("path", 2),
        ("no-edges", 1), ("components", 3)])
    def test_split_at_full_trailing_block(self, graph, tail, monkeypatch):
        # the tail is the factor's full trailing block: the whole graph when
        # it is complete (an empty head), one or two nodes on a path. These
        # graphs are below one Schur block, so the split is forced
        monkeypatch.setattr(spectral, "SCHUR_BLOCK_ENTRIES", 0)
        g = PAGERANK_GRAPHS[graph]
        op = pagerank_kernel(g, 0.3, "rw")
        assert op._tail_nodes.size == tail
        nodes = np.concatenate([op._head_nodes, op._tail_nodes])
        assert np.array_equal(np.sort(nodes), np.arange(g.num_nodes))

    @staticmethod
    def _whole_factor_split(g, alpha):
        """Head and tail nodes by the rule of a factor of all of K: SuperLU
        factors K under its minimum-degree order, and the tail is the run of
        full trailing columns of L."""
        a = g.adjacency()
        d = np.asarray(a.sum(axis=1)).ravel()
        d[d == 0] = 1.0
        k = (sp.diags(d) - (1.0 - alpha) * a).tocsc()
        lu = spla.splu(k, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
        order = np.argsort(lu.perm_c)
        full = np.diff(lu.L.indptr) == np.arange(g.num_nodes, 0, -1)
        h = int(np.flatnonzero(~full).max(initial=-1)) + 1
        return order[:h], order[h:]

    @pytest.mark.parametrize("graph", sorted(PAGERANK_GRAPHS) + [
        (n, degree, seed) for n, degree in [(40, 4.0), (300, 4.0), (1000, 4.0),
                                            (1000, 8.0)] for seed in (0, 1)],
        ids=lambda p: p if isinstance(p, str) else "gnp-%d-%g-%d" % p)
    def test_split_from_graph_and_head_factor(self, graph, monkeypatch):
        # the split is read from K's graph by the fill-path lemma and equals
        # the whole factor's; SuperLU factors nothing larger than K_HH, and
        # no factor's L or U is read. Graphs below one Schur block are
        # forced onto the split
        g = (PAGERANK_GRAPHS[graph] if isinstance(graph, str)
             else sparse_random_graph(*graph))
        monkeypatch.setattr(spectral, "SCHUR_BLOCK_ENTRIES", 0)
        factored, reads = [], []

        class Reads:
            def __init__(self, lu):
                self._lu = lu

            def __getattr__(self, name):
                reads.append(name)
                return getattr(self._lu, name)

        def spy(real, name):
            def factor(k, **kwargs):
                factored.append((name, k.shape))
                return Reads(real(k, **kwargs))
            return factor
        for name in ("splu", "spilu"):
            monkeypatch.setattr(spla, name, spy(getattr(spla, name), name))
        op = pagerank_kernel(g, 0.3, "rw")
        monkeypatch.undo()
        head, tail = self._whole_factor_split(g, 0.3)
        assert np.array_equal(op._head_nodes, head)
        assert np.array_equal(op._tail_nodes, tail)
        assert [name for name, _ in factored] == ["spilu"] + ["splu"] * (
            head.size > 0)
        assert all(shape[0] <= head.size for name, shape in factored
                   if name == "splu")
        assert set(reads) <= {"perm_c", "solve"}

    @pytest.mark.parametrize("norm", ["rw", "sym", "mean"])
    def test_all_tail_up_to_one_schur_block(self, norm, monkeypatch):
        # n^2 <= SCHUR_BLOCK_ENTRIES: K is the tail in natural order and is
        # inverted whole; the split operator agrees to rounding (7.4e-16 of
        # the largest entry on this graph)
        g = sparse_random_graph(150, 4.0, 5)
        assert g.num_nodes ** 2 <= SCHUR_BLOCK_ENTRIES
        op = pagerank_kernel(g, 0.1, norm)
        assert op._head_nodes.size == 0
        assert np.array_equal(op._tail_nodes, np.arange(150))
        monkeypatch.setattr(spectral, "SCHUR_BLOCK_ENTRIES", 0)
        split = pagerank_kernel(g, 0.1, norm)
        assert split._head_nodes.size > 0
        want = split.toarray()
        assert np.abs(op.toarray() - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("norm", ["rw", "sym", "mean"])
    def test_matches_solve_across_blocks(self, norm):
        # a 300-node graph, beyond the small graphs above
        g = random_graph(300, 0.02, np.random.default_rng(4))
        t_op = shift_operator(g, "adjacency", norm).toarray()
        lu = 0.1 * np.linalg.solve(np.eye(300) - 0.9 * t_op, np.eye(300))
        k = pagerank_kernel(g, 0.1, norm).toarray()
        assert np.abs(k - lu).max() <= 1e-12

    def test_rw_columns_and_mean_rows_sum_to_one(self):
        # an isolated node's column (rw) or row (mean) is alpha e_i
        g = PAGERANK_GRAPHS["random-isolated"]
        want = np.where(g.degrees > 0, 1.0, 0.2)
        rw = pagerank_kernel(g, 0.2, "rw").toarray()
        assert np.allclose(rw.sum(axis=0), want)
        mean = pagerank_kernel(g, 0.2, "mean").toarray()
        assert np.allclose(mean.sum(axis=1), want)
        k = pagerank_kernel(g, 0.2, "sym").toarray()
        assert np.abs(k - k.T).max() <= 1e-15

    @staticmethod
    def _threads_equal_serial(op):
        n = op.shape[0]
        rng = np.random.default_rng(0)
        blocks = [np.asfortranarray(rng.standard_normal((n, 16)))
                  for _ in range(8)]
        serial = [op @ b for b in blocks]
        workers, rounds = 4, 5
        out = [[] for _ in blocks]

        def work(first):
            for _ in range(rounds):
                for j in range(first, len(blocks), workers):
                    out[j].append(op @ blocks[j])

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        for want, got in zip(serial, out):
            assert len(got) == rounds
            assert all(np.array_equal(want, y) for y in got)

    def test_threads_share_one_factor(self):
        # GESN's workers apply one operator from several threads at once;
        # every product must equal the serial one bit for bit, with a sparse
        # head and with the dense tail alone (a complete graph)
        for g in (sparse_random_graph(1000, 8.0, 1), complete_graph(300)):
            self._threads_equal_serial(pagerank_kernel(g, 0.1, "rw"))

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1])
    def test_alpha_out_of_range(self, alpha):
        with pytest.raises(InputError):
            pagerank_kernel(path_graph(3), alpha, "rw")

    def test_unnormalized_operator_refused(self):
        with pytest.raises(InputError, match="none"):
            pagerank_kernel(complete_graph(3), 0.1, "none")

    @pytest.mark.parametrize("norm", ["rw", "sym", "mean"])
    def test_peak_memory_two_dense_buffers(self, norm):
        rng = np.random.default_rng(0)
        n = 1000
        block = np.arange(n) % 4
        u, v = np.triu_indices(n, 1)
        p = np.where(block[u] == block[v], 8.0 / n, 0.5 / n)
        keep = rng.random(u.size) < p
        g = build_graph(np.stack([u[keep], v[keep]], axis=1),
                        np.zeros((n, 1)))
        del u, v, p, keep
        g.adjacency()
        tracemalloc.start()
        try:
            pagerank_kernel(g, 0.1, norm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * n * n * 8

    @pytest.mark.parametrize("norm", ["rw", "sym", "mean"])
    def test_kernel_and_product_hold_no_dense_buffer(self, norm):
        n = 1000
        g = sparse_random_graph(n, 4.0, 0)
        g.adjacency()
        x = np.asfortranarray(np.random.default_rng(0).standard_normal((n, 32)))
        tracemalloc.start()
        try:
            pagerank_kernel(g, 0.1, norm) @ x
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= n * n * 8 / 8

    @pytest.mark.parametrize("norm", ["rw", "sym", "mean"])
    def test_toarray_equals_product_with_identity(self, norm):
        # BLAS blocks the columns of the product with S^{-1} differently
        # for a block of the identity than for the whole of it
        g = sparse_random_graph(600, 4.0, 2)
        op = pagerank_kernel(g, 0.1, norm)
        want = op @ np.eye(g.num_nodes)
        assert np.abs(op.toarray() - want).max() <= 1e-15 * np.abs(want).max()

    @pytest.mark.parametrize("norm", ["rw", "sym", "mean"])
    def test_toarray_holds_little_beside_its_output(self, norm):
        # rewire's kernel.npy builds the dense kernel; beside the n x n
        # output it may hold 0.1 n^2 doubles
        n = 1000
        op = pagerank_kernel(sparse_random_graph(n, 4.0, 0), 0.1, norm)
        tracemalloc.start()
        try:
            op.toarray()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * n * n * 8


class TestHeatOperator:
    """The heat series product against the dense expm kernel, its term
    count against the tail criterion, and its thread safety."""

    @pytest.mark.parametrize("graph", sorted(PAGERANK_GRAPHS))
    @pytest.mark.parametrize("t", [0.1, 1.0, 5.0])
    @pytest.mark.parametrize("norm", ["rw", "sym", "mean", "none"])
    def test_matches_dense_kernel(self, graph, t, norm):
        g = PAGERANK_GRAPHS[graph]
        op = apply_rewiring(g, RewireConfig(method="heat", t=t,
                                            diffusion_norm=norm)).operator
        assert isinstance(op, spectral.HeatOperator)
        want = heat_kernel(shift_operator(g, "adjacency", norm), t)
        got = op @ np.eye(g.num_nodes)
        tol = 1e-10 if norm == "none" else 1e-13
        assert np.abs(got - want).max() <= tol * np.abs(want).max()
        # the dense export is the series, column block by column block
        assert np.array_equal(op.toarray(), got)

    @staticmethod
    def _expected_terms(s):
        """Smallest M >= floor(s) whose next term s^{M+1}/(M+1)! is at most
        1e-17 e^s, by direct evaluation."""
        m = math.floor(s)
        while s ** (m + 1) / math.factorial(m + 1) > 1e-17 * math.exp(s):
            m += 1
        return m

    @pytest.mark.parametrize("t, rho", [(1.0, 1.0), (0.1, 1.0), (5.0, 1.0),
                                        (5.0, 5.0), (1.0, 0.0), (0.3, 2.5)])
    def test_one_product_per_term(self, t, rho):
        t_op = shift_operator(cycle_graph(5), "adjacency", "rw")
        products = []

        def matmat(x):
            products.append(x.shape)
            return t_op @ x
        spy = spla.LinearOperator(t_op.shape, matvec=lambda x: t_op @ x,
                                  matmat=matmat, dtype=np.float64)
        spectral.HeatOperator(spy, t, rho) @ np.ones((5, 3))
        assert len(products) == self._expected_terms(t * rho)
        if (t, rho) == (1.0, 1.0):
            assert len(products) == 18

    def test_threads_share_one_operator(self):
        g = sparse_random_graph(1000, 8.0, 1)
        op = apply_rewiring(g, RewireConfig(method="heat")).operator
        TestPagerankKernel._threads_equal_serial(op)

    @pytest.mark.parametrize("norm", ["rw", "sym", "mean", "none"])
    def test_toarray_holds_little_beside_its_output(self, norm):
        # rewire's kernel.npy is the series applied to column blocks of the
        # identity, with the bound PageRank's toarray() meets
        n = 1000
        op = apply_rewiring(sparse_random_graph(n, 4.0, 0), RewireConfig(
            method="heat", diffusion_norm=norm)).operator
        tracemalloc.start()
        try:
            op.toarray()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * n * n * 8


class TestResistanceOracle:
    """effective_resistance against the pseudoinverse formula."""

    @staticmethod
    def _oracle(g):
        lp = laplacian_pseudoinverse(g)
        d = np.diag(lp)
        res = np.maximum(d[:, None] + d[None, :] - 2.0 * lp, 0.0)
        comp = connected_components(g)
        res[comp[:, None] != comp[None, :]] = np.inf
        np.fill_diagonal(res, 0.0)
        return res

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_pseudoinverse(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(int(rng.integers(5, 40)), 0.08, rng)
        assert connected_components(g).max() > 0
        want = self._oracle(g)
        r = effective_resistance(g)
        res = all_resistances(r)
        finite = np.isfinite(want)
        assert np.array_equal(np.isfinite(res), finite)
        assert np.abs(res[finite] - want[finite]).max() <= 1e-12
        assert np.array_equal(res, res.T)
        assert np.all(np.diag(res) == 0.0)
        u, v = np.indices(res.shape).reshape(2, -1)
        assert np.array_equal(r.values(u, v), res.ravel())

    @pytest.mark.parametrize("graph", sorted(PAGERANK_GRAPHS))
    def test_pagerank_graphs(self, graph):
        g = PAGERANK_GRAPHS[graph]
        want = self._oracle(g)
        res = all_resistances(effective_resistance(g))
        finite = np.isfinite(want)
        assert np.array_equal(np.isfinite(res), finite)
        assert np.abs(res[finite] - want[finite]).max() <= 1e-12


def _block_graphs():
    """Graphs above the dense size, n^2 > SCHUR_BLOCK_ENTRIES: sparse ones
    with many components and isolated nodes, a complete graph (only its
    grounded node in the head) and a sparse graph beside a complete
    component, whose non-grounded nodes form the whole tail."""
    clique, rest = complete_graph(40), sparse_random_graph(260, 2.0, 2)
    return {"sparse-400": sparse_random_graph(400, 1.5, 0),
            "gnp-300": sparse_random_graph(300, 3.0, 1),
            "complete-260": complete_graph(260),
            "with-clique": build_graph(np.concatenate(
                [rest.edges, clique.edges + 260]), np.zeros((300, 1)))}


BLOCK_GRAPHS = _block_graphs()


class TestResistanceBlocks:
    """effective_resistance above the dense size: K^{-1} by block
    elimination, read one fixed block of head columns at a time."""

    @pytest.mark.parametrize("graph", sorted(BLOCK_GRAPHS))
    def test_matches_pseudoinverse(self, graph):
        # each unordered pair is read once, from a block that does not
        # depend on which pairs are asked for: values equal the matrix
        # bitwise, in either orientation and for any subset
        g = BLOCK_GRAPHS[graph]
        r = effective_resistance(g)
        assert g.num_nodes ** 2 > SCHUR_BLOCK_ENTRIES
        assert r.kernel._head_nodes.size > 0
        want = TestResistanceOracle._oracle(g)
        res = all_resistances(r)
        finite = np.isfinite(want)
        assert np.array_equal(np.isfinite(res), finite)
        assert np.abs(res[finite] - want[finite]).max() <= 1e-12
        assert np.array_equal(res, res.T)
        assert np.all(np.diag(res) == 0.0)
        u, v = g.edges.T
        assert np.array_equal(r.values(u, v), res[u, v])
        assert np.array_equal(r.values(v, u), res[u, v])
        assert np.array_equal(r.values(u[::3], v[::3]), res[u[::3], v[::3]])

    def test_inverse_at_reads_unscaled_k_inverse(self):
        # K^{-1} at pairs, the same bits in either orientation; a scaled
        # PageRank operator is not symmetric and is refused
        g = BLOCK_GRAPHS["gnp-300"]
        op = effective_resistance(g).kernel
        u, v = g.edges.T
        got = op.inverse_at(u, v)
        assert np.array_equal(got, op.inverse_at(v, u))
        want = op.toarray()[u, v]
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        for norm in ("rw", "sym", "mean"):
            with pytest.raises(ValueError, match="unscaled"):
                pagerank_kernel(g, 0.1, norm).inverse_at(u, v)

    def test_complete_component_is_the_tail(self):
        r = effective_resistance(BLOCK_GRAPHS["with-clique"])
        assert np.array_equal(np.sort(r.kernel._tail_nodes),
                               np.arange(261, 300))

    def test_dense_up_to_one_schur_block(self):
        # n^2 <= SCHUR_BLOCK_ENTRIES: the whole graph is the tail in natural
        # order, with the bits of the grounded Laplacian inverted in place;
        # one node more is block-eliminated
        wider = effective_resistance(sparse_random_graph(257, 3.0, 4))
        assert wider.kernel._head_nodes.size > 0
        n = 256
        assert n * n == SCHUR_BLOCK_ENTRIES
        g = sparse_random_graph(n, 3.0, 4)
        r = effective_resistance(g)
        assert np.array_equal(r.kernel._tail_nodes, np.arange(n))
        comp = connected_components(g)
        grounded = np.unique(comp, return_index=True)[1]
        inv = np.zeros((n, n), order="F")
        inv[:] = shift_operator(g, "laplacian", "none").toarray()
        inv[grounded] = inv[:, grounded] = 0.0
        inv[grounded, grounded] = 1.0
        inv = spectral._spd_inverse(inv, "grounded Laplacian")
        inv[grounded, grounded] = 0.0
        u, v = g.edges.T
        want = np.maximum(inv[u, u] + inv[v, v] - 2.0 * inv[u, v], 0.0)
        assert np.array_equal(r.values(u, v), want)

    def test_grounded_laplacian_built_from_edges(self, monkeypatch):
        # K is built from the edge list and the degrees, on either side of
        # the dense size; no Laplacian is built first
        calls = []
        real = spectral.shift_operator

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)
        monkeypatch.setattr(spectral, "shift_operator", spy)
        for g in (sparse_random_graph(40, 2.0, 3), BLOCK_GRAPHS["with-clique"]):
            u, v = g.edges.T
            effective_resistance(g).values(u, v)
        assert calls == []

    def test_edge_values_hold_no_dense_inverse(self):
        # a dense G held 1.06 n^2 doubles; S^{-1} and the column blocks
        # hold a quarter of that at most
        n = 1000
        g = sparse_random_graph(n, 4.0, 0)
        a = g.adjacency().tocoo()
        tracemalloc.start()
        try:
            effective_resistance(g).values(a.row, a.col)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= n * n * 8 / 4


class TestCheeger:
    def test_k2(self):
        assert cheeger_bruteforce(path_graph(2)) == pytest.approx(1.0)

    def test_barbell_small(self):
        # two K3's joined by one edge
        g = build_graph([(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)],
                        np.zeros((6, 1)))
        h = cheeger_bruteforce(g)
        assert h == pytest.approx(1.0 / 7.0)
        lam = spectral_gap(g)
        assert h >= lam / 2.0 - 1e-12

    def test_refuses_large(self):
        with pytest.raises(InputError):
            cheeger_bruteforce(path_graph(20))

    def test_cheeger_bound_random(self, rng):
        for _ in range(15):
            g = random_graph(9, 0.4, rng, connected=True)
            h = cheeger_bruteforce(g)
            lam = spectral_gap(g)
            assert h >= lam / 2.0 - 1e-9

    def test_resistance_cheeger_bound(self, rng):
        for _ in range(15):
            g = random_graph(9, 0.4, rng, connected=True)
            h = cheeger_bruteforce(g)
            res = all_resistances(effective_resistance(g))
            max_edge_res = max(res[u, v] for u, v in g.edges)
            assert max_edge_res <= 1.0 / h ** 2 + 1e-9
