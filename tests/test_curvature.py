"""Balanced Forman curvature as every command counts it (the batch
counter behind edge_curvatures) against the dense brute-force oracle, and
the histogram and before/after delta that `rewire` writes."""

import numpy as np
import pytest

from rewirebench import (InputError, build_graph, curvature_delta,
                         curvature_distribution)
from rewirebench.curvature import (CurvatureDelta, edge_curvatures,
                                  write_delta_csv)

from conftest import (brute_balanced_forman, complete_graph,
                      curvature_counts, cycle_graph, path_graph, random_graph)


class TestBalancedForman:
    def test_single_edge(self):
        assert edge_curvatures(path_graph(2))[0] == pytest.approx(2.0)

    def test_c5_zero(self):
        assert edge_curvatures(cycle_graph(5)) == pytest.approx(np.zeros(5))

    def test_terms_recombine(self, rng):
        # the value is the tree, triangle and square terms of its own counts
        for _ in range(10):
            g = random_graph(10, 0.5, rng)
            ric, tri, sq_uv, sq_vu, gamma = curvature_counts(g)
            deg = g.degrees
            for i, (u, v) in enumerate(g.edges[:5]):
                du, dv = deg[u], deg[v]
                tree = 2.0 / du + 2.0 / dv - 2.0
                triangle = 2.0 * tri[i] / max(du, dv) + tri[i] / min(du, dv)
                square = ((sq_uv[i] + sq_vu[i]) / (gamma[i] * max(du, dv))
                          if gamma[i] > 0 else 0.0)
                assert ric[i] == pytest.approx(tree + triangle + square,
                                               abs=1e-12)

    def test_symmetric_in_edge_orientation(self, rng):
        g = random_graph(10, 0.4, rng)
        u, v = g.edges[:8].T
        assert curvature_counts(g, u, v)[0] == pytest.approx(
            curvature_counts(g, v, u)[0], abs=1e-12)

    def test_no_squares_depends_on_degrees_triangles_only(self):
        # trees: no 4-cycle, so the square term is 0 and the value is the
        # tree term exactly
        g = build_graph([(0, 1), (1, 2), (1, 3), (3, 4)], np.zeros((5, 1)))
        ric, tri, sq_uv, sq_vu, gamma = curvature_counts(g)
        assert not (tri.any() or sq_uv.any() or sq_vu.any() or gamma.any())
        deg = g.degrees
        for i, (u, v) in enumerate(g.edges):
            assert ric[i] == 2.0 / deg[u] + 2.0 / deg[v] - 2.0

    def test_matches_bruteforce(self, rng):
        for p in (0.2, 0.5, 0.8):
            for _ in range(15):
                g = random_graph(12, p, rng)
                a = g.adjacency().toarray()
                got = edge_curvatures(g)
                for i, (u, v) in enumerate(g.edges):
                    want = brute_balanced_forman(a, int(u), int(v))
                    assert got[i] == pytest.approx(want, abs=1e-12)

    def test_permutation_invariant_multiset(self, rng):
        g = random_graph(12, 0.4, rng)
        perm = rng.permutation(12)
        g2 = build_graph([(perm[u], perm[v]) for u, v in g.edges],
                         np.zeros((12, 1)))
        assert sorted(np.round(edge_curvatures(g), 10)) == pytest.approx(
            sorted(np.round(edge_curvatures(g2), 10)))


class TestDistribution:
    def test_edgeless_empty(self):
        hist = curvature_distribution(build_graph([], np.zeros((4, 1))))
        assert hist.values.size == 0 and hist.counts.size == 0

    def test_k3_all_equal(self):
        hist = curvature_distribution(complete_graph(3))
        assert np.allclose(hist.values, hist.values[0])
        assert hist.counts.sum() == 3

    def test_bins_cover_values(self, rng):
        g = random_graph(15, 0.3, rng)
        hist = curvature_distribution(g)
        assert hist.counts.sum() == g.num_edges


class TestDelta:
    def test_identical_graphs_zero(self):
        g = cycle_graph(6)
        d = curvature_delta(g, g, edge_curvatures(g), edge_curvatures(g))
        assert np.allclose(d.after - d.before, 0.0)
        assert d.improved == 0 and d.worsened == 0

    def test_chord_added_matches_recompute(self):
        c5 = cycle_graph(5)
        with_chord = build_graph(list(map(tuple, c5.edges)) + [(0, 2)],
                                 np.zeros((5, 1)))
        d = curvature_delta(c5, with_chord, edge_curvatures(c5),
                            edge_curvatures(with_chord))
        vb = {tuple(e): r for e, r in zip(c5.edges, edge_curvatures(c5))}
        va = {tuple(e): r for e, r in
              zip(with_chord.edges, edge_curvatures(with_chord))}
        for (u, v), b, a in zip(d.edges, d.before, d.after):
            assert b == pytest.approx(vb[(u, v)])
            assert a == pytest.approx(va[(u, v)])

    def test_partial_overlap_matches_set_reference(self, rng, tmp_path):
        # two random graphs on one node set share only part of their edges;
        # the reference matches rows through sets of edge tuples
        for _ in range(5):
            gb, ga = random_graph(20, 0.2, rng), random_graph(20, 0.2, rng)
            vb, va = edge_curvatures(gb), edge_curvatures(ga)
            d = curvature_delta(gb, ga, vb, va)
            ib = {tuple(e): i for i, e in enumerate(gb.edges.tolist())}
            ia = {tuple(e): i for i, e in enumerate(ga.edges.tolist())}
            common = sorted(ib.keys() & ia.keys())
            assert 0 < len(common) < min(len(ib), len(ia))
            before = np.array([vb[ib[e]] for e in common])
            after = np.array([va[ia[e]] for e in common])
            want = CurvatureDelta(np.array(common), before, after,
                                  int(np.sum(after > before)),
                                  int(np.sum(after < before)))
            assert d.edges.tolist() == [list(e) for e in common]
            assert np.array_equal(d.before, before)
            assert np.array_equal(d.after, after)
            assert (d.improved, d.worsened) == (want.improved, want.worsened)
            write_delta_csv(d, tmp_path / "got.csv")
            write_delta_csv(want, tmp_path / "want.csv")
            assert ((tmp_path / "got.csv").read_bytes()
                    == (tmp_path / "want.csv").read_bytes())

    def test_disjoint_edge_sets(self):
        d = curvature_delta(path_graph(4), build_graph([(0, 3)], np.zeros((4, 1))),
                            edge_curvatures(path_graph(4)), np.zeros(1))
        assert d.edges.shape == (0, 2) and d.before.size == d.after.size == 0
        assert d.improved == d.worsened == 0

    def test_node_set_mismatch(self):
        with pytest.raises(InputError):
            curvature_delta(cycle_graph(4), cycle_graph(5), np.zeros(4),
                            np.zeros(5))
