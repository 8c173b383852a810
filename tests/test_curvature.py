import numpy as np
import pytest

from rewirebench import (InputError, balanced_forman, build_graph,
                         curvature_delta, curvature_distribution)
from rewirebench.curvature import (CurvatureDelta, edge_curvatures,
                                  write_delta_csv)

from conftest import (brute_balanced_forman, complete_graph, cycle_graph,
                      path_graph, random_graph)


class TestBalancedForman:
    def test_single_edge(self):
        assert balanced_forman(path_graph(2), (0, 1)).total == pytest.approx(2.0)

    def test_c5_zero(self):
        assert balanced_forman(cycle_graph(5), (0, 1)).total == pytest.approx(0.0)

    def test_terms_recombine(self, rng):
        for _ in range(10):
            g = random_graph(10, 0.5, rng)
            for u, v in g.edges[:5]:
                c = balanced_forman(g, (int(u), int(v)))
                assert c.total == pytest.approx(
                    c.tree_term + c.triangle_term + c.square_term, abs=1e-12)

    def test_missing_edge(self):
        with pytest.raises(InputError):
            balanced_forman(cycle_graph(5), (0, 2))

    @pytest.mark.parametrize("edge", [(99, 0), (0, 99), (5, 0), (-1, 0)])
    def test_endpoint_out_of_range(self, edge):
        g = cycle_graph(5)
        assert not g.has_edge(*edge)
        with pytest.raises(InputError):
            balanced_forman(g, edge)

    def test_symmetric_in_edge_orientation(self, rng):
        g = random_graph(10, 0.4, rng)
        for u, v in g.edges[:8]:
            assert balanced_forman(g, (int(u), int(v))).total == pytest.approx(
                balanced_forman(g, (int(v), int(u))).total, abs=1e-12)

    def test_no_squares_depends_on_degrees_triangles_only(self):
        # trees: square term identically zero
        g = build_graph([(0, 1), (1, 2), (1, 3), (3, 4)], np.zeros((5, 1)))
        for u, v in g.edges:
            c = balanced_forman(g, (int(u), int(v)))
            assert c.square_term == 0.0

    def test_matches_bruteforce(self, rng):
        for p in (0.2, 0.5, 0.8):
            for _ in range(15):
                g = random_graph(12, p, rng)
                a = g.adjacency().toarray()
                for u, v in g.edges:
                    want = brute_balanced_forman(a, int(u), int(v))
                    got = balanced_forman(g, (int(u), int(v))).total
                    assert got == pytest.approx(want, abs=1e-12)

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
        assert np.allclose(d.delta, 0.0)
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
