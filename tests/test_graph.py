import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse import csgraph

from rewirebench import (InputError, Normalization, OperatorKind,
                         balanced_forman, build_graph, dataset_stats,
                         edge_homophily, shift_operator)
from rewirebench import graph as graph_module
from rewirebench.graph import connected_components, diameter, disjoint_union

from conftest import (complete_graph, cycle_graph, path_graph, random_graph,
                      brute_components, brute_diameter, brute_hop_distances,
                      brute_triangles, brute_square_profile)


class TestBuildGraph:
    def test_dedup_and_self_loop_drop(self):
        g = build_graph([(0, 1), (1, 0), (1, 1)], np.zeros((2, 0)))
        assert g.num_edges == 1
        assert g.edges.tolist() == [[0, 1]]

    def test_empty_edge_set(self):
        g = build_graph([], np.zeros((3, 2)))
        assert g.num_nodes == 3 and g.num_edges == 0
        assert g.edges.shape == (0, 2) and g.edges.dtype == np.int64

    @pytest.mark.parametrize("n", [2, 7, 300])
    def test_edges_sorted_pairs_of_the_set(self, rng, n):
        # duplicates, both directions and self-loops, in random order
        raw = rng.integers(0, n, (4 * n, 2))
        g = build_graph(raw, np.zeros((n, 1)))
        want = sorted({(min(u, v), max(u, v)) for u, v in raw.tolist()
                       if u != v})
        assert g.edges.dtype == np.int64 and g.edges.flags.c_contiguous
        assert g.edges.tolist() == [list(p) for p in want]

    def test_endpoint_out_of_range(self):
        with pytest.raises(InputError):
            build_graph([(0, 5)], np.zeros((3, 1)))

    def test_feature_row_mismatch(self):
        with pytest.raises(InputError):
            build_graph([(0, 1)], np.zeros((3, 1)), num_nodes=2)

    def test_zero_width_features_allowed(self):
        g = build_graph([(0, 1)], np.zeros((2, 0)))
        assert g.features.shape == (2, 0)


class TestShiftOperator:
    def test_k2_sym_identity_scaled(self):
        g = path_graph(2)
        m = shift_operator(g, "adjacency", "sym").toarray()
        assert np.allclose(m, [[0, 1], [1, 0]])

    def test_p3_rw_column_stochastic(self):
        g = path_graph(3)
        m = shift_operator(g, "adjacency", "rw").toarray()
        assert np.allclose(m.sum(axis=0), 1.0)

    def test_mean_row_stochastic(self):
        g = cycle_graph(5)
        m = shift_operator(g, "adjacency", "mean").toarray()
        assert np.allclose(m.sum(axis=1), 1.0)

    def test_k2_laplacian(self):
        g = path_graph(2)
        m = shift_operator(g, "laplacian", "none").toarray()
        assert np.allclose(m, [[1, -1], [-1, 1]])

    def test_laplacian_rows_sum_zero(self):
        g = random_graph(12, 0.4, np.random.default_rng(0))
        m = shift_operator(g, OperatorKind.LAPLACIAN,
                           Normalization.NONE).toarray()
        assert np.allclose(m.sum(axis=1), 0.0)

    def test_self_loops_added(self):
        g = path_graph(2)
        m = shift_operator(g, "adjacency", "none", self_loops=True).toarray()
        assert np.allclose(m, [[1, 1], [1, 1]])

    def test_sym_formula_exact(self, rng):
        g = random_graph(15, 0.3, rng)
        a = g.adjacency().toarray()
        d = a.sum(axis=1)
        dh = np.diag(np.where(d > 0, d ** -0.5, 0.0))
        want = dh @ a @ dh
        got = shift_operator(g, "adjacency", "sym").toarray()
        assert np.allclose(got, want)

    def test_isolated_node_rows_zero(self):
        g = build_graph([(0, 1)], np.zeros((3, 1)))
        m = shift_operator(g, "adjacency", "sym").toarray()
        assert np.all(m[2] == 0) and np.all(m[:, 2] == 0)

    def test_permutation_conjugation(self, rng):
        for _ in range(5):
            g = random_graph(10, 0.4, rng)
            perm = rng.permutation(10)
            p = np.zeros((10, 10))
            p[perm, np.arange(10)] = 1.0   # (P x)[perm[i]] = x[i]
            g2 = build_graph([(perm[u], perm[v]) for u, v in g.edges],
                             np.zeros((10, 1)))
            for norm in Normalization:
                m1 = shift_operator(g, "adjacency", norm).toarray()
                m2 = shift_operator(g2, "adjacency", norm).toarray()
                assert np.allclose(m2, p @ m1 @ p.T), norm


class TestLocalCounts:
    """The triangle and 4-cycle counts that balanced_forman reports."""

    @staticmethod
    def _squares(g, edge):
        c = balanced_forman(g, edge)
        return c.squares_uv, c.squares_vu, c.gamma_max

    def test_triangle_k3(self):
        assert balanced_forman(complete_graph(3), (0, 1)).triangles == 1

    def test_triangle_c4(self):
        assert balanced_forman(cycle_graph(4), (0, 1)).triangles == 0

    def test_triangle_k4(self):
        assert balanced_forman(complete_graph(4), (0, 1)).triangles == 2

    def test_triangle_missing_edge(self):
        with pytest.raises(InputError):
            balanced_forman(cycle_graph(4), (0, 2))

    def test_squares_c4(self):
        assert self._squares(cycle_graph(4), (0, 1)) == (1, 1, 1.0)

    def test_squares_c5(self):
        assert self._squares(cycle_graph(5), (0, 1)) == (0, 0, 1.0)

    def test_squares_k3(self):
        assert self._squares(complete_graph(3), (0, 1)) == (0, 0, 1.0)

    def test_counts_match_bruteforce(self, rng):
        for p in (0.2, 0.5, 0.8):
            for _ in range(10):
                g = random_graph(10, p, rng)
                a = g.adjacency().toarray()
                for e in g.edges:
                    for u, v in (e, e[::-1]):
                        u, v = int(u), int(v)
                        assert balanced_forman(g, (u, v)).triangles == (
                            brute_triangles(a, u, v))
                        suv, svu, gm = self._squares(g, (u, v))
                        bs_uv, bs_vu, bg = brute_square_profile(a, u, v)
                        assert (suv, svu) == (bs_uv, bs_vu)
                        assert gm == (bg if bg > 0 else 1.0)


class TestStats:
    def test_homophily_same_label(self):
        g = build_graph([(0, 1)], np.zeros((2, 1)), [1, 1])
        assert edge_homophily(g) == 1.0

    def test_homophily_bipartite(self):
        g = build_graph([(0, 2), (0, 3), (1, 2), (1, 3)], np.zeros((4, 1)),
                        [0, 0, 1, 1])
        assert edge_homophily(g) == 0.0

    def test_homophily_requires_labels(self):
        with pytest.raises(InputError):
            edge_homophily(path_graph(2))

    def test_p3_diameter(self):
        assert diameter(path_graph(3)) == 2

    def test_diameter_largest_component(self):
        g = build_graph([(0, 1), (1, 2), (2, 3), (4, 5)], np.zeros((6, 1)))
        assert diameter(g) == 3

    @staticmethod
    def _oracle_graphs():
        rng = np.random.default_rng(7)
        yield build_graph([], np.zeros((0, 1)))
        yield build_graph([], np.zeros((1, 1)))
        yield build_graph([], np.zeros((3, 1)))
        for i in range(20):
            n = int(rng.integers(2, 301))
            # mean degree from about 0.5 (many components) to about 6
            yield random_graph(n, (0.5 + 0.3 * i) / n, rng, features=1)
        yield path_graph(300)

    def test_components_and_diameter_match_oracle(self):
        seen_disconnected = False
        for g in self._oracle_graphs():
            dist = brute_hop_distances(g.adjacency().toarray())
            comp = connected_components(g)
            assert comp.dtype == np.int64
            np.testing.assert_array_equal(comp, brute_components(dist))
            assert diameter(g) == brute_diameter(dist)
            seen_disconnected |= g.num_nodes > 1 and comp.max() > 0
        assert seen_disconnected

    def test_diameter_crosses_source_block(self, monkeypatch):
        # a 300-node path 299-0-1-...-298: both ends lie past source row 256
        edges = [(299, 0)] + [(i, i + 1) for i in range(298)]
        g = build_graph(edges, np.zeros((300, 1)))
        rows = []
        real = csgraph.shortest_path

        def recording(*args, indices, **kwargs):
            rows.append(len(indices))
            return real(*args, indices=indices, **kwargs)

        monkeypatch.setattr(csgraph, "shortest_path", recording)
        assert diameter(g) == 299
        assert rows == [256, 44]

    TIES = [
        ([(0, 1), (1, 2), (2, 3), (4, 5), (4, 6), (4, 7)], 3),  # path + star
        ([(0, 1), (0, 2), (0, 3), (4, 5), (5, 6), (6, 7)], 2),  # star + path
    ]

    @pytest.mark.parametrize("edges, expected", TIES)
    def test_diameter_size_tie_takes_lowest_component(self, edges, expected):
        g = build_graph(edges, np.zeros((8, 1)))
        dist = brute_hop_distances(g.adjacency().toarray())
        assert diameter(g) == expected == brute_diameter(dist)

    @pytest.mark.parametrize("block", [1, 3, 7, 256])
    def test_union_diameters_equal_per_graph(self, block, monkeypatch):
        # empty, one-node, edgeless and disconnected graphs, components tied
        # in size, graphs of equal size; a source block of 1, 3 or 7 nodes
        # spans several graphs, or ends inside one
        rng = np.random.default_rng(3)
        graphs = [g for g in self._oracle_graphs() if g.num_nodes <= 80]
        graphs += [build_graph(edges, np.zeros((8, 1)))
                   for edges, _ in self.TIES]
        graphs += [random_graph(9, 0.25, rng, features=1) for _ in range(40)]
        want = [brute_diameter(brute_hop_distances(g.adjacency().toarray()))
                for g in graphs]
        monkeypatch.setattr(graph_module, "_SOURCE_BLOCK", block)
        rows, real = [], csgraph.shortest_path

        def recording(a, *args, indices, **kwargs):
            rows.append((len(indices), a.shape[0]))
            return real(a, *args, indices=indices, **kwargs)

        monkeypatch.setattr(csgraph, "shortest_path", recording)
        got = diameter(*disjoint_union(graphs))
        assert got.dtype == np.int64
        assert got.tolist() == want
        assert len(set(want)) > 3 and 0 in want
        # each call searches the node range of the graphs its sources cover
        largest = max(g.num_nodes for g in graphs)
        assert all(n <= block and m <= n + 2 * largest for n, m in rows)

    def test_disjoint_union(self):
        rng = np.random.default_rng(4)
        graphs = [random_graph(n, 0.4, rng) for n in (5, 1, 7, 5)]
        union, offsets = disjoint_union(graphs)
        assert offsets.tolist() == [0, 5, 6, 13]
        assert union.num_nodes == 18
        assert np.array_equal(union.edges, np.concatenate(
            [g.edges + o for g, o in zip(graphs, offsets)]))
        # still canonical: the edge array build_graph would make
        assert np.array_equal(union.edges,
                              build_graph(union.edges, union.features).edges)
        assert np.array_equal(union.features,
                              np.concatenate([g.features for g in graphs]))
        want = sp.block_diag([g.adjacency() for g in graphs], format="csr")
        assert (union.adjacency() != want).nnz == 0

    def test_single_graph_stats(self):
        g = build_graph([(0, 1), (1, 2)], np.zeros((3, 2)), [0, 1, 1])
        s = dataset_stats(g)
        assert s.edges == 4  # directed convention
        assert s.average_degree == pytest.approx(4 / 3)
        assert s.diameter == 2
        assert s.num_classes == 2

    def test_collection_stats(self):
        gs = [cycle_graph(4), cycle_graph(6)]
        s = dataset_stats(gs)
        assert s.nodes == 5.0
        assert s.diameter == 2.5
        assert s.edges == 5.0       # mean undirected |E|
        assert s.average_degree == 2.0
        assert s.num_graphs == 2
