import numpy as np
import pytest

from rewirebench import (InputError, RewireConfig, apply_rewiring,
                         balanced_forman, build_graph, cayley_graph,
                         rewire_diffwire, rewire_egp, rewire_grlef,
                         rewire_sdrf, sl2_order)
from rewirebench.graph import Normalization
from rewirebench.rewiring import _adj_sets, local_balanced_forman
from rewirebench.spectral import effective_resistance, heat_kernel

from conftest import complete_graph, cycle_graph, path_graph, random_graph


class TestConfig:
    def test_unknown_method(self):
        with pytest.raises(InputError):
            RewireConfig(method="nope").validate()

    @pytest.mark.parametrize("kw", [dict(method="heat", t=0.01),
                                    dict(method="heat", t=9.0),
                                    dict(method="pagerank", alpha=0.0),
                                    dict(method="pagerank",
                                         diffusion_norm=Normalization.NONE),
                                    dict(method="sdrf", iteration_fraction=0.5),
                                    dict(method="grlef", iteration_fraction=0.0)])
    def test_out_of_range(self, kw):
        with pytest.raises(InputError):
            RewireConfig(**kw).validate()

    def test_heat_accepts_unnormalized_operator(self):
        RewireConfig(method="heat",
                     diffusion_norm=Normalization.NONE).validate()
        out = apply_rewiring(cycle_graph(4), RewireConfig(
            method="heat", diffusion_norm=Normalization.NONE))
        assert out.operator.shape == (4, 4)

    def test_explicit_iterations_bypass_fraction(self):
        cfg = RewireConfig(method="sdrf", iterations=7, iteration_fraction=0.5)
        cfg.validate()
        assert cfg.num_iterations(100) == 7

    def test_fraction_rounds(self):
        assert RewireConfig(method="sdrf").num_iterations(25) == 2
        assert RewireConfig(method="sdrf").num_iterations(3) == 1


class TestDiffusion:
    def test_heat_matches_kernel_of_rw_operator(self):
        g = random_graph(8, 0.4, np.random.default_rng(0))
        out = apply_rewiring(g, RewireConfig(method="heat", t=1.0))
        a = g.adjacency().toarray().astype(float)
        deg = a.sum(axis=0)
        t_rw = a / np.where(deg > 0, deg, 1.0)[None, :]
        assert np.allclose(out.operator, heat_kernel(t_rw, 1.0))

    def test_pagerank_columns_stochastic(self):
        g = cycle_graph(6)
        out = apply_rewiring(g, RewireConfig(method="pagerank", alpha=0.15))
        assert np.allclose(out.operator.sum(axis=0), 1.0)
        assert np.all(out.operator >= 0)

    def test_graph_untouched(self):
        g = cycle_graph(5)
        out = apply_rewiring(g, RewireConfig(method="heat"))
        assert out.graph is g

    def test_sym_normalization_symmetric(self):
        g = cycle_graph(6)
        out = apply_rewiring(g, RewireConfig(
            method="heat", diffusion_norm=Normalization.SYM))
        assert np.allclose(out.operator, out.operator.T)


class TestSDRF:
    def test_only_adds_edges(self, rng):
        g = random_graph(14, 0.2, rng, connected=True)
        out = rewire_sdrf(g, RewireConfig(method="sdrf", iterations=5, seed=3))
        before = {tuple(e) for e in g.edges}
        after = {tuple(e) for e in out.graph.edges}
        assert before <= after
        adds = [e for e in out.edit_log if e[1] == "add"]
        assert len(after) == len(before) + len(adds)

    def test_deterministic(self, rng):
        g = random_graph(12, 0.25, rng, connected=True)
        cfg = RewireConfig(method="sdrf", iterations=6, seed=11)
        a = rewire_sdrf(g, cfg)
        b = rewire_sdrf(g, cfg)
        assert np.array_equal(a.graph.edges, b.graph.edges)
        assert a.edit_log == b.edit_log

    def test_complete_graph_all_skips(self):
        out = rewire_sdrf(complete_graph(5),
                          RewireConfig(method="sdrf", iterations=3, seed=0))
        assert all(op == "skip" for _, op, _, _ in out.edit_log)
        assert out.graph.num_edges == 10

    def test_added_edge_improves_target_curvature(self, rng):
        g = random_graph(12, 0.2, rng, connected=True)
        out = rewire_sdrf(g, RewireConfig(method="sdrf", iterations=4, seed=5))
        # replay: every logged add must strictly raise the curvature of the
        # edge selected at that step
        adds = [e for e in out.edit_log if e[1] == "add"]
        assert adds  # sparse random graphs leave room for supports
        for e in adds:
            assert out.graph.has_edge(e[2], e[3])

    def test_removal_flag(self, rng):
        g = random_graph(10, 0.6, rng)
        cfg = RewireConfig(method="sdrf", iterations=8, seed=1,
                           removal_enabled=True, removal_bound=0.1)
        out = rewire_sdrf(g, cfg)
        ops = {e[1] for e in out.edit_log}
        assert ops <= {"add", "remove", "skip"}

    def test_local_curvature_agrees_with_global(self, rng):
        for _ in range(10):
            g = random_graph(10, 0.4, rng)
            adj = _adj_sets(g)
            for u, v in g.edges:
                assert local_balanced_forman(adj, int(u), int(v)) == pytest.approx(
                    balanced_forman(g, (int(u), int(v))).total, abs=1e-12)


class TestGRLEF:
    def test_degree_sequence_preserved(self, rng):
        g = random_graph(16, 0.3, rng, connected=True)
        out = rewire_grlef(g, RewireConfig(method="grlef", iterations=8, seed=2))
        assert np.array_equal(np.sort(out.graph.degrees), np.sort(g.degrees))
        assert np.array_equal(out.graph.degrees, g.degrees)

    def test_edge_count_preserved(self, rng):
        g = random_graph(16, 0.3, rng, connected=True)
        out = rewire_grlef(g, RewireConfig(method="grlef", iterations=8, seed=2))
        assert out.graph.num_edges == g.num_edges

    def test_deterministic(self, rng):
        g = random_graph(14, 0.3, rng, connected=True)
        cfg = RewireConfig(method="grlef", iterations=6, seed=9)
        a = rewire_grlef(g, cfg)
        b = rewire_grlef(g, cfg)
        assert np.array_equal(a.graph.edges, b.graph.edges)

    def test_no_flip_on_complete_graph(self):
        out = rewire_grlef(complete_graph(5),
                           RewireConfig(method="grlef", iterations=3, seed=0))
        assert all(op == "skip" for _, op, _, _ in out.edit_log)

    def test_no_self_loops_or_duplicates(self, rng):
        g = random_graph(14, 0.3, rng, connected=True)
        out = rewire_grlef(g, RewireConfig(method="grlef", iterations=10, seed=4))
        e = out.graph.edges
        assert np.all(e[:, 0] < e[:, 1])
        assert len({tuple(r) for r in e}) == len(e)


class TestCayley:
    @pytest.mark.parametrize("n,expected", [(2, 6), (3, 24), (4, 48),
                                            (5, 120), (6, 144), (7, 336)])
    def test_sl2_order(self, n, expected):
        assert sl2_order(n) == expected

    @pytest.mark.parametrize("n", [3, 5, 6])
    def test_size_and_regularity(self, n):
        g = cayley_graph(n)
        assert g.num_nodes == sl2_order(n)
        assert np.all(g.degrees == 4)

    def test_connected(self):
        from rewirebench.graph import connected_components
        assert len(set(connected_components(cayley_graph(5)))) == 1

    def test_bfs_order_deterministic(self):
        a, b = cayley_graph(4), cayley_graph(4)
        assert np.array_equal(a.edges, b.edges)

    def test_girth_above_four_curvature(self):
        # for n >= 5 the graph has no triangles or diagonal-free squares,
        # so every edge sits at the tree-like floor 2/4 + 2/4 - 2
        g = cayley_graph(5)
        for u, v in g.edges[:20]:
            assert balanced_forman(g, (int(u), int(v))).total == pytest.approx(-1.0)


class TestEGP:
    def test_operator_shape_and_support(self, rng):
        g = random_graph(30, 0.2, rng, connected=True)
        out = rewire_egp(g)
        assert out.operator.shape == (30, 30)
        assert out.graph is g

    def test_matches_product(self, rng):
        g = random_graph(25, 0.2, rng, connected=True)
        out = rewire_egp(g)
        n = 2
        while sl2_order(n) < g.num_nodes:
            n += 1
        a_cay = cayley_graph(n).adjacency().toarray()[:25, :25]
        a = g.adjacency().toarray()
        assert np.allclose(out.operator, a_cay.astype(float) @ a)


class TestDiffWire:
    def test_sparsity_pattern_matches_adjacency(self, rng):
        g = random_graph(12, 0.3, rng, connected=True)
        out = rewire_diffwire(g)
        a = g.adjacency().toarray()
        assert np.array_equal(out.operator > 0, a > 0)

    def test_values_are_resistances(self):
        g = path_graph(4)
        out = rewire_diffwire(g)
        res = effective_resistance(g).matrix
        for u, v in g.edges:
            assert out.operator[u, v] == pytest.approx(res[u, v])
            assert out.operator[u, v] == pytest.approx(1.0)  # tree edges

    def test_symmetric(self, rng):
        g = random_graph(10, 0.4, rng, connected=True)
        out = rewire_diffwire(g)
        assert np.allclose(out.operator, out.operator.T)


class TestDispatch:
    def test_baseline_identity(self):
        g = cycle_graph(4)
        out = apply_rewiring(g, RewireConfig(method="baseline"))
        assert out.graph is g and out.operator is None

    @pytest.mark.parametrize("method", ["sdrf", "grlef"])
    def test_edit_methods_return_graphs(self, method, rng):
        g = random_graph(12, 0.3, rng, connected=True)
        out = apply_rewiring(g, RewireConfig(method=method, iterations=3, seed=0))
        assert out.operator is None
        assert out.graph.num_nodes == g.num_nodes

    @pytest.mark.parametrize("method", ["heat", "pagerank", "egp", "diffwire"])
    def test_kernel_methods_return_operators(self, method, rng):
        g = random_graph(12, 0.3, rng, connected=True)
        out = apply_rewiring(g, RewireConfig(method=method))
        assert out.operator is not None
        assert out.operator.shape == (12, 12)
