import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from rewirebench import (Budget, BudgetExceeded, InputError, RewireConfig,
                         apply_rewiring, build_graph, cayley_graph,
                         rewire_diffwire, rewire_egp, rewire_grlef,
                         rewire_sdrf, sl2_order)
from rewirebench import kernels, rewiring
from rewirebench.graph import Normalization
from rewirebench.curvature import edge_curvatures
from rewirebench.rewiring import _adj_sets, local_balanced_forman
from rewirebench.spectral import (KernelOperator, SpectralRadiusResult,
                                  effective_resistance, heat_kernel,
                                  spectral_radius)

from conftest import (all_resistances, brute_balanced_forman,
                      complete_graph, cycle_graph, path_graph, random_graph,
                      sparse_random_graph)


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
                                    dict(method="grlef", iteration_fraction=0.0),
                                    dict(method="sdrf", tau=0.0),
                                    dict(method="sdrf", tau=-1.0),
                                    dict(method="sdrf", tau=math.nan)])
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
        assert np.allclose(out.operator.toarray(), heat_kernel(t_rw, 1.0))

    def test_pagerank_columns_stochastic(self):
        g = cycle_graph(6)
        out = apply_rewiring(g, RewireConfig(method="pagerank", alpha=0.15))
        k = out.operator.toarray()
        assert np.allclose(k.sum(axis=0), 1.0)
        assert np.all(k >= 0)

    def test_graph_untouched(self):
        g = cycle_graph(5)
        out = apply_rewiring(g, RewireConfig(method="heat"))
        assert out.graph is g

    def test_sym_normalization_symmetric(self):
        g = cycle_graph(6)
        out = apply_rewiring(g, RewireConfig(
            method="heat", diffusion_norm=Normalization.SYM))
        k = out.operator.toarray()
        assert np.allclose(k, k.T)


def _reference_square_side(adj, u, v):
    nu, nv = adj[u], adj[v]
    count = 0
    best = 0
    for w in nu:
        if w == v or w in nv:
            continue
        cw = 0
        for k in adj[w]:
            if k == u or k == v:
                continue
            if k in nv and k not in nu:
                cw += 1
        if cw > 0:
            count += 1
            best = max(best, cw)
    return count, best


def _reference_curvature(adj, u, v):
    du, dv = len(adj[u]), len(adj[v])
    dmax, dmin = max(du, dv), min(du, dv)
    tri = len(adj[u] & adj[v])
    ric = 2.0 / du + 2.0 / dv - 2.0 + 2.0 * tri / dmax + tri / dmin
    cu, bu = _reference_square_side(adj, u, v)
    cv, bv = _reference_square_side(adj, v, u)
    gamma = max(bu, bv)
    if gamma > 0:
        ric += (cu + cv) / (gamma * dmax)
    return ric


def _reference_sdrf(g, config):
    """SDRF as one loop: a curvature dict keyed by edge, an inline formula,
    and one scalar curvature per candidate and per refreshed edge."""
    rng = np.random.default_rng(config.seed)
    adj = _adj_sets(g)
    edges = [tuple(map(int, e)) for e in g.edges]
    ric = {e: _reference_curvature(adj, *e) for e in edges}
    edit_log = []
    for it in range(config.num_iterations(len(edges))):
        vals = np.array([ric[e] for e in edges])
        w = np.exp(-vals / config.tau - np.max(-vals / config.tau))
        u, v = edges[int(rng.choice(len(edges), p=w / w.sum()))]
        best_gain, best_pair = 0.0, None
        base = ric[(u, v)]
        seen = set()
        for up in sorted(adj[u] | {u}):
            for vp in sorted(adj[v] | {v}):
                if up == vp:
                    continue
                a, b = (up, vp) if up < vp else (vp, up)
                if (a, b) in seen or b in adj[a]:
                    continue
                seen.add((a, b))
                adj[a].add(b)
                adj[b].add(a)
                gain = _reference_curvature(adj, u, v) - base
                adj[a].remove(b)
                adj[b].remove(a)
                if gain > best_gain + 1e-12 or (
                        best_pair is not None and
                        abs(gain - best_gain) <= 1e-12 and (a, b) < best_pair):
                    best_gain, best_pair = gain, (a, b)
        if best_pair is None:
            edit_log.append((it, "skip", u, v))
            continue
        a, b = best_pair
        adj[a].add(b)
        adj[b].add(a)
        edges.append((a, b))
        edit_log.append((it, "add", a, b))
        touched = {a, b}
        for _ in range(2):
            touched |= {y for x in touched for y in adj[x]}
        for e in edges:
            if e[0] in touched or e[1] in touched:
                ric[e] = _reference_curvature(adj, *e)
    return np.array(edges, dtype=np.int64).reshape(-1, 2), edit_log


def _sdrf_cases(rng):
    for p in (0.1, 0.2, 0.4, 0.7):
        for _ in range(3):
            yield random_graph(16, p, rng), 10
    yield path_graph(8), 4
    yield build_graph([(0, k) for k in range(1, 7)], np.zeros((7, 1))), 4
    for n in (3, 4, 5):
        yield cayley_graph(n), 12
    yield complete_graph(5), 3


def _refresh_set(adj, a, b):
    """Edges, as (min, max), whose counts the add of (a, b) can change: those
    touching a or b, and those joining N(a) \\ {b} to N(b) \\ {a}."""
    out = {(min(x, y), max(x, y)) for x in (a, b) for y in adj[x]}
    for x in adj[a] - {b}:
        out |= {(min(x, y), max(x, y)) for y in adj[x] & adj[b] if y != a}
    return out


def _closed_form_counts(adj, u, v, a, b):
    """Counts of the edge (u, v) once (a, b) is added, a in N(u) \\ {v} and
    b in N(v) \\ {u}, from the graph without it."""
    du, dv, tri, sq_uv, sq_vu, gamma = kernels.set_counts(adj, u, v)
    cu, cv = kernels.wedge_counts(adj, u, v), kernels.wedge_counts(adj, v, u)
    if a in adj[v] or b in adj[u]:
        return du, dv, tri, sq_uv, sq_vu, gamma
    return (du, dv, tri, sq_uv + (cu[a] == 0), sq_vu + (cv[b] == 0),
            max(gamma, cu[a] + 1, cv[b] + 1))


class TestSDRFLemmas:
    def test_refresh_set_holds_every_change(self, rng):
        for g, _ in _sdrf_cases(rng):
            adj = _adj_sets(g)
            edges = [tuple(e) for e in g.edges.tolist()]
            missing = [(a, b) for a in range(g.num_nodes)
                       for b in range(a + 1, g.num_nodes) if b not in adj[a]]
            for k in rng.permutation(len(missing))[:8]:
                a, b = missing[k]
                before = {e: kernels.set_counts(adj, *e) for e in edges}
                adj[a].add(b)
                adj[b].add(a)
                near = _refresh_set(adj, a, b)
                for e in edges:
                    if e not in near:
                        assert kernels.set_counts(adj, *e) == before[e], e
                adj[a].remove(b)
                adj[b].remove(a)

    def test_closed_form_candidates(self, rng):
        kinds = set()
        for g, _ in _sdrf_cases(rng):
            adj = _adj_sets(g)
            for i in rng.permutation(g.num_edges)[:6]:
                u, v = g.edges[i].tolist()
                for up in adj[u] | {u}:
                    for vp in adj[v] | {v}:
                        if up == vp or vp in adj[up]:
                            continue
                        endpoint = up == u or vp == v
                        if not endpoint:
                            want = _closed_form_counts(adj, u, v, up, vp)
                            kinds.add("triangle" if up in adj[v] or vp in adj[u]
                                      else "open")
                        adj[up].add(vp)
                        adj[vp].add(up)
                        got = kernels.set_counts(adj, u, v)
                        adj[up].remove(vp)
                        adj[vp].remove(up)
                        if endpoint:
                            kinds.add("endpoint")
                            # an endpoint candidate moves d_u or d_v
                            assert got[:2] != kernels.set_counts(adj, u, v)[:2]
                        else:
                            assert got == want, (u, v, up, vp)
        assert kinds == {"triangle", "open", "endpoint"}

    def test_refresh_calls_only_the_lemma_set(self, rng, monkeypatch):
        calls = []
        inner = rewiring.local_balanced_forman

        def spy(adj, edges):
            calls.append(list(edges))
            return inner(adj, edges)

        monkeypatch.setattr(rewiring, "local_balanced_forman", spy)
        g = random_graph(200, 0.03, rng)
        out = rewire_sdrf(g, RewireConfig(method="sdrf", seed=0))
        adds = [(a, b) for _, op, a, b in out.edit_log if op == "add"]
        assert len(adds) > 10 and len(calls) == 1 + len(adds)
        assert calls[0] == [tuple(e) for e in g.edges.tolist()]
        adj = _adj_sets(g)
        for (a, b), edges in zip(adds, calls[1:]):
            adj[a].add(b)
            adj[b].add(a)
            assert len(edges) == len(set(edges))
            assert set(edges) == _refresh_set(adj, a, b)
            assert (a, b) in edges


class TestSDRF:
    def test_matches_reference_loop(self, rng):
        for g, iterations in _sdrf_cases(rng):
            for seed in (0, 1):
                cfg = RewireConfig(method="sdrf", iterations=iterations,
                                   seed=seed)
                out = rewire_sdrf(g, cfg)
                want_edges, want_log = _reference_sdrf(g, cfg)
                assert out.edit_log == want_log
                assert np.array_equal(out.graph.edges,
                                      g.with_edges(want_edges).edges)

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
        # replay: before each add (a, b), some edge (u, v) with a in N[u] and
        # b in N[v] (the sampled one) gains strictly in the oracle's curvature
        adds = [e for e in out.edit_log if e[1] == "add"]
        assert adds  # sparse random graphs leave room for supports
        a_now = g.adjacency().toarray()
        for _, _, a, b in adds:
            a_next = a_now.copy()
            a_next[a, b] = a_next[b, a] = 1
            closed = a_now + np.eye(g.num_nodes)
            gains = [brute_balanced_forman(a_next, u, v)
                     - brute_balanced_forman(a_now, u, v)
                     for u, v in zip(*np.nonzero(a_now))
                     if closed[u, a] and closed[v, b]]
            assert max(gains) > 1e-12, (a, b)
            a_now = a_next

    def test_local_curvature_agrees_with_global(self, rng):
        for _ in range(10):
            g = random_graph(10, 0.4, rng)
            local = local_balanced_forman(_adj_sets(g), g.edges.tolist())
            assert local.tolist() == edge_curvatures(g).tolist()


def _reference_grlef(g, config):
    """GRLEF as one loop that recounts every edge's triangles in every
    iteration and keeps the edge list by list.remove and append."""
    rng = np.random.default_rng(config.seed)
    adj = _adj_sets(g)
    edges = [tuple(map(int, e)) for e in g.edges]
    edit_log = []

    def tri(x, y):
        return len(adj[x] & adj[y])

    def flip(u, v, up, vp):
        adj[u].remove(up); adj[up].remove(u)
        adj[v].remove(vp); adj[vp].remove(v)
        adj[u].add(vp); adj[vp].add(u)
        adj[v].add(up); adj[up].add(v)

    for it in range(config.num_iterations(len(edges))):
        counts = np.array([tri(*e) for e in edges], dtype=np.float64)
        probs = 1.0 / (counts + 1.0)
        probs /= probs.sum()
        flipped = False
        for _ in range(10):
            u, v = edges[int(rng.choice(len(edges), p=probs))]
            best, best_delta = None, np.inf
            for up in sorted(adj[u] - {v}):
                for vp in sorted(adj[v] - {u}):
                    if up == vp or vp in adj[u] or up in adj[v]:
                        continue
                    destroyed = tri(u, up) + tri(v, vp)
                    flip(u, v, up, vp)
                    created = tri(u, vp) + tri(v, up)
                    flip(u, v, vp, up)
                    if created - destroyed < best_delta:
                        best_delta, best = created - destroyed, (up, vp)
            if best is None:
                continue
            up, vp = best
            flip(u, v, up, vp)
            edges.remove((min(u, up), max(u, up)))
            edges.remove((min(v, vp), max(v, vp)))
            edges += [(min(u, vp), max(u, vp)), (min(v, up), max(v, up))]
            edit_log.append((it, "flip", u, v))
            flipped = True
            break
        if not flipped:
            edit_log.append((it, "skip", -1, -1))
    return np.array(edges, dtype=np.int64).reshape(-1, 2), edit_log


class TestGRLEF:
    def test_matches_reference_loop(self, rng):
        for g, iterations in _sdrf_cases(rng):
            for seed in (0, 1):
                cfg = RewireConfig(method="grlef", iterations=iterations,
                                   seed=seed)
                out = rewire_grlef(g, cfg)
                want_edges, want_log = _reference_grlef(g, cfg)
                assert out.edit_log == want_log
                assert np.array_equal(out.graph.edges,
                                      g.with_edges(want_edges).edges)

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
        assert edge_curvatures(g) == pytest.approx(np.full(g.num_edges, -1.0))


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
        assert sp.isspmatrix_csr(out.operator)
        assert np.allclose(out.operator.toarray(), a_cay.astype(float) @ a)


    def test_one_cayley_adjacency_per_size(self, monkeypatch):
        # a 10-40-node collection needs n = 3 (|SL(2, Z_3)| = 24) and n = 4
        # (48); each operator keeps the bits of the uncached product, with
        # its rows sorted
        built = []

        def counting(n):
            built.append(n)
            return cayley_graph(n)
        rewiring._cayley_adjacency.cache_clear()
        monkeypatch.setattr(rewiring, "cayley_graph", counting)
        rng = np.random.default_rng(5)
        graphs = [random_graph(k, 0.2, rng) for k in (10, 30, 24, 40, 25, 12)]
        ops = [rewire_egp(g).operator for g in graphs]
        assert built == [3, 4]
        for g, op in zip(graphs, ops):
            k = g.num_nodes
            a_cay = cayley_graph(3 if k <= 24 else 4).adjacency()[:k, :k]
            want = (a_cay @ g.adjacency()).tocsr()
            want.sort_indices()
            for part in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(op, part), getattr(want, part))


class TestDiffWire:
    def test_sparsity_pattern_matches_adjacency(self, rng):
        g = random_graph(12, 0.3, rng, connected=True)
        out = rewire_diffwire(g)
        a = g.adjacency().toarray()
        assert sp.isspmatrix_csr(out.operator)
        assert np.array_equal(out.operator.toarray() > 0, a > 0)

    def test_values_are_resistances(self):
        g = path_graph(4)
        out = rewire_diffwire(g)
        res = all_resistances(effective_resistance(g))
        for u, v in g.edges:
            assert out.operator[u, v] == pytest.approx(res[u, v])
            assert out.operator[u, v] == pytest.approx(1.0)  # tree edges

    def test_symmetric(self, rng):
        g = random_graph(10, 0.4, rng, connected=True)
        m = rewire_diffwire(g).operator.toarray()
        assert np.allclose(m, m.T)


class TestKernelMemory:
    """apply_rewiring at n = 1000 under tracemalloc: heat keeps only the
    sparse T, DiffWire one n x n inverse beside the O(m) edge values."""

    @pytest.mark.parametrize("method, bound", [("heat", 0.1),
                                               ("diffwire", 1.1)])
    def test_peak_in_doubles_of_n_squared(self, method, bound):
        n = 1000
        g = sparse_random_graph(n, 4.0, 0)
        g.adjacency()
        tracemalloc.start()
        try:
            apply_rewiring(g, RewireConfig(method=method))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * n * n * 8, peak / (n * n * 8)


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
        # a closed-form rho(M') only where the kernel has one
        closed = isinstance(out.operator, KernelOperator)
        assert closed == (method in ("heat", "pagerank"))
        if closed:
            assert spectral_radius(out.operator) == SpectralRadiusResult(
                out.operator.rho, 0, True)

    @pytest.mark.parametrize("method", ["egp", "diffwire"])
    def test_csr_operators_canonical(self, method):
        # every operator that is not a KernelOperator is a canonical CSR
        # (rows sorted, no duplicates), which the GESN embedding and a
        # collection's union take as given; a fresh matrix over its arrays
        # checks the structure, not a flag scipy cached
        rng = np.random.default_rng(6)
        for n in (10, 40, 90):
            op = apply_rewiring(random_graph(n, 0.1, rng),
                                RewireConfig(method=method)).operator
            fresh = sp.csr_matrix((op.data, op.indices, op.indptr),
                                  shape=op.shape)
            assert sp.isspmatrix_csr(op) and fresh.has_canonical_format

    @pytest.mark.parametrize("norm", ["rw", "sym", "mean", "none"])
    def test_diffusion_rho_matches_dense_eigvals(self, norm):
        # random graphs with isolated nodes, and edgeless ones
        rng = np.random.default_rng(4)
        graphs = [random_graph(n, p, rng) for n in (2, 7, 20)
                  for p in (0.0, 0.1, 0.4)]
        configs = [RewireConfig(method="heat", t=t, diffusion_norm=norm)
                   for t in (0.1, 1.0, 5.0)]
        if norm != "none":
            configs += [RewireConfig(method="pagerank", alpha=a,
                                     diffusion_norm=norm) for a in (0.05, 0.5)]
        for g in graphs:
            for cfg in configs:
                out = apply_rewiring(g, cfg)
                want = np.max(np.abs(np.linalg.eigvals(out.operator.toarray())))
                res = spectral_radius(out.operator)
                assert res.value == pytest.approx(want, rel=1e-12), (g, cfg)
                assert (res.iterations, res.converged) == (0, True)


class TestBudget:
    @pytest.mark.parametrize("seconds", [math.nan, -1.0, -math.inf])
    def test_rejects_nan_and_negative_seconds(self, seconds):
        with pytest.raises(InputError, match="budget must be >= 0 seconds"):
            Budget(seconds)

    @pytest.mark.parametrize("method", ["sdrf", "grlef"])
    def test_zero_budget_raises_at_first_iteration(self, method):
        with pytest.raises(BudgetExceeded):
            apply_rewiring(cycle_graph(6), RewireConfig(method=method),
                           Budget(0.0))

    @pytest.mark.parametrize("seconds", [None, math.inf])
    @pytest.mark.parametrize("method", ["sdrf", "grlef"])
    def test_unlimited_budget_never_raises(self, method, seconds, clock, rng):
        g = random_graph(12, 0.3, rng, connected=True)
        budget = Budget(seconds)
        clock.now = 1e12   # far past any finite budget
        cfg = RewireConfig(method=method, iterations=6, seed=1)
        out = apply_rewiring(g, cfg, budget)
        assert len({it for it, *_ in out.edit_log}) == 6
        assert out.edit_log == apply_rewiring(g, cfg).edit_log

    @pytest.mark.parametrize("method", ["sdrf", "grlef"])
    @pytest.mark.parametrize("iteration", [0, 4])
    def test_iteration_after_budget_spent_raises(self, method, iteration,
                                                 clock, rng):
        # the budget starts at t = 0, each later read is one second on, and
        # iteration k checks at t = k + 1: a budget of k + 1 s is spent there
        clock.step = 1.0
        g = random_graph(12, 0.3, rng, connected=True)
        budget = Budget(iteration + 1.0)
        with pytest.raises(BudgetExceeded):
            apply_rewiring(g, RewireConfig(method=method, iterations=6), budget)
        assert clock.reads == iteration + 2

    @pytest.mark.parametrize("method, build", [
        ("heat", "HeatOperator"), ("pagerank", "pagerank_kernel"),
        ("egp", "rewire_egp"), ("diffwire", "rewire_diffwire")])
    def test_kernel_build_checks_before_and_after(self, method, build, clock,
                                                   monkeypatch, rng):
        # the budget starts at t = 0 and each check is one second on: the
        # check before the build is at t = 1 and the one after it at t = 2
        clock.step = 1.0
        calls, real = [], getattr(rewiring, build)

        def recording(*args, **kwargs):
            calls.append(clock.reads)
            return real(*args, **kwargs)

        monkeypatch.setattr(rewiring, build, recording)
        g = random_graph(12, 0.3, rng, connected=True)
        cfg = RewireConfig(method=method)
        with pytest.raises(BudgetExceeded):   # spent before the build
            apply_rewiring(g, cfg, Budget(0.5))
        assert calls == []
        with pytest.raises(BudgetExceeded):   # spent during the build
            apply_rewiring(g, cfg, Budget(1.5))
        assert len(calls) == 1
        assert apply_rewiring(g, cfg, Budget(2.5)).method == method
