"""Acceptance suite: one test per release criterion.

Each test name carries its criterion number; the conftest terminal-summary
hook prints one PASS/FAIL/SKIP line per criterion at the end of the run.
Criteria 9 and 10 need a locally supplied citation-network dataset
(canonical layout) pointed to by the REWIREBENCH_CORA environment variable
and are skipped without it.
"""

import math
import os

import numpy as np
import pytest

from rewirebench import (NodeTask, RewireConfig, SearchSpace, build_graph,
                         cayley_graph, curvature_delta, effective_resistance,
                         gesn_embed, gesn_init, heat_kernel, load_canonical,
                         model_select, pagerank_kernel, pool, rewire_grlef,
                         rewire_sdrf, ridge_fit, spectral_gap,
                         spectral_radius)
from rewirebench.cli import main as cli_main
from rewirebench.curvature import edge_curvatures
from rewirebench.graph import Normalization, OperatorKind, shift_operator
from rewirebench.models import one_hot

from conftest import (all_resistances, brute_balanced_forman,
                      brute_square_profile, brute_triangles,
                      cheeger_bruteforce, complete_graph, curvature_counts,
                      path_graph, propagate, random_graph)
from test_datasets import write_canonical

CORA_ENV = "REWIREBENCH_CORA"


def _cora_task():
    path = os.environ.get(CORA_ENV)
    if not path:
        pytest.skip(f"set {CORA_ENV} to a canonical dataset directory")
    g = load_canonical(path)
    return NodeTask(graph=g, name="cora")


def test_criterion_01_curvature_oracle(rng):
    checked = 0
    for i in range(200):
        n = int(rng.integers(4, 13))
        p = (0.2, 0.5, 0.8)[i % 3]
        g = random_graph(n, p, rng)
        a = g.adjacency().toarray()
        ric, tri, sq_uv, sq_vu, gamma = curvature_counts(g)
        for j, (u, v) in enumerate(g.edges.tolist()):
            # enumerated counts match exactly, gamma as counted (0 on no
            # 4-cycle); the assembled float only up to summation order
            assert tri[j] == brute_triangles(a, u, v)
            assert (sq_uv[j], sq_vu[j], gamma[j]) == (
                brute_square_profile(a, u, v))
            want = brute_balanced_forman(a, u, v)
            assert abs(ric[j] - want) <= 1e-12, (n, p, u, v, ric[j], want)
            checked += 1
    assert checked > 1000


def test_criterion_02_cayley_expander():
    # The generators are A = [[1,1],[0,1]], B = [[1,0],[1,1]] and their
    # inverses, so every vertex has degree 4 and balanced Forman curvature
    # reduces to -1 + 3*tri/4 + (sq_uv + sq_vu)/(4*gamma). A and B have order
    # n in SL(2, Z_n), so an edge x-Gx lies on the cycle x, Gx, G^2 x, ...:
    #   n=3:  A^3 = I closes one triangle per edge          -> -1 + 3/4 = -0.25
    #   n=4:  A^4 = I closes one diagonal-free 4-cycle per
    #         side of each edge, gamma = 1                  -> -1 + 2/4 = -0.5
    #   n>=5: no cycle shorter than 5, so no triangle and
    #         no 4-cycle                                    -> -1.0
    # These are exact in binary, so the comparison is exact.
    expected = {
        3: (1, (0, 0, 0), -0.25),
        4: (0, (1, 1, 1), -0.5),
        5: (0, (0, 0, 0), -1.0),
    }
    for n, (tri, profile, value) in expected.items():
        g = cayley_graph(n)
        assert np.all(g.degrees == 4), f"n={n}: not 4-regular"
        a = g.adjacency().toarray()
        for u, v in g.edges:
            u, v = int(u), int(v)
            assert brute_triangles(a, u, v) == tri, (n, u, v)
            assert brute_square_profile(a, u, v) == profile, (n, u, v)
            assert brute_balanced_forman(a, u, v) == value, (n, u, v)
        curvatures = edge_curvatures(g)
        assert np.all(curvatures == value), (
            f"n={n}: edge curvature values {sorted(set(curvatures))}, "
            f"expected {value}")


def test_criterion_03_diffusion_series(rng):
    for trial in range(3):
        n = int(rng.integers(10, 51))
        g = random_graph(n, 0.2, rng, connected=True)
        t_op = shift_operator(g, OperatorKind.ADJACENCY, Normalization.RW)
        t_op = np.asarray(t_op.toarray() if hasattr(t_op, "toarray") else t_op)
        powers = [np.eye(n)]
        for _ in range(150):
            powers.append(t_op @ powers[-1])
        for t in (0.1, 1.0, 5.0):
            series = sum(math.exp(-t) * t ** m / math.factorial(m) * powers[m]
                         for m in range(len(powers)))
            assert np.max(np.abs(heat_kernel(t_op, t) - series)) < 1e-8
        for alpha in (0.05, 0.5, 0.95):
            series = sum(alpha * (1 - alpha) ** m * powers[m]
                         for m in range(len(powers)))
            # geometric tail bound: (1-alpha)^151 < 4e-4 only for alpha=0.05,
            # so extend analytically via the closed form remainder
            remainder = np.linalg.matrix_power(t_op, len(powers)) @ \
                pagerank_kernel(g, alpha, Normalization.RW).toarray() * \
                (1 - alpha) ** len(powers)
            assert np.max(np.abs(pagerank_kernel(g, alpha, Normalization.RW)
                                 .toarray() - series - remainder)) < 1e-8


def test_criterion_04_effective_resistance(rng):
    for k in range(2, 10):
        res = all_resistances(effective_resistance(path_graph(k)))
        assert abs(res[0, k - 1] - (k - 1)) < 1e-9
    res3 = all_resistances(effective_resistance(complete_graph(3)))
    assert abs(res3[0, 1] - 2.0 / 3.0) < 1e-9
    for _ in range(30):
        g = random_graph(int(rng.integers(4, 13)), 0.4, rng, connected=True)
        res = all_resistances(effective_resistance(g))
        n = g.num_nodes
        for u in range(n):
            for v in range(n):
                for w in range(n):
                    assert res[u, w] <= res[u, v] + res[v, w] + 1e-9
        h = cheeger_bruteforce(g)
        assert max(res[u, v] for u, v in g.edges) <= 1.0 / h ** 2 + 1e-9


def test_criterion_05_cheeger_bound(rng):
    for _ in range(100):
        g = random_graph(int(rng.integers(4, 15)), 0.35, rng, connected=True)
        h = cheeger_bruteforce(g)
        lam1 = spectral_gap(g)
        assert h >= lam1 / 2.0 - 1e-9, (h, lam1)


def test_criterion_06_grlef_invariant_and_gesn_contraction(rng):
    total_flips = 0
    for i in range(20):
        g = random_graph(16, 0.35, rng, connected=True)
        out = rewire_grlef(g, RewireConfig(method="grlef", iterations=50, seed=i))
        assert np.array_equal(out.graph.degrees, g.degrees)
        total_flips += sum(1 for e in out.edit_log if e[1] == "flip")
    assert total_flips >= 500  # the 1000-iteration budget, most of it flipping

    g = random_graph(20, 0.3, rng, connected=True)
    m = g.adjacency().toarray().astype(float)
    rho_m = float(spectral_radius(m, seed=0))
    x = rng.normal(size=(20, 3))
    target = 0.5 / rho_m          # rho(W_hat) * rho(M) = 0.5
    p30 = gesn_init(3, 64, 1.0, target, seed=1, iterations=30)
    p31 = gesn_init(3, 64, 1.0, target, seed=1, iterations=31)
    h30 = gesn_embed(m, x, p30)
    h31 = gesn_embed(m, x, p31)
    assert np.max(np.abs(h31 - h30)) < 1e-4


def test_criterion_07_permutation_suite(rng):
    tol = 1e-12
    for trial in range(50):
        g = random_graph(10, 0.4, rng, connected=True)
        perm = rng.permutation(10)
        p_mat = np.zeros((10, 10))
        p_mat[perm, np.arange(10)] = 1.0  # (P x)[perm[i]] = x[i]
        gp = build_graph([(int(perm[u]), int(perm[v])) for u, v in g.edges],
                         g.features[np.argsort(perm)])

        # curvature: edge-wise transport, each edge of g read in gp at its
        # permuted ends
        u, v = g.edges[:5].T
        a = edge_curvatures(g)[:5]
        b = curvature_counts(gp, perm[u], perm[v])[0]
        assert np.max(np.abs(a - b)) <= tol

        m = shift_operator(g, OperatorKind.ADJACENCY, Normalization.RW)
        mp = shift_operator(gp, OperatorKind.ADJACENCY, Normalization.RW)
        m = np.asarray(m.toarray())
        mp = np.asarray(mp.toarray())
        assert np.max(np.abs(mp - p_mat @ m @ p_mat.T)) <= tol

        # diffusion kernel conjugates with the permutation
        k = heat_kernel(m, 0.7)
        kp = heat_kernel(mp, 0.7)
        assert np.max(np.abs(kp - p_mat @ k @ p_mat.T)) <= 1e-12

        # embeddings are equivariant, pooled embeddings invariant
        x = g.features
        xp = p_mat @ x
        h = propagate(m, x, 3)
        hp = propagate(mp, xp, 3)
        assert np.max(np.abs(hp - p_mat @ h)) <= tol
        params = gesn_init(x.shape[1], 16, 1.0, 0.8, seed=3, iterations=8)
        e = gesn_embed(m, x, params)
        ep = gesn_embed(mp, xp, params)
        assert np.max(np.abs(ep - p_mat @ e)) <= tol
        assert np.max(np.abs(pool(ep, "sum") - pool(e, "sum"))) <= tol


def test_criterion_08_ridge_readout(rng):
    for lam in (1e-4, 1.0, 100.0):
        e = rng.normal(size=(200, 64))
        y = rng.integers(0, 4, size=200)
        r = ridge_fit(e, y, lam)
        t = one_hot(y, r.classes)
        resid = e @ r.w_out.T + r.b_out - t
        grad_w = 2.0 * (e.T @ resid + lam * r.w_out.T)
        grad_b = 2.0 * resid.sum(axis=0)
        assert np.max(np.abs(grad_w)) < 1e-6
        assert np.max(np.abs(grad_b)) < 1e-6
        aug = np.hstack([e, np.ones((200, 1))])
        reg = lam * np.eye(65)
        reg[64, 64] = 0.0
        oracle = np.linalg.solve(aug.T @ aug + reg, aug.T @ t)
        assert np.max(np.abs(r.w_out - oracle[:64].T)) < 1e-8
        assert np.max(np.abs(r.b_out - oracle[64])) < 1e-8


def test_criterion_09_desk_scale_end_to_end():
    task = _cora_task()
    sgc = model_select(task, "sgc", RewireConfig(method="baseline"),
                       SearchSpace(), seed=0)
    assert abs(100.0 * sgc.mean - 87.81) <= 3.0, f"sgc mean {100 * sgc.mean:.2f}"
    gesn = model_select(task, "gesn", RewireConfig(method="baseline"),
                        SearchSpace(), seed=0, budget_seconds=4 * 3600.0,
                        jobs=os.cpu_count() or 1)
    assert not gesn.oor
    assert abs(100.0 * gesn.mean - 87.70) <= 3.0, f"gesn mean {100 * gesn.mean:.2f}"


def test_criterion_10_curvature_delta_direction():
    task = _cora_task()
    g = task.graph
    vg = edge_curvatures(g)
    votes = 0
    for seed in range(10):
        cfg = RewireConfig(method="sdrf", iteration_fraction=0.2, seed=seed)
        out = rewire_sdrf(g, cfg)
        d = curvature_delta(g, out.graph, vg, edge_curvatures(out.graph))
        frac_neg = np.mean(d.after < d.before)
        if frac_neg > 0.5:
            votes += 1
    assert votes > 5, f"majority failed: {votes}/10 seeds"


def test_criterion_11_determinism(tmp_path, rng):
    # dataset on disk once; every pipeline stage twice with one master seed
    n = 20
    labels = [i % 2 for i in range(n)]
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < (0.4 if labels[i] == labels[j] else 0.1)]
    feats = np.random.default_rng(0).normal(size=(n, 2))
    d = tmp_path / "ds"
    write_canonical(d, edges, feats, labels=labels)

    outs = []
    for tag in ("a", "b"):
        rw = tmp_path / f"rw_{tag}"
        run = tmp_path / f"run_{tag}"
        assert cli_main(["rewire", "--dataset", str(d), "--rewire", "sdrf",
                         "--seed", "7", "--out", str(rw)]) == 0
        assert cli_main(["run", "--dataset", str(d), "--model", "gesn",
                         "--grid", "tiny", "--jobs", "1", "--seed", "7",
                         "--out", str(run)]) == 0
        outs.append((rw, run))
    (rw_a, run_a), (rw_b, run_b) = outs
    for name in ("rewired_edges.tsv", "edit_log.tsv", "curvature_before.csv",
                 "curvature_after.csv", "curvature_delta.csv", "spectral.csv"):
        assert (rw_a / name).read_bytes() == (rw_b / name).read_bytes(), name
    for name in ("report.csv", "summary.txt"):
        assert (run_a / name).read_bytes() == (run_b / name).read_bytes(), name

    # in-process numeric byte identity
    g = load_canonical(str(d))
    assert edge_curvatures(g).tobytes() == edge_curvatures(g).tobytes()
    m = shift_operator(g, OperatorKind.ADJACENCY, Normalization.RW).toarray()
    assert heat_kernel(m, 1.0).tobytes() == heat_kernel(m, 1.0).tobytes()
