import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from rewirebench import evaluation, models
from rewirebench import (Budget, InputError, ReadoutParams, SearchSpace,
                         augment, build_graph, gesn_embed, gesn_init,
                         input_features, one_hot, pool, predict, ridge_fit,
                         ridge_solve, spectral_radius)
from rewirebench.graph import OperatorKind, shift_operator

from conftest import path_graph, random_graph


class TestInputFeatures:
    def test_passthrough(self):
        x = np.arange(6.0).reshape(3, 2)
        assert input_features(x) is x

    def test_featureless_gets_constant_one(self):
        out = input_features(np.zeros((4, 0)))
        assert out.shape == (4, 1)
        assert np.all(out == 1.0)


def sgc_hops(m, x, hops):
    """{k: M^k X} for each k in hops, as `run --model sgc` makes them:
    evaluation._sgc_embeddings with m as a rewiring's operator."""
    space = SearchSpace(sgc_hops=tuple(hops))
    return {cfg["hops"]: h for cfg, h in evaluation._sgc_embeddings(
        build_graph([], x), m, space, Budget(None))}


class TestSGC:
    def test_zero_hops_identity(self, rng):
        # propagation starts from X itself: the first hop is M X bit for bit
        x = rng.normal(size=(5, 3))
        m = rng.normal(size=(5, 5))
        assert np.array_equal(sgc_hops(m, x, [1])[1], m @ x)

    def test_matches_matrix_power(self, rng):
        m = rng.normal(size=(6, 6))
        x = rng.normal(size=(6, 2))
        got = sgc_hops(m, x, (1, 2, 3, 5))
        for hops in (1, 2, 3, 5):
            want = np.linalg.matrix_power(m, hops) @ x
            assert np.allclose(got[hops], want)

    def test_path_counts_on_adjacency(self):
        # A^2 applied to an indicator counts walks of length 2
        g = path_graph(3)
        a = g.adjacency().toarray().astype(float)
        e0 = np.zeros((3, 1))
        e0[0] = 1.0
        out = sgc_hops(a, e0, [2])[2]
        assert np.allclose(out.ravel(), [1.0, 0.0, 1.0])

    def test_sparse_operator(self, rng):
        g = random_graph(8, 0.4, rng)
        op = shift_operator(g, OperatorKind.ADJACENCY)
        x = rng.normal(size=(8, 2))
        dense = sgc_hops(op.toarray(), x, [3])[3]
        assert np.allclose(sgc_hops(op, x, [3])[3], dense)


class TestReservoir:
    def test_spectral_radius_hit(self):
        for rho in (0.3, 0.9, 2.5):
            p = gesn_init(3, 64, 1.0, rho, seed=7)
            got = float(spectral_radius(p.w_hat, seed=1))
            assert got == pytest.approx(rho, rel=1e-8)

    @pytest.mark.parametrize("hidden", [16, 1024])
    def test_exact_rho_hits_target(self, hidden, monkeypatch):
        calls = []

        def counting(m, seed=0):
            calls.append(m.shape)
            return spectral_radius(m, seed=seed)
        monkeypatch.setattr(models, "spectral_radius", counting)
        p = gesn_init(3, hidden, 1.0, 0.9, seed=11)
        assert calls == [(hidden, hidden)]
        assert p.rho_raw == np.max(np.abs(np.linalg.eigvals(p.w_raw)))
        assert abs(float(spectral_radius(p.w_hat)) - 0.9) <= 1e-12

    def test_zero_rho_zero_matrix(self):
        p = gesn_init(2, 16, 1.0, 0.0, seed=0)
        assert np.all(p.w_hat == 0.0)

    def test_deterministic_in_seed(self):
        a = gesn_init(3, 32, 0.5, 0.9, seed=42)
        b = gesn_init(3, 32, 0.5, 0.9, seed=42)
        assert np.array_equal(a.w_in, b.w_in)
        assert np.array_equal(a.w_hat, b.w_hat)
        assert np.array_equal(a.bias, b.bias)

    def test_input_scaling_applied(self):
        a = gesn_init(3, 32, 1.0, 0.9, seed=1)
        b = gesn_init(3, 32, 2.0, 0.9, seed=1)
        assert np.allclose(b.w_in, 2.0 * a.w_in)
        assert np.allclose(b.bias, 2.0 * a.bias)
        assert np.array_equal(a.w_hat, b.w_hat)  # rho unaffected by scaling

    @pytest.mark.parametrize("scaling, rho", [(0.5, 2.0), (3.0, 0.25),
                                              (1.0, 0.0)])
    def test_rescaled_draw_equals_fresh_draw(self, scaling, rho):
        base = gesn_init(3, 16, 1.0, 1.0, seed=4)
        got = dataclasses.replace(base, input_scaling=scaling, target_rho=rho)
        want = gesn_init(3, 16, scaling, rho, seed=4)
        for name in ("w_in", "bias", "w_hat"):
            a, b = getattr(got, name), getattr(want, name)
            assert np.array_equal(a, b), name

    def test_weight_range(self):
        p = gesn_init(4, 128, 1.0, 1.0, seed=3)
        assert np.all(np.abs(p.w_in) <= 1.0)
        assert np.all(np.abs(p.bias) <= 1.0)


class TestGESNEmbed:
    def test_shape(self, rng):
        g = random_graph(9, 0.4, rng)
        p = gesn_init(2, 20, 1.0, 0.9, seed=0)
        x = rng.normal(size=(9, 2))
        out = gesn_embed(g.adjacency(), x, p)
        assert out.shape == (9, 20)

    def test_sparse_dense_agree(self, rng):
        g = random_graph(9, 0.4, rng)
        p = gesn_init(2, 16, 1.0, 0.8, seed=2)
        x = rng.normal(size=(9, 2))
        a = g.adjacency()
        assert np.allclose(gesn_embed(a, x, p), gesn_embed(a.toarray(), x, p))

    def test_zero_iterations_is_zero_state_update(self):
        p = gesn_init(1, 8, 1.0, 0.9, seed=0, iterations=0)
        out = gesn_embed(np.zeros((3, 3)), np.ones((3, 1)), p)
        assert np.all(out == 0.0)

    def test_matches_reference_loop(self, rng):
        # per-node reference recurrence with explicit neighbor sums
        g = random_graph(7, 0.5, rng)
        m = g.adjacency().toarray().astype(float)
        x = rng.normal(size=(7, 2))
        p = gesn_init(2, 10, 1.0, 0.7, seed=5, iterations=4)
        h = np.zeros((7, 10))
        for _ in range(4):
            new = np.zeros_like(h)
            for v in range(7):
                agg = np.zeros(10)
                for u in range(7):
                    agg += m[v, u] * (p.w_hat @ h[u])
                new[v] = np.tanh(p.w_in @ x[v] + agg + p.bias)
            h = new
        assert np.allclose(gesn_embed(m, x, p), h)

    @pytest.mark.parametrize("dense", [False, True])
    def test_in_place_update_equals_fresh_arrays(self, rng, dense):
        # the update as one expression with a new state array per step
        g = random_graph(30, 0.2, rng)
        m = g.adjacency().toarray() if dense else g.adjacency()
        x = rng.normal(size=(30, 2))
        p = gesn_init(2, 12, 1.0, 0.9, seed=6, iterations=9)
        drive = x @ p.w_in.T + p.bias
        h = np.zeros_like(drive)
        for _ in range(p.iterations):
            h = np.tanh(drive + m @ (h @ p.w_hat.T))
        assert np.array_equal(gesn_embed(m, x, p), h)

    def test_holds_four_state_sized_arrays(self):
        # drive, state, h W^T and M @ (h W^T): no transposed copy of the
        # state is made for the sparse product, and the state is returned
        n, hidden = 20_000, 16
        rng = np.random.default_rng(0)
        a = sp.random(n, n, density=2e-4, random_state=rng, format="csr")
        m = (a + a.T).tocsr()
        x = rng.normal(size=(n, 2))
        p = gesn_init(2, hidden, 1.0, 0.9, seed=0, iterations=3)
        tracemalloc.start()
        try:
            out = gesn_embed(m, x, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * n * hidden * 8, peak / (n * hidden * 8)
        assert out.flags.c_contiguous

    def test_featureless_graph(self):
        p = gesn_init(1, 8, 1.0, 0.5, seed=1)
        out = gesn_embed(np.eye(4), np.zeros((4, 0)), p)
        assert out.shape == (4, 8)
        assert np.all(np.isfinite(out))

    def test_bounded_by_tanh(self, rng):
        g = random_graph(10, 0.5, rng)
        p = gesn_init(2, 12, 5.0, 10.0, seed=3)
        out = gesn_embed(g.adjacency(), rng.normal(size=(10, 2)), p)
        assert np.all(np.abs(out) <= 1.0)


class TestPooling:
    def test_sum_and_mean(self, rng):
        e = rng.normal(size=(5, 4))
        assert np.allclose(pool(e, "sum"), e.sum(axis=0))
        assert np.allclose(pool(e, "mean"), e.mean(axis=0))

    @pytest.mark.parametrize("mode", ["sum", "mean"])
    def test_offsets_equal_per_graph_pool(self, rng, mode):
        # rows as gesn_embed returns them: the transpose of an H x N state
        sizes = [1, 7, 3, 40, 2]
        e = rng.normal(size=(4, sum(sizes))).T
        offsets = np.cumsum([0] + sizes[:-1])
        want = np.stack([pool(e[a:a + n], mode)
                         for a, n in zip(offsets, sizes)])
        assert np.array_equal(pool(e, mode, offsets), want)
        assert np.array_equal(pool(e, mode, [0]), pool(e, mode)[None])

    def test_empty_graph(self):
        with pytest.raises(InputError):
            pool(np.zeros((0, 4)))
        # reduceat alone would pool the next graph's first row here
        for offsets in ([0, 2, 2], [0, 3], [0, 1, 5]):
            with pytest.raises(InputError, match="empty graph"):
                pool(np.ones((3, 4)), "sum", offsets)

    def test_unknown_mode(self):
        with pytest.raises(InputError):
            pool(np.ones((2, 2)), "max")


def reference_ridge_fit(embeddings, labels, ridge_lambda):
    """One lambda, its own Gram matrix: (w_out, b_out, classes)."""
    e = np.asarray(embeddings, dtype=np.float64)
    classes = np.unique(labels)
    y = one_hot(np.asarray(labels), classes)
    n, d = e.shape
    aug = np.concatenate([e, np.ones((n, 1))], axis=1)
    reg = np.eye(d + 1) * ridge_lambda
    reg[d, d] = 0.0
    try:
        sol = np.linalg.solve(aug.T @ aug + reg, aug.T @ y)
    except np.linalg.LinAlgError:
        sol = np.linalg.pinv(aug.T @ aug + reg) @ (aug.T @ y)
    return sol[:d].T, sol[d], classes


def ridge_path(embeddings, labels, ridge_lambdas):
    """ridge_solve over every lambda at once, as one readout per lambda."""
    classes = np.unique(labels)
    sol = ridge_solve(augment(embeddings),
                      one_hot(np.asarray(labels), classes), ridge_lambdas)
    n, d = np.shape(embeddings)
    assert sol.shape == (len(ridge_lambdas), classes.shape[0], d + 1)
    return [ReadoutParams(w_out=s[:, :d], b_out=s[:, d], ridge_lambda=lam,
                          classes=classes)
            for s, lam in zip(sol, ridge_lambdas)]


def assert_near_lu_oracle(got, embeddings, labels, ridge_lambda):
    """The Cholesky readout against the LU oracle. Both solvers are backward
    stable, so each lands within about eps * cond of the exact solution; the
    bound is 4 eps cond(G + lambda I') relative to the largest oracle
    coefficient (w and b, since b carries the fit when w is near 0)."""
    w, b, classes = reference_ridge_fit(embeddings, labels, ridge_lambda)
    n, d = np.shape(embeddings)
    aug = np.hstack([embeddings, np.ones((n, 1))])
    reg = np.eye(d + 1) * ridge_lambda
    reg[d, d] = 0.0
    tol = 4 * np.finfo(float).eps * np.linalg.cond(aug.T @ aug + reg)
    scale = max(np.abs(w).max(), np.abs(b).max())
    err = max(np.abs(got.w_out - w).max(), np.abs(got.b_out - b).max())
    assert err <= tol * scale, (ridge_lambda, err / scale, tol)
    assert np.array_equal(got.classes, classes)


class TestRidgeReadout:
    def test_one_hot(self):
        y = one_hot(np.array([0, 2, 2, 1]), np.array([0, 1, 2]))
        assert np.array_equal(y, [[1, 0, 0], [0, 0, 1], [0, 0, 1], [0, 1, 0]])

    def test_separable_perfect_fit(self, rng):
        x = np.vstack([rng.normal(size=(20, 3)) + [6, 0, 0],
                       rng.normal(size=(20, 3)) - [6, 0, 0]])
        y = np.repeat([0, 1], 20)
        r = ridge_fit(x, y, 1e-6)
        preds, _ = predict(x, r)
        assert np.array_equal(preds, y)

    def test_matches_sklearn_style_normal_equations(self, rng):
        x = rng.normal(size=(30, 5))
        y = rng.integers(0, 3, size=30)
        lam = 0.7
        r = ridge_fit(x, y, lam)
        # oracle: solve the augmented system independently
        aug = np.hstack([x, np.ones((30, 1))])
        t = one_hot(y, np.unique(y))
        reg = lam * np.eye(6)
        reg[5, 5] = 0.0
        sol = np.linalg.solve(aug.T @ aug + reg, aug.T @ t)
        assert np.allclose(r.w_out, sol[:5].T)
        assert np.allclose(r.b_out, sol[5])

    def test_bias_unregularized(self):
        # constant embeddings + huge lambda: bias alone must carry the mean
        x = np.zeros((10, 2))
        y = np.array([0] * 10)
        r = ridge_fit(x, y, 1e8)
        _, scores = predict(x, r)
        assert np.allclose(scores, 1.0)

    def test_noninteger_class_ids(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([5, 5, 9, 9])
        r = ridge_fit(x, y, 1e-4)
        preds, _ = predict(x, r)
        assert set(preds) <= {5, 9}
        assert np.array_equal(r.classes, [5, 9])

    def test_singular_system_falls_back(self):
        # duplicate columns with lambda 0 make the gram singular
        x = np.ones((6, 3))
        y = np.array([0, 1, 0, 1, 0, 1])
        r = ridge_fit(x, y, 0.0)
        assert np.all(np.isfinite(r.w_out))

    @pytest.mark.parametrize("shape", [(240, 20), (12, 40)],
                             ids=["tall", "wide"])
    def test_path_equals_one_fit_per_lambda(self, rng, shape):
        x = rng.normal(size=shape)
        y = rng.integers(0, 4, size=shape[0]) * 3
        lams = (1e-5, 1e-2, 0.0, 1.0, 1e3)
        path = ridge_path(x, y, lams)
        assert [r.ridge_lambda for r in path] == list(lams)
        for lam, got in zip(lams, path):
            assert_near_lu_oracle(got, x, y, lam)
            one = ridge_fit(x, y, lam)
            assert np.array_equal(one.w_out, got.w_out), lam
            assert np.array_equal(one.b_out, got.b_out), lam

    def test_path_singular_lambdas_fall_back(self, caplog):
        x = np.ones((6, 3))
        y = np.array([0, 1, 0, 1, 0, 1])
        lams = (0.0, 0.5, 0.0)
        with caplog.at_level("WARNING", logger="rewirebench.models"):
            path = ridge_path(x, y, lams)
        warned = [r.getMessage() for r in caplog.records
                  if "pseudoinverse" in r.getMessage()]
        assert len(warned) == 2
        assert all("lambda=0" in m for m in warned)
        for lam, got in zip(lams, path):
            assert_near_lu_oracle(got, x, y, lam)

    def test_not_positive_definite_goes_cholesky_lu_pinv(self, caplog,
                                                         monkeypatch):
        # lambda 0 with duplicate columns: Cholesky reports a zero pivot,
        # LU finds the system singular, the pseudoinverse solves it
        x = np.ones((6, 3))
        y = np.array([0, 1, 0, 1, 0, 1])
        infos, lu_raised = [], []
        real_potrf, real_solve = models.dpotrf, np.linalg.solve

        def spy_potrf(*args, **kwargs):
            out = real_potrf(*args, **kwargs)
            infos.append(out[1])
            return out

        def spy_solve(*args, **kwargs):
            try:
                return real_solve(*args, **kwargs)
            except np.linalg.LinAlgError:
                lu_raised.append(1)
                raise

        monkeypatch.setattr(models, "dpotrf", spy_potrf)
        monkeypatch.setattr(np.linalg, "solve", spy_solve)
        with caplog.at_level("WARNING", logger="rewirebench.models"):
            got = ridge_fit(x, y, 0.0)
        assert len(infos) == 1 and infos[0] > 0
        assert lu_raised == [1]
        assert [r.getMessage() for r in caplog.records] == [
            "singular ridge system (lambda=0); pseudoinverse used"]
        w, b, _ = reference_ridge_fit(x, y, 0.0)
        assert np.array_equal(got.w_out, w) and np.array_equal(got.b_out, b)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_embeddings_give_nan_without_warning(self, rng, caplog,
                                                            bad):
        # as with LU: NaN readouts, no exception and no pseudoinverse, which
        # on a NaN matrix would raise
        x = rng.normal(size=(40, 5))
        x[7, 2] = bad
        y = rng.integers(0, 3, size=40)
        with caplog.at_level("WARNING", logger="rewirebench.models"):
            path = ridge_path(x, y, (1e-5, 1.0, 0.0))
        assert not [r for r in caplog.records if "pseudoinverse" in
                    r.getMessage()]
        for lam, got in zip((1e-5, 1.0, 0.0), path):
            w, b, _ = reference_ridge_fit(x, y, lam)
            assert np.isnan(w).all() and np.isnan(b).all()
            assert np.isnan(got.w_out).all() and np.isnan(got.b_out).all()
        aug = np.hstack([x, np.ones((40, 1))])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.pinv(aug.T @ aug)
