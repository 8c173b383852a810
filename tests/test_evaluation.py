import math
import time
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats

from rewirebench import (BudgetExceeded, CompatibilityError, GraphTask,
                         InputError, NodeTask, Normalization, OperatorKind,
                         RewireConfig, SearchSpace, accuracy, apply_rewiring,
                         auroc, build_graph, gesn_embed, gesn_init,
                         input_features, make_splits, model_select, pool,
                         predict, ridge_fit, shift_operator, significance,
                         spectral_radius, stratified_kfold)
from rewirebench import evaluation
from rewirebench.evaluation import check_compatibility, stratified_holdout
from rewirebench.rewiring import RewiredGraph

from conftest import random_graph


def blob_node_task(n_per_class=30, seed=0):
    """Two communities, dense inside and sparse across, separable features."""
    rng = np.random.default_rng(seed)
    n = 2 * n_per_class
    labels = np.repeat([0, 1], n_per_class)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            p = 0.3 if labels[i] == labels[j] else 0.02
            if rng.random() < p:
                edges.append((i, j))
    feats = rng.normal(size=(n, 3)) + np.where(labels[:, None] == 0, 2.0, -2.0)
    g = build_graph(edges, feats, labels=labels, name="blobs")
    return NodeTask(graph=g, name="blobs")


def unbalanced_node_task(n=80, positives=20, seed=0):
    """Binary AUROC task, a quarter positive: weak features, homophilous
    edges, so scores and their ranks differ across configs and lambdas."""
    rng = np.random.default_rng(seed)
    labels = np.zeros(n, dtype=np.int64)
    labels[rng.choice(n, positives, replace=False)] = 1
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < (0.15 if labels[i] == labels[j] else 0.04)]
    feats = rng.normal(size=(n, 6))
    feats[:, 0] += 0.5 * labels
    g = build_graph(edges, feats, labels=labels, name="unbalanced")
    return NodeTask(graph=g, metric="auroc", name="unbalanced")


def blob_graph_task(n_graphs=40, seed=0):
    """Dense vs sparse random graphs, label = density class."""
    rng = np.random.default_rng(seed)
    graphs = []
    for i in range(n_graphs):
        y = i % 2
        graphs.append(random_graph(10, 0.9 if y else 0.12, rng, connected=True))
    labels = np.array([i % 2 for i in range(n_graphs)])
    return GraphTask(graphs=graphs, labels=labels, name="density")


class TestSplits:
    def test_kfold_partitions(self):
        labels = np.array([0] * 20 + [1] * 15)
        folds = stratified_kfold(labels, k=5, seed=1)
        all_idx = np.concatenate(folds)
        assert np.array_equal(np.sort(all_idx), np.arange(35))

    def test_kfold_stratified_within_one(self):
        labels = np.array([0] * 20 + [1] * 15 + [2] * 10)
        for fold in stratified_kfold(labels, k=5, seed=3):
            counts = np.bincount(labels[fold], minlength=3)
            assert abs(counts[0] - 4) <= 1
            assert abs(counts[1] - 3) <= 1
            assert abs(counts[2] - 2) <= 1

    def test_kfold_deterministic(self):
        labels = np.random.default_rng(0).integers(0, 3, size=40)
        a = stratified_kfold(labels, seed=7)
        b = stratified_kfold(labels, seed=7)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_k_exceeds_population(self):
        with pytest.raises(InputError):
            stratified_kfold(np.array([0, 1]), k=5)

    def test_holdout_fraction(self):
        labels = np.array([0] * 40 + [1] * 40)
        rest, held = stratified_holdout(labels, np.arange(80), 0.25, seed=0)
        assert held.shape[0] == 20
        assert np.array_equal(np.sort(np.concatenate([rest, held])),
                              np.arange(80))
        assert np.bincount(labels[held]).tolist() == [10, 10]

    def test_make_splits_60_20_20(self):
        labels = np.array([0] * 50 + [1] * 50)
        splits = make_splits(labels, seed=0)
        assert len(splits) == 5
        for s in splits:
            assert s.test.shape[0] == 20
            assert s.val.shape[0] == 20
            assert s.train.shape[0] == 60
            assert np.intersect1d(s.train, s.test).size == 0
            assert np.intersect1d(s.val, s.test).size == 0
            assert np.intersect1d(s.train, s.val).size == 0

    def test_sealed_labels(self):
        labels = np.array([0, 1] * 10)
        s = make_splits(labels, seed=0)[0]
        assert not s.test_labels.revealed
        got = s.test_labels.reveal()
        assert s.test_labels.revealed
        assert np.array_equal(got, labels[s.test])


class TestMetrics:
    def test_accuracy(self):
        assert accuracy([0, 1, 1, 0], [0, 1, 0, 0]) == pytest.approx(0.75)

    def test_accuracy_empty(self):
        with pytest.raises(InputError):
            accuracy([], [])

    def test_auroc_perfect_and_inverted(self):
        y = np.array([0, 0, 1, 1])
        assert auroc([0.1, 0.2, 0.8, 0.9], y) == pytest.approx(1.0)
        assert auroc([0.9, 0.8, 0.2, 0.1], y) == pytest.approx(0.0)

    def test_auroc_chance_with_ties(self):
        y = np.array([0, 1, 0, 1])
        assert auroc([0.5, 0.5, 0.5, 0.5], y) == pytest.approx(0.5)

    def test_auroc_matches_trapezoid_oracle(self, rng):
        scores = rng.normal(size=200)
        y = (rng.random(200) < 0.3).astype(int)
        # oracle: explicit pairwise comparison count
        pos = scores[y == 1]
        neg = scores[y == 0]
        wins = sum((p > m) + 0.5 * (p == m) for p in pos for m in neg)
        want = wins / (len(pos) * len(neg))
        assert auroc(scores, y) == pytest.approx(want)

    @pytest.mark.parametrize("levels", [2, 5, 0])
    def test_auroc_equals_rankdata_reference(self, rng, levels):
        # tie-heavy scores on a few levels, and untied normal scores (0)
        for _ in range(50):
            n = int(rng.integers(2, 80))
            scores = (rng.integers(0, levels, n) / levels if levels
                      else rng.normal(size=n))
            y = np.arange(n) % 2
            ranks = scipy.stats.rankdata(scores)
            n_pos = n // 2
            want = float((ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2.0)
                         / (n_pos * (n - n_pos)))
            assert auroc(scores, y) == want

    def test_auroc_nan_score(self):
        assert math.isnan(auroc([0.1, np.nan, 0.3, 0.2], [0, 1, 0, 1]))

    def test_auroc_needs_both_classes(self):
        with pytest.raises(InputError):
            auroc([0.1, 0.2], [1, 1])


class TestSignificance:
    def test_identical_folds(self):
        p, flag = significance([0.8] * 5, [0.8] * 5)
        assert p == 1.0 and flag == "none"

    def test_constant_shift(self):
        p, flag = significance([0.5] * 5, [0.6] * 5)
        assert p == 0.0 and flag == "better"
        p, flag = significance([0.6] * 5, [0.5] * 5)
        assert p == 0.0 and flag == "worse"

    def test_matches_scipy_ttest(self, rng):
        compared = 0
        for trial in range(400):
            n = int(rng.integers(2, 11))
            if trial % 2:   # accuracy-like fractions of a test fold
                k = int(rng.integers(5, 200))
                b = rng.integers(0, k + 1, n) / k
                m = rng.integers(0, k + 1, n) / k
            else:
                b = rng.random(n)
                m = b + rng.normal(0.02, 0.05, size=n)
            if np.std(m - b, ddof=1) == 0.0:
                continue    # a constant shift is decided without a test
            p, _ = significance(b, m)
            assert p == float(scipy.stats.ttest_rel(m, b).pvalue)
            compared += 1
        assert compared > 350

    def test_ttest_flag_direction(self, rng):
        b = rng.random(5)
        m = b + rng.normal(0.2, 0.01, size=5)
        assert significance(b, m)[1] == "better"
        assert significance(m, b)[1] == "worse"

    def test_wilcoxon_variant(self, rng):
        b = rng.random(8)
        m = b + rng.normal(0.3, 0.01, size=8)
        p, flag = significance(b, m, test="wilcoxon")
        assert p == pytest.approx(float(scipy.stats.wilcoxon(m, b).pvalue))

    @pytest.mark.parametrize("method, p_want, flag", [
        # differences (1, -1, 3)/8: t = sqrt(3)/2
        ([0.625, 0.375, 0.875], 1 - math.sqrt(3 / 11), "none"),
        # differences (4, 3, 5)/16: t = 4 sqrt(3)
        ([0.75, 0.6875, 0.8125], 1 - math.sqrt(48 / 50), "better"),
    ], ids=["none", "better"])
    def test_fixed_three_fold_case(self, method, p_want, flag):
        # two degrees of freedom: p = 1 - |t| / sqrt(t^2 + 2) in closed form
        p, got = significance([0.5] * 3, method)
        assert p == pytest.approx(p_want, rel=1e-13) and got == flag

    def test_shape_mismatch(self):
        with pytest.raises(InputError):
            significance([0.5] * 4, [0.5] * 5)


class TestCompatibility:
    @pytest.mark.parametrize("method", ["heat", "pagerank"])
    def test_diffusion_node_only(self, method):
        with pytest.raises(CompatibilityError):
            check_compatibility("graph", "gesn", method)
        check_compatibility("node", "gesn", method)

    def test_sgc_node_only(self):
        with pytest.raises(CompatibilityError):
            check_compatibility("graph", "sgc", "baseline")
        check_compatibility("node", "sgc", "baseline")


class TestModelSelect:
    @pytest.mark.parametrize("model", ["sgc", "gesn"])
    def test_separable_node_task(self, model):
        task = blob_node_task()
        report = model_select(task, model, RewireConfig(method="baseline"),
                              SearchSpace.tiny(), seed=0)
        assert not report.oor
        assert len(report.folds) == 5
        assert report.mean > 0.9
        assert report.std == pytest.approx(
            np.std([f.metric for f in report.folds], ddof=1))

    def test_selected_config_recorded(self):
        task = blob_node_task()
        report = model_select(task, "sgc", RewireConfig(method="baseline"),
                              SearchSpace.tiny(), seed=0)
        for f in report.folds:
            assert {"operator", "hops", "ridge_lambda"} <= set(f.selected)

    def test_deterministic(self):
        task = blob_node_task()
        a = model_select(task, "sgc", RewireConfig(method="baseline"),
                         SearchSpace.tiny(), seed=3)
        b = model_select(task, "sgc", RewireConfig(method="baseline"),
                         SearchSpace.tiny(), seed=3)
        assert [f.metric for f in a.folds] == [f.metric for f in b.folds]
        assert [f.selected for f in a.folds] == [f.selected for f in b.folds]

    def test_rewired_node_task_runs(self):
        task = blob_node_task(n_per_class=15)
        report = model_select(task, "sgc", RewireConfig(method="pagerank"),
                              SearchSpace.tiny(), seed=0)
        assert len(report.folds) == 5
        assert report.mean > 0.8
        for f in report.folds:
            assert f.selected["operator"] == "kernel"

    def test_graph_task_gesn(self):
        task = blob_graph_task()
        report = model_select(task, "gesn", RewireConfig(method="baseline"),
                              SearchSpace.tiny(), seed=0)
        assert len(report.folds) == 5
        assert report.mean > 0.7
        for f in report.folds:
            assert f.selected["pooling"] in ("sum", "mean")

    def test_graph_task_rejects_sgc(self):
        with pytest.raises(CompatibilityError):
            model_select(blob_graph_task(), "sgc",
                         RewireConfig(method="baseline"), SearchSpace.tiny())

    def test_budget_marks_oor(self):
        task = blob_node_task()
        report = model_select(task, "gesn", RewireConfig(method="baseline"),
                              SearchSpace.tiny(), seed=0, budget_seconds=0.0)
        assert report.oor
        assert math.isnan(report.mean)

    @pytest.mark.parametrize("model,kind", [("sgc", "node"),
                                            ("gesn", "node"),
                                            ("gesn", "graph"),
                                            ("sgc", "auroc")])
    def test_streamed_selection_equals_per_fold_loop(self, model, kind):
        task = {"node": lambda: blob_node_task(12),
                "graph": lambda: blob_graph_task(20),
                "auroc": unbalanced_node_task}[kind]()
        space = SearchSpace.tiny()
        report = model_select(task, model, RewireConfig(), space, seed=1)
        want = reference_selection(task, model, space, seed=1)
        assert [(f.metric, f.val_metric, f.selected) for f in report.folds] \
            == want

    def test_test_labels_sealed_until_scored(self):
        task = blob_node_task(n_per_class=15)
        report = model_select(task, "sgc", RewireConfig(method="baseline"),
                              SearchSpace.tiny(), seed=0)
        assert len(report.folds) == 5  # reveal happened exactly at scoring


def reference_selection(task, model, space, seed):
    """Per fold, every (config, lambda) with its own ridge fit, in grid
    order: [(test metric, val metric, selected config)] per fold."""
    labels = np.asarray(task.labels)
    embeddings = list(evaluation._all_embeddings(
        task, model, RewireConfig(), space, seed, evaluation._Budget(None), 1))
    out = []
    for split in make_splits(labels, k=5, seed=seed):
        best = None
        for cfg, emb in embeddings:
            for lam in space.ridge_lambdas:
                readout = ridge_fit(emb[split.train], labels[split.train], lam)
                preds, scores = predict(emb[split.val], readout)
                val = evaluation._score(preds, scores, labels[split.val],
                                        task.metric, readout.classes)
                if best is None or val > best[0] + 1e-12:
                    best = (val, {**cfg, "ridge_lambda": lam}, emb)
        val, cfg, emb = best
        fit = np.concatenate([split.train, split.val])
        preds, scores = predict(emb[split.test],
                                ridge_fit(emb[fit], labels[fit],
                                          cfg["ridge_lambda"]))
        out.append((evaluation._score(preds, scores, labels[split.test],
                                      task.metric, None), val, cfg))
    return out


GESN_SPACE = SearchSpace(gesn_hidden=(8, 16), gesn_input_scaling=(0.5, 1.0),
                         gesn_rho=(0.5, 5.0))


def reference_gesn(rewired, space, seed, pooling=None):
    """The GESN grid with a fresh reservoir for every graph and config."""
    out = []
    for h in space.gesn_hidden:
        for s in space.gesn_input_scaling:
            for r in space.gesn_rho:
                embs = []
                for rw in rewired:
                    op = rw.operator
                    if op is None:
                        op = shift_operator(rw.graph, OperatorKind.ADJACENCY,
                                            Normalization.NONE).matrix
                    rho_m = float(spectral_radius(op, seed=seed))
                    rho_m = rho_m if rho_m > 0 else 1.0
                    x = input_features(rw.graph.features)
                    params = gesn_init(x.shape[1], h, s, r / rho_m, seed=seed)
                    embs.append(gesn_embed(op, x, params))
                cfg = {"hidden": h, "input_scaling": s, "rho": r}
                if pooling is None:
                    out.append((cfg, embs[0]))
                for p in pooling or ():
                    out.append(({**cfg, "pooling": p},
                                np.stack([pool(e, p) for e in embs])))
    return out


def gesn_grid(task, rconfig, jobs=1, seed=2):
    budget = evaluation._Budget(None)
    return list(evaluation._all_embeddings(task, "gesn", rconfig, GESN_SPACE,
                                           seed, budget, jobs))


def assert_same_grid(got, want, rtol=None):
    """Equal configs in order, and embeddings bitwise equal or, with `rtol`,
    within rtol of each embedding's largest entry."""
    assert [c for c, _ in got] == [c for c, _ in want]
    for (cfg, a), (_, b) in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape, cfg
        if rtol is None:
            assert np.array_equal(a, b), cfg
        else:
            assert np.max(np.abs(a - b)) <= rtol * np.max(np.abs(b)), cfg


def rewire_each(task, rconfig):
    """The per-graph rewiring seeds of model_select's graph tasks."""
    return [apply_rewiring(g, replace(rconfig, seed=rconfig.seed + 104729 * gi))
            for gi, g in enumerate(task.graphs)]


class TestGESNGrid:
    @pytest.mark.parametrize("method", ["baseline", "pagerank"])
    def test_node_task_equals_per_config_draws(self, method):
        task = blob_node_task(n_per_class=10)
        rconfig = RewireConfig(method=method)
        want = reference_gesn([apply_rewiring(task.graph, rconfig)],
                              GESN_SPACE, seed=2)
        for jobs in (1, 2):
            assert_same_grid(gesn_grid(task, rconfig, jobs), want)

    @pytest.mark.parametrize("method", ["baseline", "sdrf"])
    def test_graph_task_equals_per_graph_draws(self, method):
        # one pass over the block-diagonal union scales each block by
        # 1/rho(M_i) instead of the reservoir, which moves the last bits
        task = blob_graph_task(n_graphs=6)
        rconfig = RewireConfig(method=method, seed=3)
        want = reference_gesn(rewire_each(task, rconfig), GESN_SPACE, seed=2,
                              pooling=GESN_SPACE.pooling)
        assert_same_grid(gesn_grid(task, rconfig), want, rtol=1e-9)

    def test_mixed_collection_equals_per_graph_draws(self, monkeypatch):
        # a graph above the exact sparse cap (its rho(M) iterates), a
        # one-node graph and an edgeless one (rho(M) = 0, taken as 1)
        rng = np.random.default_rng(7)
        graphs = [random_graph(70, 0.08, rng),
                  build_graph([], rng.normal(size=(1, 2))),
                  random_graph(12, 0.4, rng),
                  build_graph([], rng.normal(size=(5, 2)))]
        task = GraphTask(graphs=graphs, labels=np.array([0, 1, 0, 1]))
        iterations = []
        real = evaluation.spectral_radius

        def recording(*args, **kwargs):
            res = real(*args, **kwargs)
            iterations.append(res.iterations)
            return res
        monkeypatch.setattr(evaluation, "spectral_radius", recording)
        got = gesn_grid(task, RewireConfig())
        assert iterations[0] > 0 and iterations[1:] == [0, 0, 0]
        want = reference_gesn(rewire_each(task, RewireConfig()), GESN_SPACE,
                              seed=2, pooling=GESN_SPACE.pooling)
        assert_same_grid(got, want, rtol=1e-9)

    def test_empty_graph_in_collection_refused(self):
        # shift_operator refuses an empty graph, so give it an operator to
        # reach the pooling of the union, where its segment has no rows
        rng = np.random.default_rng(0)
        rewired = [apply_rewiring(random_graph(6, 0.5, rng), RewireConfig())
                   for _ in range(3)]
        rewired[1] = RewiredGraph(method="baseline",
                                  graph=build_graph([], np.zeros((0, 2))),
                                  operator=np.zeros((0, 0)))
        grid = evaluation._gesn_embeddings(rewired, GESN_SPACE, 2,
                                           evaluation._Budget(None), 1,
                                           GESN_SPACE.pooling)
        with pytest.raises(InputError, match="cannot pool an empty graph"):
            next(grid)

    @pytest.mark.parametrize("kind", ["node", "graph"])
    def test_draw_per_hidden_size_and_rho_per_graph(self, kind, monkeypatch):
        task = blob_node_task(10) if kind == "node" else blob_graph_task(6)
        calls = {"gesn_init": 0, "spectral_radius": 0}

        def counting(name):
            real = getattr(evaluation, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(evaluation, name, counting(name))
        gesn_grid(task, RewireConfig(), jobs=2)
        num_graphs = 1 if kind == "node" else len(task.graphs)
        assert calls == {"gesn_init": len(GESN_SPACE.gesn_hidden),
                         "spectral_radius": num_graphs}

    def test_graph_task_report_independent_of_jobs(self):
        task = blob_graph_task(n_graphs=20)
        a, b = (model_select(task, "gesn", RewireConfig(method="sdrf"),
                             SearchSpace.tiny(), seed=1, jobs=jobs)
                for jobs in (1, 2))
        assert [(f.metric, f.val_metric, f.selected) for f in a.folds] == \
            [(f.metric, f.val_metric, f.selected) for f in b.folds]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_configs_embedded_ahead_of_selection(self, jobs, monkeypatch):
        embedded, at_first_fit = [], []
        real_embed, real_path = evaluation.gesn_embed, evaluation.ridge_path

        def counting_embed(*args, **kwargs):
            embedded.append(1)
            return real_embed(*args, **kwargs)

        def recording_path(*args, **kwargs):
            if not at_first_fit:
                time.sleep(0.2)   # time enough for workers to run far ahead
                at_first_fit.append(len(embedded))
            return real_path(*args, **kwargs)

        monkeypatch.setattr(evaluation, "gesn_embed", counting_embed)
        monkeypatch.setattr(evaluation, "ridge_path", recording_path)
        report = model_select(blob_node_task(10), "gesn", RewireConfig(),
                              GESN_SPACE, seed=2, jobs=jobs)
        assert len(report.folds) == 5
        assert len(embedded) == 8   # the whole grid, each config once
        assert at_first_fit[0] <= jobs + 1

    def test_graph_task_budget_marks_oor(self):
        report = model_select(blob_graph_task(), "gesn",
                              RewireConfig(method="baseline"),
                              SearchSpace.tiny(), seed=0, budget_seconds=0.0)
        assert report.oor
        assert report.folds == []
