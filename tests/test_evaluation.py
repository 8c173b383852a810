import math
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
import scipy.stats

from rewirebench import (Budget, BudgetExceeded, CompatibilityError,
                         GraphTask, InputError, NodeTask, Normalization,
                         OperatorKind, RewireConfig, SearchSpace,
                         apply_rewiring, build_graph, gesn_embed,
                         gesn_init, input_features, make_splits, model_select,
                         pool, predict, ridge_fit, shift_operator,
                         significance, spectral_radius, stratified_kfold)
from rewirebench import evaluation, rewiring, spectral
from rewirebench.evaluation import check_compatibility, stratified_holdout
from rewirebench.graph import disjoint_union
from rewirebench.spectral import EXACT_SPARSE_RADIUS_ROWS
from rewirebench.rewiring import RewiredGraph

from conftest import block_union, pairwise_auroc, random_graph


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


def tied_node_task(metric="accuracy", seed=0):
    """Four cliques of ten nodes, each clique's feature rows one duplicated
    row: every operator and hop embeds a node as its clique's row, so many
    configs and lambdas tie on validation. Binary labels whose positive
    share rises with the clique."""
    rng = np.random.default_rng(seed)
    group = np.repeat(np.arange(4), 10)
    labels = (rng.random(40) < np.array([0.2, 0.4, 0.6, 0.8])[group]).astype(
        np.int64)
    edges = [(i, j) for i in range(40) for j in range(i + 1, 40)
             if group[i] == group[j]]
    feats = rng.normal(size=(4, 3))[group]
    g = build_graph(edges, feats, labels=labels, name="tied")
    return NodeTask(graph=g, metric=metric, name="tied")


def blob_graph_task(n_graphs=40, seed=0):
    """Dense vs sparse random graphs, label = density class."""
    rng = np.random.default_rng(seed)
    graphs = []
    for i in range(n_graphs):
        y = i % 2
        graphs.append(random_graph(10, 0.9 if y else 0.12, rng, connected=True))
    labels = np.array([i % 2 for i in range(n_graphs)])
    return GraphTask(graphs=graphs, labels=labels, name="density")


def reference_kfold(labels, seed):
    """The per-node fold protocol that the array version replaced."""
    k = evaluation.N_FOLDS
    rng = np.random.default_rng(seed)
    folds = [[] for _ in range(k)]
    offset = 0
    for cls in np.unique(labels):
        idx = rng.permutation(np.flatnonzero(labels == cls))
        for j, i in enumerate(idx):
            folds[(j + offset) % k].append(int(i))
        offset += idx.shape[0] % k
    return [np.sort(np.array(f, dtype=np.int64)) for f in folds]


def reference_holdout(labels, indices, seed):
    frac = evaluation.VALIDATION_SHARE
    rng = np.random.default_rng(seed)
    held = []
    for cls in np.unique(labels[indices]):
        idx = rng.permutation(indices[labels[indices] == cls])
        held.extend(int(i) for i in idx[:int(round(frac * idx.shape[0]))])
    held = np.sort(np.array(held, dtype=np.int64))
    return np.setdiff1d(indices, held), held


def reference_splits(labels, seed):
    out = []
    for i, test in enumerate(reference_kfold(labels, seed)):
        rest = np.setdiff1d(np.arange(labels.shape[0]), test)
        out.append((*reference_holdout(labels, rest, seed + 1000 + i),
                    test))
    return out


SPLIT_LABELS = {
    "three_classes": np.random.default_rng(0).integers(0, 3, size=97),
    "unbalanced_binary": np.array([0] * 90 + [1] * 7)[
        np.random.default_rng(1).permutation(97)],
    "fewer_than_k": np.array([4] * 30 + [9] * 3 + [2] * 1 + [7] * 12),
    "negative_sparse_ids": np.random.default_rng(2).choice(
        [-5, -1, 3, 40], size=61, p=[0.1, 0.4, 0.3, 0.2]),
}


class TestSplits:
    @pytest.mark.parametrize("name", sorted(SPLIT_LABELS))
    @pytest.mark.parametrize("seed", [0, 1, 5, 123])
    def test_splits_equal_reference_protocol(self, name, seed):
        labels = SPLIT_LABELS[name]
        for got, want in zip(stratified_kfold(labels, seed),
                             reference_kfold(labels, seed), strict=True):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        for split, (train, val, test) in zip(
                make_splits(labels, seed), reference_splits(labels, seed),
                strict=True):
            assert np.array_equal(split.train, train)
            assert np.array_equal(split.val, val)
            assert np.array_equal(split.test, test)
        # an unsorted subset keeps its per-class draw order
        subset = np.random.default_rng(seed).permutation(labels.shape[0])[:40]
        for got, want in zip(stratified_holdout(labels, subset, seed),
                             reference_holdout(labels, subset, seed),
                             strict=True):
            assert np.array_equal(got, want)

    def test_kfold_partitions(self):
        labels = np.array([0] * 20 + [1] * 15)
        folds = stratified_kfold(labels, seed=1)
        all_idx = np.concatenate(folds)
        assert np.array_equal(np.sort(all_idx), np.arange(35))

    def test_kfold_stratified_within_one(self):
        labels = np.array([0] * 20 + [1] * 15 + [2] * 10)
        for fold in stratified_kfold(labels, seed=3):
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
            stratified_kfold(np.array([0, 1]))

    def test_holdout_fraction(self):
        labels = np.array([0] * 40 + [1] * 40)
        rest, held = stratified_holdout(labels, np.arange(80), seed=0)
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


def accuracy(preds, labels):
    """Accuracy as selection scores it: _lambda_scores of one-hot scores
    that put each row's argmax on its prediction."""
    preds, labels = np.asarray(preds), np.asarray(labels)
    classes = np.unique(np.concatenate([preds, labels]))
    scores = (classes[None, :] == preds[:, None]).astype(float)
    return evaluation._lambda_scores(scores[:, None, :], classes, labels,
                                     "accuracy")[0]


def auroc(scores, labels):
    """AUROC as selection scores it: _lambda_scores of one score column."""
    scores = np.asarray(scores, dtype=np.float64)
    return evaluation._lambda_scores(scores[:, None, None], None,
                                     np.asarray(labels), "auroc")[0]


class TestMetrics:
    def test_accuracy(self):
        preds, labels = np.array([0, 1, 1, 0]), np.array([0, 1, 0, 0])
        assert accuracy(preds, labels) == np.mean(preds == labels) == 0.75

    def test_accuracy_empty(self):
        with pytest.raises(InputError):
            accuracy([], [])

    def test_auroc_perfect_and_inverted(self):
        y = np.array([0, 0, 1, 1])
        for scores, want in (([0.1, 0.2, 0.8, 0.9], 1.0),
                             ([0.9, 0.8, 0.2, 0.1], 0.0)):
            assert auroc(scores, y) == pairwise_auroc(scores, y) == want

    def test_auroc_chance_with_ties(self):
        y = np.array([0, 1, 0, 1])
        scores = [0.5, 0.5, 0.5, 0.5]
        assert auroc(scores, y) == pairwise_auroc(scores, y) == 0.5

    def test_auroc_matches_trapezoid_oracle(self, rng):
        scores = rng.normal(size=200)
        y = (rng.random(200) < 0.3).astype(int)
        # oracle: explicit pairwise comparison count
        assert auroc(scores, y) == pairwise_auroc(scores, y)

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

    @pytest.mark.parametrize("n", [1, 7, 200, 1001])
    def test_stacked_accuracy_equals_per_lambda_accuracy(self, rng, n):
        # one argmax and one mean over the (n, L, C) block, against the
        # mean hit rate of each lambda's argmax: equal bit for bit, with
        # all-NaN rows (argmax picks column 0) and tied maxima (first wins)
        classes = np.array([2, 5, 7, 11])
        scores = rng.normal(size=(n, 6, 4))
        scores[rng.random((n, 6)) < 0.2] = np.nan
        scores[0, :, :] = np.nan
        scores[rng.random((n, 6)) < 0.2, 1:] = 0.5
        labels = rng.choice(classes, n)
        got = evaluation._lambda_scores(scores, classes, labels, "accuracy")
        want = [float(np.mean(classes[np.argmax(scores[:, j], axis=1)]
                              == labels)) for j in range(6)]
        assert all(type(v) is float for v in got)
        assert got == want

    def test_stacked_accuracy_empty_refused(self):
        with pytest.raises(InputError, match="empty prediction set"):
            evaluation._lambda_scores(np.zeros((0, 3, 2)), np.array([0, 1]),
                                      np.zeros(0, dtype=np.int64), "accuracy")


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

    @pytest.mark.parametrize("method, p_want, flag", [
        # differences (1, -1, 3)/8: t = sqrt(3)/2
        ([0.625, 0.375, 0.875], 1 - math.sqrt(3 / 11), "none"),
        # differences (4, 3, 5)/16: t = 4 sqrt(3)
        ([0.75, 0.6875, 0.8125], 1 - math.sqrt(48 / 50), "better"),
        # differences (2, 3, 5)/16: t = 10 / sqrt(7), p = 0.063 > ALPHA
        ([0.625, 0.6875, 0.8125], 1 - math.sqrt(50 / 57), "none"),
    ], ids=["none", "better", "above-alpha"])
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
                                            ("sgc", "auroc"),
                                            ("sgc", "default-lambdas"),
                                            ("sgc", "tied"),
                                            ("sgc", "tied-auroc")])
    def test_streamed_selection_equals_per_fold_loop(self, model, kind):
        task = {"node": lambda: blob_node_task(12),
                "graph": lambda: blob_graph_task(20),
                "auroc": unbalanced_node_task,
                "default-lambdas": lambda: blob_node_task(12),
                "tied": tied_node_task,
                "tied-auroc": lambda: tied_node_task("auroc")}[kind]()
        space = SearchSpace.tiny()
        if kind == "default-lambdas":
            space = replace(space, ridge_lambdas=SearchSpace().ridge_lambdas)
            assert len(space.ridge_lambdas) == 9
        report = model_select(task, model, RewireConfig(), space, seed=1)
        table = []
        want = reference_selection(task, model, space, seed=1, table=table)
        assert [(f.metric, f.val_metric, f.selected) for f in report.folds] \
            == want
        if kind.startswith("tied"):
            # in some fold, several configs and several lambdas share the
            # best validation score, and the first in grid order won
            tops = [[(cfg, lam) for cfg, lam, val in rows
                     if val == max(v for _, _, v in rows)] for rows in table]
            assert any(len({str(c) for c, _ in top}) > 1 and
                       len({lam for _, lam in top}) > 1 for top in tops)

    def test_selection_memory_bounded(self):
        # selection holds each fold's selected embedding, the config being
        # scored and the augmented copy of a fold's training rows; a
        # per-lambda copy of the training rows would pass 8 n (d+1) doubles
        n, d = 1000, 32
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 4, n)
        ends = rng.integers(0, n, size=(3 * n, 2))
        edges = [(int(u), int(v)) for u, v in ends if u != v]
        feats = rng.normal(size=(n, d)) + labels[:, None]
        task = NodeTask(graph=build_graph(edges, feats, labels=labels))
        tracemalloc.start()
        try:
            report = model_select(task, "sgc", RewireConfig(),
                                  SearchSpace.tiny(), seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(report.folds) == 5
        assert peak <= 8 * n * (d + 1) * 8, peak / (n * (d + 1) * 8)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_gesn_selection_memory_bounded(self, jobs):
        # A node-task GESN selection holds at most, in doubles:
        # - four N x H arrays per worker: the drive, the state, h W^T and
        #   M (h W^T); a finished config's embedding is its state;
        # - the config being scored, the augmented copy [emb, 1] of the
        #   fold's training rows and the validation rows of emb;
        # - one selected embedding per fold;
        # - the reservoir draws (W_in, W and b of each hidden size) and each
        #   worker's rescaled W_in and W_hat;
        # - the fold's ridge system: the Gram matrix and its factored copy.
        # The operator is the graph's adjacency, cached before the
        # measurement, so it adds nothing. Keeping every config's embedding
        # would add up to 16 N x H arrays.
        n, d, h, folds = 1000, 16, 64, 5
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 4, n)
        ends = rng.integers(0, n, size=(3 * n, 2))
        edges = [(int(u), int(v)) for u, v in ends if u != v]
        feats = rng.normal(size=(n, d)) + labels[:, None]
        task = NodeTask(graph=build_graph(edges, feats, labels=labels))
        task.graph.adjacency()   # cached before the measurement
        space = SearchSpace(gesn_hidden=(h,), gesn_input_scaling=(0.5, 1.0),
                            gesn_rho=(0.1, 0.3, 0.5, 0.9, 1.0, 2.0, 5.0,
                                      30.0), ridge_lambdas=(1e-3, 1e-1, 10.0))
        tracemalloc.start()
        try:
            report = model_select(task, "gesn", RewireConfig(), space,
                                  seed=0, jobs=jobs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(report.folds) == folds
        doubles = (4 * jobs * n * h
                   + n * h + 1.6 * n * (h + 1) + 0.2 * n * h
                   + folds * n * h
                   + h * (d + h + 1) + jobs * h * (d + h)
                   + 2 * (h + 1) ** 2)
        assert peak <= 8 * doubles, (peak / (8 * n * h), doubles / (n * h))

    def test_test_labels_sealed_until_scored(self):
        task = blob_node_task(n_per_class=15)
        report = model_select(task, "sgc", RewireConfig(method="baseline"),
                              SearchSpace.tiny(), seed=0)
        assert len(report.folds) == 5  # reveal happened exactly at scoring


def score(preds, scores, labels, metric):
    """One fold's metric from one readout's predictions and scores."""
    if metric == "auroc":
        return pairwise_auroc(scores[:, 1 if scores.shape[1] > 1 else 0],
                              labels)
    return float(np.mean(preds == labels))


def reference_selection(task, model, space, seed, table=None):
    """Per fold, every (config, lambda) with its own ridge fit, in grid
    order: [(test metric, val metric, selected config)] per fold. A `table`
    list gets each fold's [(config, lambda, val metric)]."""
    labels = np.asarray(task.labels)
    embeddings = list(evaluation._all_embeddings(
        task, model, RewireConfig(), space, seed, Budget(None), 1))
    out = []
    for split in make_splits(labels, seed=seed):
        best = None
        rows = []
        for cfg, emb in embeddings:
            for lam in space.ridge_lambdas:
                readout = ridge_fit(emb[split.train], labels[split.train], lam)
                preds, scores = predict(emb[split.val], readout)
                val = score(preds, scores, labels[split.val], task.metric)
                rows.append((cfg, lam, val))
                if best is None or val > best[0] + 1e-12:
                    best = (val, {**cfg, "ridge_lambda": lam}, emb)
        if table is not None:
            table.append(rows)
        val, cfg, emb = best
        fit = np.concatenate([split.train, split.val])
        preds, scores = predict(emb[split.test],
                                ridge_fit(emb[fit], labels[fit],
                                          cfg["ridge_lambda"]))
        out.append((score(preds, scores, labels[split.test], task.metric),
                    val, cfg))
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
                                            Normalization.NONE)
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
    budget = Budget(None)
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

    def test_baseline_node_operator_is_the_adjacency(self, monkeypatch):
        # with no rewiring operator, one graph is embedded on its cached
        # adjacency itself, as a collection's blocks are, not on a copy
        task = blob_node_task(n_per_class=10)
        seen = []
        real = evaluation.gesn_embed

        def spy(m, x, params):
            seen.append(m)
            return real(m, x, params)
        monkeypatch.setattr(evaluation, "gesn_embed", spy)
        gesn_grid(task, RewireConfig())
        assert seen and all(m is task.graph.adjacency() for m in seen)

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
        # a graph above the exact sparse cap (its rho(M) comes from ARPACK),
        # a one-node graph and edgeless ones (rho(M) = 0, taken as 1), one
        # of them above the exact cap too
        rng = np.random.default_rng(7)
        graphs = [random_graph(70, 0.08, rng),
                  build_graph([], rng.normal(size=(1, 2))),
                  random_graph(12, 0.4, rng),
                  build_graph([], rng.normal(size=(5, 2))),
                  build_graph([], rng.normal(size=(66, 2)))]
        task = GraphTask(graphs=graphs, labels=np.array([0, 1, 0, 1, 0]))
        sizes = []
        real = spla.eigs

        def recording(a, *args, **kwargs):
            sizes.append(a.shape[0])
            return real(a, *args, **kwargs)
        monkeypatch.setattr(spla, "eigs", recording)
        got = gesn_grid(task, RewireConfig())
        assert sizes == [70]
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
                                           Budget(None), 1,
                                           GESN_SPACE.pooling)
        with pytest.raises(InputError, match="cannot pool an empty graph"):
            next(grid)

    @pytest.mark.parametrize("n", [40, 90])
    def test_single_graph_operator_embedded_sorted(self, n):
        # EGP's A_Cay A comes canonical from the rewiring, so one graph's
        # operator is embedded as given, on either side of the exact
        # spectral-radius cap: with the bits of a CSR built from its dense
        # form, and left unchanged
        g = random_graph(n, 0.1, np.random.default_rng(n))
        rw = apply_rewiring(g, RewireConfig(method="egp"))
        op = rw.operator
        arrays = [a.copy() for a in (op.data, op.indices, op.indptr)]
        canonical = RewiredGraph(method="egp", graph=g,
                                 operator=sp.csr_matrix(op.toarray()))
        got = list(evaluation._gesn_embeddings([rw], GESN_SPACE, 2,
                                               Budget(None), 1))
        assert_same_grid(got, reference_gesn([canonical], GESN_SPACE, 2))
        for a, b in zip(arrays, (op.data, op.indices, op.indptr)):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("kind", ["node", "graph"])
    def test_draw_per_hidden_size_and_rho_per_graph(self, kind, monkeypatch):
        # a collection's rho(M_i) come from one block-mode call, whatever
        # its sizes: the blob graphs have 10 nodes, and two of them are
        # swapped for 12-node ones
        task = blob_node_task(10) if kind == "node" else blob_graph_task(6)
        if kind == "graph":
            rng = np.random.default_rng(1)
            task.graphs[1:3] = [random_graph(12, 0.5, rng, connected=True)
                                for _ in range(2)]
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
        assert calls == {"gesn_init": len(GESN_SPACE.gesn_hidden),
                         "spectral_radius": 1}

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
        real_embed, real_solve = evaluation.gesn_embed, evaluation.ridge_solve

        def counting_embed(*args, **kwargs):
            embedded.append(1)
            return real_embed(*args, **kwargs)

        def recording_solve(*args, **kwargs):
            if not at_first_fit:
                time.sleep(0.2)   # time enough for workers to run far ahead
                at_first_fit.append(len(embedded))
            return real_solve(*args, **kwargs)

        monkeypatch.setattr(evaluation, "gesn_embed", counting_embed)
        monkeypatch.setattr(evaluation, "ridge_solve", recording_solve)
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

    @pytest.mark.parametrize("graph, iteration", [(0, 0), (1, 2), (6, 1)])
    def test_collection_rewiring_shares_the_selection_budget(
            self, clock, monkeypatch, graph, iteration):
        # the selection's budget starts at t = 0 and each later read is one
        # second on; graph i is checked at t = 4i + 1 and its SDRF iteration
        # k at t = 4i + 2 + k, so a budget of 4i + 2 + k s is spent there
        clock.step = 1.0
        calls, real_sdrf = [], rewiring.rewire_sdrf

        def recording_sdrf(g, config, budget=None):
            calls.append(clock.reads)
            return real_sdrf(g, config, budget)

        monkeypatch.setattr(rewiring, "rewire_sdrf", recording_sdrf)
        report = model_select(blob_graph_task(10), "gesn",
                              RewireConfig(method="sdrf", iterations=3),
                              SearchSpace.tiny(), seed=0,
                              budget_seconds=4 * graph + 2 + iteration)
        assert report.oor and report.folds == []
        assert len(calls) == graph + 1
        # the raising call read the clock once per iteration up to k, and
        # model_select once more for its wall clock
        assert clock.reads - calls[-1] == iteration + 2
def mixed_collection(rng):
    """Graph sizes that repeat, graphs above the exact radius cap (one of
    them edgeless), a one-node graph and disconnected graphs."""
    return [random_graph(70, 0.08, rng), random_graph(12, 0.4, rng),
            build_graph([], rng.normal(size=(1, 2))),
            random_graph(12, 0.3, rng), build_graph([], rng.normal(size=(5, 2))),
            random_graph(30, 0.05, rng), random_graph(12, 0.5, rng),
            build_graph([], rng.normal(size=(66, 2))),
            random_graph(30, 0.2, rng)]


class TestUnionOperator:
    @staticmethod
    def per_graph(rewired, seed):
        """Each graph's operator and rho(M_i) from its own call (0 as 1)."""
        ops, rhos = [], []
        for rw in rewired:
            op = rw.operator
            if op is None:
                op = shift_operator(rw.graph, OperatorKind.ADJACENCY,
                                    Normalization.NONE)
            rho = float(spectral_radius(op, seed=seed))
            ops.append(op)
            rhos.append(rho if rho > 0 else 1.0)
        return ops, rhos

    @pytest.mark.parametrize("cap", [1 << 20, 300])
    @pytest.mark.parametrize("method",
                             ["baseline", "sdrf", "grlef", "egp", "diffwire"])
    def test_equals_block_diag_of_scaled_operators(self, method, cap,
                                                   monkeypatch):
        # a cap of 300 doubles puts two 12-node blocks in a stack, and one
        # 30-node block alone
        monkeypatch.setattr(spectral, "RADIUS_STACK_ENTRIES", cap)
        graphs = mixed_collection(np.random.default_rng(5))
        task = GraphTask(graphs=graphs, labels=np.arange(len(graphs)) % 2)
        rewired = rewire_each(task, RewireConfig(method=method, seed=3))
        union, offsets = disjoint_union([rw.graph for rw in rewired])
        got = evaluation._union_operator(rewired, union, offsets, 2)
        ops, rhos = self.per_graph(rewired, 2)
        want = sp.block_diag([o / r for o, r in zip(ops, rhos)], format="csr")
        assert got.shape == want.shape and got.dtype == want.dtype
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, part), getattr(want, part))

    @pytest.mark.parametrize("method", ["baseline", "egp"])
    def test_block_radii_equal_per_graph_radius(self, method, monkeypatch):
        # EGP's A_Cay A is not symmetric
        monkeypatch.setattr(spectral, "RADIUS_STACK_ENTRIES", 300)
        graphs = mixed_collection(np.random.default_rng(6))
        rewired = [apply_rewiring(g, RewireConfig(method=method))
                   for g in graphs]
        ops, _ = self.per_graph(rewired, 0)
        if method == "egp":
            assert any((abs(op - op.T) > 0).nnz for op in ops)
        m, offsets = block_union(ops)
        got = spectral_radius(m, offsets=offsets)
        assert got.value.tolist() == [float(spectral_radius(op))
                                      for op in ops]
        assert max(op.shape[0] for op in ops) > EXACT_SPARSE_RADIUS_ROWS
