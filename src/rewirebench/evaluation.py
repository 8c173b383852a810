"""Experimental protocol: stratified splits, metrics, grid model
selection, and significance testing.

Splits are N_FOLDS (5) stratified test folds with an inner stratified
holdout of VALIDATION_SHARE of the rest, giving 60:20:20
train/validation/test per outer fold. Model hyperparameters are selected
on each validation fold; the rewiring is one fixed `RewireConfig` per run
(t, alpha, fraction and tau come from the caller, not from the grid). Test
labels stay sealed until the final scoring stage. A method is compared with
the baseline by a paired t-test at level ALPHA.
"""

from __future__ import annotations

import logging
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
from scipy.special import stdtr

from .errors import Budget, BudgetExceeded, CompatibilityError, InputError
from .graph import (Graph, Normalization, OperatorKind, disjoint_union,
                    shift_operator)
from .models import (augment, gesn_embed, gesn_init, input_features, one_hot,
                     pool, predict, ridge_fit, ridge_solve)
from .rewiring import RewireConfig, apply_rewiring
from .spectral import spectral_radius

log = logging.getLogger(__name__)

NODE_ONLY_REWIRING = ("heat", "pagerank")   # diffusion defined for node tasks
NODE_ONLY_MODELS = ("sgc",)
N_FOLDS = 5
VALIDATION_SHARE = 0.25   # of the non-test rows: 20% of all
ALPHA = 0.05              # significance level of the paired t-test


# ---------------------------------------------------------------------------
# splits

def _by_class(labels: np.ndarray) -> list[np.ndarray]:
    """Positions of each class, classes ascending, positions in order."""
    order = np.argsort(labels, kind="stable")
    ranked = labels[order]
    return np.split(order, np.flatnonzero(ranked[1:] != ranked[:-1]) + 1)


def stratified_kfold(labels, seed: int = 0) -> list[np.ndarray]:
    """Deterministic stratified N_FOLDS-fold partition of range(len(labels)).

    Per class, indices are shuffled then dealt round-robin, so per-fold class
    counts are within one of the stratified ideal.
    """
    labels = np.asarray(labels)
    n = labels.shape[0]
    if N_FOLDS > n:
        raise InputError(f"{N_FOLDS} folds exceed population {n}")
    rng = np.random.default_rng(seed)
    fold = np.empty(n, dtype=np.int64)
    offset = 0
    for idx in _by_class(labels):
        if idx.shape[0] < N_FOLDS:
            log.warning("class %s has %d < %d members; stratification "
                        "degraded", labels[idx[0]], idx.shape[0], N_FOLDS)
        deal = np.arange(idx.shape[0]) + offset
        fold[rng.permutation(idx)] = deal % N_FOLDS
        offset += idx.shape[0] % N_FOLDS
    return [np.flatnonzero(fold == f) for f in range(N_FOLDS)]


def stratified_holdout(labels, indices: np.ndarray,
                       seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Split `indices` into (rest, held), `held` a stratified
    VALIDATION_SHARE of them."""
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    held = np.zeros(labels.shape[0], dtype=bool)
    for pos in _by_class(labels[indices]):
        idx = rng.permutation(indices[pos])
        held[idx[:int(round(VALIDATION_SHARE * idx.shape[0]))]] = True
    rest = np.zeros_like(held)
    rest[indices] = True
    rest[held] = False
    return np.flatnonzero(rest), np.flatnonzero(held)


class SealedLabels:
    """Test labels stay unreadable until the report stage calls reveal()."""

    def __init__(self, labels: np.ndarray):
        self._labels = np.asarray(labels)
        self.revealed = False

    def reveal(self) -> np.ndarray:
        self.revealed = True
        return self._labels


@dataclass
class FoldSplit:
    fold: int
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray
    test_labels: SealedLabels


def make_splits(labels, seed: int = 0) -> list[FoldSplit]:
    labels = np.asarray(labels)
    folds = stratified_kfold(labels, seed=seed)
    out = []
    for i, test in enumerate(folds):
        rest = np.ones(labels.shape[0], dtype=bool)
        rest[test] = False
        train, val = stratified_holdout(labels, np.flatnonzero(rest),
                                        seed + 1000 + i)
        out.append(FoldSplit(fold=i, train=train, val=val, test=test,
                             test_labels=SealedLabels(labels[test])))
    return out


# ---------------------------------------------------------------------------
# metrics

def accuracy(preds, labels) -> float:
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.shape[0] == 0:
        raise InputError("empty prediction set")
    return float(np.mean(preds == labels))


def auroc(scores, labels) -> float:
    """Area under the ROC curve as the Mann-Whitney rank statistic with
    midrank tie handling. Binary labels; both classes must be present."""
    return _auroc(np.asarray(scores, dtype=np.float64), _positives(labels))


def _positives(labels) -> np.ndarray:
    """Mask of the greater of the two classes that labels must hold."""
    labels = np.asarray(labels)
    classes = np.unique(labels)
    if classes.shape[0] != 2:
        raise InputError("auroc needs exactly two classes present")
    return labels == classes[1]


def _auroc(scores, pos) -> float:
    n_pos = int(pos.sum())
    n_neg = pos.shape[0] - n_pos
    if np.isnan(scores).any():
        return float("nan")
    # midranks: each tie group's mean position, an exact half-integer
    _, inverse, counts = np.unique(scores, return_inverse=True,
                                   return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def significance(baseline_folds, method_folds):
    """Paired two-sided t-test over fold scores -> (p_value, flag).

    flag is 'better'/'worse'/'none' relative to the baseline at level ALPHA.
    The p-value follows the operation order of scipy's `ttest_rel`, so the
    two agree bit for bit (the variance as a mean of squares rescaled by
    n/(n-1), not np.var(ddof=1)).
    """
    b = np.asarray(baseline_folds, dtype=np.float64)
    m = np.asarray(method_folds, dtype=np.float64)
    if b.shape != m.shape:
        raise InputError("fold count mismatch")
    if b.shape[0] < 2:
        raise InputError("need at least 2 folds")
    diff = m - b
    if np.allclose(diff, 0.0):
        return 1.0, "none"
    if np.std(diff, ddof=1) == 0.0:
        # constant nonzero shift: exactly significant
        return 0.0, "better" if diff.mean() > 0 else "worse"
    n = diff.shape[0]
    mean = np.mean(diff)
    var = np.mean((diff - mean) ** 2) * (n / (n - 1))
    p = float(2.0 * stdtr(n - 1, -abs(mean / np.sqrt(var / n))))
    if p < ALPHA:
        return p, "better" if diff.mean() > 0 else "worse"
    return p, "none"


# ---------------------------------------------------------------------------
# tasks and search spaces

@dataclass
class NodeTask:
    graph: Graph
    metric: str = "accuracy"
    name: str = ""

    kind = "node"

    @property
    def labels(self) -> np.ndarray:
        if self.graph.labels is None:
            raise InputError("node task requires labels")
        return self.graph.labels


@dataclass
class GraphTask:
    graphs: list
    labels: np.ndarray
    metric: str = "accuracy"
    name: str = ""

    kind = "graph"


DEFAULT_OPERATORS = (
    (OperatorKind.ADJACENCY, Normalization.SYM, True),
    (OperatorKind.ADJACENCY, Normalization.SYM, False),
    (OperatorKind.ADJACENCY, Normalization.RW, False),
    (OperatorKind.ADJACENCY, Normalization.MEAN, True),
)

FULL_OPERATORS = tuple(
    (kind, norm, loops)
    for kind in (OperatorKind.ADJACENCY, OperatorKind.LAPLACIAN)
    for norm in Normalization
    for loops in (False, True)
)


@dataclass
class SearchSpace:
    """Hyperparameter grids; defaults are desk-scale but span the stated ranges."""

    sgc_operators: tuple = DEFAULT_OPERATORS
    sgc_hops: tuple = tuple(range(1, 16))
    gesn_hidden: tuple = (256, 1024)
    gesn_input_scaling: tuple = (0.1, 1.0)
    gesn_rho: tuple = (0.1, 1.0, 5.0, 30.0)   # divided by rho(M) at use site
    pooling: tuple = ("sum", "mean")
    ridge_lambdas: tuple = tuple(float(10.0 ** e) for e in range(-5, 4))

    @classmethod
    def tiny(cls) -> "SearchSpace":
        return cls(sgc_operators=DEFAULT_OPERATORS[:2], sgc_hops=(1, 2, 3),
                   gesn_hidden=(32,), gesn_input_scaling=(1.0,),
                   gesn_rho=(0.5, 5.0), ridge_lambdas=(1e-3, 1e-1, 10.0))

    @classmethod
    def full(cls) -> "SearchSpace":
        return cls(sgc_operators=FULL_OPERATORS,
                   sgc_hops=tuple(range(1, 16)),
                   gesn_hidden=tuple(2 ** e for e in range(4, 13)),
                   gesn_input_scaling=tuple(round(0.1 * i, 1) for i in range(11)),
                   gesn_rho=tuple(float(x) for x in
                                  np.geomspace(0.1, 30.0, 8).round(4)))


# ---------------------------------------------------------------------------
# experiment reports

@dataclass
class FoldResult:
    fold: int
    metric: float
    selected: dict
    val_metric: float


@dataclass
class ExperimentReport:
    dataset: str
    task: str
    model: str
    method: str
    metric_name: str
    folds: list = field(default_factory=list)
    mean: float = float("nan")
    std: float = float("nan")
    oor: bool = False
    wall_clock: float = 0.0

    def finalize(self) -> None:
        if self.folds:
            vals = np.array([f.metric for f in self.folds])
            self.mean = float(vals.mean())
            self.std = float(vals.std(ddof=1)) if vals.size > 1 else 0.0


# ---------------------------------------------------------------------------
# embedding generation

def _sgc_embeddings(graph: Graph, operator, space: SearchSpace, budget: Budget):
    """Yield ({config}, node embeddings) for the SGC grid.

    With a kernel-rewired operator the operator-type grid collapses to the
    kernel itself; otherwise the shift operator is part of the grid.
    """
    x = input_features(graph.features)
    if operator is not None:
        specs = [("kernel", operator)]
    else:
        specs = []
        for kind, norm, loops in space.sgc_operators:
            name = f"{kind.value}:{norm.value}:{'loops' if loops else 'plain'}"
            specs.append((name, shift_operator(graph, kind, norm, loops)))
    max_hop = max(space.sgc_hops)
    for name, m in specs:
        h = x
        for hop in range(1, max_hop + 1):
            budget.check()
            h = m @ h
            if hop in space.sgc_hops:
                yield {"operator": name, "hops": hop}, h


def _gesn_embeddings(rewired: list, space: SearchSpace, seed: int,
                     budget: Budget, jobs: int, pooling: tuple | None = None):
    """Yield ({config}, embeddings) for the GESN grid over rewired graphs.

    The reservoir is drawn once per hidden size; a config only rescales
    that draw. A node task (one graph, no `pooling`) gets node embeddings,
    a graph task one row per graph and mode.

    Several graphs are embedded in one pass over their disjoint union (see
    _union_operator), so the reservoir carries only the config's ρ, and
    pooling reduces over graph offsets. A single graph keeps its operator
    as given and 1/ρ(M) in the reservoir (spectral_radius, in closed form
    for heat and PageRank), so node embeddings keep their bits.
    """
    if len(rewired) == 1:
        rw = rewired[0]
        op = rw.operator
        if op is None:
            op = shift_operator(rw.graph, OperatorKind.ADJACENCY,
                                Normalization.NONE)
        elif sp.issparse(op):
            op.sum_duplicates()   # sorts each row, as _union_operator does
        rho_m = float(spectral_radius(op, seed=seed))
        rho_m = rho_m if rho_m > 0 else 1.0
        x, offsets = input_features(rw.graph.features), np.zeros(1, np.int64)
    else:
        union, offsets = disjoint_union([rw.graph for rw in rewired])
        op, rho_m = _union_operator(rewired, union, offsets, seed), 1.0
        x = input_features(union.features)
    draws = {h: gesn_init(x.shape[1], h, 1.0, 1.0, seed=seed)
             for h in space.gesn_hidden}
    configs = [(h, s, r) for h in space.gesn_hidden
               for s in space.gesn_input_scaling for r in space.gesn_rho]

    def compute(cfg):
        budget.check()
        h, s, r = cfg
        emb = gesn_embed(op, x, replace(draws[h], input_scaling=s,
                                        target_rho=r / rho_m))
        base = {"hidden": h, "input_scaling": s, "rho": r}
        if pooling is None:
            return [(base, emb)]
        return [({**base, "pooling": p}, pool(emb, p, offsets))
                for p in pooling]

    # at most `jobs` configs run ahead of the one being consumed, so memory
    # holds one embedding per worker, not the whole grid
    with ThreadPoolExecutor(max_workers=jobs) as ex:
        ahead = deque()
        for cfg in configs:
            ahead.append(ex.submit(compute, cfg))
            if len(ahead) > jobs:
                yield from ahead.popleft().result()
        while ahead:
            yield from ahead.popleft().result()


def _union_operator(rewired: list, union: Graph, offsets: np.ndarray,
                    seed: int) -> sp.csr_matrix:
    """The collection's block-diagonal CSR operator, block i being
    M_i / ρ(M_i) (the adjacency where the rewiring gave no operator, and
    ρ 0 taken as 1): sp.block_diag of the scaled blocks in data, indices
    and indptr. One spectral_radius call takes every ρ(M_i) from the
    unscaled union, whose blocks keep each operator's entry order."""
    if all(rw.operator is None for rw in rewired):
        m = union.adjacency()
    else:
        blocks = [rw.graph.adjacency() if rw.operator is None
                  else sp.csr_matrix(rw.operator) for rw in rewired]
        nnz = [b.nnz for b in blocks]
        m = sp.csr_matrix((
            np.concatenate([b.data for b in blocks], dtype=np.float64),
            np.concatenate([b.indices for b in blocks])
            + np.repeat(offsets, nnz),
            np.concatenate([[0]] + [np.diff(b.indptr) for b in blocks])
            .cumsum()), shape=(union.num_nodes,) * 2)
    rhos = spectral_radius(m, seed=seed, offsets=offsets).value
    rhos[~(rhos > 0)] = 1.0
    m.sum_duplicates()   # sorts each row, as block_diag's COO does
    row_scale = np.repeat(1.0 / rhos, np.diff(offsets, append=union.num_nodes))
    return sp.csr_matrix((m.data * np.repeat(row_scale, np.diff(m.indptr)),
                          m.indices, m.indptr), shape=m.shape)


# ---------------------------------------------------------------------------
# model selection

def _lambda_scores(scores, classes, labels, metric: str) -> list:
    """The validation score of each lambda from the n x L x C score block.

    Accuracy takes one argmax and one mean over the block: the mean of 0/1
    values is exact, so each equals accuracy() of that lambda bit for bit.
    AUROC finds the positives once and ranks each lambda on its own.
    """
    if metric == "auroc":
        pos, col = _positives(labels), 1 if scores.shape[2] > 1 else 0
        return [_auroc(scores[:, j, col], pos) for j in range(scores.shape[1])]
    if labels.shape[0] == 0:
        raise InputError("empty prediction set")
    hits = classes[np.argmax(scores, axis=2)] == labels[:, None]
    return np.mean(hits, axis=0).tolist()


def check_compatibility(task_kind: str, model: str, method: str) -> None:
    if task_kind == "graph" and method in NODE_ONLY_REWIRING:
        raise CompatibilityError(
            f"diffusion rewiring ({method}) is defined for node-level tasks only")
    if task_kind == "graph" and model in NODE_ONLY_MODELS:
        raise CompatibilityError(f"model {model} is node-task-only")


def model_select(task, model: str, rconfig: RewireConfig,
                 space: SearchSpace | None = None, seed: int = 0,
                 budget_seconds: float | None = 3600.0,
                 jobs: int = 1) -> ExperimentReport:
    """Run the full protocol for one (task, model, rewiring) triple.

    For each outer fold the best-validation configuration is refit on
    train+val and scored once on the sealed test fold. Selection is one
    pass over the grid for all folds under one Budget(budget_seconds) that
    the rewiring shares; an overrun marks the report OOR with no folds.
    """
    check_compatibility(task.kind, model, rconfig.method)
    space = space or SearchSpace()
    labels = np.asarray(task.labels)
    if task.metric == "auroc":
        # a class in fewer rows than folds leaves some test fold without it
        classes, counts = np.unique(labels, return_counts=True)
        if counts.min() < N_FOLDS:
            raise InputError(
                f"auroc needs each class in all {N_FOLDS} folds, but class "
                f"{classes[counts.argmin()]} has {counts.min()} members")
    splits = make_splits(labels, seed=seed)
    report = ExperimentReport(dataset=task.name, task=task.kind, model=model,
                              method=rconfig.method, metric_name=task.metric)
    budget = Budget(budget_seconds)
    try:
        # one pass over the grid keeps each fold's best (val, cfg, emb); a
        # fold compares configs and lambdas in grid order, first one wins ties
        best = [None] * len(splits)
        lambdas = space.ridge_lambdas
        folds = []
        for split in splits:
            y_train = labels[split.train]
            classes = np.unique(y_train)
            folds.append((split, classes, one_hot(y_train, classes),
                          labels[split.val]))
        for cfg, emb in _all_embeddings(task, model, rconfig, space, seed,
                                        budget, jobs):
            aug = augment(emb)
            for i, (split, classes, targets, y_val) in enumerate(folds):
                budget.check()
                sol = ridge_solve(aug[split.train], targets, lambdas)
                # one product scores every lambda. W is the transpose of the
                # C-ordered (L*C) x d stack of w_out and the bias is added
                # after the product: a C-ordered W, or the bias folded into
                # the product, moves the last bit of some scores
                n_lam, c, d1 = sol.shape
                w = np.ascontiguousarray(sol[:, :, :-1]).reshape(n_lam * c,
                                                                  d1 - 1)
                scores = emb[split.val] @ w.T + sol[:, :, -1].reshape(-1)
                vals = _lambda_scores(scores.reshape(-1, n_lam, c), classes,
                                      y_val, task.metric)
                for ridge_lambda, val in zip(lambdas, vals):
                    if best[i] is None or val > best[i][0] + 1e-12:
                        best[i] = (val, {**cfg, "ridge_lambda": ridge_lambda},
                                   emb)
            del aug   # not held while the next config is embedded
        for split, (val_metric, sel_cfg, sel_emb) in zip(splits, best):
            fit_idx = np.concatenate([split.train, split.val])
            readout = ridge_fit(sel_emb[fit_idx], labels[fit_idx],
                                sel_cfg["ridge_lambda"])
            _, scores = predict(sel_emb[split.test], readout)
            metric = _lambda_scores(scores[:, None, :], readout.classes,
                                    split.test_labels.reveal(),
                                    task.metric)[0]
            report.folds.append(FoldResult(fold=split.fold, metric=metric,
                                           selected=sel_cfg,
                                           val_metric=val_metric))
    except BudgetExceeded as exc:
        log.warning("%s/%s marked OOR: %s", model, rconfig.method, exc)
        report.oor = True
    report.wall_clock = budget.elapsed
    report.finalize()
    return report


def _all_embeddings(task, model: str, rconfig: RewireConfig,
                    space: SearchSpace, seed: int, budget: Budget, jobs: int):
    if model not in ("sgc", "gesn"):   # check_compatibility keeps sgc to nodes
        raise InputError(f"unknown model {model!r}")
    node = task.kind == "node"
    rewired = []
    for gi, g in enumerate([task.graph] if node else task.graphs):
        budget.check()
        rewired.append(apply_rewiring(
            g, replace(rconfig, seed=rconfig.seed + 104729 * gi), budget))
    if model == "sgc":
        yield from _sgc_embeddings(rewired[0].graph, rewired[0].operator,
                                   space, budget)
    else:
        yield from _gesn_embeddings(rewired, space, seed, budget, jobs,
                                    None if node else space.pooling)
