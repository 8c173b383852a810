"""Experimental protocol: stratified splits, metrics, grid model
selection, and significance testing.

Splits are 5-fold stratified test folds with an inner stratified holdout,
giving 60:20:20 train/validation/test per outer fold. Model
hyperparameters are selected on each validation fold; the rewiring is one
fixed `RewireConfig` per run (t, alpha, fraction and tau come from the
caller, not from the grid). Test labels stay sealed until the final
scoring stage.
"""

from __future__ import annotations

import logging
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
from scipy.special import stdtr

from .errors import BudgetExceeded, CompatibilityError, InputError
from .graph import Graph, Normalization, OperatorKind, shift_operator
from .models import (gesn_embed, gesn_init, input_features, pool, predict,
                     ridge_fit, ridge_path)
from .rewiring import RewireConfig, apply_rewiring
from .spectral import spectral_radius

log = logging.getLogger(__name__)

NODE_ONLY_REWIRING = ("heat", "pagerank")   # diffusion defined for node tasks
NODE_ONLY_MODELS = ("sgc",)


# ---------------------------------------------------------------------------
# splits

def stratified_kfold(labels, k: int = 5, seed: int = 0) -> list[np.ndarray]:
    """Deterministic stratified k-fold partition of range(len(labels)).

    Per class, indices are shuffled then dealt round-robin, so per-fold class
    counts are within one of the stratified ideal.
    """
    labels = np.asarray(labels)
    n = labels.shape[0]
    if k > n:
        raise InputError(f"k={k} exceeds population {n}")
    rng = np.random.default_rng(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    offset = 0
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        if idx.shape[0] < k:
            log.warning("class %s has %d < k members; stratification degraded",
                        cls, idx.shape[0])
        idx = rng.permutation(idx)
        for j, i in enumerate(idx):
            folds[(j + offset) % k].append(int(i))
        offset += idx.shape[0] % k
    return [np.sort(np.array(f, dtype=np.int64)) for f in folds]


def stratified_holdout(labels, indices: np.ndarray, frac: float,
                       seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Split `indices` into (rest, held) with `held` a stratified `frac` share."""
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    held: list[int] = []
    for cls in np.unique(labels[indices]):
        idx = indices[labels[indices] == cls]
        idx = rng.permutation(idx)
        take = int(round(frac * idx.shape[0]))
        held.extend(int(i) for i in idx[:take])
    held_arr = np.sort(np.array(held, dtype=np.int64))
    rest = np.setdiff1d(indices, held_arr)
    return rest, held_arr


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


def make_splits(labels, k: int = 5, seed: int = 0) -> list[FoldSplit]:
    labels = np.asarray(labels)
    folds = stratified_kfold(labels, k=k, seed=seed)
    out = []
    for i, test in enumerate(folds):
        rest = np.setdiff1d(np.arange(labels.shape[0]), test)
        train, val = stratified_holdout(labels, rest, 0.25, seed + 1000 + i)
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
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    classes = np.unique(labels)
    if classes.shape[0] != 2:
        raise InputError("auroc needs exactly two classes present")
    pos = labels == classes[1]
    n_pos = int(pos.sum())
    n_neg = labels.shape[0] - n_pos
    if np.isnan(scores).any():
        return float("nan")
    # midranks: each tie group's mean position, an exact half-integer
    _, inverse, counts = np.unique(scores, return_inverse=True,
                                   return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def significance(baseline_folds, method_folds, test: str = "ttest",
                 alpha: float = 0.05):
    """Paired two-sided test over fold scores -> (p_value, flag).

    flag is 'better'/'worse'/'none' relative to the baseline.
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
    if test == "ttest":
        p = _ttest_rel_pvalue(diff)
    elif test == "wilcoxon":
        import scipy.stats  # only here: importing it costs 0.9 s and 35 MB
        p = float(scipy.stats.wilcoxon(m, b).pvalue)
    else:
        raise InputError(f"unknown significance test {test!r}")
    if p < alpha:
        return p, "better" if diff.mean() > 0 else "worse"
    return p, "none"


def _ttest_rel_pvalue(diff: np.ndarray) -> float:
    """Two-sided paired t-test p-value of the differences, in the operation
    order of scipy's `ttest_rel`, so the two agree bit for bit (the
    variance as a mean of squares rescaled by n/(n-1), not np.var(ddof=1))."""
    n = diff.shape[0]
    mean = np.mean(diff)
    var = np.mean((diff - mean) ** 2) * (n / (n - 1))
    t = mean / np.sqrt(var / n)
    return float(2.0 * stdtr(n - 1, -abs(t)))


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


class _Budget:
    def __init__(self, seconds: float | None):
        self.start = time.monotonic()
        self.seconds = seconds

    def check(self) -> None:
        if self.seconds is not None and time.monotonic() - self.start > self.seconds:
            raise BudgetExceeded(f"budget of {self.seconds}s exceeded")

    @property
    def elapsed(self) -> float:
        return time.monotonic() - self.start


# ---------------------------------------------------------------------------
# embedding generation

def _sgc_embeddings(graph: Graph, operator, space: SearchSpace, budget: _Budget):
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
            specs.append((name, shift_operator(graph, kind, norm, loops).matrix))
    max_hop = max(space.sgc_hops)
    for name, m in specs:
        h = x
        for hop in range(1, max_hop + 1):
            budget.check()
            h = m @ h
            if hop in space.sgc_hops:
                yield {"operator": name, "hops": hop}, h


def _gesn_embeddings(rewired: list, space: SearchSpace, seed: int,
                     budget: _Budget, jobs: int, pooling: tuple | None = None):
    """Yield ({config}, embeddings) for the GESN grid over rewired graphs.

    ρ(M) is measured once per graph and the reservoir drawn once per hidden
    size; a config only rescales that draw. A node task (one graph, no
    `pooling`) gets node embeddings, a graph task one row per graph and mode.

    Several graphs are embedded in one pass over their disjoint union: a
    block-diagonal operator whose block i is M_i / ρ(M_i), so the reservoir
    carries only the config's ρ, and pooling reduces over graph offsets. A
    single graph keeps its operator as given and 1/ρ(M) in the reservoir, so
    a dense n×n kernel is not copied and node embeddings keep their bits.
    """
    ops, rhos, xs = [], [], []
    for rw in rewired:
        op = rw.operator
        if op is None:
            op = shift_operator(rw.graph, OperatorKind.ADJACENCY,
                                Normalization.NONE).matrix
        rho_m = float(spectral_radius(op, seed=seed))
        ops.append(op)
        rhos.append(rho_m if rho_m > 0 else 1.0)
        xs.append(input_features(rw.graph.features))
    if len(ops) == 1:
        op, rho_m, x = ops[0], rhos[0], xs[0]
    else:
        op = sp.block_diag([o / r for o, r in zip(ops, rhos)], format="csr")
        rho_m, x = 1.0, np.concatenate(xs)
    offsets = np.cumsum([0] + [xi.shape[0] for xi in xs[:-1]])
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

    # at most `workers` configs run ahead of the one being consumed, so memory
    # holds one embedding per worker, not the whole grid
    workers = max(1, jobs)
    with ThreadPoolExecutor(max_workers=workers) as ex:
        ahead = deque()
        for cfg in configs:
            ahead.append(ex.submit(compute, cfg))
            if len(ahead) > workers:
                yield from ahead.popleft().result()
        while ahead:
            yield from ahead.popleft().result()


# ---------------------------------------------------------------------------
# model selection

def _score(preds, scores, labels, metric: str, classes) -> float:
    if metric == "auroc":
        pos_col = 1 if scores.shape[1] > 1 else 0
        return auroc(scores[:, pos_col], labels)
    return accuracy(preds, labels)


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
    train+val and scored once on the sealed test fold. Selection is one pass
    over the grid for all folds, so a budget overrun marks the report OOR with
    no folds instead of raising.
    """
    check_compatibility(task.kind, model, rconfig.method)
    space = space or SearchSpace()
    labels = np.asarray(task.labels)
    splits = make_splits(labels, k=5, seed=seed)
    report = ExperimentReport(dataset=task.name, task=task.kind, model=model,
                              method=rconfig.method, metric_name=task.metric)
    budget = _Budget(budget_seconds)
    try:
        # one pass over the grid keeps each fold's best (val, cfg, emb); a
        # fold compares configs and lambdas in grid order, first one wins ties
        best = [None] * len(splits)
        folds = [(s, labels[s.train], labels[s.val]) for s in splits]
        for cfg, emb in _all_embeddings(task, model, rconfig, space, seed,
                                        budget, jobs):
            for i, (split, y_train, y_val) in enumerate(folds):
                budget.check()
                path = ridge_path(emb[split.train], y_train,
                                  space.ridge_lambdas)
                # one product scores every lambda; each owns C columns
                stacked = (emb[split.val]
                           @ np.concatenate([r.w_out for r in path]).T
                           + np.concatenate([r.b_out for r in path]))
                for readout, scores in zip(path,
                                           np.hsplit(stacked, len(path))):
                    preds = readout.classes[np.argmax(scores, axis=1)]
                    val = _score(preds, scores, y_val, task.metric,
                                 readout.classes)
                    if best[i] is None or val > best[i][0] + 1e-12:
                        best[i] = (val, {**cfg, "ridge_lambda":
                                         readout.ridge_lambda}, emb)
        for split, (val_metric, sel_cfg, sel_emb) in zip(splits, best):
            fit_idx = np.concatenate([split.train, split.val])
            readout = ridge_fit(sel_emb[fit_idx], labels[fit_idx],
                                sel_cfg["ridge_lambda"])
            preds, scores = predict(sel_emb[split.test], readout)
            test_labels = split.test_labels.reveal()
            metric = _score(preds, scores, test_labels, task.metric,
                            readout.classes)
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
                    space: SearchSpace, seed: int, budget: _Budget, jobs: int):
    if task.kind == "node":
        rewired = apply_rewiring(task.graph, rconfig)
        if model == "sgc":
            yield from _sgc_embeddings(rewired.graph, rewired.operator, space,
                                       budget)
        elif model == "gesn":
            yield from _gesn_embeddings([rewired], space, seed, budget, jobs)
        else:
            raise InputError(f"unknown model {model!r}")
    else:
        if model != "gesn":
            raise InputError(f"model {model!r} not available for graph tasks")
        rewired = []
        for gi, g in enumerate(task.graphs):
            budget.check()
            rewired.append(apply_rewiring(
                g, replace(rconfig, seed=rconfig.seed + 104729 * gi)))
        yield from _gesn_embeddings(rewired, space, seed, budget, jobs,
                                    space.pooling)
