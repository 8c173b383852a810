"""Training-free representation models: SGC, graph echo state networks,
global pooling, and the closed-form ridge readout."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import InputError
from .spectral import spectral_radius

log = logging.getLogger(__name__)


def input_features(features: np.ndarray) -> np.ndarray:
    """Featureless datasets get a constant scalar 1 per node (no structural
    features are ever added)."""
    if features.shape[1] == 0:
        return np.ones((features.shape[0], 1))
    return features


def sgc_embed(m, x: np.ndarray, hops: int) -> np.ndarray:
    """h = M^hops x via repeated application (M never materialized as a power)."""
    if hops < 0:
        raise InputError("hops must be >= 0")
    h = np.asarray(x, dtype=np.float64)
    for _ in range(hops):
        h = m @ h
    return h


@dataclass
class ReservoirParams:
    """One reservoir draw; a config rescales it with dataclasses.replace."""

    unit_in: np.ndarray     # H x X, uniform in [-1, 1]
    w_raw: np.ndarray       # H x H, uniform in [-1, 1]
    unit_bias: np.ndarray   # H, uniform in [-1, 1]
    rho_raw: float          # spectral radius of w_raw
    input_scaling: float
    target_rho: float
    iterations: int = 30

    @property
    def w_in(self) -> np.ndarray:
        return self.unit_in * self.input_scaling

    @property
    def bias(self) -> np.ndarray:
        return self.unit_bias * self.input_scaling

    @property
    def w_hat(self) -> np.ndarray:   # w_raw at the target spectral radius
        if self.target_rho == 0.0:
            return np.zeros_like(self.w_raw)
        return self.w_raw * (self.target_rho / self.rho_raw)


def gesn_init(x_dim: int, hidden: int, input_scaling: float, target_rho: float,
              seed: int, iterations: int = 30) -> ReservoirParams:
    """Draw reservoir weights uniform in [-1, 1] and measure the recurrent
    matrix's spectral radius (exact eigenvalues at any size, see
    spectral_radius), so that w_hat has the requested one."""
    rng = np.random.default_rng(seed)
    unit_in = rng.uniform(-1.0, 1.0, size=(hidden, x_dim))
    w_raw = rng.uniform(-1.0, 1.0, size=(hidden, hidden))
    unit_bias = rng.uniform(-1.0, 1.0, size=hidden)
    rho_raw = float(spectral_radius(w_raw, seed=seed))
    return ReservoirParams(unit_in=unit_in, w_raw=w_raw, unit_bias=unit_bias,
                           rho_raw=rho_raw, input_scaling=input_scaling,
                           target_rho=target_rho, iterations=iterations)


def gesn_embed(m, x: np.ndarray, params: ReservoirParams) -> np.ndarray:
    """Iterate h_v <- tanh(W_in x_v + sum_u M_vu W_hat h_u + b), h^(0) = 0.

    Receiver-row convention: row v of the state aggregates neighbors u
    weighted by M_vu. The drive, the state and the result are C-ordered
    (num_nodes, H) arrays; the result is the state itself.
    """
    x = input_features(np.asarray(x, dtype=np.float64))
    drive = x @ params.w_in.T + params.bias   # N x H
    w_hat = params.w_hat
    # h^(0) = 0, so step 1 is tanh(drive) without a product
    h = np.tanh(drive) if params.iterations else np.zeros_like(drive)
    for _ in range(params.iterations - 1):
        # row v of M @ (h W^T) aggregates neighbors u with weight M_vu; the
        # state is updated in place, so a step holds two N x H temporaries
        np.add(drive, m @ (h @ w_hat.T), out=h)
        np.tanh(h, out=h)
    return h


def pool(embeddings: np.ndarray, mode: str = "sum",
         offsets=None) -> np.ndarray:
    """Parameter-free global pooling over nodes.

    Without `offsets` the rows are one graph and the result is one vector.
    With `offsets` (the first row of each graph, ascending, starting at 0)
    the rows are a stack of graphs and the result has one row per graph;
    every graph sums its rows in order, so a graph pools to the same bits
    alone or in a stack.
    """
    starts = np.asarray([0] if offsets is None else offsets, dtype=np.int64)
    sizes = np.diff(starts, append=embeddings.shape[0])
    if np.any(sizes <= 0):
        # reduceat would return the next graph's first row for an empty one
        raise InputError("cannot pool an empty graph")
    if mode not in ("sum", "mean"):
        raise InputError(f"unknown pooling mode {mode!r}")
    out = np.add.reduceat(embeddings, starts, axis=0)
    if mode == "mean":
        out = out / sizes[:, None]
    return out if offsets is not None else out[0]


@dataclass
class ReadoutParams:
    w_out: np.ndarray       # C x H
    b_out: np.ndarray       # C
    ridge_lambda: float
    classes: np.ndarray     # class ids, column order of scores


def one_hot(labels: np.ndarray, classes: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(classes, labels)
    out = np.zeros((labels.shape[0], classes.shape[0]))
    out[np.arange(labels.shape[0]), idx] = 1.0
    return out


def augment(embeddings: np.ndarray) -> np.ndarray:
    """[E, 1]: the embeddings with a bias column of ones."""
    e = np.asarray(embeddings, dtype=np.float64)
    return np.concatenate([e, np.ones((e.shape[0], 1))], axis=1)


def ridge_solve(aug: np.ndarray, targets: np.ndarray,
                ridge_lambdas) -> np.ndarray:
    """Closed-form ridge regression of `targets` (n x C) on the augmented
    embeddings `aug` = [E, 1] (n x (d+1)), one solution per lambda.

    Minimizes ||E w + b - Y||^2 + lambda ||w||^2; the bias column is not
    regularized (augmented normal equations). Returns an L x C x (d+1)
    array whose row [l, c] is [w_out[c] | b_out[c]] for lambda l.

    The Gram matrix and right-hand side are built once. Each lambda copies
    the Gram matrix into one reused buffer, adds lambda to its first d
    diagonal entries in place, and factors it there with one lower Cholesky
    (`dpotrf`); `dpotrs` solves straight into the output. The system is
    symmetric positive definite for lambda > 0. A system that Cholesky
    rejects (lambda = 0 on a singular Gram matrix) is rebuilt from the Gram
    matrix and solved by LU, and by the pseudoinverse if LU finds it
    singular.
    """
    gram = aug.T @ aug
    rhs = aug.T @ targets
    d1 = gram.shape[0]
    out = np.empty((len(ridge_lambdas), targets.shape[1], d1))
    system = np.empty_like(gram)
    # the first d diagonal entries; the bias entry stays unregularized
    diag = slice(0, (d1 - 1) * (d1 + 1), d1 + 1)
    for sol, ridge_lambda in zip(out, ridge_lambdas):
        np.copyto(system, gram)
        system.reshape(-1)[diag] += ridge_lambda
        # the transpose of the symmetric C-ordered system is the
        # Fortran-ordered matrix LAPACK wants, factored in place; OpenBLAS's
        # lower factor takes 0.6x the upper one's time at 129 columns
        factor, info = dpotrf(system.T, lower=True, clean=False,
                              overwrite_a=True)
        if info == 0:
            # sol.T is Fortran-ordered (d+1) x C, so dpotrs writes in place
            np.copyto(sol.T, rhs)
            _, info = dpotrs(factor, sol.T, lower=True, overwrite_b=True)
        if info != 0:
            lu_system = gram.copy()
            lu_system.reshape(-1)[diag] += ridge_lambda
            try:
                sol.T[...] = np.linalg.solve(lu_system, rhs)
            except np.linalg.LinAlgError:
                log.warning("singular ridge system (lambda=%g); "
                            "pseudoinverse used", ridge_lambda)
                sol.T[...] = np.linalg.pinv(lu_system) @ rhs
    return out


def ridge_fit(embeddings: np.ndarray, labels: np.ndarray,
              ridge_lambda: float) -> ReadoutParams:
    """Ridge readout of one-hot `labels` for one lambda (see ridge_solve)."""
    labels = np.asarray(labels)
    classes = np.unique(labels)
    sol = ridge_solve(augment(embeddings), one_hot(labels, classes),
                      (ridge_lambda,))[0]
    return ReadoutParams(w_out=sol[:, :-1], b_out=sol[:, -1],
                         ridge_lambda=ridge_lambda, classes=classes)


def predict(embeddings: np.ndarray, readout: ReadoutParams):
    """Affine readout scores and argmax class ids."""
    scores = embeddings @ readout.w_out.T + readout.b_out
    preds = readout.classes[np.argmax(scores, axis=1)]
    return preds, scores
