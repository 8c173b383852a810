"""Spectral quantities, Laplacian pseudoinverse, effective resistance,
and diffusion kernels."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import InputError
from .graph import (Graph, Normalization, OperatorKind, connected_components,
                    shift_operator)

log = logging.getLogger(__name__)

EXACT_RADIUS_ROWS = 1024  # dense spectral_radius input solved by eigvals
# sparse spectral_radius input solved by eigvals of its dense copy: below
# this size one eigvals call is cheaper than a power iteration's first steps
EXACT_SPARSE_RADIUS_ROWS = 64
DENSE_EIG_LIMIT = 4000    # dense eigvalsh; sparse eigvals after no convergence
# spectral_gap component solved by dense eigvalsh; shift-invert eigsh above,
# which at 2708 nodes takes 0.46 s against eigvalsh's 2.6 s
DENSE_GAP_ROWS = 1000
PINV_CUTOFF = 1e-9        # relative zero-eigenvalue cutoff of L^+
# power iteration stops once its estimate changes by at most POWER_TOL
# (relative) while the 2-term Krylov fit leaves a relative residual of at
# most POWER_FIT_RESIDUAL, or else after POWER_STEPS steps
POWER_TOL = 1e-10
POWER_FIT_RESIDUAL = 1e-2
POWER_STEPS = 2000


@dataclass
class SpectralRadiusResult:
    value: float
    iterations: int
    converged: bool

    def __float__(self) -> float:
        return self.value


def spectral_radius(m, seed: int = 0) -> SpectralRadiusResult:
    """|lambda_max|, by a rule that depends on the input alone.

    A dense array or a PagerankOperator of at most EXACT_RADIUS_ROWS rows,
    or a sparse array of at most EXACT_SPARSE_RADIUS_ROWS rows, gets exact
    eigenvalues of its dense form (iterations 0). A larger one runs power
    iteration from a seeded start, one product with m per step; each step
    fits the dominant 2-dimensional Krylov recurrence, so complex conjugate
    pairs still yield a convergent modulus. A run that does not converge is
    flagged, with a warning, and its value is the exact one for any dense
    input or operator and for a sparse one of up to DENSE_EIG_LIMIT rows; a
    larger sparse input keeps the last estimate.
    """
    sparse = sp.issparse(m)
    if not sparse and not isinstance(m, PagerankOperator):
        m = np.asarray(m, dtype=np.float64)
    n = m.shape[0]
    if m.ndim != 2 or n != m.shape[1]:
        raise InputError("spectral_radius requires a square matrix")
    if n == 0:
        return SpectralRadiusResult(0.0, 0, True)
    if n <= (EXACT_SPARSE_RADIUS_ROWS if sparse else EXACT_RADIUS_ROWS):
        return SpectralRadiusResult(_exact_radius(_as_dense(m)), 0, True)

    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    x /= np.linalg.norm(x)
    y = m.dot(x)
    est = 0.0
    for it in range(1, POWER_STEPS + 1):
        ny = np.linalg.norm(y)
        if ny == 0.0:
            return SpectralRadiusResult(0.0, it, True)
        z = m.dot(y)
        # fit A^2 x ≈ a*(A x) + b*x: exact once x lies in a dominant
        # 2-dimensional invariant subspace; roots of t^2 - a t - b then give
        # the dominant eigenvalue(s), real or complex pair
        basis = np.stack([y, x], axis=1)
        coef, *_ = np.linalg.lstsq(basis, z, rcond=None)
        roots = np.roots([1.0, -coef[0], -coef[1]])
        new_est = float(np.max(np.abs(roots)))
        if not np.isfinite(new_est):
            new_est = float(ny)
        # a settled estimate counts only if the fit holds: with 3 dominant
        # eigenvalues of equal modulus (a directed 3-cycle) it repeats wrongly
        if (it > 1 and abs(new_est - est) <= POWER_TOL * max(1.0, abs(new_est))
                and np.linalg.norm(z - basis @ coef)
                <= POWER_FIT_RESIDUAL * np.linalg.norm(z)):
            return SpectralRadiusResult(new_est, it, True)
        est = new_est
        # the next step's m x is z / ny
        x = y / ny
        y = z / ny
    if not sparse or n <= DENSE_EIG_LIMIT:
        log.warning("power iteration did not converge in %d iterations; "
                    "dense eigvals fallback used", POWER_STEPS)
        est = _exact_radius(_as_dense(m))
    else:
        log.warning("power iteration did not converge; returning best estimate")
    return SpectralRadiusResult(est, POWER_STEPS, False)


def _exact_radius(dense: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(dense))))


def spectral_gap(g: Graph,
                 laplacian: Normalization | str = Normalization.SYM) -> float:
    """Smallest strictly positive eigenvalue of the chosen Laplacian: the
    least lambda_2 over components of at least 2 nodes (dense eigvalsh up to
    DENSE_GAP_ROWS nodes, shift-invert eigsh above). Normalized variants
    share the symmetric normalized spectrum (similarity by D^{1/2}), where
    an isolated node has eigenvalue 1 (`_inv_pow` maps degree 0 to 0)."""
    laplacian = Normalization(laplacian)
    if g.num_nodes < 2:
        raise InputError("spectral gap needs at least 2 nodes")
    norm = (Normalization.NONE if laplacian is Normalization.NONE
            else Normalization.SYM)
    mat = shift_operator(g, OperatorKind.LAPLACIAN, norm).matrix.tocsr()
    comp = connected_components(g)
    sizes = np.bincount(comp)
    gap = 1.0 if norm is Normalization.SYM and np.any(sizes == 1) else np.inf
    by_comp = np.split(np.argsort(comp, kind="stable"), np.cumsum(sizes)[:-1])
    for nodes in by_comp:
        if nodes.size < 2:
            continue
        sub = mat[nodes][:, nodes]
        if nodes.size <= DENSE_GAP_ROWS:
            lam2 = np.linalg.eigvalsh(sub.toarray())[1]
        else:
            # a seeded start vector: ARPACK's own start changes from call to
            # call, and with it the last bits of lambda_2
            v0 = np.random.default_rng(0).standard_normal(nodes.size)
            lam2 = np.sort(spla.eigsh(sub.tocsc(), k=2, sigma=-1e-3, which="LM",
                                      v0=v0, return_eigenvectors=False))[1]
        gap = min(gap, float(lam2))
    return 0.0 if np.isinf(gap) else gap


def laplacian_pseudoinverse(g: Graph) -> np.ndarray:
    """Moore-Penrose pseudoinverse of the combinatorial Laplacian, by
    eigendecomposition with a relative zero-eigenvalue cutoff."""
    lap = shift_operator(g, OperatorKind.LAPLACIAN, Normalization.NONE).dense
    w, v = np.linalg.eigh(lap)
    lam_max = float(np.max(np.abs(w))) if w.size else 0.0
    inv = np.where(w > PINV_CUTOFF * max(lam_max, 1.0),
                   1.0 / np.where(w == 0, 1.0, w), 0.0)
    return (v * inv) @ v.T


@dataclass
class ResistanceMatrix:
    """Pairwise effective resistances; np.inf across components."""

    matrix: np.ndarray
    components: np.ndarray
    total_degree: float

    def commute_time(self) -> np.ndarray:
        """Com_uv = Res_uv * sum of all degrees."""
        return self.matrix * self.total_degree


def effective_resistance(g: Graph) -> ResistanceMatrix:
    """Res_uv = (1_u - 1_v)^T L^+ (1_u - 1_v), per connected component."""
    lp = laplacian_pseudoinverse(g)
    d = np.diag(lp)
    res = d[:, None] + d[None, :] - 2.0 * lp
    comp = connected_components(g)
    cross = comp[:, None] != comp[None, :]
    res[cross] = np.inf
    np.fill_diagonal(res, 0.0)
    res = np.maximum(res, 0.0)
    res = 0.5 * (res + res.T)
    return ResistanceMatrix(matrix=res, components=comp,
                            total_degree=float(np.sum(g.degrees)))


def _as_dense(t) -> np.ndarray:
    if sp.issparse(t) or isinstance(t, PagerankOperator):
        return t.toarray()
    return np.asarray(t, dtype=np.float64)


def heat_kernel(t_matrix, t: float) -> np.ndarray:
    """Heat diffusion exp(-t (I - T)) = sum_m e^{-t} t^m/m! T^m."""
    if t <= 0:
        raise InputError("heat kernel requires t > 0")
    td = _as_dense(t_matrix)
    n = td.shape[0]
    return scipy.linalg.expm(-t * (np.eye(n) - td))


class PagerankOperator(spla.LinearOperator):
    """Personalized PageRank kernel diag(left) K^{-1} diag(right), applied by
    one solve with a sparse LU of K per product; the n x n kernel is built
    only by toarray(). Solves share the factor read-only, so threads may
    apply one operator concurrently."""

    def __init__(self, lu, left: np.ndarray | None, right: np.ndarray | None):
        super().__init__(dtype=np.float64, shape=lu.shape)
        self._lu, self._left, self._right = lu, left, right

    def _matmat(self, x):
        if self._right is not None:
            x = self._right[:, None] * x
        y = self._lu.solve(x)
        if self._left is not None:
            y *= self._left[:, None]
        return y

    def toarray(self) -> np.ndarray:
        return np.ascontiguousarray(self._matmat(np.eye(self.shape[0])))


def pagerank_kernel(g: Graph, alpha: float,
                    norm: Normalization | str) -> PagerankOperator:
    """Personalized PageRank alpha (I - (1-alpha) T)^{-1} of the normalized
    adjacency T, as an operator over one sparse LU factorization.

    With D the degree diagonal (1 for isolated nodes, whose columns of A are
    zero) and K = D - (1-alpha) A, I - (1-alpha) T is K D^{-1} for rw,
    D^{-1} K for mean and D^{-1/2} K D^{-1/2} for sym, so the kernel is
    alpha D K^{-1}, alpha K^{-1} D or alpha D^{1/2} K^{-1} D^{1/2}. K is
    symmetric positive definite, because the eigenvalues of
    D^{-1/2} K D^{-1/2} are at least alpha, so it is factored without
    pivoting. The minimum-degree ordering of K + K^T keeps the factor sparse:
    on a 2708-node SBM, L + U holds 0.39M nonzeros against 1.22M under
    COLAMD. The unnormalized adjacency is refused: its series diverges once
    (1-alpha) rho(A) > 1.
    """
    if not 0.0 < alpha < 1.0:
        raise InputError("pagerank kernel requires alpha in (0, 1)")
    norm = Normalization(norm)
    if norm is Normalization.NONE:
        raise InputError("pagerank kernel requires a normalized operator "
                         "(sym, rw or mean), not 'none'")
    n = g.num_nodes
    if n == 0:
        raise InputError("empty graph")
    a = g.adjacency()
    d = np.asarray(a.sum(axis=1), dtype=np.float64).ravel()
    d[d == 0] = 1.0
    k = (sp.diags(d) - (1.0 - alpha) * a).tocsc()
    try:
        lu = spla.splu(k, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise RuntimeError("pagerank system D - (1-alpha) A could not be "
                           f"factored: {exc}") from exc
    if norm is Normalization.RW:
        return PagerankOperator(lu, alpha * d, None)
    if norm is Normalization.MEAN:
        return PagerankOperator(lu, None, alpha * d)
    s = np.sqrt(d)  # SYM
    return PagerankOperator(lu, s, alpha * s)


def cheeger_bruteforce(g: Graph, max_nodes: int = 16) -> float:
    """Exhaustive Cheeger constant min_S cut(S) / min(vol(S), vol(S^c)).

    Test oracle: O(2^n), refused beyond max_nodes.
    """
    n = g.num_nodes
    if n > max_nodes:
        raise InputError(f"cheeger_bruteforce limited to {max_nodes} nodes")
    if n < 2:
        raise InputError("need at least 2 nodes")
    deg = g.degrees
    a = g.adjacency().toarray()
    best = np.inf
    for mask in range(1, (1 << n) - 1):
        s = np.array([(mask >> i) & 1 for i in range(n)], dtype=bool)
        vol_s = float(deg[s].sum())
        vol_c = float(deg[~s].sum())
        denom = min(vol_s, vol_c)
        if denom == 0:
            continue
        cut = float(a[np.ix_(s, ~s)].sum())
        best = min(best, cut / denom)
    return float(best)
