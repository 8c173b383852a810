"""Spectral quantities, Laplacian pseudoinverse, effective resistance,
and diffusion kernels."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse import csgraph
from scipy.linalg.lapack import dpotrf, dpotri

from .errors import InputError
from .graph import (Graph, Normalization, OperatorKind, connected_components,
                    shift_operator)

log = logging.getLogger(__name__)

# sparse spectral_radius input solved by eigvals of its dense copy: below
# this size one eigvals call is cheaper than an ARPACK call
EXACT_SPARSE_RADIUS_ROWS = 64
# doubles per dense stack of equal-size blocks whose radii spectral_radius
# takes with one eigvals call in block mode (8 MB)
RADIUS_STACK_ENTRIES = 1 << 20
# spectral_gap component solved by dense eigvalsh; shift-invert eigsh above,
# which at 2708 nodes takes 0.46 s against eigvalsh's 2.6 s
DENSE_GAP_ROWS = 1000
PINV_CUTOFF = 1e-9        # relative zero-eigenvalue cutoff of L^+
HEAT_TAIL = 1e-17         # HeatOperator's first omitted term over the sum
# KernelOperator.toarray() applies the kernel to this many column blocks
# of the identity; PagerankOperator's Schur inverse and the grounded
# Laplacian's inverse are symmetrized in column blocks of SYMMETRIZE_COLUMNS
TOARRAY_BLOCKS = 64
SYMMETRIZE_COLUMNS = 32
# PagerankOperator forms its Schur complement's columns by head solves in
# blocks of at most SCHUR_BLOCK_ENTRIES head-row doubles (512 KB: SuperLU's
# solve per column is slower in wider blocks from 2k to 20k head rows) and
# of at least SCHUR_MIN_COLUMNS columns (narrower ones cost more calls)
SCHUR_BLOCK_ENTRIES = 1 << 16
SCHUR_MIN_COLUMNS = 8


@dataclass
class SpectralRadiusResult:
    value: float
    iterations: int
    converged: bool

    def __float__(self) -> float:
        return self.value


def spectral_radius(m, seed: int = 0, offsets=None) -> SpectralRadiusResult:
    """|lambda_max| of a dense array, a sparse matrix or a KernelOperator.

    A dense array, or a sparse one of at most EXACT_SPARSE_RADIUS_ROWS rows,
    gets exact eigenvalues (iterations 0), an all-zero sparse matrix radius
    0 and a KernelOperator its closed-form rho. Any other sparse matrix
    makes one ARPACK call for the eigenvalue of largest modulus, from a
    seeded start and to working precision; iterations counts its products
    with m. If ARPACK raises, a warning is logged and the exact value
    returned, flagged unconverged. With `offsets` (the first row of each
    block, ascending from 0), a sparse block-diagonal m gets an array of
    radii, each with the bits of its block's own call; iterations sums
    theirs, converged needs all of them.
    """
    sparse = sp.issparse(m)
    if offsets is not None and not sparse:
        raise InputError("offsets need a sparse block-diagonal matrix")
    if isinstance(m, KernelOperator):
        return SpectralRadiusResult(m.rho, 0, True)
    if not sparse:
        m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError("spectral_radius requires a square matrix")
    if offsets is not None:
        return _block_radii(m.tocsr(), seed, np.asarray(offsets, np.int64))
    n = m.shape[0]
    if n == 0 or (sparse and m.count_nonzero() == 0):
        return SpectralRadiusResult(0.0, 0, True)
    if not sparse or n <= EXACT_SPARSE_RADIUS_ROWS:
        return SpectralRadiusResult(_exact_radius(_as_dense(m)), 0, True)
    products = 0

    def matvec(x):
        nonlocal products
        products += 1
        return m @ x
    op = spla.LinearOperator(m.shape, matvec=matvec, dtype=np.float64)
    # a seeded start vector: ARPACK's own start changes from call to call
    v0 = np.random.default_rng(seed).standard_normal(n)
    try:
        lam = spla.eigs(op, k=1, which="LM", v0=v0, tol=0,
                        return_eigenvectors=False)
    except spla.ArpackError as exc:
        log.warning("ARPACK failed (%s); dense eigvals fallback used", exc)
        return SpectralRadiusResult(_exact_radius(m.toarray()), products,
                                    False)
    return SpectralRadiusResult(float(np.abs(lam[0])), products, True)


def _exact_radius(dense: np.ndarray):
    """A float for one matrix, an array of them for a stack: eigvals treats
    each matrix of a stack on its own, so each radius has the same bits."""
    radius = np.max(np.abs(np.linalg.eigvals(dense)), axis=-1)
    return float(radius) if dense.ndim == 2 else radius


def _block_radii(m: sp.csr_matrix, seed: int,
                 offsets: np.ndarray) -> SpectralRadiusResult:
    """spectral_radius of each diagonal block of the CSR m: its own call on
    its slice above EXACT_SPARSE_RADIUS_ROWS rows, else one eigvals call per
    stack of equal-size dense blocks, summed as toarray() sums them after
    one sort of m's entries, of at most RADIUS_STACK_ENTRIES doubles."""
    starts = np.append(offsets, m.shape[0])
    sizes = np.diff(starts)
    if offsets.ndim != 1 or starts[0] != 0 or np.any(sizes < 0):
        raise InputError("offsets must ascend from 0 within the matrix")
    row_nnz = np.diff(m.indptr)
    block = np.repeat(np.repeat(np.arange(sizes.size), sizes), row_nnz)
    row = np.repeat(np.arange(m.shape[0]), row_nnz) - offsets[block]
    col = m.indices - offsets[block]
    if np.any((col < 0) | (col >= sizes[block])):
        raise InputError("an entry lies outside the blocks offsets give")
    radii = np.zeros(sizes.size)
    big = np.flatnonzero(sizes > EXACT_SPARSE_RADIUS_ROWS)
    own = [spectral_radius(m[starts[i]:starts[i + 1], starts[i]:starts[i + 1]],
                           seed=seed) for i in big]
    radii[big] = [r.value for r in own]
    small = np.flatnonzero((sizes > 0) & (sizes <= EXACT_SPARSE_RADIUS_ROWS))
    by_size = small[np.argsort(sizes[small], kind="stable")]
    k = sizes[by_size]
    rank = np.arange(k.size) - np.searchsorted(k, k)   # place among its size
    slot = rank % np.maximum(1, RADIUS_STACK_ENTRIES // (k * k))
    first = np.flatnonzero(slot == 0)   # each stack's first place in by_size
    # each block's stack (-1 for the others) and its start in that stack,
    # then each entry's place in its stack's flat count * size * size array
    stack_of = np.full(sizes.size, -1)
    stack_of[by_size] = np.cumsum(slot == 0) - 1
    base = np.zeros(sizes.size, dtype=np.int64)
    base[by_size] = slot * k * k
    flat = base[block] + row * sizes[block] + col
    order = np.argsort(stack_of[block], kind="stable")
    bounds = np.searchsorted(stack_of[block][order], np.arange(first.size + 1))
    for s, (lo, hi) in enumerate(zip(first, np.append(first[1:], k.size))):
        entries = order[bounds[s]:bounds[s + 1]]
        dense = np.bincount(flat[entries], weights=m.data[entries],
                            minlength=(hi - lo) * k[lo] ** 2)
        radii[by_size[lo:hi]] = _exact_radius(
            dense.reshape(hi - lo, k[lo], k[lo]))
    return SpectralRadiusResult(radii, sum(r.iterations for r in own),
                                all(r.converged for r in own))


def spectral_gap(g: Graph) -> float:
    """Smallest strictly positive eigenvalue of the symmetric normalized
    Laplacian: the least lambda_2 over components of at least 2 nodes
    (dense eigvalsh up to DENSE_GAP_ROWS nodes, shift-invert eigsh above).
    The rw and mean Laplacians share its spectrum (similarity by D^{1/2}).
    An isolated node has eigenvalue 1 (`_inv_pow` maps degree 0 to 0)."""
    if g.num_nodes < 2:
        raise InputError("spectral gap needs at least 2 nodes")
    mat = shift_operator(g, OperatorKind.LAPLACIAN, Normalization.SYM)
    comp = connected_components(g)
    sizes = np.bincount(comp)
    gap = 1.0 if np.any(sizes == 1) else np.inf
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
    lap = shift_operator(g, OperatorKind.LAPLACIAN,
                         Normalization.NONE).toarray()
    w, v = np.linalg.eigh(lap)
    lam_max = float(np.max(np.abs(w))) if w.size else 0.0
    inv = np.where(w > PINV_CUTOFF * max(lam_max, 1.0),
                   1.0 / np.where(w == 0, 1.0, w), 0.0)
    return (v * inv) @ v.T


@dataclass
class ResistanceMatrix:
    """Res_uv = G_uu + G_vv - 2 G_uv from the grounded Laplacian's inverse G
    (exactly symmetric), clipped at 0, np.inf across components. `values`
    reads pairs; `matrix` builds all n x n of them by the same arithmetic."""

    inverse: np.ndarray      # G, zero in each grounded node's row and column
    components: np.ndarray
    total_degree: float

    def values(self, u, v) -> np.ndarray:
        """Res_uv for index arrays u and v."""
        g = self.inverse
        res = np.maximum(g[u, u] + g[v, v] - 2.0 * g[u, v], 0.0)
        return np.where(self.components[u] == self.components[v], res, np.inf)

    @property
    def matrix(self) -> np.ndarray:
        nodes = np.arange(self.components.size)
        return self.values(nodes[:, None], nodes[None, :])

    def commute_time(self) -> np.ndarray:
        """Com_uv = Res_uv * sum of all degrees."""
        return self.matrix * self.total_degree


def effective_resistance(g: Graph) -> ResistanceMatrix:
    """Res_uv = (1_u - 1_v)^T L^+ (1_u - 1_v), per connected component.

    The lowest node of each component is grounded (its Laplacian row and
    column become unit vectors), and the positive definite result is
    inverted in place in one Fortran n x n array by dpotrf and dpotri."""
    comp = connected_components(g)
    _, grounded = np.unique(comp, return_index=True)
    lap = shift_operator(g, OperatorKind.LAPLACIAN, Normalization.NONE).tocoo()
    inv = np.zeros(lap.shape, order="F")
    inv[lap.row, lap.col] = lap.data
    inv[grounded] = inv[:, grounded] = 0.0
    inv[grounded, grounded] = 1.0
    inv, info = dpotrf(inv, lower=True, clean=True, overwrite_a=True)
    if info:
        raise RuntimeError(f"grounded Laplacian not positive definite ({info})")
    inv, _ = dpotri(inv, lower=True, overwrite_c=True)
    _mirror_lower(inv)
    inv[grounded, grounded] = 0.0
    return ResistanceMatrix(inverse=inv, components=comp,
                            total_degree=float(np.sum(g.degrees)))


def _mirror_lower(inv: np.ndarray) -> None:
    """Copy inv's strictly lower triangle into its zero upper one a column
    block at a time, so that no second n x n array is held."""
    for j in range(0, inv.shape[0], SYMMETRIZE_COLUMNS):
        inv[j:j + SYMMETRIZE_COLUMNS] += np.tril(
            inv[:, j:j + SYMMETRIZE_COLUMNS], -j - 1).T


def _as_dense(t) -> np.ndarray:
    if sp.issparse(t):
        return t.toarray()
    return np.asarray(t, dtype=np.float64)


def heat_kernel(t_matrix, t: float) -> np.ndarray:
    """Heat diffusion exp(-t (I - T)) = sum_m e^{-t} t^m/m! T^m, dense."""
    if t <= 0:
        raise InputError("heat kernel requires t > 0")
    td = _as_dense(t_matrix)
    n = td.shape[0]
    return scipy.linalg.expm(-t * (np.eye(n) - td))


class KernelOperator(spla.LinearOperator):
    """A diffusion kernel applied by its product, with its spectral radius
    `rho` in closed form. toarray() applies it to TOARRAY_BLOCKS column
    blocks of the identity, so that it holds little beside its output."""

    def __init__(self, n: int, rho: float):
        super().__init__(dtype=np.float64, shape=(n, n))
        self.rho = rho

    def toarray(self) -> np.ndarray:
        n = self.shape[0]
        out = np.empty((n, n))
        width = -(-n // TOARRAY_BLOCKS)
        for j in range(0, n, width):
            out[:, j:j + width] = self._matmat(
                np.eye(n, min(width, n - j), -j))
        return out


class HeatOperator(KernelOperator):
    """Heat kernel exp(-t (I - T)) of a sparse T, applied as its series
    e^{-t} sum_{m<=M} t^m/m! T^m X in two n x k arrays. With s = t rho(T),
    M is the smallest count past the peak of s^m/m! whose next term is at
    most HEAT_TAIL e^s; rho(T) = ||T|| in the 1-, infinity- or 2-norm for
    rw, mean and sym (and the symmetric A), and the kernel's own radius is
    exp(-t (1 - rho(T))). Threads may share one operator: T is only read."""

    def __init__(self, t_matrix, t: float, rho_t: float):
        super().__init__(t_matrix.shape[0], math.exp(-t * (1.0 - rho_t)))
        self._t_matrix, self._t = t_matrix, t
        s, self.terms = t * rho_t, int(t * rho_t)
        while s > 0 and ((self.terms + 1) * math.log(s) - math.lgamma(
                self.terms + 2) > math.log(HEAT_TAIL) + s):
            self.terms += 1

    def _matmat(self, x):
        term = out = np.array(x, dtype=np.float64)
        for m in range(1, self.terms + 1):
            term = self._t_matrix @ term
            term *= self._t / m
            out += term
        out *= math.exp(-self._t)
        return out


class PagerankOperator(KernelOperator):
    """Personalized PageRank kernel diag(left) K^{-1} diag(right) of a
    symmetric positive definite sparse K, applied by block elimination.

    K's nodes are ordered by SuperLU's minimum-degree order, read from an
    incomplete factor that drops nearly all fill. The nodes whose columns
    of the Cholesky factor L of K in that order are full, its dense
    trailing block, form the tail T; the others form the head H. The split
    is found from K's graph alone: column j is full iff every later node
    is reached from j through nodes ordered before j (the fill-path lemma
    of Rose, Tarjan and Lueker), so no factor of all of K is made. The
    head keeps a sparse LU of K_HH. The tail keeps the dense inverse of
    its Schur complement S = K_TT - K_TH K_HH^{-1} K_HT, formed by head
    solves a column block at a time and inverted in place by `dpotrf` and
    `dpotri`. A product is one head solve, one product with S^{-1} and one
    more head solve; the n x n kernel is built only by toarray(). Products
    share the factors read-only, so threads may apply one operator
    concurrently.
    """

    def __init__(self, k, left: np.ndarray | None, right: np.ndarray | None,
                 rho: float):
        n = k.shape[0]
        super().__init__(n, rho)
        # K is strictly diagonally dominant, so the incomplete factor's
        # pivots stay positive; only its column order is kept
        order = np.argsort(_factor(k, "MMD_AT_PLUS_A", drop_tol=1.0,
                                   fill_factor=1.0).perm_c)
        kp = k[order][:, order]
        h = _full_trailing_block(kp)
        self._head_nodes, self._tail_nodes = order[:h], order[h:]
        self._coupling = kp[:h, h:].tocsr()   # K_HT
        # an empty head (a complete graph) solves to itself
        self._head_solve = (_factor(kp[:h, :h].tocsc(), "NATURAL").solve
                            if h else np.asarray)
        self._tail_inverse = self._schur_inverse(kp[h:, h:].tocoo())
        self._left, self._right = left, right

    def _schur_inverse(self, k_tt) -> np.ndarray:
        """S^{-1} in one Fortran t x t array. S's columns are formed by head
        solves in blocks of at most SCHUR_BLOCK_ENTRIES head-row doubles,
        and fewer while a block's two h-row arrays would hold over half as
        many doubles as S, so that the build holds little beside S; but
        never fewer than SCHUR_MIN_COLUMNS columns, whose two arrays hold
        less than one head array of a 32-column product."""
        k_ht, coupling_t = self._coupling.tocsc(), self._coupling.T
        h, t = k_ht.shape
        inv = np.zeros((t, t), order="F")
        inv[k_tt.row, k_tt.col] = k_tt.data
        width = max(SCHUR_MIN_COLUMNS,
                    min(SCHUR_BLOCK_ENTRIES, t * t // 4) // (h or 1))
        ptr, (rows, cols) = k_ht.indptr, k_ht.tocoo().coords
        for j in range(0, t if h else 0, width):
            seg = slice(ptr[j], ptr[min(j + width, t)])
            block = np.zeros((h, min(width, t - j)), order="F")
            block[rows[seg], cols[seg] - j] = k_ht.data[seg]
            # rebinding frees the right-hand side before the product, whose
            # sparse kernel takes a C-order copy of the solve
            block = self._head_solve(block)
            inv[:, j:j + width] -= coupling_t @ block
        inv, info = dpotrf(inv, lower=True, clean=True, overwrite_a=True)
        if info:
            raise RuntimeError("pagerank Schur complement not positive "
                               f"definite ({info})")
        inv, _ = dpotri(inv, lower=True, overwrite_c=True)
        _mirror_lower(inv)
        return inv

    def _gather(self, x, nodes):
        """Rows `nodes` of diag(right) x."""
        z = np.asarray(x[nodes], dtype=np.float64)
        if self._right is not None:
            z *= self._right[nodes, None]
        return z

    def _matmat(self, x):
        head, tail = self._head_nodes, self._tail_nodes
        # each half of the input is gathered where it is used, and the
        # output is allocated last: a product holds at most two head-sized
        # arrays beside S^{-1}
        z_tail = self._gather(x, tail)
        z_tail -= self._coupling.T @ self._head_solve(self._gather(x, head))
        z_tail = self._tail_inverse @ z_tail
        rhs = self._gather(x, head)
        rhs -= self._coupling @ z_tail
        z_head = self._head_solve(rhs)
        del rhs
        if self._left is not None:
            z_head *= self._left[head, None]
            z_tail *= self._left[tail, None]
        out = np.empty((self.shape[0], x.shape[1]))
        out[head] = z_head
        out[tail] = z_tail
        return out


def _factor(k, order: str, **drop):
    """Sparse LU of the symmetric positive definite k without pivoting;
    with spilu's `drop` settings, an incomplete one."""
    try:
        return (spla.spilu if drop else spla.splu)(
            k, permc_spec=order, diag_pivot_thresh=0.0,
            options={"SymmetricMode": True}, **drop)
    except RuntimeError as exc:
        raise RuntimeError("pagerank system D - (1-alpha) A could not be "
                           f"factored: {exc}") from exc


def _full_trailing_block(kp) -> int:
    """First column of the full trailing block of the Cholesky factor of
    the symmetric kp, eliminated in its own order.

    Column j is full iff every later node is reached from j through nodes
    ordered before j (the fill-path lemma). A search from j that leaves
    only nodes ordered up to j finds those paths: capping kp's column
    pointers at column j's end drops every later node's entries, so each
    step searches kp's pattern without a copy. A full column's successor
    is full too, so the first full column is found by bisection."""
    n, ptr = kp.shape[0], kp.indptr
    reach = sp.csr_matrix((kp.data, kp.indices, ptr.copy()), shape=(n, n))
    lo, hi = 0, n - 1          # the last column is always full
    while lo < hi:
        j = (lo + hi) // 2
        np.minimum(ptr, ptr[j + 1], out=reach.indptr)
        later = np.count_nonzero(csgraph.breadth_first_order(
            reach, j, directed=True, return_predecessors=False) > j)
        if later == n - 1 - j:
            hi = j
        else:
            lo = j + 1
    return lo


def pagerank_kernel(g: Graph, alpha: float,
                    norm: Normalization | str) -> PagerankOperator:
    """Personalized PageRank alpha (I - (1-alpha) T)^{-1} of the normalized
    adjacency T, as a PagerankOperator over K.

    With D the degree diagonal (1 for isolated nodes, whose columns of A are
    zero) and K = D - (1-alpha) A, I - (1-alpha) T is K D^{-1} for rw,
    D^{-1} K for mean and D^{-1/2} K D^{-1/2} for sym, so the kernel is
    alpha D K^{-1}, alpha K^{-1} D or alpha D^{1/2} K^{-1} D^{1/2}. K is
    symmetric positive definite, because the eigenvalues of
    D^{-1/2} K D^{-1/2} are at least alpha, so it needs no pivoting. Under
    the minimum-degree ordering of K + K^T its Cholesky factor is sparse
    outside a full trailing block, which the operator finds from K's graph
    and never factors: it keeps the block's Schur complement as a dense
    inverse, built by LAPACK, and the rest as a sparse LU of K_HH. On the
    2708-node seed-0 SBM of `pipebench`, the tail is 559 nodes (a 2.5 MB
    inverse) and the head LU holds 12.9k nonzeros. The unnormalized
    adjacency is refused: its series diverges once (1-alpha) rho(A) > 1.
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
    rho = 1.0 if g.num_edges else alpha   # alpha / (1 - (1-alpha) rho(T))
    if norm is Normalization.RW:
        return PagerankOperator(k, alpha * d, None, rho)
    if norm is Normalization.MEAN:
        return PagerankOperator(k, None, alpha * d, rho)
    s = np.sqrt(d)  # SYM
    return PagerankOperator(k, s, alpha * s, rho)


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
