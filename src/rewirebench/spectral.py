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

# sparse spectral_radius block solved by eigvals of its dense copy: below
# this size one eigvals call is cheaper than an ARPACK call
EXACT_SPARSE_RADIUS_ROWS = 64
# doubles per dense stack of equal-size blocks whose radii spectral_radius
# takes with one eigvals call (8 MB)
RADIUS_STACK_ENTRIES = 1 << 20
# spectral_gap component solved by dense eigvalsh; shift-invert eigsh above,
# which at 2708 nodes takes 0.46 s against eigvalsh's 2.6 s
DENSE_GAP_ROWS = 1000
PINV_CUTOFF = 1e-9        # relative zero-eigenvalue cutoff of L^+
HEAT_TAIL = 1e-17         # HeatOperator's first omitted term over the sum
# KernelOperator.toarray() applies the kernel to this many column blocks
# of the identity; _spd_inverse symmetrizes its result in column blocks of
# SYMMETRIZE_COLUMNS
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

    A KernelOperator gives its closed-form rho and a dense array its exact
    eigenvalues (iterations 0). A sparse matrix is converted to CSR and
    solved by _block_radii as the diagonal blocks that start at `offsets`
    (the first row of each block, ascending from 0), each with the bits of
    its own call, and the value is an array of one radius per block.
    Without offsets the matrix is one block and the value a float.
    iterations counts ARPACK's products; converged needs every block's.
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
    if not sparse:
        return SpectralRadiusResult(_exact_radius(m), 0, True)
    res = _block_radii(m.tocsr(), seed, np.asarray(
        [0] if offsets is None else offsets, dtype=np.int64))
    if offsets is None:
        res.value = float(res.value[0])
    return res


def _exact_radius(dense: np.ndarray):
    """A float for one matrix (0.0 for 0 x 0), an array of them for a
    stack: eigvals treats each matrix of a stack on its own, so each radius
    has the same bits."""
    radius = np.max(np.abs(np.linalg.eigvals(dense)), axis=-1, initial=0.0)
    return float(radius) if dense.ndim == 2 else radius


def _block_radii(m: sp.csr_matrix, seed: int,
                 offsets: np.ndarray) -> SpectralRadiusResult:
    """The radius of each diagonal block of the CSR m, with the bits of
    that block alone: above EXACT_SPARSE_RADIUS_ROWS rows one _arpack_radius
    call on its slice (on m itself if it is the only block), else one
    eigvals call per dense stack of equal-size blocks, at most
    RADIUS_STACK_ENTRIES doubles summed in stored order as toarray() does."""
    starts = np.append(offsets, m.shape[0])
    sizes = np.diff(starts)
    if offsets.ndim != 1 or starts[0] != 0 or (sizes < 0).any():
        raise InputError("offsets must ascend from 0 within the matrix")
    big = sizes > EXACT_SPARSE_RADIUS_ROWS
    radii = np.zeros(sizes.size)
    # a lone block holds every entry, and above the cap reads none of them
    if sizes.size > 1 or not big.all():
        row_nnz = np.diff(m.indptr)
        block = np.repeat(np.repeat(np.arange(sizes.size), sizes), row_nnz)
        row = np.repeat(np.arange(m.shape[0]), row_nnz) - offsets[block]
        col = m.indices - offsets[block]
        k = sizes[block]
        if ((col < 0) | (col >= k)).any():
            raise InputError("an entry lies outside the blocks offsets give")
        # blocks and entries by size, each size's in stored order; each entry
        # at its place in a dense stack of the blocks in that order
        blocks = np.argsort(sizes, kind="stable")
        entries = np.argsort(k, kind="stable")
        flat = ((np.argsort(blocks)[block] * k + row) * k + col)[entries]
        data, by_size = m.data[entries], sizes[blocks]
        begin = [0, *np.cumsum(np.diff(m.indptr[starts])[blocks]).tolist()]
        for n in np.unique(sizes[(sizes > 0) & ~big]).tolist():
            per = max(1, RADIUS_STACK_ENTRIES // (n * n))
            lo, hi = np.searchsorted(by_size, (n, n + 1)).tolist()
            for s in range(lo, hi, per):
                e = min(s + per, hi)
                dense = np.bincount(flat[begin[s]:begin[e]] - s * n * n,
                                    weights=data[begin[s]:begin[e]],
                                    minlength=(e - s) * n * n)
                radii[blocks[s:e]] = _exact_radius(dense.reshape(-1, n, n))
    own = [_arpack_radius(m if sizes.size == 1 else m[lo:hi, lo:hi], seed)
           for lo, hi in zip(starts[:-1][big], starts[1:][big])]
    radii[big] = [r.value for r in own]
    return SpectralRadiusResult(radii, sum(r.iterations for r in own),
                                all(r.converged for r in own))


def _arpack_radius(m, seed: int) -> SpectralRadiusResult:
    """|lambda_max| of one sparse block by ARPACK, from a seeded start and
    to working precision; iterations counts its products. An all-zero
    block (on which ARPACK raises) is 0 without a call; if ARPACK raises,
    a warning is logged and the exact value returned, flagged unconverged.
    A block that is not canonical is solved as a summed, sorted copy, so
    the caller's matrix is never changed."""
    if not m.has_canonical_format:
        m = m.copy()
        m.sum_duplicates()
    if m.count_nonzero() == 0:
        return SpectralRadiusResult(0.0, 0, True)
    products = 0

    def matvec(x):
        nonlocal products
        products += 1
        return m @ x
    op = spla.LinearOperator(m.shape, matvec=matvec, dtype=np.float64)
    # a seeded start vector: ARPACK's own start changes from call to call
    v0 = np.random.default_rng(seed).standard_normal(m.shape[0])
    try:
        lam = spla.eigs(op, k=1, which="LM", v0=v0, tol=0,
                        return_eigenvectors=False)
    except spla.ArpackError as exc:
        log.warning("ARPACK failed (%s); dense eigvals fallback used", exc)
        return SpectralRadiusResult(_exact_radius(m.toarray()), products,
                                    False)
    return SpectralRadiusResult(float(np.abs(lam[0])), products, True)


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
    """Res_uv = G_uu + G_vv - 2 G_uv from G = K^{-1}, K the grounded
    Laplacian, with G_gg read as 0 at each grounded node g; clipped at 0,
    np.inf across components. `values` reads G at the pairs it is given
    only; `matrix` asks for all n x n pairs."""

    kernel: PagerankOperator     # K^{-1} by block elimination
    components: np.ndarray
    grounded: np.ndarray         # the lowest node of each component
    total_degree: float

    def values(self, u, v) -> np.ndarray:
        """Res_uv for index arrays u and v, broadcast together.

        Each unordered pair {a, b}, a <= b, is read once: from S^{-1} if
        both nodes are in the tail, else from G's column at its head node
        (b if b is in the head). Head columns are the kernel's product with
        one fixed block of identity columns at a time, `width` consecutive
        head nodes, so a pair's bits do not depend on the other pairs."""
        a, b = np.minimum(u, v), np.maximum(u, v)
        shape, a, b = a.shape, a.ravel(), b.ravel()
        op, comp = self.kernel, self.components
        head, tail, s_inv = op._head_nodes, op._tail_nodes, op._tail_inverse
        # a tail node's row of S^{-1}, or -1 - a head node's position
        at = np.empty(comp.size, dtype=np.int64)
        at[tail] = np.arange(tail.size)
        at[head] = -1 - np.arange(head.size)
        at_a, at_b = at[a], at[b]
        diag = np.empty(comp.size)
        diag[tail] = np.diagonal(s_inv)
        in_tail = (at_a >= 0) & (at_b >= 0)
        g_ab = np.empty(a.size)
        g_ab[in_tail] = s_inv[at_a[in_tail], at_b[in_tail]]
        if head.size:
            # the pair's head node, b if b is one, and its head position
            col = np.where(at_b < 0, b, a)
            pos = -1 - np.where(at_b < 0, at_b, at_a)
            # as wide as n-row arrays of a quarter of S^{-1}'s doubles
            # allow: the product with S^{-1} reads all of it once a block
            width = max(SCHUR_MIN_COLUMNS, tail.size ** 2 // 4 // comp.size)
            block = np.where(in_tail, -1, pos // width)
            order = np.argsort(block, kind="stable")
            bounds = np.searchsorted(block[order], np.arange(
                -(-head.size // width) + 1))
            used = -1 - np.concatenate([at_a, at_b])
            for k in np.unique(used[used >= 0] // width).tolist():
                nodes = head[k * width:(k + 1) * width]
                x = np.zeros((comp.size, nodes.size))
                x[nodes, np.arange(nodes.size)] = 1.0
                x = op._matmat(x)
                diag[nodes] = x[nodes, np.arange(nodes.size)]
                pairs = order[bounds[k]:bounds[k + 1]]
                g_ab[pairs] = x[a[pairs] + b[pairs] - col[pairs],
                                pos[pairs] - k * width]
        diag[self.grounded] = 0.0
        res = np.maximum(diag[a] + diag[b] - 2.0 * g_ab, 0.0)
        return np.where(comp[a] == comp[b], res, np.inf).reshape(shape)

    @property
    def matrix(self) -> np.ndarray:
        nodes = np.arange(self.components.size)
        return self.values(nodes[:, None], nodes[None, :])

    def commute_time(self) -> np.ndarray:
        """Com_uv = Res_uv * sum of all degrees."""
        return self.matrix * self.total_degree


def effective_resistance(g: Graph) -> ResistanceMatrix:
    """Res_uv = (1_u - 1_v)^T L^+ (1_u - 1_v), per connected component.

    The lowest node of each component is grounded: its Laplacian row and
    column become unit vectors, so K is symmetric positive definite with
    the Laplacian's pattern. K^{-1} is a PagerankOperator over K. A graph
    whose n^2 doubles fit in one Schur block (n^2 <= SCHUR_BLOCK_ENTRIES)
    is all tail, in natural order: its K is inverted in place in one
    Fortran n x n array by _spd_inverse."""
    comp = connected_components(g)
    n = comp.size
    grounded = np.unique(comp, return_index=True)[1]
    is_grounded = np.zeros(n, dtype=bool)
    is_grounded[grounded] = True
    lap = shift_operator(g, OperatorKind.LAPLACIAN, Normalization.NONE)
    row = np.repeat(np.arange(n), np.diff(lap.indptr))
    keep = ~(is_grounded[row] | is_grounded[lap.indices])
    k = sp.coo_matrix((np.append(lap.data[keep], np.ones(grounded.size)),
                       (np.append(row[keep], grounded),
                        np.append(lap.indices[keep], grounded))), shape=(n, n))
    # K^{-1} has no closed-form radius, and none is asked of it
    kernel = PagerankOperator(k, None, None, math.nan, "grounded Laplacian",
                              dense=n * n <= SCHUR_BLOCK_ENTRIES)
    # the degrees of a simple graph sum to twice its edge count
    return ResistanceMatrix(kernel=kernel, components=comp, grounded=grounded,
                            total_degree=2.0 * g.num_edges)


def _spd_inverse(a: np.ndarray, what: str) -> np.ndarray:
    """Invert the symmetric positive definite Fortran array a in place by
    dpotrf and dpotri, and mirror its lower triangle SYMMETRIZE_COLUMNS
    columns at a time, so that no second array is held."""
    a, info = dpotrf(a, lower=True, clean=True, overwrite_a=True)
    if info:
        raise RuntimeError(f"{what} not positive definite ({info})")
    a, _ = dpotri(a, lower=True, overwrite_c=True)
    for j in range(0, a.shape[0], SYMMETRIZE_COLUMNS):
        a[j:j + SYMMETRIZE_COLUMNS] += np.tril(
            a[:, j:j + SYMMETRIZE_COLUMNS], -j - 1).T
    return a


def heat_kernel(t_matrix, t: float) -> np.ndarray:
    """Heat diffusion exp(-t (I - T)) = sum_m e^{-t} t^m/m! T^m, dense."""
    if t <= 0:
        raise InputError("heat kernel requires t > 0")
    td = (t_matrix.toarray() if sp.issparse(t_matrix)
          else np.asarray(t_matrix, dtype=np.float64))
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
    """diag(left) K^{-1} diag(right) of a symmetric positive definite sparse
    K, applied by block elimination: personalized PageRank's kernel, and
    with no scaling the grounded Laplacian's inverse that effective
    resistance reads. `what` names K in its errors.

    K's nodes are ordered by SuperLU's minimum-degree order, read from an
    incomplete factor that drops nearly all fill. The nodes whose columns
    of the Cholesky factor L of K in that order are full, its dense
    trailing block, form the tail T; the others form the head H. The split
    is found from K's graph alone: column j is full iff every later node
    is reached from j through nodes ordered before j (the fill-path lemma
    of Rose, Tarjan and Lueker), so no factor of all of K is made. With
    `dense`, all of K is the tail in its own order. The head keeps a
    sparse LU of K_HH. The tail keeps the dense inverse of its Schur
    complement S = K_TT - K_TH K_HH^{-1} K_HT, formed by head solves a
    column block at a time and inverted in place by `dpotrf` and `dpotri`.
    A product is one head solve, one product with S^{-1} and one more head
    solve; the n x n kernel is built only by toarray(). Products share the
    factors read-only, so threads may apply one operator concurrently.
    """

    def __init__(self, k, left: np.ndarray | None, right: np.ndarray | None,
                 rho: float, what: str, dense: bool):
        n = k.shape[0]
        super().__init__(n, rho)
        if dense:
            order, h = np.arange(n), 0
        else:
            k = k.tocsc()
            # K is a nonsingular M-matrix, so the incomplete factor's pivots
            # stay positive; only its column order is kept
            order = np.argsort(_factor(k, "MMD_AT_PLUS_A", what, drop_tol=1.0,
                                       fill_factor=1.0).perm_c)
            k = k[order][:, order]
            h = _full_trailing_block(k)
        self._head_nodes, self._tail_nodes = order[:h], order[h:]
        self._left, self._right = left, right
        # K_HT; an empty head couples to nothing and solves to itself
        self._coupling = k[:h, h:].tocsr() if h else np.zeros((0, n))
        self._head_solve = (_factor(k[:h, :h].tocsc(), "NATURAL", what).solve
                            if h else np.asarray)
        self._tail_inverse = self._schur_inverse(k[h:, h:] if h else k, what)

    def _schur_inverse(self, k_tt, what: str) -> np.ndarray:
        """S^{-1} in one Fortran t x t array, inverted in place by
        _spd_inverse. S's columns are formed by head solves in blocks of at
        most SCHUR_BLOCK_ENTRIES head-row doubles, and fewer while a
        block's two h-row arrays would hold over half as many doubles as
        S, so that the build holds little beside S; but never fewer than
        SCHUR_MIN_COLUMNS columns, whose two arrays hold less than one head
        array of a 32-column product. `what` names K in the error."""
        k_tt = k_tt.tocoo()
        h, t = self._coupling.shape
        inv = np.zeros((t, t), order="F")
        inv[k_tt.row, k_tt.col] = k_tt.data
        if h:
            k_ht, coupling_t = self._coupling.tocsc(), self._coupling.T
            width = max(SCHUR_MIN_COLUMNS,
                        min(SCHUR_BLOCK_ENTRIES, t * t // 4) // h)
            ptr, (rows, cols) = k_ht.indptr, k_ht.tocoo().coords
            for j in range(0, t, width):
                seg = slice(ptr[j], ptr[min(j + width, t)])
                block = np.zeros((h, min(width, t - j)), order="F")
                block[rows[seg], cols[seg] - j] = k_ht.data[seg]
                # rebinding frees the right-hand side before the product,
                # whose sparse kernel takes a C-order copy of the solve
                block = self._head_solve(block)
                inv[:, j:j + width] -= coupling_t @ block
        return _spd_inverse(inv, f"Schur complement of the {what}")

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


def _factor(k, order: str, what: str, **drop):
    """Sparse LU of the symmetric positive definite k without pivoting;
    with spilu's `drop` settings, an incomplete one. `what` names k in
    the error."""
    try:
        return (spla.spilu if drop else spla.splu)(
            k, permc_spec=order, diag_pivot_thresh=0.0,
            options={"SymmetricMode": True}, **drop)
    except RuntimeError as exc:
        raise RuntimeError(f"{what} could not be factored: {exc}") from exc


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
    what = "pagerank system D - (1-alpha) A"
    if norm is Normalization.RW:
        return PagerankOperator(k, alpha * d, None, rho, what, dense=False)
    if norm is Normalization.MEAN:
        return PagerankOperator(k, None, alpha * d, rho, what, dense=False)
    s = np.sqrt(d)  # SYM
    return PagerankOperator(k, s, alpha * s, rho, what, dense=False)


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
