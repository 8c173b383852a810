"""Balanced Forman curvature counts for a batch of edges, vectorized with
scipy.sparse.

The input is the CSR (indptr, indices) of a symmetric 0/1 adjacency A with
sorted indices, plus parallel arrays us/vs of existing edges in either
orientation. For each edge (u, v):

    tri      |N(u) ∩ N(v)| = (A²)_uv
    sq_uv    #w in N(u) \\ N[v] on a diagonal-free 4-cycle u-w-k-v
    sq_vu    the same count with u and v swapped
    gamma    the largest number of such 4-cycles through one w (or k);
             0 means there are none and the square term is 0

A wedge w in N(u) \\ N[v] lies on c_w = (A²)_wv - 1 - |N(u) ∩ N(v) ∩ N(w)|
such cycles: every k in N(w) ∩ N(v) closes one except k = u and the k
adjacent to u. That is |N(w) ∩ (N(v) \\ N(u))| - 1, one sparse product for
all wedges. Both orientations of every edge form one batch of 2m rows.
Memory grows with the number of 3-paths from the batch's endpoints, so very
dense graphs are costly.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


def curvature_terms(du, dv, tri, sq_uv, sq_vu, gamma):
    """(tree, triangle, square) terms of the balanced Forman curvature;
    their sum, added left to right, is the curvature."""
    dmax = np.maximum(du, dv)
    dmin = np.minimum(du, dv)
    tree = 2.0 / du + 2.0 / dv - 2.0
    triangle = 2.0 * tri / dmax + tri / dmin
    square = np.divide(sq_uv + sq_vu, gamma * dmax,
                       out=np.zeros(np.shape(gamma)), where=gamma > 0)
    return tree, triangle, square


def balanced_forman_edges(indptr, indices, us, vs):
    """(ric, tri, sq_uv, sq_vu, gamma) for each edge (us[i], vs[i])."""
    indptr = np.asarray(indptr, dtype=np.int64)
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    n, m = indptr.size - 1, us.size
    if m == 0:
        none = np.zeros(0, dtype=np.int64)
        return np.zeros(0), none, none, none, none
    a = sp.csr_matrix((np.ones(len(indices), dtype=np.int64), indices, indptr),
                      shape=(n, n))
    near, far = np.concatenate([us, vs]), np.concatenate([vs, us])
    n_near, n_far = a[near], a[far]
    common = n_near.multiply(n_far)
    far_itself = sp.csr_matrix(
        (np.ones(2 * m, dtype=np.int64), far, np.arange(2 * m + 1)),
        shape=(2 * m, n))
    wedges = n_near - common - far_itself       # N(near) \ N[far]
    c = ((n_far - common) @ a).multiply(wedges)
    c.data -= 1                                  # k = near closes no cycle
    c.eliminate_zeros()
    count = c.getnnz(axis=1).astype(np.int64)
    best = c.max(axis=1).toarray().reshape(2 * m)
    tri = common.getnnz(axis=1)[:m].astype(np.int64)
    sq_uv, sq_vu = count[:m], count[m:]
    gamma = np.maximum(best[:m], best[m:])
    deg = np.diff(indptr)
    tree, triangle, square = curvature_terms(deg[us], deg[vs], tri, sq_uv,
                                             sq_vu, gamma)
    return tree + triangle + square, tri, sq_uv, sq_vu, gamma


def backend() -> str:
    return "scipy.sparse"
