"""Balanced Forman curvature: one formula and two counters.

`curvature_terms` is the only place the formula is written; every curvature
value is the sum of its terms. The counts it takes come from one of two
counters, which agree exactly:

- `balanced_forman_edges` counts a whole batch of edges of a frozen graph
  from CSR arrays, vectorized with scipy.sparse;
- `set_counts` counts one edge from set adjacency, so it serves a graph that
  is being edited (SDRF) and single-edge queries without building a batch.

For each edge (u, v):

    tri      |N(u) ∩ N(v)| = (A²)_uv
    sq_uv    #w in N(u) \\ N[v] on a diagonal-free 4-cycle u-w-k-v
    sq_vu    the same count with u and v swapped
    gamma    the largest number of such 4-cycles through one w (or k);
             0 means there are none and the square term is 0

A wedge w in N(u) \\ N[v] lies on c_w = (A²)_wv - 1 - |N(u) ∩ N(v) ∩ N(w)|
such cycles: every k in N(w) ∩ N(v) closes one except k = u and the k
adjacent to u. That is |N(w) ∩ (N(v) \\ N(u))| - 1, one sparse product for
all wedges. The batch counter takes the CSR (indptr, indices) of a
symmetric 0/1 adjacency with sorted indices, plus parallel arrays us/vs of
existing edges in either orientation; both orientations of every edge form
one batch of 2m rows. Its memory grows with the number of 3-paths from the
batch's endpoints, so very dense graphs are costly.
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


def curvature_sum(du, dv, tri, sq_uv, sq_vu, gamma):
    """Balanced Forman curvature: the sum of curvature_terms."""
    tree, triangle, square = curvature_terms(du, dv, tri, sq_uv, sq_vu, gamma)
    return tree + triangle + square


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
    ric = curvature_sum(deg[us], deg[vs], tri, sq_uv, sq_vu, gamma)
    return ric, tri, sq_uv, sq_vu, gamma


def wedge_counts(adj, u, v):
    """{w: c_w} for each w in N(u) \\ N[v], as _square_side counts it."""
    far = adj[v] - adj[u]
    return {w: len(adj[w] & far) - 1 for w in adj[u] - adj[v] if w != v}


def _square_side(adj, u, v):
    """(#w in N(u) \\ N[v] on a diagonal-free 4-cycle u-w-k-v, the most such
    cycles through one w), with c_w = |N(w) ∩ (N(v) \\ N(u))| - 1."""
    nu, nv = adj[u], adj[v]
    far = nv - nu
    count = 0
    best = 0
    for w in nu:
        if w == v or w in nv:
            continue
        cw = len(adj[w] & far) - 1
        if cw > 0:
            count += 1
            best = max(best, cw)
    return count, best


def set_counts(adj, u, v):
    """(d_u, d_v, tri, sq_uv, sq_vu, gamma) of the edge (u, v), the counts
    balanced_forman_edges takes from CSR. adj maps u, v and each of their
    neighbours to its neighbour set."""
    nu, nv = adj[u], adj[v]
    sq_uv, best_u = _square_side(adj, u, v)
    sq_vu, best_v = _square_side(adj, v, u)
    return len(nu), len(nv), len(nu & nv), sq_uv, sq_vu, max(best_u, best_v)


def backend() -> str:
    return "scipy.sparse"
