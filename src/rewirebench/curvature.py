"""Balanced Forman edge curvature and its diagnostic distributions."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import InputError
from .graph import Graph

BIN_WIDTH = 0.25   # histogram bins, aligned to multiples of the width


@dataclass
class EdgeCurvature:
    """Curvature of one edge with its component terms retained.

    total = tree_term + triangle_term + square_term, with
    tree_term = 2/d_u + 2/d_v - 2.
    """

    u: int
    v: int
    total: float
    tree_term: float
    triangle_term: float
    square_term: float
    triangles: int
    squares_uv: int
    squares_vu: int
    gamma_max: float


def balanced_forman(g: Graph, edge: tuple[int, int]) -> EdgeCurvature:
    """Balanced Forman curvature of a single existing edge, counted from the
    neighbour sets of u, v and their neighbours."""
    u, v = edge
    if not g.has_edge(u, v):
        raise InputError(f"edge ({u}, {v}) not in graph")
    near = {u, v, *g.neighbors(u).tolist(), *g.neighbors(v).tolist()}
    adj = {x: set(g.neighbors(x).tolist()) for x in near}
    counts = kernels.set_counts(adj, u, v)
    tree, tri_term, sq_term = kernels.curvature_terms(*counts)
    _, _, tri, sq_uv, sq_vu, gamma = counts
    return EdgeCurvature(u=u, v=v, total=float(tree + tri_term + sq_term),
                         tree_term=float(tree), triangle_term=float(tri_term),
                         square_term=float(sq_term), triangles=tri,
                         squares_uv=sq_uv, squares_vu=sq_vu,
                         gamma_max=float(gamma) if gamma > 0 else 1.0)


def edge_curvatures(g: Graph) -> np.ndarray:
    """Curvature value per stored edge, aligned with g.edges rows."""
    if g.num_edges == 0:
        return np.zeros(0)
    a = g.adjacency()
    return kernels.balanced_forman_edges(a.indptr, a.indices, g.edges[:, 0],
                                         g.edges[:, 1])[0]


@dataclass
class CurvatureHistogram:
    values: np.ndarray      # per-edge curvatures, aligned with g.edges
    bin_edges: np.ndarray
    counts: np.ndarray


def curvature_distribution(g: Graph) -> CurvatureHistogram:
    """Per-edge curvatures plus a histogram in BIN_WIDTH bins (empty for
    edgeless graphs)."""
    vals = edge_curvatures(g)
    if vals.size == 0:
        return CurvatureHistogram(values=vals, bin_edges=np.zeros(0),
                                  counts=np.zeros(0, dtype=np.int64))
    lo = np.floor(vals.min() / BIN_WIDTH) * BIN_WIDTH
    hi = np.ceil(vals.max() / BIN_WIDTH) * BIN_WIDTH
    if hi <= lo:
        hi = lo + BIN_WIDTH
    edges = np.arange(lo, hi + BIN_WIDTH / 2, BIN_WIDTH)
    counts, _ = np.histogram(vals, bins=edges)
    return CurvatureHistogram(values=vals, bin_edges=edges, counts=counts)


@dataclass
class CurvatureDelta:
    edges: np.ndarray       # (k, 2) common edges
    before: np.ndarray
    after: np.ndarray
    improved: int           # delta > 0
    worsened: int           # delta < 0

    @property
    def delta(self) -> np.ndarray:
        return self.after - self.before


def curvature_delta(g_before: Graph, g_after: Graph, vb: np.ndarray,
                    va: np.ndarray) -> CurvatureDelta:
    """Per-edge (before, after) curvature pairs on the common edge set, from
    each graph's edge_curvatures (vb, va)."""
    if g_before.num_nodes != g_after.num_nodes:
        raise InputError("graphs must share the same node set")
    # canonical edges are unique (u, v) rows, so u * n + v keys sort as rows
    n = g_before.num_nodes
    kb, ka = (e[:, 0] * n + e[:, 1] for e in (g_before.edges, g_after.edges))
    common, ib, ia = np.intersect1d(kb, ka, assume_unique=True,
                                    return_indices=True)
    before, after = vb[ib], va[ia]
    delta = after - before
    return CurvatureDelta(edges=np.stack([common // n, common % n], axis=1),
                          before=before, after=after,
                          improved=int(np.sum(delta > 0)),
                          worsened=int(np.sum(delta < 0)))


def write_delta_csv(delta: CurvatureDelta, path) -> None:
    """Scatter-ready CSV: one row per common edge with before/after/delta."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["u", "v", "before", "after", "delta"])
        for (u, v), b, a in zip(delta.edges, delta.before, delta.after):
            w.writerow([int(u), int(v), f"{b:.10g}", f"{a:.10g}", f"{a - b:.10g}"])


def write_histogram_csv(hist: CurvatureHistogram, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["bin_left", "bin_right", "count"])
        for i, c in enumerate(hist.counts):
            w.writerow([f"{hist.bin_edges[i]:.10g}",
                        f"{hist.bin_edges[i + 1]:.10g}", int(c)])
