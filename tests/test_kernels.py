"""The vectorized all-edge curvature engine against the dense brute-force
oracles, and against the set-adjacency counter used inside SDRF.

One engine call covers every edge of a graph at once, so the cases include
graphs where a batched wedge scatter could misalign: a single edge, a star
with isolated nodes, a path and the 4-regular Cayley graphs."""

import numpy as np
import pytest

from rewirebench import build_graph, cayley_graph, kernels
from rewirebench.rewiring import _adj_sets, local_balanced_forman

from conftest import (brute_balanced_forman, brute_square_profile,
                      brute_triangles, path_graph, random_graph)


def _cases(rng):
    yield path_graph(2)
    yield build_graph([(0, k) for k in range(1, 6)], np.zeros((9, 1)))
    yield path_graph(7)
    for n in (3, 4, 5):
        yield cayley_graph(n)
    for _ in range(20):
        yield random_graph(12, 0.4, rng)


def test_local_curvature_matches_kernel(rng):
    for g in _cases(rng):
        if g.num_edges == 0:
            continue
        a = g.adjacency()
        ric, tri, sq_uv, sq_vu, gamma = kernels.balanced_forman_edges(
            a.indptr, a.indices, g.edges[:, 0], g.edges[:, 1])
        dense = a.toarray()
        for i, (u, v) in enumerate(g.edges):
            u, v = int(u), int(v)
            assert tri[i] == brute_triangles(dense, u, v)
            assert (sq_uv[i], sq_vu[i], gamma[i]) == brute_square_profile(
                dense, u, v)
            assert ric[i] == pytest.approx(brute_balanced_forman(dense, u, v),
                                           abs=1e-12)
        # the two counters feed one formula, so the values are equal
        local = local_balanced_forman(_adj_sets(g), g.edges.tolist())
        assert local.tolist() == ric.tolist()
