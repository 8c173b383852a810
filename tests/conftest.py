"""Shared graph builders, independent brute-force oracles, and small
helpers that read the package's own paths.

The oracles here deliberately avoid the package's curvature engine
(`rewirebench.kernels`): curvature and cycle counts come from dense adjacency
scans, hop distances from Floyd-Warshall, the Laplacian pseudoinverse and
eigen-quantities from dense eigendecompositions, the Cheeger constant from
every cut, and AUROC from every positive-negative pair. No command needs
these, so they live here and not in the package.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from rewirebench import InputError, build_graph, kernels, shift_operator

PINV_CUTOFF = 1e-9        # relative zero-eigenvalue cutoff of L^+


def path_graph(k, features=1):
    return build_graph([(i, i + 1) for i in range(k - 1)], np.zeros((k, features)))


def cycle_graph(k, features=1):
    return build_graph([(i, (i + 1) % k) for i in range(k)], np.zeros((k, features)))


def complete_graph(k, features=1, labels=None):
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    return build_graph(edges, np.zeros((k, features)), labels)


def random_graph(n, p, rng, features=2, labels=False, connected=False):
    while True:
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p]
        lab = rng.integers(0, 2, n) if labels else None
        g = build_graph(edges, rng.normal(size=(n, features)), lab)
        if not connected:
            return g
        if g.num_edges and _is_connected(g):
            return g


def sparse_random_graph(n, mean_degree, seed):
    """G(n, p) with p = mean_degree / n, drawn without a Python pair loop."""
    rng = np.random.default_rng(seed)
    u, v = np.triu_indices(n, 1)
    keep = rng.random(u.size) < mean_degree / n
    return build_graph(np.stack([u[keep], v[keep]], axis=1), np.zeros((n, 1)))


def _is_connected(g):
    from rewirebench.graph import connected_components
    return connected_components(g).max() == 0


# ---------------------------------------------------------------------------
# brute-force curvature oracle (dense adjacency scans)

def block_union(blocks):
    """The block-diagonal CSR matrix of square sparse `blocks` and the first
    row of each block. Unlike sp.block_diag, each block keeps its stored
    entry order, as a collection's union operator does."""
    blocks = [sp.csr_matrix(b) for b in blocks]
    sizes = np.array([b.shape[0] for b in blocks], dtype=np.int64)
    offsets = np.cumsum(sizes) - sizes
    m = sp.csr_matrix((
        np.concatenate([b.data for b in blocks]),
        np.concatenate([b.indices + o for b, o in zip(blocks, offsets)]),
        np.concatenate([[0]] + [np.diff(b.indptr) for b in blocks]).cumsum()),
        shape=(sizes.sum(),) * 2)
    return m, offsets


def brute_triangles(a, u, v):
    return int(np.sum(a[u] * a[v]))


def brute_square_profile(a, u, v):
    """Enumerate all diagonal-free 4-cycles u-w-k-v over edge (u, v)."""
    n = a.shape[0]
    w_cycles = {}
    k_cycles = {}
    for w in range(n):
        if w in (u, v) or not a[u, w] or a[v, w]:
            continue
        for k in range(n):
            if k in (u, v, w) or not a[v, k] or a[u, k] or not a[w, k]:
                continue
            w_cycles[w] = w_cycles.get(w, 0) + 1
            k_cycles[k] = k_cycles.get(k, 0) + 1
    sq_uv = len(w_cycles)
    sq_vu = len(k_cycles)
    counts = list(w_cycles.values()) + list(k_cycles.values())
    gamma = max(counts) if counts else 0
    return sq_uv, sq_vu, gamma


def brute_balanced_forman(a, u, v):
    deg = a.sum(axis=1)
    du, dv = deg[u], deg[v]
    dmax, dmin = max(du, dv), min(du, dv)
    tri = brute_triangles(a, u, v)
    ric = 2.0 / du + 2.0 / dv - 2.0 + 2.0 * tri / dmax + tri / dmin
    sq_uv, sq_vu, gamma = brute_square_profile(a, u, v)
    if gamma > 0:
        ric += (sq_uv + sq_vu) / (gamma * dmax)
    return ric


# ---------------------------------------------------------------------------
# dense spectral oracles

def laplacian_pseudoinverse(g):
    """Moore-Penrose pseudoinverse of the combinatorial Laplacian, by
    eigendecomposition with a relative zero-eigenvalue cutoff."""
    lap = shift_operator(g, "laplacian", "none").toarray()
    w, v = np.linalg.eigh(lap)
    lam_max = float(np.max(np.abs(w))) if w.size else 0.0
    inv = np.where(w > PINV_CUTOFF * max(lam_max, 1.0),
                   1.0 / np.where(w == 0, 1.0, w), 0.0)
    return (v * inv) @ v.T


def cheeger_bruteforce(g, max_nodes=16):
    """Exhaustive Cheeger constant min_S cut(S) / min(vol(S), vol(S^c));
    O(2^n), refused beyond max_nodes."""
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


# ---------------------------------------------------------------------------
# brute-force AUROC oracle (every positive-negative pair)

def pairwise_auroc(scores, labels):
    """The share of (positive, negative) pairs that the positive wins, a
    tie counting 1/2; the positives are the greater of the two classes.
    NaN if any score is NaN, as the package scores it."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if np.isnan(scores).any():
        return float("nan")
    pos = labels == np.unique(labels)[1]
    wins = sum((p > q) + 0.5 * (p == q)
               for p in scores[pos] for q in scores[~pos])
    return float(wins / (pos.sum() * (~pos).sum()))


# ---------------------------------------------------------------------------
# brute-force hop-distance oracle (Floyd-Warshall on the dense adjacency)

def brute_hop_distances(a):
    """All-pairs hop distances of a dense 0/1 adjacency; inf across components."""
    d = np.where(a > 0, 1.0, np.inf)
    np.fill_diagonal(d, 0.0)
    for k in range(a.shape[0]):
        d = np.minimum(d, d[:, k:k + 1] + d[k:k + 1, :])
    return d


def brute_components(dist):
    """Component ids numbered in the order of each component's lowest node."""
    comp = np.full(dist.shape[0], -1, dtype=np.int64)
    cid = 0
    for s in range(dist.shape[0]):
        if comp[s] < 0:
            comp[np.isfinite(dist[s])] = cid
            cid += 1
    return comp


def brute_diameter(dist):
    """Largest hop distance within the largest component (lowest id on a tie)."""
    if dist.shape[0] == 0:
        return 0
    comp = brute_components(dist)
    sizes = [np.sum(comp == c) for c in range(comp.max() + 1)]
    mask = comp == sizes.index(max(sizes))
    return int(dist[np.ix_(mask, mask)].max())


# ---------------------------------------------------------------------------
# small helpers: the package's own counter and resistance reader, read
# whole, and M^k X by repeated products

def curvature_counts(g, us=None, vs=None):
    """(ric, tri, sq_uv, sq_vu, gamma) of the batch counter every command
    uses, for the existing edges (us[i], vs[i]) in that orientation; g's
    stored edges by default."""
    a = g.adjacency()
    if us is None:
        us, vs = g.edges[:, 0], g.edges[:, 1]
    return kernels.balanced_forman_edges(a.indptr, a.indices, us, vs)


def all_resistances(r):
    """The n x n matrix of a ResistanceMatrix, read through its values."""
    nodes = np.arange(r.components.size)
    return r.values(nodes[:, None], nodes[None, :])


def propagate(m, x, hops):
    """M^hops X by repeated products, M never raised to a power."""
    h = np.asarray(x, dtype=np.float64)
    for _ in range(hops):
        h = m @ h
    return h


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


class FakeClock:
    """Stands in for the `time` module of rewirebench.errors, so that a
    Budget reads `now` and each read moves it on by `step` seconds."""

    def __init__(self):
        self.now, self.step, self.reads = 0.0, 0.0, 0

    def monotonic(self):
        self.reads += 1
        self.now += self.step
        return self.now - self.step


@pytest.fixture
def clock(monkeypatch):
    """The clock every Budget made in this test reads."""
    from rewirebench import errors
    fake = FakeClock()
    monkeypatch.setattr(errors, "time", fake)
    return fake


# ---------------------------------------------------------------------------
# acceptance reporting: one pass/fail line per criterion at the end of the run

_ACCEPTANCE = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    if "test_acceptance" not in item.nodeid or "criterion" not in item.name:
        return
    if rep.when == "call" or (rep.when == "setup" and rep.skipped):
        num = int(item.name.split("criterion_")[1].split("_")[0])
        label = item.name.split("criterion_")[1].split("_", 1)[1].replace("_", " ")
        status = "SKIP" if rep.skipped else ("PASS" if rep.passed else "FAIL")
        _ACCEPTANCE[num] = (label, status)


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(_ACCEPTANCE):
        label, status = _ACCEPTANCE[num]
        terminalreporter.write_line(f"criterion {num:2d} ({label}): {status}")
