"""Graph rewiring pre-processors.

Five families: diffusion kernels (heat / personalized PageRank), curvature
driven edge addition (SDRF), triangle-guided edge flips (GRLEF), expander
graph propagation (EGP, Cayley graphs of SL(2, Z_n)), and resistance
reweighting (DiffWire). Edge-editing methods return a new edge set; kernel
methods return a message-passing operator without an n x n array: CSR for
EGP (one Cayley adjacency per size) and DiffWire; for heat (series in the
sparse T) and PageRank (sparse solve), a KernelOperator with a closed-form rho.
"""

from __future__ import annotations

import functools
import logging
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import kernels
from .errors import Budget, InputError
from .graph import Graph, Normalization, OperatorKind, build_graph, shift_operator
# heat_kernel stays a module attribute for pipebench/tracing.py
from .spectral import (HeatOperator, KernelOperator, effective_resistance,
                       heat_kernel, pagerank_kernel, spectral_radius)  # noqa: F401

log = logging.getLogger(__name__)

METHODS = ("baseline", "heat", "pagerank", "sdrf", "grlef", "egp", "diffwire")


@dataclass
class RewireConfig:
    method: str = "baseline"
    t: float = 1.0                     # heat diffusion time
    alpha: float = 0.1                 # pagerank teleport
    iteration_fraction: float = 0.1    # sdrf/grlef budget as fraction of |E|
    iterations: int | None = None      # explicit override of the fraction
    tau: float = 0.5                   # sdrf softmax temperature
    seed: int = 0
    diffusion_norm: Normalization = Normalization.RW

    def validate(self) -> None:
        if self.method not in METHODS:
            raise InputError(f"unknown rewiring method {self.method!r}")
        if self.method == "heat" and not 0.1 <= self.t <= 5.0:
            raise InputError("heat diffusion requires t in [0.1, 5]")
        if self.method == "sdrf" and not self.tau > 0:   # NaN fails too
            raise InputError("sdrf requires a softmax temperature tau > 0")
        if self.method == "pagerank" and not 0.01 <= self.alpha <= 0.99:
            raise InputError("pagerank requires alpha in [0.01, 0.99]")
        if (self.method == "pagerank"
                and Normalization(self.diffusion_norm) is Normalization.NONE):
            raise InputError("pagerank requires a normalized diffusion "
                             "operator (sym, rw or mean), not 'none': with "
                             "(1-alpha) rho(A) > 1 its series diverges")
        if self.method in ("sdrf", "grlef") and self.iterations is None:
            if not 0.0 < self.iteration_fraction <= 0.20:
                raise InputError("iteration fraction must be in (0, 0.20]")

    def num_iterations(self, num_edges: int) -> int:
        if self.iterations is not None:
            return self.iterations
        return max(1, int(round(self.iteration_fraction * num_edges)))


@dataclass
class RewiredGraph:
    method: str
    graph: Graph                       # rewired edge set (or the input, unchanged)
    # M' of the kernel methods: CSR for EGP and DiffWire; heat and PageRank
    # carry rho(M') and build their dense kernel only through toarray()
    operator: sp.csr_matrix | KernelOperator | None = None
    edit_log: list = field(default_factory=list)  # (iteration, op, u, v)


def write_edit_log(edit_log, path) -> None:
    """Line format: iter<TAB>op<TAB>u<TAB>v."""
    with open(path, "w") as fh:
        for it, op, u, v in edit_log:
            fh.write(f"{it}\t{op}\t{u}\t{v}\n")


# ---------------------------------------------------------------------------
# local curvature on mutable set-adjacency (SDRF / GRLEF inner loops)

def _adj_sets(g: Graph) -> list[set]:
    adj = [set() for _ in range(g.num_nodes)]
    for u, v in g.edges.tolist():
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _curvatures(counts) -> np.ndarray:
    """Curvature per row of kernels.set_counts tuples, in one call."""
    return kernels.curvature_sum(
        *np.array(counts, dtype=np.int64).reshape(-1, 6).T)


def local_balanced_forman(adj: list[set], edges) -> np.ndarray:
    """Balanced Forman curvature of each edge (u, v) of edges from
    set-adjacency, for graphs that SDRF edits in place; equal to
    kernels.balanced_forman_edges on a frozen graph (tested)."""
    return _curvatures([kernels.set_counts(adj, u, v) for u, v in edges])


# ---------------------------------------------------------------------------
# SDRF

def rewire_sdrf(g: Graph, config: RewireConfig,
                budget: Budget | None = None) -> RewiredGraph:
    """Curvature-driven edge addition; it never removes an edge.

    Per iteration: budget.check() (BudgetExceeded once it is spent), sample
    an edge with probability softmax(-Ric / tau), then among candidate
    supports (u', v') with u' in N(u) ∪ {u}, v' in N(v) ∪ {v} add the one
    giving the largest strict increase of Ric_uv (ties to the lowest index
    pair). The curvatures live in an array aligned with the edge list,
    allocated for every edge an add can append, and the softmax runs over
    its live prefix. Two lemmas on the integer counts keep it exact:

    - Candidates: adding (a, b), a in N(u) \\ {v}, b in N(v) \\ {u}, moves
      no degree, triangle or wedge set of (u, v); if a ∉ N(v) and b ∉ N(u)
      the wedge counts c_a, c_b (kernels.wedge_counts) each rise by one, so
      sq_uv += [c_a = 0], sq_vu += [c_b = 0], gamma = max(gamma, c_a + 1,
      c_b + 1). Candidates with u or v as an endpoint are recounted.
    - Refresh: an add of (a, b) changes only the counts of edges that touch
      a or b, or that join N(a) \\ {b} to N(b) \\ {a}.
    """
    rng = np.random.default_rng(config.seed)
    adj = _adj_sets(g)
    edges: list[tuple[int, int]] = list(map(tuple, g.edges.tolist()))
    iters = config.num_iterations(len(edges))
    ric = np.zeros(len(edges) + iters)
    ric[:len(edges)] = local_balanced_forman(adj, edges)
    # edge, in either orientation -> its index in `edges`; grows with each add
    pos = {e: j for j, (x, y) in enumerate(edges) for e in ((x, y), (y, x))}
    edit_log = []
    tau = config.tau
    budget = budget or Budget()

    for it in range(iters):
        if not edges:
            break
        budget.check()
        vals = ric[:len(edges)]
        w = np.exp(-vals / tau - np.max(-vals / tau))
        probs = w / w.sum()
        i = int(rng.choice(len(edges), p=probs))
        u, v = edges[i]

        du, dv, tri, sq_uv, sq_vu, gamma = base = kernels.set_counts(adj, u, v)
        cu, cv = kernels.wedge_counts(adj, u, v), kernels.wedge_counts(adj, v, u)
        counts = {}  # candidate pair -> its counts of (u, v), in draw order
        for up in sorted(adj[u] | {u}):
            for vp in sorted(adj[v] | {v}):
                pair = (min(up, vp), max(up, vp))
                if up == vp or vp in adj[up] or pair in counts:
                    continue
                if up == u or vp == v:
                    adj[up].add(vp); adj[vp].add(up)
                    counts[pair] = kernels.set_counts(adj, u, v)
                    adj[up].remove(vp); adj[vp].remove(up)
                elif up in cu and vp in cv:
                    ca, cb = cu[up], cv[vp]
                    counts[pair] = (du, dv, tri, sq_uv + (ca == 0),
                                    sq_vu + (cb == 0), max(gamma, ca + 1, cb + 1))
                else:
                    counts[pair] = base
        best_gain = 0.0
        best_pair = None
        gains = _curvatures(list(counts.values())) - ric[i]
        for pair, gain in zip(counts, gains.tolist()):
            if gain > best_gain + 1e-12 or (
                    best_pair is not None and
                    abs(gain - best_gain) <= 1e-12 and pair < best_pair):
                best_gain = gain
                best_pair = pair

        if best_pair is None:
            edit_log.append((it, "skip", u, v))
            continue
        a, b = best_pair
        adj[a].add(b)
        adj[b].add(a)
        pos[a, b] = pos[b, a] = len(edges)
        edges.append(best_pair)
        edit_log.append((it, "add", a, b))
        near = sorted({pos[x, y] for x in (a, b) for y in adj[x]}.union(
            pos[x, y] for x in adj[a] - {b} for y in adj[x] & adj[b] if y != a))
        ric[near] = local_balanced_forman(adj, [edges[j] for j in near])

    new_graph = g.with_edges(np.array(edges, dtype=np.int64).reshape(-1, 2))
    return RewiredGraph(method="sdrf", graph=new_graph, edit_log=edit_log)


# ---------------------------------------------------------------------------
# GRLEF

def _tri(adj, u, v) -> int:
    return len(adj[u] & adj[v])


GRLEF_DRAWS = 10  # edge draws per GRLEF iteration before it logs a skip


def rewire_grlef(g: Graph, config: RewireConfig,
                 budget: Budget | None = None) -> RewiredGraph:
    """Triangle-guided edge flipping.

    Per iteration: budget.check(), as in SDRF, sample (u, v) with probability
    proportional to 1 / (triangles + 1), then flip the pair (u, u'), (v, v')
    into (u, v'), (v, u') minimizing the net change in total triangle count.
    Degree sequence is preserved exactly. The triangle counts live in a dict
    in edge-list order, and a flip recounts only the edges at u, v, u', v'.
    """
    rng = np.random.default_rng(config.seed)
    adj = _adj_sets(g)
    tri = {e: _tri(adj, *e) for e in map(tuple, g.edges.tolist())}
    edit_log = []
    iters = config.num_iterations(len(tri))
    budget = budget or Budget()

    for it in range(iters):
        if not tri:
            break
        budget.check()
        flipped = False
        edges = list(tri)
        probs = 1.0 / (np.fromiter(tri.values(), np.float64, len(tri)) + 1.0)
        probs /= probs.sum()
        for _ in range(GRLEF_DRAWS):
            u, v = edges[int(rng.choice(len(edges), p=probs))]

            best = None
            best_delta = math.inf
            for up in sorted(adj[u] - {v}):
                for vp in sorted(adj[v] - {u}):
                    if up == vp or vp in adj[u] or up in adj[v]:
                        continue
                    destroyed = tri[_key(u, up)] + tri[_key(v, vp)]
                    _apply_flip(adj, u, v, up, vp)
                    created = _tri(adj, u, vp) + _tri(adj, v, up)
                    _apply_flip(adj, u, v, vp, up)  # flips it back
                    delta = created - destroyed
                    if delta < best_delta:
                        best_delta = delta
                        best = (up, vp)
            if best is None:
                continue
            up, vp = best
            _apply_flip(adj, u, v, up, vp)
            del tri[_key(u, up)], tri[_key(v, vp)]
            tri.update(dict.fromkeys((_key(u, vp), _key(v, up)), 0))
            for x in (u, v, up, vp):
                for y in adj[x]:
                    tri[_key(x, y)] = _tri(adj, x, y)
            edit_log.append((it, "flip", u, v))
            flipped = True
            break
        if not flipped:
            edit_log.append((it, "skip", -1, -1))
            log.debug("grlef: iteration %d found no legal flip", it)

    new_graph = g.with_edges(np.array(list(tri), dtype=np.int64).reshape(-1, 2))
    return RewiredGraph(method="grlef", graph=new_graph, edit_log=edit_log)


def _key(x, y):
    return (x, y) if x < y else (y, x)


def _apply_flip(adj, u, v, up, vp):
    adj[u].remove(up); adj[up].remove(u)
    adj[v].remove(vp); adj[vp].remove(v)
    adj[u].add(vp); adj[vp].add(u)
    adj[v].add(up); adj[up].add(v)


# ---------------------------------------------------------------------------
# EGP / Cayley expanders

def sl2_order(n: int) -> int:
    """|SL(2, Z_n)| = n^3 * prod_{p | n} (1 - 1/p^2)."""
    if n < 2:
        raise InputError("n must be >= 2")
    order = n ** 3
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            order = order // (p * p) * (p * p - 1)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        order = order // (m * m) * (m * m - 1)
    return order


_GENERATORS = (
    (1, 1, 0, 1),    # [[1, 1], [0, 1]]
    (1, -1, 0, 1),
    (1, 0, 1, 1),
    (1, 0, -1, 1),
)


def _matmul2(x, y, n):
    a, b, c, d = x
    e, f, g_, h = y
    return ((a * e + b * g_) % n, (a * f + b * h) % n,
            (c * e + d * g_) % n, (c * f + d * h) % n)


def cayley_graph(n: int) -> Graph:
    """Cayley graph of SL(2, Z_n) with generators [[1,±1],[0,1]], [[1,0],[±1,1]].

    Vertices are enumerated by BFS from the identity in fixed generator order,
    so vertex ids are deterministic. 4-regular except for generator
    coincidences at tiny n (warned).
    """
    gens = [tuple(x % n for x in g) for g in _GENERATORS]
    ident = (1, 0, 0, 1)
    index = {ident: 0}
    order_out = [ident]
    q = deque([ident])
    edges = []
    while q:
        x = q.popleft()
        xi = index[x]
        for gmat in gens:
            y = _matmul2(gmat, x, n)
            if y not in index:
                index[y] = len(order_out)
                order_out.append(y)
                q.append(y)
            edges.append((xi, index[y]))
    num = len(order_out)
    g_out = build_graph(edges, np.zeros((num, 0)), name=f"cayley_sl2_z{n}")
    degs = g_out.degrees
    if not np.all(degs == 4):
        log.warning("cayley graph for n=%d is not 4-regular (degrees %s)",
                    n, sorted(set(int(d) for d in degs)))
    return g_out


@functools.cache
def _cayley_adjacency(n: int) -> sp.csr_matrix:
    """cayley_graph(n)'s float64 adjacency, built once per n per process."""
    return cayley_graph(n).adjacency()


def rewire_egp(g: Graph) -> RewiredGraph:
    """Expander graph propagation: M' = A_Cay @ A.

    Uses the smallest n with |SL(2, Z_n)| >= |V|, truncating the Cayley
    vertex set to the first |V| BFS-ordered vertices, aligned with input
    node order.
    """
    n = 2
    while sl2_order(n) < g.num_nodes:
        n += 1
    k = g.num_nodes
    m = (_cayley_adjacency(n)[:k, :k] @ g.adjacency()).tocsr()
    return RewiredGraph(method="egp", graph=g, operator=m)


# ---------------------------------------------------------------------------
# DiffWire

def rewire_diffwire(g: Graph) -> RewiredGraph:
    """M' = Res ⊙ A, with Res read on the edges of A only."""
    m = g.adjacency().tocoo()
    m.data = effective_resistance(g).values(m.row, m.col)
    return RewiredGraph(method="diffwire", graph=g, operator=m.tocsr())


# ---------------------------------------------------------------------------
# dispatch

def apply_rewiring(g: Graph, config: RewireConfig,
                   budget: Budget | None = None) -> RewiredGraph:
    """Rewire g by config.method under budget (None: no limit). SDRF and
    GRLEF check it once per iteration; a kernel method (heat, PageRank,
    EGP, DiffWire) checks it before its build and again after it."""
    config.validate()
    if config.method == "baseline":
        return RewiredGraph(method="baseline", graph=g)
    if config.method == "sdrf":
        return rewire_sdrf(g, config, budget)
    if config.method == "grlef":
        return rewire_grlef(g, config, budget)
    budget = budget or Budget()
    budget.check()
    # diffusion: a kernel of the normalized adjacency (node tasks only; the
    # evaluation harness enforces the restriction), whose rho(T) is 1 on a
    # graph with an edge and 0 on one without
    if config.method == "heat":
        norm = Normalization(config.diffusion_norm)
        t_op = shift_operator(g, OperatorKind.ADJACENCY, norm)
        rho_t = (float(spectral_radius(t_op)) if norm is Normalization.NONE
                 else float(g.num_edges > 0))
        rewired = RewiredGraph(method="heat", graph=g,
                               operator=HeatOperator(t_op, config.t, rho_t))
    elif config.method == "pagerank":
        kernel = pagerank_kernel(g, config.alpha, config.diffusion_norm)
        rewired = RewiredGraph(method="pagerank", graph=g, operator=kernel)
    elif config.method == "egp":
        rewired = rewire_egp(g)
    else:
        rewired = rewire_diffwire(g)
    budget.check()
    return rewired
