"""Undirected simple graphs, shift operators, and dataset statistics.

Edges are stored once as canonical (min, max) pairs; Table-style statistics
report directed counts (2 * |E|) to match the usual benchmark convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .errors import InputError


class OperatorKind(Enum):
    ADJACENCY = "adjacency"
    LAPLACIAN = "laplacian"


class Normalization(Enum):
    NONE = "none"
    SYM = "sym"    # D^{-1/2} A D^{-1/2}
    RW = "rw"      # A D^{-1}  (column-stochastic)
    MEAN = "mean"  # D^{-1} A  (row-stochastic)


@dataclass
class Graph:
    """Immutable undirected simple graph with node features and optional labels.

    edges: (m, 2) int array, each row (u, v) with u < v, sorted lexicographically.
    features: (num_nodes, X) float array; X = 0 is allowed (featureless datasets).
    labels: optional (num_nodes,) int array of class ids.
    """

    num_nodes: int
    edges: np.ndarray
    features: np.ndarray
    labels: np.ndarray | None = None
    name: str = ""
    _csr: sp.csr_matrix | None = field(default=None, repr=False, compare=False)

    @property
    def num_edges(self) -> int:
        """Number of stored undirected edges (|E|)."""
        return int(self.edges.shape[0])

    def adjacency(self) -> sp.csr_matrix:
        """Symmetric 0/1 adjacency as CSR (cached)."""
        if self._csr is None:
            m = self.num_edges
            u, v = self.edges[:, 0], self.edges[:, 1]
            rows = np.concatenate([u, v])
            cols = np.concatenate([v, u])
            data = np.ones(2 * m)
            a = sp.csr_matrix((data, (rows, cols)), shape=(self.num_nodes, self.num_nodes))
            a.sort_indices()
            self._csr = a
        return self._csr

    @property
    def degrees(self) -> np.ndarray:
        return np.asarray(self.adjacency().sum(axis=1)).ravel()

    def with_edges(self, edges: np.ndarray) -> "Graph":
        """New graph sharing features, labels and name, with other edges."""
        return build_graph(np.asarray(edges), self.features, self.labels,
                           num_nodes=self.num_nodes, name=self.name)


@dataclass
class DatasetStats:
    """Table-style summary.

    Single graph: edges uses the directed convention 2 * |E| and
    average_degree = edges / nodes. Collections: edges is the mean undirected
    |E| per graph and average_degree the mean of per-graph 2 * |E| / n.
    """

    nodes: float
    edges: float
    average_degree: float
    diameter: float       # largest connected component; averaged for collections
    num_features: int
    num_classes: int
    edge_homophily: float | None
    num_graphs: int = 1


def canonical_edges(edge_list, num_nodes: int) -> np.ndarray:
    """Dedup, drop self-loops, store each pair once as (min, max), sort."""
    arr = edge_list if isinstance(edge_list, np.ndarray) else list(edge_list)
    arr = np.asarray(arr, dtype=np.int64).reshape(-1, 2)
    if arr.size and (arr.min() < 0 or arr.max() >= num_nodes):
        raise InputError(f"edge endpoint out of range [0, {num_nodes})")
    lo = np.minimum(arr[:, 0], arr[:, 1])
    hi = np.maximum(arr[:, 0], arr[:, 1])
    keep = lo != hi
    # one sorted key per pair: lo * n + hi orders pairs as (lo, hi) does,
    # and a 1-D unique is several times faster than np.unique(axis=0)
    key = np.unique(lo[keep] * num_nodes + hi[keep])
    return np.stack(np.divmod(key, max(num_nodes, 1)), axis=1)


def build_graph(edge_list, features, labels=None, num_nodes: int | None = None,
                name: str = "") -> Graph:
    """Build a Graph from a raw edge list, tolerating duplicates and self-loops.

    num_nodes defaults to the feature row count.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim == 1:
        features = features.reshape(-1, 1)
    if num_nodes is None:
        num_nodes = features.shape[0]
    if features.shape[0] != num_nodes:
        raise InputError(
            f"feature rows ({features.shape[0]}) != num_nodes ({num_nodes})")
    if labels is not None:
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape[0] != num_nodes:
            raise InputError("label count != num_nodes")
    edges = canonical_edges(edge_list, num_nodes)
    return Graph(num_nodes=num_nodes, edges=edges, features=features,
                 labels=labels, name=name)


def _inv_pow(d: np.ndarray, p: float) -> np.ndarray:
    # isolated nodes: 0 instead of division by zero
    out = np.zeros_like(d, dtype=np.float64)
    nz = d > 0
    out[nz] = d[nz] ** (-p)
    return out


def shift_operator(g: Graph, kind: OperatorKind | str = OperatorKind.ADJACENCY,
                   normalization: Normalization | str = Normalization.NONE,
                   self_loops: bool = False) -> sp.csr_matrix:
    """Construct A, L, or one of their normalizations, optionally self-loop augmented."""
    kind = OperatorKind(kind)
    normalization = Normalization(normalization)
    if g.num_nodes == 0:
        raise InputError("empty graph")

    a = g.adjacency().astype(np.float64)
    if self_loops:
        a = (a + sp.identity(g.num_nodes, format="csr")).tocsr()
    d = np.asarray(a.sum(axis=1)).ravel()

    if normalization is Normalization.NONE:
        adj = a
    elif normalization is Normalization.SYM:
        dh = sp.diags(_inv_pow(d, 0.5))
        adj = (dh @ a @ dh).tocsr()
    elif normalization is Normalization.RW:
        adj = (a @ sp.diags(_inv_pow(d, 1.0))).tocsr()
    else:  # MEAN
        adj = (sp.diags(_inv_pow(d, 1.0)) @ a).tocsr()

    if kind is OperatorKind.ADJACENCY:
        m = adj
    else:
        if normalization is Normalization.NONE:
            m = (sp.diags(d) - adj).tocsr()
        else:
            m = (sp.identity(g.num_nodes, format="csr") - adj).tocsr()
    return m


def edge_homophily(g: Graph) -> float:
    """Fraction of edges whose endpoints share a label."""
    if g.labels is None:
        raise InputError("graph has no labels")
    if g.num_edges == 0:
        return 0.0
    lab = g.labels
    same = lab[g.edges[:, 0]] == lab[g.edges[:, 1]]
    return float(np.mean(same))


def connected_components(g: Graph) -> np.ndarray:
    """Component id per node, numbered in the order of each component's lowest node."""
    _, labels = csgraph.connected_components(g.adjacency(), directed=False)
    return labels.astype(np.int64)


def disjoint_union(graphs: list[Graph]) -> tuple[Graph, np.ndarray]:
    """One graph holding `graphs` as blocks of contiguous nodes, in order,
    and the first node of each block. Its edges are each graph's shifted by
    its offset, so they stay canonical; its features are stacked."""
    sizes = np.array([g.num_nodes for g in graphs], dtype=np.int64)
    offsets = np.cumsum(sizes) - sizes
    shift = np.repeat(offsets, [g.num_edges for g in graphs])
    edges = np.concatenate([g.edges for g in graphs]) + shift[:, None]
    union = Graph(num_nodes=int(sizes.sum()), edges=edges,
                  features=np.concatenate([g.features for g in graphs]))
    return union, offsets


# source rows per shortest-path call: memory stays at _SOURCE_BLOCK times the
# node range of the blocks those sources cover
_SOURCE_BLOCK = 256


def diameter(g: Graph, offsets=None):
    """Exact diameter of the largest connected component (lowest id on a tie).

    With `offsets` (the first node of each block, ascending from 0), g is a
    disjoint union of blocks of contiguous nodes, such as disjoint_union
    makes, and the result is each block's diameter as an int64 array.
    Sources go _SOURCE_BLOCK at a time, each group's shortest paths on the
    node range of the blocks it covers only.
    """
    starts = np.asarray([0] if offsets is None else offsets, dtype=np.int64)
    sizes = np.diff(starts, append=g.num_nodes)
    far = np.zeros(sizes.shape[0], dtype=np.int64)
    if g.num_nodes:
        block_of = np.repeat(np.arange(sizes.shape[0]), sizes)
        comp = connected_components(g)
        # each block's run in order of (block, size descending, lowest
        # node) starts at its largest component, the lowest one on a tie
        _, first = np.unique(comp, return_index=True)
        comp_block = block_of[first]
        order = np.lexsort((first, -np.bincount(comp), comp_block))
        lead = np.flatnonzero(np.diff(comp_block[order], prepend=-1))
        largest = np.zeros(first.shape[0], dtype=bool)
        largest[order[lead]] = True
        nodes = np.flatnonzero(largest[comp])
        a = g.adjacency()
        if nodes.size < g.num_nodes:
            a = a[nodes][:, nodes]
        node_block = block_of[nodes]
        bounds = np.searchsorted(node_block, np.arange(sizes.shape[0] + 1))
        for start in range(0, len(nodes), _SOURCE_BLOCK):
            block = np.arange(start, min(start + _SOURCE_BLOCK, len(nodes)))
            lo = bounds[node_block[block[0]]]
            hi = bounds[node_block[block[-1]] + 1]
            sub = a if (lo, hi) == (0, len(nodes)) else a[lo:hi, lo:hi]
            dist = csgraph.shortest_path(sub, method="D", directed=False,
                                         unweighted=True, indices=block - lo)
            # a source reaches its own block only, where every node is
            # reachable: its finite distances are its eccentricity
            dist[np.isinf(dist)] = 0
            np.maximum.at(far, node_block[block],
                          dist.max(axis=1).astype(np.int64))
    return far if offsets is not None else int(far[0])


def dataset_stats(data: Graph | tuple) -> DatasetStats:
    """Summary statistics of what load_dataset returns: a Graph, or a
    collection's (graphs, labels) pair, averaged over its graphs (diameters
    from one pass over their disjoint union), with classes the number of
    distinct graph labels (0 without labels)."""
    if isinstance(data, Graph):
        g = data
        num_classes = len(np.unique(g.labels)) if g.labels is not None else 0
        homo = edge_homophily(g) if g.labels is not None else None
        return DatasetStats(
            nodes=float(g.num_nodes),
            edges=float(2 * g.num_edges),
            average_degree=2.0 * g.num_edges / g.num_nodes if g.num_nodes else 0.0,
            diameter=float(diameter(g)),
            num_features=g.features.shape[1],
            num_classes=num_classes,
            edge_homophily=homo,
        )
    graphs, labels = data
    num_classes = len(np.unique(labels)) if labels is not None else 0
    union, offsets = disjoint_union(graphs)
    return DatasetStats(
        nodes=float(np.mean([g.num_nodes for g in graphs])),
        edges=float(np.mean([g.num_edges for g in graphs])),
        average_degree=float(np.mean(
            [2.0 * g.num_edges / g.num_nodes for g in graphs if g.num_nodes])),
        diameter=float(np.mean(diameter(union, offsets))),
        num_features=graphs[0].features.shape[1],
        num_classes=num_classes,
        edge_homophily=None,
        num_graphs=len(graphs),
    )
