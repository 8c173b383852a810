"""Dataset readers.

Two on-disk layouts:

* canonical directory: ``edges.tsv`` (two integer columns per line),
  ``features.csv`` (one row per node), ``labels.csv`` (one integer per node,
  optional), ``graph_id.csv`` (one integer per node, optional; presence makes
  the dataset a graph collection whose labels are per-graph majority of
  ``labels.csv`` rows unless ``graph_labels.csv`` exists).

* TUDataset flat files: ``<DS>_A.txt``, ``<DS>_graph_indicator.txt``,
  ``<DS>_graph_labels.txt``, optional ``<DS>_node_labels.txt`` (one-hot
  encoded into features). Node and graph ids are 1-based in the files.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import InputError
from .graph import Graph, build_graph, canonical_edges


def _read_int_pairs(path) -> np.ndarray:
    """An (m, 2) int64 array of the first two columns of the non-blank lines,
    from one np.loadtxt with commas turned into spaces (so a line of commas
    alone is blank); a one-column line is an InputError that names it."""
    try:
        with open(path) as fh:
            lines = fh.read().replace(",", " ").splitlines()
    except OSError as exc:
        raise InputError(f"cannot read edge file {path}: {exc}") from exc
    if not any(map(str.strip, lines)):   # loadtxt warns on no data
        return np.zeros((0, 2), dtype=np.int64)
    try:
        return np.loadtxt(lines, dtype=np.int64, comments=None,
                          usecols=(0, 1), ndmin=2)
    except ValueError as exc:
        for ln, line in enumerate(lines, 1):
            if len(line.split()) == 1:
                raise InputError(f"{path}:{ln}: expected two columns") from exc
        raise InputError(f"cannot read edge file {path}: {exc}") from exc


def _read_matrix(path) -> np.ndarray:
    try:
        return np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _read_ints(path) -> np.ndarray:
    try:
        return np.loadtxt(path, delimiter=",", dtype=np.int64).reshape(-1)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def load_canonical(path: str):
    """Load a canonical dataset directory.

    Returns a Graph for single-graph datasets, or (list[Graph], labels)
    for collections.
    """
    edges_path = os.path.join(path, "edges.tsv")
    feat_path = os.path.join(path, "features.csv")
    if not os.path.exists(edges_path):
        raise InputError(f"missing {edges_path}")
    edges = _read_int_pairs(edges_path)
    if os.path.exists(feat_path):
        features = _read_matrix(feat_path)
    else:
        raise InputError(f"missing {feat_path}")
    bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if bad.size:
        # a NaN would spread to every embedding and readout, and argmax of a
        # NaN row picks column 0, so the run would score the class-0 share
        raise InputError(f"{feat_path}: row {bad[0] + 1} (node {bad[0]}) "
                         f"holds a non-finite value")
    labels = None
    lab_path = os.path.join(path, "labels.csv")
    if os.path.exists(lab_path):
        labels = _read_ints(lab_path)
    gid_path = os.path.join(path, "graph_id.csv")
    name = os.path.basename(os.path.normpath(path))
    if not os.path.exists(gid_path):
        return build_graph(edges, features, labels, name=name)

    gids = _read_ints(gid_path)
    _check_count(feat_path, features.shape[0], gids.shape[0], "rows", "nodes")
    if labels is not None:
        _check_count(lab_path, labels.shape[0], gids.shape[0], "rows", "nodes")
    glab_path = os.path.join(path, "graph_labels.csv")
    graph_labels = None
    if os.path.exists(glab_path):
        graph_labels = _read_ints(glab_path)
        _check_count(glab_path, graph_labels.shape[0], np.unique(gids).shape[0],
                     "labels", "graphs")
    return _split_collection(edges, features, labels, gids, graph_labels, name)


def _check_count(path, found: int, expected: int, what: str, per: str) -> None:
    if found != expected:
        raise InputError(f"{path} has {found} {what} for {expected} {per}")


def _split_collection(edges, features, node_labels, gids, graph_labels, name):
    """Split a node-level edge list into one graph per graph id; a graph's
    nodes keep their order and are renumbered 0..n_i-1. An edge with an
    endpoint out of range, or joining two graphs, is an InputError.

    The whole edge list is canonicalized once. Renumbering is increasing
    within a graph, so each graph's slice of it is already the graph's
    canonical edge array, the one build_graph would make."""
    uniq, graph_of = np.unique(gids, return_inverse=True)
    num_nodes, num_graphs = graph_of.shape[0], uniq.shape[0]
    if edges.size and (edges.min() < 0 or edges.max() >= num_nodes):
        raise InputError(f"edge endpoint out of range for {num_nodes} nodes")
    crossing = np.flatnonzero(graph_of[edges[:, 0]] != graph_of[edges[:, 1]])
    if crossing.size:
        u, v = edges[crossing[0]]
        raise InputError(f"an edge joins graphs {gids[u]} and {gids[v]}")
    order = np.argsort(graph_of, kind="stable")
    sizes = np.bincount(graph_of, minlength=num_graphs)
    starts = np.cumsum(sizes) - sizes
    local = np.empty(num_nodes, dtype=np.int64)
    local[order] = np.arange(num_nodes) - np.repeat(starts, sizes)
    canon = canonical_edges(edges, num_nodes)
    edge_graph = graph_of[canon[:, 0]]
    by_graph = np.argsort(edge_graph, kind="stable")
    edge_ends = np.cumsum(np.bincount(edge_graph, minlength=num_graphs))
    split_edges = np.split(local[canon[by_graph]], edge_ends[:-1])
    split_nodes = np.split(order, np.cumsum(sizes)[:-1])
    graphs = [Graph(num_nodes=int(n), edges=ge, features=features[nodes],
                    labels=(node_labels[nodes] if node_labels is not None
                            else None),
                    name=f"{name}[{gi}]")
              for gi, n, nodes, ge in zip(uniq.tolist(), sizes, split_nodes,
                                          split_edges)]
    if graph_labels is not None:
        return graphs, np.asarray(graph_labels, dtype=np.int64)
    if node_labels is None or not graphs:
        return graphs, None
    return graphs, _majority(graph_of, node_labels)


def _majority(graph_of: np.ndarray, node_labels: np.ndarray) -> np.ndarray:
    """Each graph's most frequent node label, the least one on a tie."""
    classes, label_of = np.unique(node_labels, return_inverse=True)
    pairs, counts = np.unique(graph_of * classes.shape[0] + label_of,
                              return_counts=True)
    graph, label = np.divmod(pairs, classes.shape[0])
    # per graph, by count descending then label ascending; first one wins
    first = np.lexsort((label, -counts, graph))
    return classes[label[first][np.diff(graph[first], prepend=-1) != 0]]


def load_tudataset(path: str):
    """Load a TUDataset directory, whose files are named after it; returns
    (list[Graph], graph_labels)."""
    name = os.path.basename(os.path.normpath(path))
    def f(suffix):
        return os.path.join(path, f"{name}_{suffix}.txt")
    for required in ("A", "graph_indicator", "graph_labels"):
        if not os.path.exists(f(required)):
            raise InputError(f"missing TUDataset file {f(required)}")
    edges = _read_int_pairs(f("A")) - 1
    indicator = _read_ints(f("graph_indicator"))
    graph_labels = _read_ints(f("graph_labels"))
    _check_count(f("graph_labels"), graph_labels.shape[0],
                 np.unique(indicator).shape[0], "labels", "graphs")
    num_nodes = indicator.shape[0]

    node_label_path = f("node_labels")
    if os.path.exists(node_label_path):
        node_labels = _read_ints(node_label_path)
        _check_count(node_label_path, node_labels.shape[0], num_nodes, "rows",
                     "nodes")
        classes = np.unique(node_labels)
        features = np.zeros((num_nodes, classes.shape[0]))
        features[np.arange(num_nodes), np.searchsorted(classes, node_labels)] = 1.0
    else:
        features = np.zeros((num_nodes, 0))
    return _split_collection(edges, features, None, indicator, graph_labels,
                             name)


def load_dataset(path: str, fmt: str = "canonical"):
    if fmt == "canonical":
        return load_canonical(path)
    if fmt == "tudataset":
        return load_tudataset(path)
    raise InputError(f"unknown dataset format {fmt!r}")
