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
from .graph import Graph, build_graph


def _read_int_pairs(path, sep=None):
    try:
        rows = []
        with open(path) as fh:
            for ln, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                parts = line.replace(",", " ").split(sep)
                if len(parts) < 2:
                    raise InputError(f"{path}:{ln}: expected two columns")
                rows.append((int(parts[0]), int(parts[1])))
        return rows
    except (OSError, ValueError) as exc:
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


def _groups(keys: np.ndarray, num: int) -> list:
    """Indices of the items of each key 0..num-1, in input order."""
    counts = np.bincount(keys, minlength=num)
    return np.split(np.argsort(keys, kind="stable"), np.cumsum(counts)[:-1])


def _split_collection(edges, features, node_labels, gids, graph_labels, name):
    """Split a node-level edge list into one graph per graph id; a graph's
    nodes keep their order and are renumbered 0..n_i-1. An edge with an
    endpoint out of range, or joining two graphs, is an InputError."""
    uniq, graph_of = np.unique(gids, return_inverse=True)
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    num_nodes = graph_of.shape[0]
    if e.size and (e.min() < 0 or e.max() >= num_nodes):
        raise InputError(f"edge endpoint out of range for {num_nodes} nodes")
    crossing = np.flatnonzero(graph_of[e[:, 0]] != graph_of[e[:, 1]])
    if crossing.size:
        u, v = e[crossing[0]]
        raise InputError(f"an edge joins graphs {gids[u]} and {gids[v]}")
    local = np.empty(num_nodes, dtype=np.int64)
    graphs, majority = [], []
    for gi, nodes, sub in zip(uniq, _groups(graph_of, uniq.shape[0]),
                              _groups(graph_of[e[:, 0]], uniq.shape[0])):
        local[nodes] = np.arange(nodes.shape[0])
        graphs.append(build_graph(
            local[e[sub]], features[nodes],
            node_labels[nodes] if node_labels is not None else None,
            name=f"{name}[{gi}]"))
        if graph_labels is None and node_labels is not None:
            vals, counts = np.unique(node_labels[nodes], return_counts=True)
            majority.append(vals[np.argmax(counts)])
    if graph_labels is not None:
        return graphs, np.asarray(graph_labels, dtype=np.int64)
    return graphs, np.array(majority, dtype=np.int64) if majority else None


def load_tudataset(path: str, name: str | None = None):
    """Load a TUDataset directory; returns (list[Graph], graph_labels)."""
    if name is None:
        name = os.path.basename(os.path.normpath(path))
    def f(suffix):
        return os.path.join(path, f"{name}_{suffix}.txt")
    for required in ("A", "graph_indicator", "graph_labels"):
        if not os.path.exists(f(required)):
            raise InputError(f"missing TUDataset file {f(required)}")
    edges = np.asarray(_read_int_pairs(f("A")), dtype=np.int64) - 1
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
