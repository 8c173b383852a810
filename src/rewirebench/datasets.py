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
    labels = None
    lab_path = os.path.join(path, "labels.csv")
    if os.path.exists(lab_path):
        labels = _read_ints(lab_path)
    gid_path = os.path.join(path, "graph_id.csv")
    name = os.path.basename(os.path.normpath(path))
    if not os.path.exists(gid_path):
        return build_graph(edges, features, labels, name=name)

    gids = _read_ints(gid_path)
    glab_path = os.path.join(path, "graph_labels.csv")
    graph_labels = None
    if os.path.exists(glab_path):
        graph_labels = _read_ints(glab_path)
        _check_label_count(graph_labels, np.unique(gids).shape[0], glab_path)
    return _split_collection(edges, features, labels, gids, graph_labels, name)


def _check_label_count(graph_labels, num_graphs: int, path) -> None:
    if graph_labels.shape[0] != num_graphs:
        raise InputError(f"{path} has {graph_labels.shape[0]} labels for "
                         f"{num_graphs} graphs")


def _split_collection(edges, features, node_labels, gids, graph_labels, name):
    uniq = np.unique(gids)
    graphs = []
    labels_out = []
    for gi in uniq:
        nodes = np.flatnonzero(gids == gi)
        remap = {int(n): i for i, n in enumerate(nodes)}
        sub_edges = [(remap[u], remap[v]) for u, v in edges
                     if u in remap and v in remap]
        g = build_graph(sub_edges, features[nodes],
                        node_labels[nodes] if node_labels is not None else None,
                        name=f"{name}[{gi}]")
        graphs.append(g)
        if graph_labels is not None:
            labels_out.append(graph_labels[np.searchsorted(uniq, gi)])
        elif node_labels is not None:
            vals, counts = np.unique(node_labels[nodes], return_counts=True)
            labels_out.append(vals[np.argmax(counts)])
    labels = np.array(labels_out, dtype=np.int64) if labels_out else None
    return graphs, labels


def load_tudataset(path: str, name: str | None = None):
    """Load a TUDataset directory; returns (list[Graph], graph_labels)."""
    if name is None:
        name = os.path.basename(os.path.normpath(path))
    def f(suffix):
        return os.path.join(path, f"{name}_{suffix}.txt")
    for required in ("A", "graph_indicator", "graph_labels"):
        if not os.path.exists(f(required)):
            raise InputError(f"missing TUDataset file {f(required)}")
    edges_1b = _read_int_pairs(f("A"))
    indicator = _read_ints(f("graph_indicator"))
    graph_labels = _read_ints(f("graph_labels"))
    uniq = np.unique(indicator)
    _check_label_count(graph_labels, uniq.shape[0], f("graph_labels"))
    num_nodes = indicator.shape[0]

    node_label_path = f("node_labels")
    if os.path.exists(node_label_path):
        node_labels = _read_ints(node_label_path)
        classes = np.unique(node_labels)
        features = np.zeros((num_nodes, classes.shape[0]))
        features[np.arange(num_nodes), np.searchsorted(classes, node_labels)] = 1.0
    else:
        features = np.zeros((num_nodes, 0))

    graphs = []
    for gi in uniq:
        nodes = np.flatnonzero(indicator == gi)
        offset = nodes[0]
        n = nodes.shape[0]
        sub_edges = [(u - 1 - offset, v - 1 - offset) for u, v in edges_1b
                     if offset <= u - 1 < offset + n and offset <= v - 1 < offset + n]
        graphs.append(build_graph(sub_edges, features[nodes],
                                  name=f"{name}[{gi}]"))
    return graphs, graph_labels


def load_dataset(path: str, fmt: str = "canonical"):
    if fmt == "canonical":
        return load_canonical(path)
    if fmt == "tudataset":
        return load_tudataset(path)
    raise InputError(f"unknown dataset format {fmt!r}")
