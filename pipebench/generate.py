"""Seeded synthetic datasets in rewirebench's canonical directory layout.

Two generators, each a pure function of its seed and size arguments:

* ``sbm_node_task``: one stochastic block model graph with class labels and
  sparse class-informative binary features (a Cora-like node task).
* ``graph_collection``: many small connected graphs whose two classes differ
  in structure only (cycle-like versus triangle-rich), with one-hot node types
  that carry no label information (a TU-like graph task).

The program under test sees only the files written here (``edges.tsv``,
``features.csv``, ``labels.csv``, ``graph_id.csv``, ``graph_labels.csv``),
read through ``load_dataset``.
"""

from __future__ import annotations

import os

import numpy as np


def _write_rows(path: str, rows) -> None:
    with open(path, "w") as fh:
        fh.writelines(rows)


def _write_dataset(out_dir: str, edges, features, labels=None,
                   graph_ids=None, graph_labels=None) -> None:
    os.makedirs(out_dir, exist_ok=True)
    _write_rows(os.path.join(out_dir, "edges.tsv"),
                (f"{u}\t{v}\n" for u, v in edges))
    _write_rows(os.path.join(out_dir, "features.csv"),
                (",".join(f"{x:g}" for x in row) + "\n" for row in features))
    for name, values in (("labels.csv", labels), ("graph_id.csv", graph_ids),
                         ("graph_labels.csv", graph_labels)):
        if values is not None:
            _write_rows(os.path.join(out_dir, name), (f"{y}\n" for y in values))


def sbm_node_task(out_dir: str, seed: int, nodes: int = 2708,
                  classes: int = 7, edges: int = 5300, homophily: float = 0.8,
                  features: int = 128, active: int = 12,
                  informative: float = 0.7) -> dict:
    """Write a planted-partition SBM node task; returns its generator facts.

    Every node first gets one edge (so no node is isolated), then edges are
    added until ``edges`` distinct undirected pairs exist. Each edge endpoint
    stays in the source's class with probability ``homophily``. Each node sets
    ``active`` binary features, each drawn from its class's block of the
    feature columns with probability ``informative`` and uniformly otherwise.
    """
    rng = np.random.default_rng(seed)
    labels = np.arange(nodes) % classes
    rng.shuffle(labels)
    members = [np.flatnonzero(labels == c) for c in range(classes)]

    def partner(u: int) -> int:
        c = labels[u]
        if rng.random() >= homophily:
            c = (c + 1 + rng.integers(classes - 1)) % classes
        return int(members[c][rng.integers(members[c].shape[0])])

    pairs: set[tuple[int, int]] = set()
    order: list[tuple[int, int]] = []

    def add(u: int, v: int) -> None:
        if u != v and (min(u, v), max(u, v)) not in pairs:
            pairs.add((min(u, v), max(u, v)))
            order.append((min(u, v), max(u, v)))

    for u in range(nodes):
        add(u, partner(u))
    while len(order) < edges:
        u = int(rng.integers(nodes))
        add(u, partner(u))

    block = features // classes
    x = np.zeros((nodes, features), dtype=np.int8)
    for u in range(nodes):
        own = labels[u] * block + rng.integers(block, size=active)
        anywhere = rng.integers(features, size=active)
        x[u, np.where(rng.random(active) < informative, own, anywhere)] = 1

    same = sum(labels[u] == labels[v] for u, v in order) / len(order)
    _write_dataset(out_dir, sorted(order), x, labels=labels)
    return {"nodes": nodes, "edges": len(order), "classes": classes,
            "features": features, "edge_homophily": round(float(same), 4)}


def _cycle_like(rng, n: int) -> list[tuple[int, int]]:
    """A Hamiltonian cycle plus n // 4 random chords: few triangles."""
    perm = rng.permutation(n)
    out = {tuple(sorted((int(perm[i]), int(perm[(i + 1) % n]))))
           for i in range(n)}
    while len(out) < n + n // 4:
        u, v = (int(a) for a in rng.integers(n, size=2))
        if u != v:
            out.add((min(u, v), max(u, v)))
    return sorted(out)


def _clustered(rng, n: int) -> list[tuple[int, int]]:
    """A ring lattice joining i to i+1 and i+2: two triangles per node."""
    perm = rng.permutation(n)
    out = set()
    for i in range(n):
        for step in (1, 2):
            u, v = int(perm[i]), int(perm[(i + step) % n])
            out.add((min(u, v), max(u, v)))
    return sorted(out)


def graph_collection(out_dir: str, seed: int, graphs: int = 200,
                     min_nodes: int = 10, max_nodes: int = 40,
                     node_types: int = 3) -> dict:
    """Write a two-class collection of connected graphs; returns its facts.

    Class 0 graphs are cycle-like and class 1 graphs are triangle-rich ring
    lattices. Graph sizes are evenly spaced from ``min_nodes`` to
    ``max_nodes`` and shuffled, so that the seed changes which graph has which
    size and shape but not the total size of the collection. Node types are
    uniform one-hot features, independent of class.
    """
    rng = np.random.default_rng(seed)
    graph_labels = np.arange(graphs) % 2
    rng.shuffle(graph_labels)
    sizes = np.rint(np.linspace(min_nodes, max_nodes, graphs)).astype(int)
    rng.shuffle(sizes)
    edges, gids, types = [], [], []
    offset = 0
    for gi, (label, n) in enumerate(zip(graph_labels, sizes.tolist())):
        local = _clustered(rng, n) if label else _cycle_like(rng, n)
        edges += [(u + offset, v + offset) for u, v in local]
        gids += [gi] * n
        types.append(rng.integers(node_types, size=n))
        offset += n
    x = np.eye(node_types, dtype=np.int8)[np.concatenate(types)]
    _write_dataset(out_dir, edges, x, graph_ids=gids,
                   graph_labels=graph_labels)
    return {"graphs": graphs, "nodes": offset, "edges": len(edges),
            "node_types": node_types}

