import warnings

import numpy as np
import pytest

from rewirebench import (InputError, build_graph, load_canonical,
                         load_dataset, load_tudataset)
from rewirebench.datasets import _read_int_pairs


def write_canonical(root, edges, features, labels=None, graph_ids=None,
                    graph_labels=None):
    root.mkdir(exist_ok=True)
    (root / "edges.tsv").write_text(
        "".join(f"{u}\t{v}\n" for u, v in edges))
    (root / "features.csv").write_text(
        "".join(",".join(f"{x:g}" for x in row) + "\n" for row in features))
    if labels is not None:
        (root / "labels.csv").write_text("".join(f"{y}\n" for y in labels))
    if graph_ids is not None:
        (root / "graph_id.csv").write_text("".join(f"{g}\n" for g in graph_ids))
    if graph_labels is not None:
        (root / "graph_labels.csv").write_text(
            "".join(f"{y}\n" for y in graph_labels))


def random_collection(rng, num_graphs, contiguous):
    """Node graph ids, a random edge list inside each graph (both directions,
    duplicates and self-loops included, in random order) and node labels."""
    sizes = rng.integers(1, 12, num_graphs)
    gids = np.repeat(rng.permutation(num_graphs) * 3 + 5, sizes)
    if not contiguous:
        gids = rng.permutation(gids)
    edges = []
    for gi in np.unique(gids):
        nodes = np.flatnonzero(gids == gi)
        for _ in range(rng.integers(0, 3 * nodes.size)):
            edges.append(tuple(int(x) for x in rng.choice(nodes, 2)))
    edges = [edges[i] for i in rng.permutation(len(edges))]
    return gids, edges, rng.integers(0, 3, gids.size)


def same_graphs(got, want):
    """Equal fields, dtypes and shapes (an edgeless graph's edges too)."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.name == b.name and a.num_nodes == b.num_nodes
        for x, y in ((a.edges, b.edges), (a.features, b.features)):
            assert x.dtype == y.dtype and x.shape == y.shape
            assert np.array_equal(x, y)
        assert (a.labels is None) == (b.labels is None)
        if a.labels is not None:
            assert a.labels.dtype == b.labels.dtype
            assert np.array_equal(a.labels, b.labels)


class TestCanonical:
    def test_single_graph(self, tmp_path):
        d = tmp_path / "toy"
        write_canonical(d, [(0, 1), (1, 2)], np.eye(3), labels=[0, 1, 0])
        g = load_canonical(str(d))
        assert g.num_nodes == 3
        assert g.num_edges == 2
        assert np.array_equal(g.labels, [0, 1, 0])
        assert np.array_equal(g.features, np.eye(3))
        assert g.name == "toy"

    def test_labels_optional(self, tmp_path):
        d = tmp_path / "nolabels"
        write_canonical(d, [(0, 1)], np.ones((2, 1)))
        g = load_canonical(str(d))
        assert g.labels is None

    def test_missing_edges_file(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(InputError):
            load_canonical(str(tmp_path / "empty"))

    def test_malformed_edges(self, tmp_path):
        d = tmp_path / "bad"
        d.mkdir()
        (d / "edges.tsv").write_text("0\tx\n")
        (d / "features.csv").write_text("1\n1\n")
        with pytest.raises(InputError):
            load_canonical(str(d))

    def test_collection_with_graph_labels(self, tmp_path):
        d = tmp_path / "coll"
        write_canonical(d, [(0, 1), (1, 2), (3, 4)], np.ones((5, 2)),
                        labels=[0, 0, 0, 1, 1], graph_ids=[0, 0, 0, 1, 1],
                        graph_labels=[1, 0])
        graphs, labels = load_canonical(str(d))
        assert len(graphs) == 2
        assert graphs[0].num_nodes == 3 and graphs[0].num_edges == 2
        assert graphs[1].num_nodes == 2 and graphs[1].num_edges == 1
        assert np.array_equal(labels, [1, 0])
        # per-graph node ids are remapped to 0..n_i-1
        assert graphs[1].edges.tolist() == [[0, 1]]

    def test_collection_majority_fallback(self, tmp_path):
        d = tmp_path / "coll2"
        write_canonical(d, [(0, 1), (2, 3)], np.ones((4, 1)),
                        labels=[1, 1, 0, 2], graph_ids=[0, 0, 1, 1])
        _, labels = load_canonical(str(d))
        assert labels[0] == 1
        assert labels[1] in (0, 2)  # tie broken by lowest class id
        assert labels[1] == 0


    @pytest.mark.parametrize("graph_labels", [[1], [1, 0, 1]])
    def test_graph_label_count_mismatch(self, tmp_path, graph_labels):
        d = tmp_path / "coll"
        write_canonical(d, [(0, 1), (1, 2), (3, 4)], np.ones((5, 2)),
                        graph_ids=[0, 0, 0, 1, 1], graph_labels=graph_labels)
        with pytest.raises(InputError, match="labels for 2 graphs"):
            load_canonical(str(d))

    @pytest.mark.parametrize("features, labels, bad_file", [
        (np.ones((3, 1)), None, "features.csv"),
        (np.ones((3, 1)), [0, 1, 0, 1], "features.csv"),
        (np.ones((4, 1)), [0, 1, 0], "labels.csv"),
        (np.ones((5, 1)), [0, 1, 0, 1, 1], "features.csv"),
    ], ids=["features", "features-labeled", "labels", "features-long"])
    def test_node_row_count_mismatch(self, tmp_path, features, labels,
                                     bad_file):
        d = tmp_path / "coll"
        write_canonical(d, [(0, 1), (2, 3)], features, labels=labels,
                        graph_ids=[0, 0, 1, 1])
        with pytest.raises(InputError, match=f"{bad_file} has .* for 4 nodes"):
            load_canonical(str(d))

    def test_unlabeled_collection(self, tmp_path):
        d = tmp_path / "coll"
        write_canonical(d, [(0, 1), (2, 3)], np.ones((4, 1)),
                        graph_ids=[0, 0, 1, 1])
        graphs, labels = load_canonical(str(d))
        assert len(graphs) == 2 and labels is None


    def test_split_equals_per_graph_loop(self, tmp_path, rng):
        for trial in range(5):
            gids, edges, node_labels = random_collection(rng, 12, False)
            features = rng.integers(0, 9, (gids.size, 2)).astype(float)
            d = tmp_path / f"c{trial}"
            write_canonical(d, edges, features, labels=node_labels,
                            graph_ids=gids)
            graphs, labels = load_canonical(str(d))
            # reference: the per-graph scan of every edge
            want, want_labels = [], []
            for gi in np.unique(gids):
                nodes = np.flatnonzero(gids == gi)
                remap = {int(n): i for i, n in enumerate(nodes)}
                sub = [(remap[u], remap[v]) for u, v in edges
                       if u in remap and v in remap]
                want.append(build_graph(sub, features[nodes], node_labels[nodes],
                                        name=f"c{trial}[{gi}]"))
                vals, counts = np.unique(node_labels[nodes], return_counts=True)
                want_labels.append(vals[np.argmax(counts)])
            same_graphs(graphs, want)
            assert np.array_equal(labels, want_labels)

    @pytest.mark.parametrize("collection", [False, True],
                             ids=["graph", "collection"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_feature_refused(self, tmp_path, bad, collection):
        feats = np.ones((5, 2))
        feats[2, 1] = feats[4, 0] = float(bad)
        d = tmp_path / "toy"
        write_canonical(d, [(0, 1), (1, 2), (3, 4)], feats,
                        labels=[0, 1, 0, 1, 0],
                        graph_ids=[0, 0, 0, 1, 1] if collection else None)
        assert bad in (d / "features.csv").read_text().splitlines()[2]
        with pytest.raises(InputError,
                           match=r"features\.csv: row 3 \(node 2\) holds a "
                                 r"non-finite value"):
            load_canonical(str(d))

    @pytest.mark.parametrize("edges, message", [
        ([(0, 1), (3, 5)], "out of range"),
        ([(0, 1), (-1, 2)], "out of range"),
        ([(0, 1), (2, 3)], "joins graphs 0 and 1"),
    ])
    def test_bad_collection_edge(self, tmp_path, edges, message):
        d = tmp_path / "coll"
        write_canonical(d, edges, np.ones((5, 1)), graph_ids=[0, 0, 0, 1, 1],
                        graph_labels=[0, 1])
        with pytest.raises(InputError, match=message):
            load_canonical(str(d))


class TestTUDataset:
    def write_tud(self, root, name="TOY"):
        root.mkdir()
        # two graphs: triangle (nodes 1-3) and edge (nodes 4-5), 1-based,
        # each undirected edge listed both ways as in the published format
        (root / f"{name}_A.txt").write_text(
            "1, 2\n2, 1\n2, 3\n3, 2\n1, 3\n3, 1\n4, 5\n5, 4\n")
        (root / f"{name}_graph_indicator.txt").write_text("1\n1\n1\n2\n2\n")
        (root / f"{name}_graph_labels.txt").write_text("1\n-1\n")
        return root

    def test_basic(self, tmp_path):
        d = self.write_tud(tmp_path / "TOY")
        graphs, labels = load_tudataset(str(d))
        assert len(graphs) == 2
        assert graphs[0].num_nodes == 3 and graphs[0].num_edges == 3
        assert graphs[1].num_nodes == 2 and graphs[1].num_edges == 1
        assert np.array_equal(labels, [1, -1])
        # no node labels -> zero-width features
        assert graphs[0].features.shape == (3, 0)

    def test_node_labels_one_hot(self, tmp_path):
        d = self.write_tud(tmp_path / "TOY")
        (d / "TOY_node_labels.txt").write_text("7\n7\n9\n9\n7\n")
        graphs, _ = load_tudataset(str(d))
        assert graphs[0].features.shape == (3, 2)
        assert np.array_equal(graphs[0].features,
                              [[1, 0], [1, 0], [0, 1]])
        assert np.array_equal(graphs[1].features, [[0, 1], [1, 0]])

    @pytest.mark.parametrize("graph_labels", ["1\n", "1\n-1\n1\n"])
    def test_graph_label_count_mismatch(self, tmp_path, graph_labels):
        d = self.write_tud(tmp_path / "TOY")
        (d / "TOY_graph_labels.txt").write_text(graph_labels)
        with pytest.raises(InputError, match="labels for 2 graphs"):
            load_tudataset(str(d))

    @pytest.mark.parametrize("node_labels", ["7\n7\n9\n", "7\n7\n9\n9\n7\n7\n"])
    def test_node_label_count_mismatch(self, tmp_path, node_labels):
        d = self.write_tud(tmp_path / "TOY")
        (d / "TOY_node_labels.txt").write_text(node_labels)
        with pytest.raises(InputError, match="node_labels.txt has .* for 5 nodes"):
            load_tudataset(str(d))

    def test_split_equals_per_graph_loop(self, tmp_path, rng):
        for trial in range(5):
            gids, edges, node_labels = random_collection(rng, 12, True)
            indicator = np.unique(gids, return_inverse=True)[1] + 1
            num_graphs = indicator.max()
            d = tmp_path / f"T{trial}"
            d.mkdir()
            (d / f"T{trial}_A.txt").write_text(
                "".join(f"{u + 1}, {v + 1}\n" for u, v in edges))
            (d / f"T{trial}_graph_indicator.txt").write_text(
                "".join(f"{i}\n" for i in indicator))
            (d / f"T{trial}_graph_labels.txt").write_text(
                "".join(f"{i % 2}\n" for i in range(num_graphs)))
            (d / f"T{trial}_node_labels.txt").write_text(
                "".join(f"{y}\n" for y in node_labels))
            graphs, labels = load_tudataset(str(d))
            # reference: the per-graph scan of every edge, at 1-based offsets
            classes = np.unique(node_labels)
            features = np.zeros((gids.size, classes.size))
            features[np.arange(gids.size),
                     np.searchsorted(classes, node_labels)] = 1.0
            want = []
            for gi in np.unique(indicator):
                nodes = np.flatnonzero(indicator == gi)
                offset, n = nodes[0], nodes.shape[0]
                sub = [(u - offset, v - offset) for u, v in edges
                       if offset <= u < offset + n and offset <= v < offset + n]
                want.append(build_graph(sub, features[nodes],
                                        name=f"T{trial}[{gi}]"))
            same_graphs(graphs, want)
            assert np.array_equal(labels, np.arange(num_graphs) % 2)

    @pytest.mark.parametrize("edge, message", [
        ("4, 6\n", "out of range"),
        ("0, 1\n", "out of range"),
        ("3, 4\n", "joins graphs 1 and 2"),
    ])
    def test_bad_collection_edge(self, tmp_path, edge, message):
        d = self.write_tud(tmp_path / "TOY")
        with open(d / "TOY_A.txt", "a") as fh:
            fh.write(edge)
        with pytest.raises(InputError, match=message):
            load_tudataset(str(d))

    def test_missing_file(self, tmp_path):
        d = tmp_path / "TOY"
        d.mkdir()
        with pytest.raises(InputError):
            load_tudataset(str(d))


class TestDispatch:
    def test_unknown_format(self):
        with pytest.raises(InputError):
            load_dataset("/nonexistent", fmt="weird")

    def test_canonical_route(self, tmp_path):
        d = tmp_path / "toy"
        write_canonical(d, [(0, 1)], np.ones((2, 1)))
        g = load_dataset(str(d), fmt="canonical")
        assert g.num_nodes == 2


class TestEdgeFile:
    @staticmethod
    def read(tmp_path, text):
        path = tmp_path / "edges.tsv"
        path.write_text(text)
        return _read_int_pairs(str(path))

    def test_blank_lines_skipped(self, tmp_path):
        got = self.read(tmp_path, "\n0 1\n\n  \t\n2 3\n\n")
        assert got.dtype == np.int64 and got.tolist() == [[0, 1], [2, 3]]

    def test_comma_and_whitespace_separate(self, tmp_path):
        got = self.read(tmp_path, "0,1\n2\t3\n4, 5\n 6  ,\t7 \r\n8,,9\n")
        assert got.tolist() == [[0, 1], [2, 3], [4, 5], [6, 7], [8, 9]]

    def test_extra_columns_ignored(self, tmp_path):
        got = self.read(tmp_path, "0 1 0.5 x\n2,3,7\n-4 5\n")
        assert got.tolist() == [[0, 1], [2, 3], [-4, 5]]

    @pytest.mark.parametrize("text, line", [("0 1\n\n2\n", 3),
                                            ("3,\n0 1\n", 1),
                                            ("0 1\n2 3\n  ,7\n", 3)])
    def test_one_column_names_its_line(self, tmp_path, text, line):
        with pytest.raises(InputError,
                           match=f"edges.tsv:{line}: expected two columns"):
            self.read(tmp_path, text)

    @pytest.mark.parametrize("text", ["0\tx\n", "0 1\n1.5 2\n",
                                      "# a comment\n0 1\n",
                                      "0 99999999999999999999\n"])
    def test_non_integer_refused(self, tmp_path, text):
        with pytest.raises(InputError, match="cannot read edge file"):
            self.read(tmp_path, text)

    @pytest.mark.parametrize("text", ["", "\n\n", " \t\n"])
    def test_empty_file_gives_no_rows_without_warning(self, tmp_path, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = self.read(tmp_path, text)
        assert got.dtype == np.int64 and got.shape == (0, 2)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="cannot read edge file"):
            _read_int_pairs(str(tmp_path / "absent.tsv"))
