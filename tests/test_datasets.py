import numpy as np
import pytest

from rewirebench import InputError, load_canonical, load_dataset, load_tudataset


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

    def test_unlabeled_collection(self, tmp_path):
        d = tmp_path / "coll"
        write_canonical(d, [(0, 1), (2, 3)], np.ones((4, 1)),
                        graph_ids=[0, 0, 1, 1])
        graphs, labels = load_canonical(str(d))
        assert len(graphs) == 2 and labels is None


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
