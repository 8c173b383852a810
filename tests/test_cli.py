import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse.linalg

import rewirebench
from rewirebench import (RewireConfig, apply_rewiring, cli, evaluation,
                         spectral)
from rewirebench.cli import main
from rewirebench.datasets import load_dataset
from rewirebench.rewiring import cayley_graph, sl2_order
from rewirebench.spectral import effective_resistance

from test_datasets import write_canonical


@pytest.fixture
def node_dataset(tmp_path):
    """Small two-community labeled graph on disk in the canonical layout."""
    rng = np.random.default_rng(0)
    n = 24
    labels = [i % 2 for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            p = 0.4 if labels[i] == labels[j] else 0.05
            if rng.random() < p:
                edges.append((i, j))
    feats = rng.normal(size=(n, 2)) + [[4.0 * (1 - 2 * y), 0.0] for y in labels]
    d = tmp_path / "toy"
    write_canonical(d, edges, feats, labels=labels)
    return str(d)


@pytest.fixture
def large_node_dataset(tmp_path):
    """A sparse 300-node two-community graph, above effective resistance's
    dense size (n^2 > SCHUR_BLOCK_ENTRIES)."""
    rng = np.random.default_rng(1)
    n = 300
    labels = np.arange(n) % 2
    u, v = np.triu_indices(n, 1)
    p = np.where(labels[u] == labels[v], 0.02, 0.002)
    keep = rng.random(u.size) < p
    feats = rng.normal(size=(n, 2)) + np.stack(
        [4.0 * (1 - 2 * labels), np.zeros(n)], axis=1)
    d = tmp_path / "large"
    write_canonical(d, np.stack([u[keep], v[keep]], axis=1).tolist(), feats,
                    labels=labels.tolist())
    return str(d)


@pytest.fixture
def unlabeled_collection(tmp_path):
    """Two graphs with a graph id per node and no labels of any kind."""
    d = tmp_path / "coll"
    write_canonical(d, [(0, 1), (1, 2), (3, 4), (4, 5)], np.ones((6, 1)),
                    graph_ids=[0, 0, 0, 1, 1, 1])
    return str(d)


def exit_code(argv):
    """The process exit code of `rewirebench argv`; argparse exits itself."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestStats:
    def test_prints_table_and_writes_csv(self, node_dataset, tmp_path, capsys):
        out = tmp_path / "stats_out"
        assert main(["stats", "--dataset", node_dataset,
                     "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "nodes" in text and "average_degree" in text
        assert (out / "stats.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert "stats.csv" in manifest["artifacts"]
        assert len(manifest["config_hash"]) == 16

    def test_unlabeled_collection(self, unlabeled_collection, capsys):
        assert main(["stats", "--dataset", unlabeled_collection]) == 0
        assert "graphs           2" in capsys.readouterr().out

    def test_feature_rows_mismatch_exit_2(self, tmp_path, capsys):
        d = tmp_path / "coll"
        write_canonical(d, [(0, 1), (2, 3)], np.ones((3, 1)),
                        graph_ids=[0, 0, 1, 1])
        assert main(["stats", "--dataset", str(d)]) == 2
        assert "features.csv has 3 rows for 4 nodes" in capsys.readouterr().err

    def test_missing_dataset_exit_2(self, tmp_path, capsys):
        assert main(["stats", "--dataset", str(tmp_path / "nope")]) == 2
        assert "input error" in capsys.readouterr().err


class TestRewire:
    def test_sdrf_artifacts(self, node_dataset, tmp_path):
        out = tmp_path / "rw"
        assert main(["rewire", "--dataset", node_dataset, "--rewire", "sdrf",
                     "--seed", "1", "--out", str(out)]) == 0
        for name in ("rewired_edges.tsv", "edit_log.tsv",
                     "curvature_before.csv", "curvature_after.csv",
                     "curvature_delta.csv", "spectral.csv", "manifest.json"):
            assert (out / name).exists(), name
        assert not (out / "kernel.npy").exists()

    def test_heat_writes_kernel(self, node_dataset, tmp_path):
        out = tmp_path / "rw"
        assert main(["rewire", "--dataset", node_dataset, "--rewire", "heat",
                     "--t", "0.5", "--out", str(out)]) == 0
        k = np.load(out / "kernel.npy")
        with open(f"{node_dataset}/labels.csv") as f:
            n = sum(1 for _ in f)
        assert k.shape == (n, n)

    def test_heat_commands_never_reach_expm(self, node_dataset, tmp_path,
                                            monkeypatch):
        # rewire writes and run applies the same series; the dense expm
        # kernel is only the reference the tests compare it with
        def expm(*args, **kwargs):
            raise AssertionError("dense expm reached")
        monkeypatch.setattr(spectral.scipy.linalg, "expm", expm)
        out = tmp_path / "rw"
        assert main(["rewire", "--dataset", node_dataset, "--rewire", "heat",
                     "--out", str(out)]) == 0
        assert main(["run", "--dataset", node_dataset, "--model", "gesn",
                     "--grid", "tiny", "--jobs", "1", "--rewire", "heat",
                     "--out", str(tmp_path / "run")]) == 0
        g = load_dataset(node_dataset)
        op = apply_rewiring(g, RewireConfig(method="heat")).operator
        assert np.array_equal(np.load(out / "kernel.npy"), op.toarray())
        # one savetxt call writes the per-edge lines u<TAB>v
        assert (out / "rewired_edges.tsv").read_text() == "".join(
            f"{u}\t{v}\n" for u, v in g.edges.tolist())

    @pytest.mark.parametrize("method", ["egp", "diffwire"])
    def test_sparse_operator_written_dense(self, node_dataset, tmp_path,
                                           method):
        # EGP and DiffWire keep their operator as CSR; kernel.npy is its
        # dense form, equal to A_Cay @ A and to Res on the edges of A
        out = tmp_path / "rw"
        assert main(["rewire", "--dataset", node_dataset, "--rewire", method,
                     "--out", str(out)]) == 0
        g = load_dataset(node_dataset)
        a = g.adjacency().toarray()
        if method == "egp":
            q = 2
            while sl2_order(q) < g.num_nodes:
                q += 1
            keep = slice(0, g.num_nodes)
            want = cayley_graph(q).adjacency().toarray()[keep, keep] @ a
        else:
            want = np.where(a > 0, effective_resistance(g).matrix, 0.0)
        k = np.load(out / "kernel.npy")
        assert k.dtype == np.float64 and np.array_equal(k, want)

    def test_diffwire_written_dense_in_blocks(self, large_node_dataset,
                                              tmp_path):
        # above the dense size, kernel.npy is Res on the edges of A, read
        # from the block-eliminated grounded Laplacian, bit for bit
        out = tmp_path / "rw"
        assert main(["rewire", "--dataset", large_node_dataset, "--rewire",
                     "diffwire", "--out", str(out)]) == 0
        g = load_dataset(large_node_dataset)
        r = effective_resistance(g)
        assert r.kernel._head_nodes.size > 0
        want = np.where(g.adjacency().toarray() > 0, r.matrix, 0.0)
        k = np.load(out / "kernel.npy")
        assert k.dtype == np.float64 and np.array_equal(k, want)

    @pytest.mark.parametrize("dataset", ["node_dataset",
                                         "large_node_dataset"])
    def test_diffwire_schur_complement_rejected_exit_4(self, dataset, request,
                                                       tmp_path, monkeypatch,
                                                       capsys):
        # the grounded Laplacian (all tail below the dense size) and its
        # Schur complement are positive definite; one that dpotrf rejects
        # is an internal error, never inverted
        path = request.getfixturevalue(dataset)
        dpotrf = spectral.dpotrf
        monkeypatch.setattr(spectral, "dpotrf",
                            lambda a, **kw: dpotrf(-a, **kw))
        out = tmp_path / "x"
        assert main(["rewire", "--dataset", path, "--rewire", "diffwire",
                     "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "grounded Laplacian not positive definite" in err
        assert not (out / "kernel.npy").exists()

    def test_invalid_param_exit_2(self, node_dataset, tmp_path):
        assert main(["rewire", "--dataset", node_dataset, "--rewire", "heat",
                     "--t", "50", "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("command", ["rewire", "run"])
    def test_pagerank_unnormalized_exit_2(self, node_dataset, tmp_path,
                                          capsys, command):
        argv = [command, "--dataset", node_dataset, "--rewire", "pagerank",
                "--diffusion-norm", "none", "--out", str(tmp_path / "x")]
        if command == "run":
            argv += ["--model", "sgc", "--grid", "tiny", "--jobs", "1"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "input error" in err and "'none'" in err

    def test_pagerank_factorization_failure_exit_4(self, node_dataset,
                                                   tmp_path, monkeypatch,
                                                   capsys):
        # K = D - (1-alpha) A is positive definite for every normalized
        # operator, so a failed factorization is an internal error, never a
        # silent fallback; here SuperLU is handed K with every value zeroed
        splu = scipy.sparse.linalg.splu
        monkeypatch.setattr(scipy.sparse.linalg, "splu",
                            lambda k, **kw: splu(0.0 * k, **kw))
        out = tmp_path / "x"
        assert main(["rewire", "--dataset", node_dataset, "--rewire",
                     "pagerank", "--out", str(out)]) == 4
        assert "singular" in capsys.readouterr().err
        assert not (out / "kernel.npy").exists()

    def test_pagerank_ordering_failure_exit_4(self, node_dataset, tmp_path,
                                              monkeypatch, capsys):
        # the minimum-degree order is read from an incomplete factor of K;
        # if that factor fails, rewire stops as an internal error
        spilu = scipy.sparse.linalg.spilu
        monkeypatch.setattr(scipy.sparse.linalg, "spilu",
                            lambda k, **kw: spilu(0.0 * k, **kw))
        out = tmp_path / "x"
        assert main(["rewire", "--dataset", node_dataset, "--rewire",
                     "pagerank", "--out", str(out)]) == 4
        assert "could not be factored" in capsys.readouterr().err
        assert not (out / "kernel.npy").exists()

    def test_pagerank_schur_complement_rejected_exit_4(self, node_dataset,
                                                       tmp_path, monkeypatch,
                                                       capsys):
        # the tail's Schur complement is positive definite; one that dpotrf
        # rejects (here its negation) is an internal error, never inverted
        dpotrf = spectral.dpotrf
        monkeypatch.setattr(spectral, "dpotrf",
                            lambda a, **kw: dpotrf(-a, **kw))
        out = tmp_path / "x"
        assert main(["rewire", "--dataset", node_dataset, "--rewire",
                     "pagerank", "--out", str(out)]) == 4
        assert "not positive definite" in capsys.readouterr().err
        assert not (out / "kernel.npy").exists()

    def test_heat_unnormalized_accepted(self, node_dataset, tmp_path):
        out = tmp_path / "rw"
        assert main(["rewire", "--dataset", node_dataset, "--rewire", "heat",
                     "--diffusion-norm", "none", "--out", str(out)]) == 0
        assert (out / "kernel.npy").exists()

    @pytest.mark.parametrize("method", ["sdrf", "grlef", "heat", "pagerank",
                                        "egp", "diffwire"])
    def test_budget_zero_writes_oor(self, node_dataset, tmp_path, capsys,
                                    method):
        out = tmp_path / "rw"
        assert main(["rewire", "--dataset", node_dataset, "--rewire", method,
                     "--budget-seconds", "0", "--out", str(out)]) == 3
        assert f"method {method} exceeded" in (out / "OOR").read_text()
        assert "budget exceeded" in capsys.readouterr().err
        assert not (out / "rewired_edges.tsv").exists()

    @pytest.mark.parametrize("method, calls", [("heat", 1), ("sdrf", 2)])
    def test_unchanged_graph_measured_once(self, node_dataset, tmp_path,
                                           monkeypatch, method, calls):
        # heat returns the input graph itself: its curvature and gap are
        # computed once and written as both "before" and "after"
        counted = {"gap": 0, "curv": 0}

        def spy(key, fn):
            def wrapped(*args, **kwargs):
                counted[key] += 1
                return fn(*args, **kwargs)
            return wrapped
        monkeypatch.setattr(cli, "spectral_gap", spy("gap", cli.spectral_gap))
        monkeypatch.setattr(cli, "curvature_distribution",
                            spy("curv", cli.curvature_distribution))
        out = tmp_path / "rw"
        assert main(["rewire", "--dataset", node_dataset, "--rewire", method,
                     "--out", str(out)]) == 0
        assert counted == {"gap": calls, "curv": calls}
        monkeypatch.undo()
        g = load_dataset(node_dataset)
        edges = np.loadtxt(out / "rewired_edges.tsv", dtype=np.int64, ndmin=2)
        after = g.with_edges(edges)
        for name, graph in (("before", g), ("after", after)):
            cli.write_histogram_csv(cli.curvature_distribution(graph),
                                    tmp_path / name)
            assert ((tmp_path / name).read_bytes()
                    == (out / f"curvature_{name}.csv").read_bytes())
        gaps = f"{cli.spectral_gap(g):.10g},{cli.spectral_gap(after):.10g}"
        assert (out / "spectral.csv").read_text().splitlines() == [
            "gap_before,gap_after", gaps]

    def test_single_node_refused_before_writing(self, tmp_path, capsys):
        d = tmp_path / "one"
        write_canonical(d, [], np.ones((1, 1)))
        out = tmp_path / "rw"
        assert main(["rewire", "--dataset", str(d), "--rewire", "sdrf",
                     "--out", str(out)]) == 2
        assert "at least 2 nodes" in capsys.readouterr().err
        assert not out.exists()

    def test_rewire_deterministic_artifacts(self, node_dataset, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["rewire", "--dataset", node_dataset, "--rewire",
                         "grlef", "--seed", "5", "--out", str(out)]) == 0
        for name in ("rewired_edges.tsv", "edit_log.tsv",
                     "curvature_delta.csv", "spectral.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


class TestRun:
    def test_baseline_run(self, node_dataset, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["run", "--dataset", node_dataset, "--model", "sgc",
                     "--grid", "tiny", "--jobs", "1",
                     "--out", str(out)]) == 0
        assert (out / "report.csv").exists()
        assert (out / "summary.txt").exists()
        assert (out / "timing.txt").exists()
        assert not (out / "baseline_report.csv").exists()
        rows = (out / "report.csv").read_text().strip().splitlines()
        assert len(rows) == 6  # header + 5 folds
        assert "baseline  sgc" in (out / "summary.txt").read_text()

    def test_rewired_run_compares_to_baseline(self, node_dataset, tmp_path):
        out = tmp_path / "run"
        assert main(["run", "--dataset", node_dataset, "--model", "sgc",
                     "--rewire", "pagerank", "--grid", "tiny", "--jobs", "1",
                     "--out", str(out)]) == 0
        assert (out / "baseline_report.csv").exists()
        summary = (out / "summary.txt").read_text()
        assert "significance p=" in summary
        assert "pagerank  sgc" in summary

    def test_non_finite_feature_exit_2(self, tmp_path, capsys):
        # a NaN would reach every embedding, and argmax of a NaN score row
        # is class 0, so the run used to exit 0 scoring the class-0 share
        rng = np.random.default_rng(0)
        labels = np.arange(60) % 3
        feats = rng.normal(size=(60, 4)) + labels[:, None]
        feats[17, 2] = np.nan
        d = tmp_path / "nan"
        write_canonical(d, [(i, (i + 1) % 60) for i in range(60)], feats,
                        labels=labels)
        out = tmp_path / "run"
        for argv in (["run", "--dataset", str(d), "--model", "sgc",
                      "--grid", "tiny", "--out", str(out)],
                     ["stats", "--dataset", str(d)]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert "features.csv: row 18 (node 17) holds a non-finite" in err
        assert not (out / "report.csv").exists()

    @pytest.mark.parametrize("classes, sizes, metric", [
        ((-1, 1), (30, 30), "accuracy"),
        ((3, 7), (30, 30), "accuracy"),
        ((-1, 1), (10, 50), "auroc"),
        ((0, 1), (30, 30), "accuracy"),
        ((0, 1), (10, 50), "auroc"),
    ])
    def test_binary_metric_from_class_sizes(self, tmp_path, classes, sizes,
                                            metric):
        # AUROC only for two classes whose smaller is under half the larger,
        # whatever the two label values are
        labels = np.repeat(classes, sizes)
        d = tmp_path / "binary"
        write_canonical(d, [(i, i + 1) for i in range(labels.size - 1)],
                        np.ones((labels.size, 1)), labels=labels)
        assert cli._load_task(str(d), "canonical").metric == metric

    @pytest.mark.parametrize("positives", [4, 5])
    def test_auroc_class_smaller_than_folds(self, tmp_path, capsys,
                                            monkeypatch, positives):
        # with fewer members than folds some test fold lacks the class and
        # AUROC is undefined there: refused before any rewiring
        rng = np.random.default_rng(0)
        labels = np.zeros(40, dtype=np.int64)
        labels[:positives] = 1
        d = tmp_path / "rare"
        write_canonical(d, [(i, (i + 1) % 40) for i in range(40)],
                        rng.normal(size=(40, 2)) + labels[:, None],
                        labels=labels)
        rewired = []
        real = evaluation.apply_rewiring
        monkeypatch.setattr(evaluation, "apply_rewiring",
                            lambda *a: rewired.append(a) or real(*a))
        code = main(["run", "--dataset", str(d), "--model", "sgc",
                     "--grid", "tiny", "--jobs", "1",
                     "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        if positives < 5:
            assert code == 2 and not rewired
            assert "class 1 has 4 members" in err and "5 folds" in err
        else:
            assert code == 0 and rewired

    def test_budget_zero_marks_oor(self, node_dataset, tmp_path):
        out = tmp_path / "run"
        assert main(["run", "--dataset", node_dataset, "--model", "gesn",
                     "--grid", "tiny", "--jobs", "1", "--budget-seconds", "0",
                     "--out", str(out)]) == 3
        assert "OOR" in (out / "summary.txt").read_text()

    def test_baseline_oor_after_method_run_exits_3(self, node_dataset, tmp_path,
                                                    monkeypatch):
        real = cli.model_select
        calls = []

        def second_call_oor(*args, **kwargs):
            report = real(*args, **kwargs)
            calls.append(report)
            if len(calls) == 2:   # the baseline: keep two finished folds
                report.folds = report.folds[:2]
                report.oor = True
                report.finalize()
            return report

        monkeypatch.setattr(cli, "model_select", second_call_oor)
        out = tmp_path / "run"
        assert main(["run", "--dataset", node_dataset, "--model", "sgc",
                     "--rewire", "pagerank", "--grid", "tiny", "--jobs", "1",
                     "--out", str(out)]) == 3
        assert len(calls) == 2
        rows = (out / "baseline_report.csv").read_text().strip().splitlines()
        assert len(rows) == 3  # header + 2 finished folds
        summary = (out / "summary.txt").read_text().splitlines()
        assert summary[0] == f"baseline  sgc  {os.path.basename(node_dataset)}  OOR"
        assert summary[1].startswith("pagerank  sgc")
        assert not any("significance" in line for line in summary)

    def test_unlabeled_collection_exit_2(self, unlabeled_collection, tmp_path,
                                         capsys):
        assert main(["run", "--dataset", unlabeled_collection, "--model",
                     "gesn", "--grid", "tiny", "--jobs", "1",
                     "--out", str(tmp_path / "run")]) == 2
        assert "has no labels" in capsys.readouterr().err

    def test_report_deterministic_across_runs(self, node_dataset, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["run", "--dataset", node_dataset, "--model", "sgc",
                         "--grid", "tiny", "--jobs", "1", "--seed", "4",
                         "--out", str(out)]) == 0
        assert (a / "report.csv").read_bytes() == (b / "report.csv").read_bytes()
        assert (a / "summary.txt").read_bytes() == (b / "summary.txt").read_bytes()
        # timing differs between runs; it lives outside the report files
        assert (a / "timing.txt").exists()


class TestBadValues:
    """Values that argparse accepts but the program cannot use exit 2."""

    @pytest.mark.parametrize("argv, message", [
        (["rewire", "--rewire", "sdrf", "--seed", "-1"],
         "--seed must be non-negative"),
        (["run", "--seed", "-1"], "--seed must be non-negative"),
        (["rewire", "--rewire", "sdrf", "--tau", "0"],
         "sdrf requires a softmax temperature tau > 0"),
        (["rewire", "--rewire", "sdrf", "--tau", "-1"],
         "sdrf requires a softmax temperature tau > 0"),
        (["rewire", "--rewire", "sdrf", "--budget-seconds", "nan"],
         "budget must be >= 0 seconds, not nan"),
        (["rewire", "--rewire", "sdrf", "--budget-seconds", "-1"],
         "budget must be >= 0 seconds, not -1"),
        (["run", "--budget-seconds", "nan"],
         "budget must be >= 0 seconds, not nan"),
        (["run", "--budget-seconds", "-1"],
         "budget must be >= 0 seconds, not -1"),
        (["run", "--jobs", "0"], "--jobs must be at least 1, not 0"),
        (["run", "--jobs", "-4"], "--jobs must be at least 1, not -4"),
        (["rewire", "--rewire", "sdrf", "--jobs", "0"],
         "--jobs must be at least 1, not 0"),
        (["stats", "--seed", "-1"], "--seed must be non-negative"),
        (["stats", "--jobs", "0"], "--jobs must be at least 1, not 0"),
        (["stats", "--budget-seconds", "nan"],
         "budget must be >= 0 seconds, not nan"),
        (["stats", "--budget-seconds", "-1"],
         "budget must be >= 0 seconds, not -1"),
    ], ids=["rewire-seed", "run-seed", "tau-zero", "tau-negative",
            "rewire-budget-nan", "rewire-budget-negative", "run-budget-nan",
            "run-budget-negative", "run-jobs-zero", "run-jobs-negative",
            "rewire-jobs-zero", "stats-seed", "stats-jobs-zero",
            "stats-budget-nan", "stats-budget-negative"])
    def test_exit_2(self, node_dataset, tmp_path, capsys, argv, message):
        # the run options come first, so that a value in argv wins
        run = ["--model", "gesn", "--grid", "tiny", "--jobs", "1"]
        assert main([argv[0], *(run if argv[0] == "run" else []), *argv[1:],
                     "--dataset", node_dataset,
                     "--out", str(tmp_path / "out")]) == 2
        assert f"input error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["stats"], ["rewire"],
                                         ["run", "--grid", "tiny"]])
    def test_benchmark_values_stay_valid(self, node_dataset, tmp_path,
                                         command):
        # every command takes --seed 0 and --jobs 1 or 2
        for jobs in ("1", "2"):
            assert main([*command, "--dataset", node_dataset, "--seed", "0",
                         "--jobs", jobs, "--out",
                         str(tmp_path / jobs)]) == 0


class TestConfigFile:
    def test_config_defaults_and_flag_override(self, node_dataset, tmp_path):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("grid=tiny\nmodel=sgc\nseed=9\n")
        out = tmp_path / "run"
        assert main(["--config", str(cfgfile), "run",
                     "--dataset", node_dataset, "--jobs", "1",
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["grid"] == "tiny"
        assert manifest["config"]["seed"] == 9

    def test_config_does_not_leak_into_the_next_call(self, node_dataset,
                                                     tmp_path):
        # a call with --config sets its values as defaults on a parser of its
        # own; a later call in the same process reads the built-in defaults
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("grid=tiny\nseed=9\nrewire=sdrf\n")
        for name, config in (("with", ["--config", str(cfgfile)]),
                             ("without", [])):
            assert main([*config, "run", "--dataset", node_dataset,
                         "--jobs", "1", "--grid", "tiny",
                         "--out", str(tmp_path / name)]) == 0
        read = [json.loads((tmp_path / name / "manifest.json").read_text())
                ["config"] for name in ("with", "without")]
        assert [(c["seed"], c["rewire"]["method"]) for c in read] == [
            (9, "sdrf"), (0, "baseline")]

    def test_parser_built_once_without_config(self, node_dataset, tmp_path,
                                              monkeypatch):
        built = []
        real = cli.build_parser

        def counting():
            built.append(1)
            return real()
        monkeypatch.setattr(cli, "build_parser", counting)
        cli._shared_parser.cache_clear()
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("seed=1\n")
        try:
            for config in ([], [], ["--config", str(cfgfile)], []):
                assert main([*config, "stats", "--dataset", node_dataset,
                             "--out", str(tmp_path / "stats")]) == 0
        finally:
            cli._shared_parser.cache_clear()
        assert len(built) == 2   # the shared parser and the --config one

    def test_missing_config_file(self, node_dataset):
        assert main(["--config", "/nonexistent", "stats",
                     "--dataset", node_dataset]) == 2

    @pytest.mark.parametrize("config", ["grid=huge\n", "diffusion_norm=xyz\n",
                                        "diffusion-norm=xyz\n", "model=gcn\n",
                                        "format=\n", "seed=abc\n",
                                        "budget_seconds=soon\n"])
    def test_bad_config_value_exit_2(self, node_dataset, tmp_path, config):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text(config)
        out = tmp_path / "run"
        assert exit_code(["--config", str(cfgfile), "run", "--dataset",
                          node_dataset, "--jobs", "1", "--out", str(out)]) == 2
        assert not (out / "report.csv").exists()

    def test_config_equals_form_read(self, node_dataset, tmp_path, capsys):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("format=tudataset\n")
        assert main([f"--config={cfgfile}", "stats",
                     "--dataset", node_dataset]) == 2
        assert "missing TUDataset file" in capsys.readouterr().err

    def test_abbreviated_config_flag_exit_2(self, node_dataset, tmp_path):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("format=tudataset\n")
        assert exit_code(["--conf", str(cfgfile), "stats",
                          "--dataset", node_dataset]) == 2

    @pytest.mark.parametrize("config", ["fromat=tudataset\n",
                                        "seed=1\nhop=3\n", "config=x\n",
                                        "help=1\n"])
    def test_unknown_config_key_exit_2(self, node_dataset, tmp_path, capsys,
                                       config):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text(config)
        assert exit_code(["--config", str(cfgfile), "stats",
                          "--dataset", node_dataset]) == 2
        key = config.splitlines()[-1].partition("=")[0]
        assert f"unknown key {key!r}" in capsys.readouterr().err

    def test_config_without_path_exit_2(self, node_dataset, capsys):
        assert exit_code(["stats", "--dataset", node_dataset, "--config"]) == 2
        assert "input error" in capsys.readouterr().err

    def test_numeric_config_values_typed(self, node_dataset, tmp_path):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("t=0.5\nbudget-seconds=120\nseed=3\n")
        out = tmp_path / "rw"
        assert main(["--config", str(cfgfile), "rewire", "--dataset",
                     node_dataset, "--rewire", "heat", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        rewire = manifest["config"]["rewire"]
        assert rewire["t"] == 0.5 and isinstance(rewire["t"], float)
        assert manifest["config"]["budget_seconds"] == 120.0
        assert isinstance(manifest["config"]["budget_seconds"], float)
        assert rewire["seed"] == 3 and isinstance(rewire["seed"], int)


COLD_START = """
import sys
from rewirebench import cli
data, graph, out = sys.argv[1:]
codes = [cli.main(["stats", "--dataset", data]),
         cli.main(["rewire", "--dataset", graph, "--rewire", "sdrf",
                   "--out", out + "/rw"]),
         cli.main(["run", "--dataset", data, "--model", "gesn", "--grid",
                   "tiny", "--rewire", "sdrf", "--jobs", "1",
                   "--out", out + "/run"]),
         cli.main(["run", "--dataset", graph, "--model", "sgc", "--grid",
                   "tiny", "--rewire", "heat", "--jobs", "1",
                   "--out", out + "/node"])]
print(codes, sorted(m for m in sys.modules if m.startswith("scipy.stats")))
"""


def test_cli_never_imports_scipy_stats(tmp_path, node_dataset):
    """scipy.stats costs a fresh process about 0.9 s and 35 MB to import;
    stats and a rewired run with its t-test on a collection, and rewire and
    a rewired run with its t-test on a single graph, need none of it."""
    rng = np.random.default_rng(0)
    sizes = rng.integers(4, 8, 10)
    gids = np.repeat(np.arange(10), sizes)
    edges = [(int(u), int(v)) for g in range(10)
             for u, v in zip(np.flatnonzero(gids == g)[:-1],
                             np.flatnonzero(gids == g)[1:])]
    d = tmp_path / "coll"
    write_canonical(d, edges, rng.normal(size=(gids.size, 2)),
                    graph_ids=gids, graph_labels=np.arange(10) % 2)
    src = os.path.dirname(os.path.dirname(rewirebench.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", COLD_START, str(d),
                           node_dataset, str(tmp_path / "out")], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0] []"
