"""Golden digests of the `run` and `rewire` outputs on seeded datasets.

Byte-identical reports are the equivalence check for every refactor of the
pipeline. Five small datasets from `pipebench/generate.py` go through
`cli.main`: a node task with SGC and SDRF rewiring, a node task with SGC
on the default grid and heat rewiring, a node task with GESN, a node task
on every personalized-PageRank path (SGC, and GESN under the `sym` and
`mean` normalizations), and a graph collection with GESN. A
change that alters floats on purpose updates DIGESTS and states its
tolerance and the selections it kept.
"""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from rewirebench.cli import main

GENERATE = Path(__file__).resolve().parents[1] / "pipebench" / "generate.py"

# (dataset generator, its size arguments, CLI invocations as (label, argv))
CASES = {
    "node-sgc": ("sbm_node_task", {"nodes": 120, "edges": 240}, (
        ("rewire", ["rewire", "--rewire", "sdrf"]),
        ("run", ["run", "--model", "sgc", "--grid", "tiny", "--jobs", "1",
                 "--rewire", "sdrf"]),
    )),
    # the default grid: 15 hops and lambda down to 1e-5, with 129 feature
    # columns against 72 training rows
    "node-sgc-default": ("sbm_node_task", {"nodes": 120, "edges": 240}, (
        ("run-heat", ["run", "--model", "sgc", "--grid", "default",
                      "--jobs", "1", "--rewire", "heat"]),
    )),
    "node-gesn": ("sbm_node_task", {"nodes": 150, "edges": 300}, (
        ("run", ["run", "--model", "gesn", "--grid", "tiny", "--jobs", "2",
                 "--rewire", "pagerank"]),
    )),
    "node-pagerank": ("sbm_node_task", {"nodes": 150, "edges": 300}, (
        ("run-sgc", ["run", "--model", "sgc", "--grid", "tiny", "--jobs", "1",
                     "--rewire", "pagerank"]),
        ("run-gesn-sym", ["run", "--model", "gesn", "--grid", "tiny",
                          "--jobs", "2", "--rewire", "pagerank",
                          "--diffusion-norm", "sym"]),
        ("run-gesn-mean", ["run", "--model", "gesn", "--grid", "tiny",
                           "--jobs", "2", "--rewire", "pagerank",
                           "--diffusion-norm", "mean"]),
    )),
    "graph-gesn": ("graph_collection", {"graphs": 20}, (
        ("run", ["run", "--model", "gesn", "--grid", "tiny", "--jobs", "1",
                 "--rewire", "sdrf"]),
    )),
}

DIGESTED = ("report.csv", "baseline_report.csv", "summary.txt",
            "rewired_edges.tsv")

DIGESTS = {
    "graph-gesn": {
        "run/baseline_report.csv":
            "9343bb65f2f0a5b321f79dd353970aadbad18a29231ec3882d9e0f09d9d06120",
        "run/report.csv":
            "e7387151324161928fba5a61354e5fe02996de010cf4255d999c576820e0a116",
        "run/summary.txt":
            "6161d2152871c41de158d2a5cd047483c60fd28e165ebb2746a01a5ca0faf106",
    },
    "node-gesn": {
        "run/baseline_report.csv":
            "643a6e685e18733d4c2f54587dd39d9e4cc6b17159fe52604a718d295d358870",
        "run/report.csv":
            "176d7e330e792aa9d1bc88dd58ce667a0a059907f7e7c85141b88ef2a65dbafc",
        "run/summary.txt":
            "b2e29a0c14a2e133caeca7c8a63aeaef1b47eb3d7b832183ebb7a39bf7f37b09",
    },
    "node-pagerank": {
        "run-gesn-mean/baseline_report.csv":
            "643a6e685e18733d4c2f54587dd39d9e4cc6b17159fe52604a718d295d358870",
        "run-gesn-mean/report.csv":
            "d7400c4474cdf5fa6a8e8cdfebf31721a2c5e9e54612bf944afb7218815163b7",
        "run-gesn-mean/summary.txt":
            "72d423be7963cfa3dd66a52969c61941079dfd730fb3abaae931eb90927f34fc",
        "run-gesn-sym/baseline_report.csv":
            "643a6e685e18733d4c2f54587dd39d9e4cc6b17159fe52604a718d295d358870",
        "run-gesn-sym/report.csv":
            "db864ee1ead7e722efa49c095d4d6d0fc88e0d6c96d20019eece81667cc28e3c",
        "run-gesn-sym/summary.txt":
            "c962881dbaf1e5f518f4d7afc808b4799c5f1efacf56a6168bcd5a748547663b",
        "run-sgc/baseline_report.csv":
            "3a9e8c34e7c95ec4758bf7cf8bae01fdb8fc4c091f629f55b2dfb332baece4d9",
        "run-sgc/report.csv":
            "48f9af1d42c004a2772243b6781feca1c9fa8f1cacf38a0876848a6d302c25ee",
        "run-sgc/summary.txt":
            "0dd98017fa9570157047c7f105cf494a93448d6278c46c6713ac1ac984a8ed1c",
    },
    "node-sgc-default": {
        "run-heat/baseline_report.csv":
            "156155a234a2c7a4822bf566c02207140af93af53e87993d5c0d9e93cb014901",
        "run-heat/report.csv":
            "acb370ed08ae9b49b95b764fdf46e59a729b45eb53b3ca07fb26a6af7c76733e",
        "run-heat/summary.txt":
            "7e67840afd3e313e046501f79fe350e091317886ce7d43081b6507c1b94b33de",
    },
    "node-sgc": {
        "rewire/rewired_edges.tsv":
            "6b368d7c75989be8f27b4ccde4a525a768da458b6a31eee383d91bbc49d26f79",
        "run/baseline_report.csv":
            "156155a234a2c7a4822bf566c02207140af93af53e87993d5c0d9e93cb014901",
        "run/report.csv":
            "ddec9ef28b2746e3ca18142fa2613b7af53ee45e52e6e9803ed2543b8bd116fd",
        "run/summary.txt":
            "826e461eeca4e3c156c56cd71d34d6e3c71c63e18270626c955259be43775e09",
    },
}


def _generate():
    spec = importlib.util.spec_from_file_location("generate", GENERATE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def case_digests(name, root):
    """sha256 of every digested output of one case, keyed label/file."""
    make, sizes, invocations = CASES[name]
    data = root / "data"
    getattr(_generate(), make)(str(data), 1, **sizes)
    out = {}
    for label, argv in invocations:
        out_dir = root / label
        assert main(argv[:1] + ["--dataset", str(data), "--seed", "0",
                                "--out", str(out_dir)] + argv[1:]) == 0
        for fname in DIGESTED:
            path = out_dir / fname
            if path.exists():
                out[f"{label}/{fname}"] = hashlib.sha256(
                    path.read_bytes()).hexdigest()
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_golden_digests(name, tmp_path):
    assert case_digests(name, tmp_path) == DIGESTS[name]
