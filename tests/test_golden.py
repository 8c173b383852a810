"""Golden digests of the `run` and `rewire` outputs on seeded datasets.

Byte-identical reports are the equivalence check for every refactor of the
pipeline. Five small datasets from `pipebench/generate.py` go through
`cli.main`: a node task with SGC and SDRF rewiring, a node task with SGC
on the default grid and heat rewiring, a node task with GESN, a node task
on every personalized-PageRank path (SGC, and GESN under the `sym` and
`mean` normalizations), a node task with the operators that are not
dense PageRank (GESN on DiffWire, EGP and heat, SGC on EGP and DiffWire),
a graph collection with GESN, and a collection's `stats` with GESN on
EGP and DiffWire. A
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
    # CSR DiffWire and EGP operators and heat's closed-form rho(M)
    "node-retyped": ("sbm_node_task", {"nodes": 150, "edges": 300}, tuple(
        (f"run-{model}-{method}", ["run", "--model", model, "--grid", "tiny",
                                   "--jobs", "1", "--rewire", method])
        for model, method in (("gesn", "diffwire"), ("gesn", "egp"),
                              ("gesn", "heat"), ("sgc", "diffwire"),
                              ("sgc", "egp")))),
    "graph-gesn": ("graph_collection", {"graphs": 20}, (
        ("run", ["run", "--model", "gesn", "--grid", "tiny", "--jobs", "1",
                 "--rewire", "sdrf"]),
    )),
    # a collection's stats, and GESN on the per-graph CSR operators of EGP
    # and DiffWire; sizes 50-70 repeat, and some graphs are above the exact
    # spectral-radius cap of 64 rows
    "graph-retyped": ("graph_collection",
                      {"graphs": 40, "min_nodes": 50, "max_nodes": 70}, (
        ("stats", ["stats"]),
        ("run-gesn-egp", ["run", "--model", "gesn", "--grid", "tiny",
                          "--jobs", "1", "--rewire", "egp"]),
        ("run-gesn-diffwire", ["run", "--model", "gesn", "--grid", "tiny",
                               "--jobs", "2", "--rewire", "diffwire"]),
    )),
}

DIGESTED = ("report.csv", "baseline_report.csv", "summary.txt",
            "rewired_edges.tsv", "stats.csv")

DIGESTS = {
    "graph-gesn": {
        "run/baseline_report.csv":
            "9343bb65f2f0a5b321f79dd353970aadbad18a29231ec3882d9e0f09d9d06120",
        "run/report.csv":
            "e7387151324161928fba5a61354e5fe02996de010cf4255d999c576820e0a116",
        "run/summary.txt":
            "6161d2152871c41de158d2a5cd047483c60fd28e165ebb2746a01a5ca0faf106",
    },
    "graph-retyped": {
        "run-gesn-diffwire/baseline_report.csv":
            "fd6426e2abbd0f3a791333db0bfd0af712cdecddcb8be78847abeb26e7bba1ea",
        "run-gesn-diffwire/report.csv":
            "5c9e99a5bfc917577a78ddf501ac759966b3ee6fce9985b741cf3e10d7b5ff26",
        "run-gesn-diffwire/summary.txt":
            "ca61f4a2a74d5d8cb82c1b17c96b3c0f8c1f5d24b3a5f608b0d01c86064b5ad2",
        "run-gesn-egp/baseline_report.csv":
            "fd6426e2abbd0f3a791333db0bfd0af712cdecddcb8be78847abeb26e7bba1ea",
        "run-gesn-egp/report.csv":
            "a37a73e6be0e324b7228c965a5c41cb803f9fbfae96b4d5f80b05a55296845bf",
        "run-gesn-egp/summary.txt":
            "18003a19496ca4da44b20c7ce6768ffc03e01d23ef0e4b5bc4113e3409e9900a",
        "stats/stats.csv":
            "7266cd9c90ca01c88ec622b7bc65f5c173ff6a640543380e8d4e91cc60e7dc66",
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
    "node-retyped": {
        "run-gesn-diffwire/baseline_report.csv":
            "643a6e685e18733d4c2f54587dd39d9e4cc6b17159fe52604a718d295d358870",
        "run-gesn-diffwire/report.csv":
            "667e037ba57093d5f54e9353c8e5864a5047a3f4d7a9601c285a5fd0323989d3",
        "run-gesn-diffwire/summary.txt":
            "9bb9415fff6c1c6a9a06ccd82af02165c8645b0fff81439598c5cc9255697a77",
        "run-gesn-egp/baseline_report.csv":
            "643a6e685e18733d4c2f54587dd39d9e4cc6b17159fe52604a718d295d358870",
        "run-gesn-egp/report.csv":
            "e5370e162b28252a16621f7dce32d4eccd75b3742f6159623a69f637d11b4d20",
        "run-gesn-egp/summary.txt":
            "d49c42aee01bf996c2dcf740ad358a0575cdc9ef4d1e20ca38338997cde495f2",
        "run-gesn-heat/baseline_report.csv":
            "643a6e685e18733d4c2f54587dd39d9e4cc6b17159fe52604a718d295d358870",
        "run-gesn-heat/report.csv":
            "33371685c101dbce6160fb175e82b94e4b987c521c45d496ddc1bdf9e0f27249",
        "run-gesn-heat/summary.txt":
            "f3cb985fc222a6a0ec09ba61cf9dc565cb15200e3a77f3aff5d831b8347ee731",
        "run-sgc-diffwire/baseline_report.csv":
            "3a9e8c34e7c95ec4758bf7cf8bae01fdb8fc4c091f629f55b2dfb332baece4d9",
        "run-sgc-diffwire/report.csv":
            "7e5256dd820d4300eaba4e7a08ff931d941576aa06d8d6f121d3d9fc08b701ba",
        "run-sgc-diffwire/summary.txt":
            "e85e0d446c2a18a488bb800d603b9925d7a7c2d8b75dc0f81ed552db46b140e8",
        "run-sgc-egp/baseline_report.csv":
            "3a9e8c34e7c95ec4758bf7cf8bae01fdb8fc4c091f629f55b2dfb332baece4d9",
        "run-sgc-egp/report.csv":
            "ec0656ecb8f183de9083d02456a54d8dbec8baed2bac2e31ecd5a5def39b186b",
        "run-sgc-egp/summary.txt":
            "1c309f5003243e752fad2800917fc819b0a2965882b3fc4cc7ef45cd3729076f",
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
