"""The call sites that the pipeline benchmark's tracer patches.

`pipebench/tracing.py` replaces module attributes of the package (for
example `rewirebench.models.spectral_radius`) and reads fields of their
results. A rename or a changed result type breaks `--trace 1`; these tests
catch that on a tiny GESN graph run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from rewirebench.cli import main

PIPEBENCH = Path(__file__).resolve().parents[1] / "pipebench"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, PIPEBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return _load("tracing")


def _patched(tracing):
    """(module, attribute) -> current value for every trace point."""
    out = {}
    for _, modules, attr, _ in tracing.POINTS:
        for short in modules:
            module = importlib.import_module(f"rewirebench.{short}")
            out[(short, attr)] = getattr(module, attr)
    return out


def test_install_and_uninstall_restore_every_point(tracing):
    before = _patched(tracing)
    tracer = tracing.Tracer()
    with tracer:
        during = _patched(tracing)
        assert all(during[k] is not before[k] for k in before)
    assert all(v is before[k] for k, v in _patched(tracing).items())
    assert not tracer._patches


def test_traced_gesn_graph_run_counts_both_radius_sites(tracing, tmp_path):
    data = tmp_path / "data"
    # 20 graphs of 10 to 15 nodes: six sizes
    _load("generate").graph_collection(str(data), 0, graphs=20, min_nodes=10,
                                       max_nodes=15)
    with tracing.Tracer() as tracer:
        assert main(["run", "--dataset", str(data), "--seed", "0", "--out",
                     str(tmp_path / "out"), "--model", "gesn", "--grid",
                     "tiny", "--rewire", "sdrf"]) == 0
    c = tracer.counters
    # one reservoir per hidden size of the tiny grid; one operator call for
    # the whole collection, whatever its sizes, in the rewired and the
    # baseline run each
    assert c["spectral.spectral_radius.reservoir_calls"] >= 1
    assert c["spectral.spectral_radius.operator_calls"] == 2
    assert c["spectral.spectral_radius.calls"] == (
        c["spectral.spectral_radius.reservoir_calls"]
        + c["spectral.spectral_radius.operator_calls"])
    assert c["models.gesn_init.calls"] >= 1
    assert tracer.self_s["spectral.spectral_radius"] > 0.0
    # SDRF reaches its curvature through the patched module attribute
    assert c["rewiring.local_balanced_forman.calls"] >= 1


def test_traced_pagerank_node_run_reaches_the_kernel(tracing, tmp_path):
    data = tmp_path / "data"
    _load("generate").sbm_node_task(str(data), 0, nodes=120, edges=240)
    with tracing.Tracer() as tracer:
        assert main(["run", "--dataset", str(data), "--seed", "0", "--out",
                     str(tmp_path / "out"), "--model", "gesn", "--grid",
                     "tiny", "--jobs", "1", "--rewire", "pagerank"]) == 0
    c = tracer.counters
    # the rewired run builds the kernel once; the baseline run never does
    assert c["spectral.pagerank_kernel.calls"] == 1
    # one closed-form PageRank radius and one of the baseline's adjacency
    assert c["spectral.spectral_radius.operator_calls"] == 2
    assert c["spectral.spectral_radius.unconverged"] == 0


def test_traced_diffwire_node_run_counts_both_operator_radii(tracing,
                                                             tmp_path):
    data = tmp_path / "data"
    _load("generate").sbm_node_task(str(data), 0, nodes=120, edges=240)
    with tracing.Tracer() as tracer:
        assert main(["run", "--dataset", str(data), "--seed", "0", "--out",
                     str(tmp_path / "out"), "--model", "gesn", "--grid",
                     "tiny", "--jobs", "1", "--rewire", "diffwire"]) == 0
    c = tracer.counters
    # the CSR DiffWire operator of the rewired run and the adjacency of the
    # baseline run: 120 rows each, so both go to ARPACK
    assert c["spectral.spectral_radius.operator_calls"] == 2
    assert c["spectral.spectral_radius.iterations"] > 0
    assert c["spectral.spectral_radius.unconverged"] == 0
    assert c["spectral.effective_resistance.calls"] == 1
    assert c["models.gesn_embed.gflop"] > 0.0
