"""End-to-end and per-layer benchmark of the rewirebench pipeline.

Usage:
    python3 pipebench/run.py --workload {node-sgc,node-gesn,graph-gesn}
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The benchmark generates the workload's dataset
from --seed in the canonical layout, then drives ``rewirebench.cli.main``
in-process as a closed loop with one client: each CLI invocation starts after
the previous one ends. One pass runs the workload's invocation list once;
passes repeat until --seconds is spent. An invocation's time is the median
over the run's passes, because load from other tenants of the host slows
whole stretches of passes; NOTES.md gives the spreads. Set-up time is the
median of several fresh-process samples spread over the run. Each pass's
outputs are digested and checked against ``references.json``.

--trace 0 reports end-to-end metrics with tracing off. --trace 1 alternates
untraced passes with passes traced by ``tracing.Tracer`` and reports the
per-layer metrics. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; see NOTES.md.
"""

from __future__ import annotations

import os
import sys

# Thread placement: BLAS gets one thread so that --jobs x BLAS threads stays
# within the cores. Set before numpy is imported anywhere in the process.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import logging
import resource
import shutil
import statistics
import subprocess
import time

import numpy
import scipy

import generate
from tracing import SPAN_NAMES, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".pipebench_work")
REFERENCES = os.path.join(HERE, "references.json")
MIN_SETUPS = 5
# Untraced runs take a set-up sample before every SETUP_EVERY-th pass.
SETUP_EVERY = 2
# Share of the traced wall time that must land in named spans rather than in
# the self time of cli.main; below it, the trace is flagged as incomplete.
NAMED_SHARE_FLOOR = 0.9
# The workload seed makes the dataset; the program's own --seed (splits,
# rewiring and reservoir draws) stays fixed, so that every seed runs the same
# amount of reservoir work and only the data varies.
PROGRAM_SEED = 0


@dataclasses.dataclass(frozen=True)
class Workload:
    dataset: str                 # generator in generate.py
    sizes: dict                  # generator size and homophily arguments
    jobs: int                    # --jobs of every invocation
    invocations: tuple           # (label, CLI arguments after --out)


WORKLOADS = {
    # Cora-shaped SBM scaled to 400 nodes, so that a run holds several
    # passes; every command, every layer but GESN. Ridge is tall (240 training
    # rows, 129 columns) and dominates the default-grid SGC run (heat, plus
    # the CLI's baseline re-run); stats is all diameter; the rewire commands
    # hold all-edge curvature, the spectral gap and SDRF's local curvature.
    "node-sgc": Workload(
        "sbm", {"nodes": 400, "edges": 783}, 1, (
            ("stats", ["stats"]),
            ("rewire-sdrf", ["rewire", "--rewire", "sdrf"]),
            ("rewire-grlef", ["rewire", "--rewire", "grlef"]),
            ("run-heat", ["run", "--model", "sgc", "--grid", "default",
                          "--rewire", "heat"]),
            ("run-sdrf", ["run", "--model", "sgc", "--grid", "tiny",
                          "--rewire", "sdrf"]),
            ("run-diffwire", ["run", "--model", "sgc", "--grid", "tiny",
                              "--rewire", "diffwire"]),
        )),
    # Cora-scale SBM (2708 nodes, 5300 edges): node-level GESN on the dense
    # PageRank operator, GESN configs in a thread pool of two.
    "node-gesn": Workload(
        "sbm", {"nodes": 2708, "edges": 5300}, 2, (
            ("run-pagerank", ["run", "--model", "gesn", "--grid", "tiny",
                              "--rewire", "pagerank"]),
        )),
    # Many tiny graphs: per-graph SDRF, operator and reservoir spectral radius
    # for every graph and config, pooling, a ridge with few rows. Eight graphs
    # keep a pass near 3 s, so that a run holds about ten passes.
    "graph-gesn": Workload(
        "collection", {"graphs": 8}, 1, (
            ("stats", ["stats"]),
            ("run-sdrf", ["run", "--model", "gesn", "--grid", "tiny",
                          "--rewire", "sdrf"]),
        )),
}

# Deterministic outputs per command; timing.txt and manifest.json (which
# holds the dataset path) are left out.
DIGESTED = {
    "stats": ("stats.csv",),
    "rewire": ("rewired_edges.tsv", "edit_log.tsv", "curvature_before.csv",
               "curvature_after.csv", "curvature_delta.csv", "spectral.csv"),
    "run": ("report.csv", "baseline_report.csv", "summary.txt"),
}

END_TO_END = (("run_s", "s"), ("total_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))

# Span self times that every workload exercises, so none reads 0 on any.
LAYER_TIMES = ("datasets.load_dataset.s", "graph.s", "graph.shift_operator.s",
               "spectral.s", "rewiring.s", "rewiring.apply_rewiring.s",
               "models.s", "models.ridge_fit.s", "models.predict.s",
               "evaluation.model_select.s", "cli.main.s")
TRACE_TIMES = ("trace.wall_s", "trace.busy_s")
# Counts that must repeat exactly between passes and runs of one seed.
EXACT_COUNTS = (
    "datasets.load_dataset.calls", "graph.diameter.calls",
    "graph.shift_operator.calls", "kernels.balanced_forman_edges.calls",
    "kernels.balanced_forman_edges.edges", "curvature.edge_curvatures.calls",
    "curvature.edge_curvatures.edges", "spectral.spectral_radius.calls",
    "spectral.spectral_radius.reservoir_calls",
    "spectral.spectral_radius.iterations",
    "spectral.spectral_radius.unconverged", "spectral.spectral_gap.calls",
    "spectral.heat_kernel.calls", "spectral.pagerank_kernel.calls",
    "spectral.effective_resistance.calls", "rewiring.apply_rewiring.calls",
    "rewiring.local_balanced_forman.calls", "rewiring.sdrf.add_ratio",
    "rewiring.grlef.flip_ratio", "models.gesn_init.calls",
    "models.gesn_embed.calls", "models.ridge_fit.calls",
    "models.ridge_fit.pinv_fallbacks", "evaluation.model_select.calls",
    "evaluation.oor")
COMPUTED = (("rewiring.operator_mb", "MB"), ("models.gesn_embed.gflop", "GFLOP"),
            ("models.ridge_fit.gflop", "GFLOP"))


def _unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "trace.named_share":
        return "share"
    return dict(COMPUTED).get(name, "count")


PER_LAYER = (LAYER_TIMES + TRACE_TIMES + ("trace.named_share",) + EXACT_COUNTS
             + tuple(name for name, _ in COMPUTED) + ("trace.varying_counts",))


# ---------------------------------------------------------------------------
# environment

def _llc_bytes() -> str:
    try:
        out = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], text=True,
                             capture_output=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out if out.isdigit() and out != "0" else "unknown"


def environment(jobs: int) -> dict:
    from rewirebench import kernels
    return {"nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
            "jobs": jobs, "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "kernels_backend": kernels.backend(), "llc_bytes": _llc_bytes()}


# ---------------------------------------------------------------------------
# set-up time

SETUP_CODE = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from rewirebench import load_dataset
load_dataset(sys.argv[2])
print(time.perf_counter() - start)
"""


def setup_seconds(data_dir: str) -> float:
    """Import rewirebench and load the dataset once, in a fresh process."""
    out = subprocess.run([sys.executable, "-c", SETUP_CODE, SRC, data_dir],
                         capture_output=True, text=True, timeout=120,
                         check=True)
    return float(out.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# one pass

def _sha(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


def check_outputs(command: str, out_dir: str) -> tuple[dict, list[str]]:
    """Digest an invocation's deterministic outputs; list what is wrong."""
    digests, problems = {}, []
    if os.path.exists(os.path.join(out_dir, "OOR")):
        problems.append("OOR")
    for name in DIGESTED[command]:
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            digests[name] = _sha(path)
        elif name != "baseline_report.csv":
            problems.append(f"missing {name}")
    report = os.path.join(out_dir, "report.csv")
    if command == "run" and os.path.exists(report):
        with open(report, newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != 5 or not all(0.0 <= float(r["metric"]) <= 1.0
                                     for r in rows):
            problems.append("report.csv is not 5 folds of scores in [0, 1]")
    return digests, problems


def run_pass(cli, wl: Workload, data_dir: str, out_root: str,
             tracer=None) -> dict:
    """Run every invocation of the workload once; time, digest and check."""
    main = cli.main if tracer is None else tracer.wrap("cli.main", cli.main)
    times, digests, failures = {}, {}, {}
    for label, args in wl.invocations:
        out_dir = os.path.join(out_root, label)
        argv = args[:1] + ["--dataset", data_dir, "--seed", str(PROGRAM_SEED),
                           "--jobs", str(wl.jobs), "--out", out_dir] + args[1:]
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = main(argv)
            times[label] = time.perf_counter() - start
        found, problems = check_outputs(args[0], out_dir)
        if code != 0:
            problems.insert(0, f"exit code {code}")
        digests.update({f"{label}/{k}": v for k, v in found.items()})
        if problems:
            failures[label] = problems
    shutil.rmtree(out_root, ignore_errors=True)
    return {"times": times, "digests": digests, "failures": failures,
            "tracer": tracer}


def command_seconds(wl: Workload, times: dict) -> dict:
    """Per-command sums of invocation times, and their total."""
    sums = {"run_s": 0.0, "rewire_s": 0.0, "stats_s": 0.0}
    for label, args in wl.invocations:
        sums[f"{args[0]}_s"] += times[label]
    sums["total_s"] = sum(times.values())
    return sums


# ---------------------------------------------------------------------------
# per-layer summary of one traced pass

def layer_metrics(tracer, wall: float) -> dict:
    m = {f"{name}.s": tracer.self_s.get(name, 0.0) for name in SPAN_NAMES}
    for name in SPAN_NAMES:
        layer = name.split(".")[0] + ".s"
        m[layer] = m.get(layer, 0.0) + tracer.self_s.get(name, 0.0)
    c = tracer.counters
    for name in EXACT_COUNTS + tuple(n for n, _ in COMPUTED):
        m[name] = c.get(name, 0)
    for method, edits, ratio in (("sdrf", "adds", "add_ratio"),
                                 ("grlef", "flips", "flip_ratio")):
        iters = c.get(f"rewiring.{method}.iterations", 0)
        m[f"rewiring.{method}.{ratio}"] = (
            c.get(f"rewiring.{method}.{edits}", 0) / iters if iters else 0.0)
    m["trace.wall_s"] = wall
    m["trace.busy_s"] = sum(tracer.self_s.values())
    m["trace.named_share"] = 1.0 - tracer.self_s.get("cli.main", 0.0) / wall
    return m


# ---------------------------------------------------------------------------
# driver

def measure(args, cli, wl: Workload, data_dir: str, work: str):
    """Run passes until --seconds is spent; returns (passes, setup times).

    Untraced runs take a set-up sample before every SETUP_EVERY-th pass, so
    that set-up and passes are sampled across the same stretch of time while
    most of the run goes to passes, and leave room in --seconds to top the
    samples up to MIN_SETUPS at the end. Traced runs alternate passes,
    starting untraced. The first pass warms lazy imports and caches; its
    outputs are checked but its times are left out, so every run makes at
    least two untraced passes.
    """
    kinds = ("untraced", "traced") if args.trace else ("untraced",)
    minimum = 4 if args.trace else 2
    passes, setups = [], []
    log_fh = open(os.path.join(work, "cli.log"), "w")
    logging.basicConfig(level=logging.WARNING, stream=log_fh, force=True)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(log_fh):
            while True:
                kind = kinds[len(passes) % len(kinds)]
                same = [p["wall"] for p in passes if p["kind"] == kind]
                estimate = statistics.median(
                    same or [p["wall"] for p in passes] or [0.0])
                sample = not args.trace and len(passes) % SETUP_EVERY == 0
                if setups:
                    estimate += statistics.median(setups) * max(
                        int(sample), MIN_SETUPS - len(setups))
                elapsed = time.perf_counter() - start
                if len(passes) >= minimum and elapsed + estimate > args.seconds:
                    break
                if sample:
                    setups.append(setup_seconds(data_dir))
                out_root = os.path.join(work, f"pass{len(passes)}")
                if kind == "traced":
                    with Tracer() as tracer:
                        result = run_pass(cli, wl, data_dir, out_root, tracer)
                else:
                    result = run_pass(cli, wl, data_dir, out_root)
                result["kind"] = kind
                result["wall"] = sum(result["times"].values())
                passes.append(result)
            while not args.trace and len(setups) < MIN_SETUPS:
                setups.append(setup_seconds(data_dir))
    finally:
        logging.shutdown()
        log_fh.close()
    return passes, setups


def generate_dataset(wl: Workload, name: str, seed: int, root: str) -> dict:
    make = {"sbm": generate.sbm_node_task,
            "collection": generate.graph_collection}[wl.dataset]
    return make(os.path.join(root, name), seed, **wl.sizes)


def load_references() -> dict:
    if not os.path.exists(REFERENCES):
        return {}
    with open(REFERENCES) as fh:
        return json.load(fh)


def combined(digests: dict) -> str:
    text = "".join(f"{k}={v}\n" for k, v in sorted(digests.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def parse_args(argv):
    p = argparse.ArgumentParser(description="rewirebench pipeline benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "rewirebench")):
        print(f"rewirebench sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import rewirebench.cli as cli

    wl = WORKLOADS[args.workload]
    jobs = min(wl.jobs, len(os.sched_getaffinity(0)))
    wl = dataclasses.replace(wl, jobs=jobs)
    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    facts = generate_dataset(wl, args.workload, args.seed,
                             os.path.join(work, "data"))
    data_dir = os.path.join(work, "data", args.workload)
    env = environment(jobs)
    print(f"workload {args.workload} seed {args.seed}: {json.dumps(facts)}")
    print(f"environment: {json.dumps(env, sort_keys=True)}")

    passes, setups = measure(args, cli, wl, data_dir, work)

    # ---- correctness: exit codes, outputs, references or determinism
    refs = load_references()
    ref = refs.get("digests", {}).get(args.workload) \
        if refs.get("seed") == args.seed else None
    first = passes[0]["digests"]
    expected = first if ref is None else ref
    print(f"digest {args.workload} seed {args.seed}: {combined(first)} "
          + ("(no stored reference for this seed; passes compared with "
             "each other)" if ref is None else
             "(matches stored reference)" if ref == first else
             "(DIFFERS from stored reference)"))
    for key, value in sorted(first.items()):
        print(f"  {key} {value}")
    attempted = len(passes) * len(wl.invocations)
    failures = []
    for i, p in enumerate(passes):
        for label, _ in wl.invocations:
            problems = list(p["failures"].get(label, []))
            keys = {k for k in set(p["digests"]) | set(expected)
                    if k.startswith(label + "/")}
            changed = sorted(k for k in keys
                             if p["digests"].get(k) != expected.get(k))
            if changed:
                problems.append(f"outputs differ: {changed}")
            if problems:
                failures.append(f"pass {i} {label}: {'; '.join(problems)}")
    failed = len(failures)
    for f in failures:
        print(f"FAILED: {f}")

    # ---- end-to-end metrics (untraced passes)
    # The first pass is a warm-up: checked above, not timed.
    untraced = [p["times"] for p in passes if p["kind"] == "untraced"][1:]
    middle = {label: statistics.median(t[label] for t in untraced)
              for label, _ in wl.invocations}
    e2e = command_seconds(wl, middle)
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    e2e["failed_share"] = failed / attempted
    if setups:
        e2e["setup_s"] = statistics.median(setups)
        print(f"setup samples {[round(s, 3) for s in setups]} s")
    print(f"passes {len(passes)} ({sum(p['kind'] == 'traced' for p in passes)} traced), "
          f"invocations attempted {attempted}, failed {failed}; pass walls "
          f"{[round(p['wall'], 3) for p in passes]} s")
    for label, mid in middle.items():
        times = [t[label] for t in untraced]
        print(f"  {label:14s} best {min(times):9.4f} s, median "
              f"{mid:9.4f} s, worst {max(times):9.4f} s of {len(times)}: "
              f"{[round(t, 4) for t in times]}")
    for k, v in e2e.items():
        unit = {"peak_rss_mb": "MB", "failed_share": "share"}.get(k, "s")
        print(f"{k:14s} {v:12.4f} {unit}")

    metrics = {}
    if args.trace:
        wall = statistics.median(sum(t.values()) for t in untraced)
        metrics = traced_metrics(args, passes, wall, refs)
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def traced_metrics(args, passes, untraced_wall: float, refs: dict) -> dict:
    traced = [layer_metrics(p["tracer"], p["wall"]) for p in passes
              if p["kind"] == "traced"]
    varying = [k for k in EXACT_COUNTS if len({t[k] for t in traced}) > 1]
    summary = {k: statistics.median_low(t[k] for t in traced) for k in traced[0]}
    summary["trace.varying_counts"] = len(varying)
    for k in varying:
        print(f"FLAG: count {k} varies between traced passes: "
              f"{[t[k] for t in traced]}")
    ref = refs.get("counts", {}).get(args.workload) \
        if refs.get("seed") == args.seed else None
    for k in EXACT_COUNTS:
        if ref is not None and k in ref and ref[k] != summary[k]:
            print(f"FLAG: count {k} is {summary[k]}, stored reference {ref[k]}")
    print(f"per-layer (median of {len(traced)} traced passes; self time excludes "
          "child spans; GFLOP and MB computed from shapes):")
    for k in sorted(summary):
        print(f"  {k:44s} {summary[k]:14.6g} {_unit(k)}")
    if summary["trace.named_share"] < NAMED_SHARE_FLOOR:
        print(f"FLAG: only {summary['trace.named_share']:.3f} of the traced "
              f"wall time is in named spans (floor {NAMED_SHARE_FLOOR})")
    # Traced minus untraced median wall: printed for reference only, since it is
    # the difference of two noisy figures and can come out negative.
    overhead = summary["trace.wall_s"] - untraced_wall
    print(f"  {'trace.overhead_s':44s} {overhead:14.6g} s (not a steady figure)")
    summary["trace.overhead_s"] = overhead
    with open(os.path.join(WORK, args.workload, "trace.json"), "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    return {k: {"value": summary[k], "unit": _unit(k)} for k in PER_LAYER}


if __name__ == "__main__":
    sys.exit(main())
