"""Command line front end: dataset statistics, rewiring with diagnostics,
and full experiment runs.

Exit codes: 0 success, 2 input error, 3 budget exceeded (OOR),
4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import logging
import os
import sys

import numpy as np

from .curvature import (curvature_delta, curvature_distribution,
                        write_delta_csv, write_histogram_csv)
from .datasets import load_dataset
from .errors import Budget, BudgetExceeded, InputError
from .evaluation import (ExperimentReport, GraphTask, NodeTask, SearchSpace,
                         model_select, significance)
from .graph import Graph, dataset_stats
from .rewiring import (METHODS, Normalization, RewireConfig, apply_rewiring,
                       write_edit_log)
from .spectral import spectral_gap

log = logging.getLogger(__name__)


def _config_hash(payload: dict) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode()).hexdigest()[:16]


def _write_manifest(out_dir: str, config: dict, artifacts: list[str]) -> None:
    manifest = {"config": config, "config_hash": _config_hash(config),
                "artifacts": sorted(artifacts)}
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _load_task(path: str, fmt: str):
    data = load_dataset(path, fmt)
    name = os.path.basename(os.path.normpath(path))
    if isinstance(data, Graph):
        metric = "accuracy"
        if data.labels is not None:
            counts = np.unique(data.labels, return_counts=True)[1]
            if len(counts) == 2 and counts.min() / counts.max() < 0.5:
                metric = "auroc"   # unbalanced binary node task
        return NodeTask(graph=data, metric=metric, name=name)
    graphs, labels = data
    if labels is None:
        raise InputError(f"graph collection {path} has no labels")
    return GraphTask(graphs=graphs, labels=labels, name=name)


def _check_common(args) -> None:
    """Refuse values of the options every command takes that argparse
    accepts but the program cannot use."""
    if args.seed < 0:
        raise InputError(f"--seed must be non-negative, not {args.seed}")
    if args.jobs < 1:
        raise InputError(f"--jobs must be at least 1, not {args.jobs}")
    Budget(args.budget_seconds)   # refuses a NaN or negative budget


def _rewire_config(args) -> RewireConfig:
    return RewireConfig(
        method=args.rewire, t=args.t, alpha=args.alpha,
        iteration_fraction=args.fraction, tau=args.tau, seed=args.seed,
        diffusion_norm=Normalization(args.diffusion_norm))


def cmd_stats(args) -> int:
    stats = dataset_stats(load_dataset(args.dataset, args.format))
    rows = [("graphs", stats.num_graphs),
            ("nodes", f"{stats.nodes:g}"),
            ("edges", f"{stats.edges:g}"),
            ("average_degree", f"{stats.average_degree:.2f}"),
            ("diameter", f"{stats.diameter:.2f}"),
            ("node_features", stats.num_features),
            ("classes", stats.num_classes),
            ("edge_homophily",
             "n/a" if stats.edge_homophily is None
             else f"{stats.edge_homophily:.2f}")]
    for key, val in rows:
        print(f"{key:16s} {val}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "stats.csv")
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["field", "value"])
            w.writerows(rows)
        _write_manifest(args.out, {"command": "stats", "dataset": args.dataset,
                                   "format": args.format}, ["stats.csv"])
    return 0


def cmd_rewire(args) -> int:
    g = load_dataset(args.dataset, args.format)
    if not isinstance(g, Graph):
        raise InputError("rewire command expects a single-graph dataset")
    if g.num_nodes < 2:   # refused before any file is written
        raise InputError(f"rewire needs at least 2 nodes for the spectral "
                         f"gap, not {g.num_nodes}")
    config = _rewire_config(args)
    os.makedirs(args.out, exist_ok=True)
    try:
        rewired = apply_rewiring(g, config, Budget(args.budget_seconds))
    except BudgetExceeded:
        with open(os.path.join(args.out, "OOR"), "w") as fh:
            fh.write(f"method {config.method} exceeded {args.budget_seconds}s\n")
        raise

    artifacts = []
    if rewired.operator is not None:
        np.save(os.path.join(args.out, "kernel.npy"),
                rewired.operator.toarray())
        artifacts.append("kernel.npy")
    np.savetxt(os.path.join(args.out, "rewired_edges.tsv"),
               rewired.graph.edges, fmt="%d", delimiter="\t")
    artifacts.append("rewired_edges.tsv")
    write_edit_log(rewired.edit_log, os.path.join(args.out, "edit_log.tsv"))
    artifacts.append("edit_log.tsv")

    same = rewired.graph is g   # kernel methods and baseline keep the edges
    before = curvature_distribution(g)
    after = before if same else curvature_distribution(rewired.graph)
    write_histogram_csv(before, os.path.join(args.out, "curvature_before.csv"))
    write_histogram_csv(after, os.path.join(args.out, "curvature_after.csv"))
    delta = curvature_delta(g, rewired.graph, before.values, after.values)
    write_delta_csv(delta, os.path.join(args.out, "curvature_delta.csv"))
    artifacts += ["curvature_before.csv", "curvature_after.csv",
                  "curvature_delta.csv"]

    with open(os.path.join(args.out, "spectral.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["gap_before", "gap_after"])
        gap = spectral_gap(g)
        gap_after = gap if same else spectral_gap(rewired.graph)
        w.writerow([f"{gap:.10g}", f"{gap_after:.10g}"])
    artifacts.append("spectral.csv")

    _write_manifest(args.out, {"command": "rewire", "dataset": args.dataset,
                               "format": args.format, "rewire": config.__dict__,
                               "budget_seconds": args.budget_seconds}, artifacts)
    print(f"rewired with {config.method}: |E| {g.num_edges} -> "
          f"{rewired.graph.num_edges}; {len(delta.edges)} common edges, "
          f"{delta.worsened} with negative curvature delta")
    return 0


def _write_report_csv(report: ExperimentReport, path: str) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["fold", "metric", "val_metric", "selected"])
        for f in report.folds:
            w.writerow([f.fold, f"{f.metric:.10g}", f"{f.val_metric:.10g}",
                        json.dumps(f.selected, sort_keys=True)])


def cmd_run(args) -> int:
    task = _load_task(args.dataset, args.format)
    config = _rewire_config(args)
    space = {"tiny": SearchSpace.tiny(), "default": SearchSpace(),
             "full": SearchSpace.full()}[args.grid]
    os.makedirs(args.out, exist_ok=True)
    artifacts = []

    report = model_select(task, args.model, config, space, seed=args.seed,
                          budget_seconds=args.budget_seconds, jobs=args.jobs)
    _write_report_csv(report, os.path.join(args.out, "report.csv"))
    artifacts.append("report.csv")

    lines = []
    marker = ""
    oor = report.oor
    if config.method != "baseline" and not oor:
        base = model_select(task, args.model, RewireConfig(seed=args.seed),
                            space, seed=args.seed,
                            budget_seconds=args.budget_seconds, jobs=args.jobs)
        _write_report_csv(base, os.path.join(args.out, "baseline_report.csv"))
        artifacts.append("baseline_report.csv")
        if base.oor:
            oor = True
            lines.append(f"baseline  {args.model}  {task.name}  OOR")
        else:
            p, flag = significance([f.metric for f in base.folds],
                                   [f.metric for f in report.folds])
            marker = {"better": " (+)", "worse": " (-)", "none": ""}[flag]
            lines.append(f"baseline  {args.model}  {task.name}  "
                         f"{100 * base.mean:.2f} +/- {100 * base.std:.2f}")
            lines.append(f"significance p={p:.4g}{marker or ' (none)'}")
    if report.oor:
        lines.append(f"{config.method}  {args.model}  {task.name}  OOR")
    else:
        lines.append(f"{config.method}  {args.model}  {task.name}  "
                     f"{100 * report.mean:.2f} +/- {100 * report.std:.2f}"
                     f"{marker}")
    summary = "\n".join(lines) + "\n"
    with open(os.path.join(args.out, "summary.txt"), "w") as fh:
        fh.write(summary)
    artifacts.append("summary.txt")
    with open(os.path.join(args.out, "timing.txt"), "w") as fh:
        fh.write(f"wall_clock_seconds {report.wall_clock:.3f}\n")
    artifacts.append("timing.txt")

    _write_manifest(args.out, {
        "command": "run", "dataset": args.dataset, "format": args.format,
        "model": args.model, "rewire": config.__dict__, "grid": args.grid,
        "seed": args.seed, "budget_seconds": args.budget_seconds}, artifacts)
    print(summary, end="")
    return 3 if oor else 0


# each subcommand's options in order, keyed by flag; a --config key names one
_COMMON = {
    "dataset": {"required": True},
    "format": {"choices": ("canonical", "tudataset"), "default": "canonical"},
    "seed": {"type": int, "default": 0},
    "jobs": {"type": int, "default": os.cpu_count() or 1},
    "budget-seconds": {"type": float, "default": 3600.0},
}
_REWIRE = {
    "rewire": {"choices": METHODS, "default": "baseline"},
    "t": {"type": float, "default": 1.0},
    "alpha": {"type": float, "default": 0.1},
    "fraction": {"type": float, "default": 0.1},
    "tau": {"type": float, "default": 0.5},
    "diffusion-norm": {"choices": [n.value for n in Normalization],
                       "default": "rw"},
}
_COMMANDS = {
    "stats": ("dataset statistics table", {**_COMMON, "out": {}}),
    "rewire": ("rewire a graph and emit diagnostics",
               {**_COMMON, "out": {"default": "rewire_out"}, **_REWIRE}),
    "run": ("full evaluation pipeline",
            {**_COMMON, "out": {"default": "run_out"}, **_REWIRE,
             "model": {"choices": ("sgc", "gesn"), "default": "sgc"},
             "grid": {"choices": ("tiny", "default", "full"),
                      "default": "default"}}),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser, shared by every call in the process: never change it."""
    # no abbreviations here or in a subcommand: `--conf path` would parse,
    # but only `--config` is read, and a config key is never abbreviated
    parser = argparse.ArgumentParser(
        prog="rewirebench", allow_abbrev=False,
        description="Graph rewiring benchmark with training-free models")
    parser.add_argument("--config", help="key=value config file (flags win)")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=text, allow_abbrev=False)
        for name, kwargs in options.items():
            p.add_argument(f"--{name}", **kwargs)
    return parser


def _config_flags(argv: list[str]) -> list[str]:
    """argv with each `key=value` line of its `--config path` (or
    `--config=path`) file that the chosen subcommand takes as the flag
    `--key=value` right after the subcommand's name, so argparse checks it
    and later flags win. A key that no subcommand takes is an input error;
    one that only other subcommands take is dropped."""
    for i, arg in enumerate(argv):
        if arg == "--config":
            if i + 1 == len(argv):
                raise InputError("--config needs a file path")
            path, rest = argv[i + 1], i + 2
            break
        if arg.startswith("--config="):
            path, rest = arg[len("--config="):], i + 1
            break
    else:
        return argv
    try:
        with open(path) as fh:
            lines = [line.strip() for line in fh]
    except OSError as exc:
        raise InputError(f"cannot read config file {path}: {exc}") from exc
    flags = []
    for line in lines:
        if line and not line.startswith("#"):
            key, _, val = (part.strip() for part in line.partition("="))
            name = key.replace("_", "-")
            if not any(name in opts for _, opts in _COMMANDS.values()):
                raise InputError(f"config file {path}: unknown key {key!r}")
            flags.append((name, val))
    # the subcommand is its first name after the path; argparse reports none
    at = next((j for j in range(rest, len(argv)) if argv[j] in _COMMANDS),
              None)
    if at is None:
        return argv
    return [*argv[:at + 1], *(f"--{name}={val}" for name, val in flags
                              if name in _COMMANDS[argv[at]][1]),
            *argv[at + 1:]]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    logging.basicConfig(level=logging.WARNING)
    try:
        args = build_parser().parse_args(_config_flags(argv))
        _check_common(args)
        if args.command == "stats":
            return cmd_stats(args)
        if args.command == "rewire":
            return cmd_rewire(args)
        return cmd_run(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # internal invariant violation
        log.exception("internal error")
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
