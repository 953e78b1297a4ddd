"""Command-line interface for the experiment harness.

Subcommands mirror the workflow: collect a dataset, run a task with either
controller, compare controllers side by side, or check a dataset's
excitation order. Every subcommand takes --config, --seed, and --out; runs
are fully reproducible from those three.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import load_config
from .experiments import (
    collect_dataset,
    compare_controllers,
    run_circle,
    run_fixed_point,
)
from .hankel import is_persistently_exciting
from .runlog import export_run, load_dataset, save_dataset


def _add_common(parser: argparse.ArgumentParser, out_default: str):
    parser.add_argument("--config", type=Path, default=None,
                        help="key = value config file (defaults used if omitted)")
    parser.add_argument("--seed", type=int, default=1, help="run seed")
    parser.add_argument("--out", type=Path, default=Path(out_default),
                        help="output directory")


def _add_run_options(parser: argparse.ArgumentParser):
    parser.add_argument("--controller", choices=("deepc", "baseline"),
                        default="deepc", help="controller to run")
    parser.add_argument("--dataset", type=Path, default=None,
                        help="dataset CSV (collected with seed 0 if omitted)")
    parser.add_argument("--nominal", action="store_true",
                        help="disable plant disturbances and noise")
    parser.add_argument("--svg", action="store_true",
                        help="also write an x-y trajectory plot")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="softdeepc",
        description="Data-driven predictive control experiments on a soft-arm simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("collect", help="collect an open-loop excitation dataset")
    _add_common(p, "runs/collect")
    p.add_argument("--task", choices=("fixed-point", "circle"),
                   default="fixed-point",
                   help="task whose operating points the dither excitation targets")

    p = sub.add_parser("fixed-point", help="hold a sequence of posture targets")
    _add_common(p, "runs/fixed_point")
    _add_run_options(p)

    p = sub.add_parser("track-circle", help="trace a circle of tip waypoints")
    _add_common(p, "runs/circle")
    _add_run_options(p)

    p = sub.add_parser("compare", help="run both controllers on the same task")
    _add_common(p, "runs/compare")
    p.add_argument("--task", choices=("fixed-point", "circle"),
                   default="fixed-point", help="task to compare on")
    p.add_argument("--dataset", type=Path, default=None,
                   help="dataset CSV (collected with seed 0 if omitted)")
    p.add_argument("--nominal", action="store_true",
                   help="disable plant disturbances and noise")

    p = sub.add_parser("check-pe", help="check a dataset's excitation order")
    _add_common(p, "runs/check_pe")
    p.add_argument("--dataset", type=Path, required=True, help="dataset CSV to check")

    return parser


def _load_dataset_arg(args, cfg, task: str = "fixed_point"):
    if getattr(args, "dataset", None) is not None:
        return load_dataset(args.dataset)
    return collect_dataset(cfg, seed=0, task=task)


def _print_metrics(metrics: dict):
    print(f"steps: {metrics['steps']}  (warm-up excluded: {metrics['warmup_steps']})")
    print(f"rmse: {metrics['rmse_mm']:.4f} mm   max error: {metrics['max_error_mm']:.4f} mm")
    print(f"mean solve time: {metrics['mean_solve_time_ms']:.3f} ms")
    for i, stage in enumerate(metrics["stages"], start=1):
        print(
            f"stage {i} (phi {stage['phi_ref_deg']:g} deg, gamma "
            f"{stage['gamma_ref_deg']:g} deg): steady-state "
            f"{stage['steady_state_error_mm']:.4f} mm, settled in "
            f"{stage['settling_steps']} steps, angle errors "
            f"{stage['phi_err_deg']:.3f} / {stage['gamma_err_deg']:.3f} deg"
        )


def _check_excitation(dataset, order: int) -> tuple[bool, str]:
    """(exciting, report line) for the dataset's inputs at this order."""
    exciting, rank = is_persistently_exciting(dataset.inputs, order)
    return exciting, (f"excitation order {order}: rank {rank} of "
                      f"{dataset.input_dim * order}")


def _cmd_collect(args) -> int:
    cfg = load_config(args.config)
    dataset = collect_dataset(cfg, seed=args.seed, task=args.task.replace("-", "_"))
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / "dataset.csv"
    save_dataset(path, dataset)
    exciting, line = _check_excitation(dataset, cfg.pe_order())
    print(f"collected {dataset.length} samples -> {path}")
    print(f"{line} ({'ok' if exciting else 'NOT exciting'})")
    return 0


def _cmd_run(args, task: str) -> int:
    cfg = load_config(args.config)
    dataset = _load_dataset_arg(args, cfg, task) if args.controller == "deepc" else None
    runner = run_fixed_point if task == "fixed_point" else run_circle
    log = runner(cfg, controller=args.controller, seed=args.seed,
                 dataset=dataset, disturbed=not args.nominal)
    metrics = export_run(log, args.out, write_svg=args.svg)
    print(f"{task} run ({args.controller}, seed {args.seed}) -> {args.out}")
    _print_metrics(metrics)
    if args.controller == "deepc":
        fallbacks = sum(1 for s in log.statuses if s != "optimal")
        if fallbacks:
            print(f"warning: {fallbacks} solver fallback steps")
    return 0


def _cmd_compare(args) -> int:
    cfg = load_config(args.config)
    task = args.task.replace("-", "_")
    dataset = _load_dataset_arg(args, cfg, task)
    result = compare_controllers(cfg, task=task, seed=args.seed,
                                 dataset=dataset, disturbed=not args.nominal)
    for kind, log in result["logs"].items():
        export_run(log, args.out / kind)
    print(f"compared controllers on {task} (seed {args.seed}) -> {args.out}")
    print(result["table"])
    return 0


def _cmd_check_pe(args) -> int:
    cfg = load_config(args.config)
    dataset = load_dataset(args.dataset)
    exciting, line = _check_excitation(dataset, cfg.pe_order())
    print(f"{args.dataset}: {dataset.length} samples, {dataset.input_dim} channels")
    print(line)
    if not exciting:
        print("dataset is NOT persistently exciting at this order; collect a "
              "longer or richer signal", file=sys.stderr)
        return 1
    print("dataset is persistently exciting")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "collect":
            return _cmd_collect(args)
        if args.command == "fixed-point":
            return _cmd_run(args, "fixed_point")
        if args.command == "track-circle":
            return _cmd_run(args, "circle")
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "check-pe":
            return _cmd_check_pe(args)
        raise AssertionError(f"unhandled command {args.command}")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
