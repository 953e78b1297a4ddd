#!/usr/bin/env python3
"""Closed-loop DeePC benchmark: set-up time, per-step control latency, accuracy.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload fixed_point --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py                  # every gated workload, each in a fresh process

A run pays lazy initialisation with one untimed set-up and a few closed-loop
steps. It then collects its dataset and plays one whole closed-loop episode
after another on the same inputs, at least workloads.TAIL_REPEATS of them,
and goes on while more than half an episode's time is left of --seconds.
Before each episode it times SETUPS_PER_EPISODE set-ups on its own seeds
(collect the dataset, build the controller), so that set-up time is sampled
across the whole measuring time, as the steps are. Every episode's output
is checked, and each must reproduce the first one's outputs exactly. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
``perfbench/out/`` receives the full record of each run.

``--trace 1`` records spans at the softdeepc layer boundaries (see
tracing.py) over SETUP_REPEATS set-ups, then runs the first input set untraced and
again traced. It checks that tracing changed no arithmetic, prints each
layer's self time and the tracing overhead, and writes the spans to
``perfbench/out/``.

``--seed n`` is the seed argument every benchmark run is given: it sets the
dataset seed to n and the plant-noise seed to n + 1, so the default 0 gives
the acceptance suite's seeds (0, 1). ``--dataset-seed`` and ``--plant-seed``
override either. Output files are named by the dataset and plant seeds.
"""

import os

# One BLAS thread: the single-threaded baseline, and on a small shared
# machine it keeps the scheduler out of the step latency. This has to
# happen before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUPS_PER_EPISODE = 2  # timed set-ups before each untraced episode
SETUP_REPEATS = 5       # traced set-ups
TAIL_BEYOND = 10  # samples one episode must leave above the tail percentile
PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)

END_TO_END_UNITS = {
    "setup_s": "s",
    "steps_per_s": "1/s",
    "step_ms_p50": "ms",
    "step_ms_tail": "ms",
    "rmse_mm": "mm",
    "peak_rss_mb": "MB",
}
# Printed by every run. BENCHMARK.json lists them with the per-layer metrics:
# they read 0 on most workloads, so they cannot carry a relative bound.
RATE_UNITS = {"deadline_miss_frac": "ratio", "fallback_frac": "ratio"}


def import_softdeepc():
    """Import softdeepc from this checkout's sources, and from nowhere else."""
    package = SRC / "softdeepc"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no softdeepc sources at {package}; "
                 "run from the root of a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import softdeepc
    if Path(softdeepc.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported softdeepc from {softdeepc.__file__}, "
                 f"not from {package}")
    return softdeepc


def tail_percentile(steps_per_episode: int) -> float:
    """Highest listed percentile leaving TAIL_BEYOND steps of one episode above it.

    The tail has one value per step of the episode, so the percentile
    depends on the episode length only.
    """
    for pct in PERCENTILES:
        if steps_per_episode * (100.0 - pct) / 100.0 >= TAIL_BEYOND:
            return pct
    return PERCENTILES[-1]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(dataset_seed: int, plant_seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy without dict-mode show_config
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "platform": platform.platform(),
        "dataset_seed": dataset_seed,
        "plant_seed": plant_seed,
    }


def metric_dict(values: dict, units: dict) -> dict:
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}


def measure(args) -> dict:
    """One workload in this process; returns the full record of the run."""
    import numpy as np

    import softdeepc
    import tracing
    import workloads as bench

    workload = bench.WORKLOADS[args.workload]
    cfg = workload.config(smoke=args.smoke)
    dseed, pseed = args.dataset_seed, args.plant_seed

    dataset = bench.set_up(cfg, workload.task, dseed)
    bench.warm_up(cfg, pseed, dataset)

    setup_s = []

    def timed_set_up():
        t0 = time.perf_counter()
        bench.set_up(cfg, workload.task, dseed)
        setup_s.append(time.perf_counter() - t0)

    untraced = bench.Episodes(workload, cfg)
    tail_pct = tail_percentile(untraced.planned)
    record = {"workload": workload.name, "trace": args.trace, "smoke": args.smoke,
              "seconds": args.seconds, "env": environment(dseed, pseed),
              "setup_s_all": setup_s, "tail_percentile": tail_pct}

    if not args.trace:
        inputs = untraced.prepare(dseed, pseed)
        start = time.perf_counter()
        while True:
            for _ in range(SETUPS_PER_EPISODE):
                timed_set_up()
            untraced.run(*inputs)
            done = untraced.episodes
            elapsed = time.perf_counter() - start
            if done >= bench.TAIL_REPEATS and elapsed + elapsed / done / 2 > args.seconds:
                break
        summary = untraced.summary(tail_pct)
        summary["setup_s"] = float(np.median(setup_s))
        summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        record.update(
            episodes=untraced.episodes, steps=untraced.steps,
            problems=untraced.problems,
            attempted=untraced.attempted, failed=untraced.failed,
            metrics=metric_dict(summary, {**END_TO_END_UNITS, **RATE_UNITS}),
            reported=list(END_TO_END_UNITS),
        )
        return record

    tracer = tracing.Tracer()
    with tracer.installed(softdeepc):
        for _ in range(SETUP_REPEATS):
            with tracer.region("bench.setup"):
                timed_set_up()

    # The run's own seeds, untraced and then traced: the two must agree.
    inputs = untraced.prepare(dseed, pseed)
    untraced.run(*inputs)
    reference = untraced.summary(tail_pct)
    traced = bench.Episodes(workload, cfg)
    with tracer.installed(softdeepc), tracer.region("bench.episode"):
        traced.run(*inputs)
    layered = traced.summary(tail_pct)
    problems = untraced.problems + traced.problems
    for key in ("rmse_mm", "fallback_frac"):
        if layered[key] != reference[key]:
            problems.append(f"traced {key} {layered[key]!r} differs from "
                            f"untraced {reference[key]!r}")
    metrics = tracing.layer_metrics(tracer.spans, tail_pct)
    metrics.update(metric_dict(layered, RATE_UNITS))
    metrics["trace.overhead_frac"] = {
        "value": reference["steps_per_s"] / layered["steps_per_s"] - 1.0, "unit": "ratio"}
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{workload.name}-{seed_tag(args)}.json"
    with open(span_file, "w") as f:
        json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "step", "counters"],
                   "workload": workload.name, "env": record["env"],
                   "spans": tracer.spans}, f)
    record.update(
        episodes=2, steps=untraced.steps + traced.steps, problems=problems,
        attempted=untraced.attempted + traced.attempted,
        failed=untraced.failed + traced.failed,
        metrics=metrics, reported=list(metrics),
        untraced=reference, traced=layered,
        self_time=tracing.self_time_table(tracer.spans),
        span_file=str(span_file.relative_to(HERE.parent)),
    )
    return record


def print_record(record: dict) -> None:
    print(f"workload {record['workload']}  trace {record['trace']}  "
          f"episodes {record['episodes']}  steps {record['steps']}")
    print("env " + json.dumps(record["env"], sort_keys=True))
    for name, metric in record["metrics"].items():
        print(f"  {name:28s} {metric['value']:14.6g} {metric['unit']}")
    print(f"  the tail is p{record['tail_percentile']:g} over the steps of one episode, "
          f"which leaves {TAIL_BEYOND} or more steps above it; the median and the "
          f"rate pool {record['steps']} steps")
    if record["trace"]:
        print("self time per layer, over the traced set-ups and episode:")
        print(f"  {'layer':24s} {'calls':>8s} {'total ms':>12s} {'self ms':>12s}")
        for row in record["self_time"]:
            print(f"  {row['layer']:24s} {row['calls']:8d} {row['total_ms']:12.2f} "
                  f"{row['self_ms']:12.2f}")
        print(f"tracing overhead {record['metrics']['trace.overhead_frac']['value']:+.2%} "
              f"(untraced {record['untraced']['steps_per_s']:.2f} steps/s, traced "
              f"{record['traced']['steps_per_s']:.2f}); spans in {record['span_file']}")
    for problem in record["problems"]:
        print("CHECK FAILED: " + problem)


def result_line(record: dict) -> str:
    return json.dumps({
        "correct": record["failed"] == 0 and not record["problems"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: record["metrics"][name] for name in record["reported"]},
    })


def seed_tag(args) -> str:
    """The part of an output file's name that identifies the run's inputs."""
    return f"d{args.dataset_seed}-p{args.plant_seed}"


def run_all(args) -> int:
    """Each gated workload in a fresh process, so memory and warm caches do not
    carry over. The ungated ones run only when named."""
    import workloads as bench

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in bench.GATED:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--dataset-seed", str(args.dataset_seed),
               "--plant-seed", str(args.plant_seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(child.stdout, end="", flush=True)
        if child.returncode != 0:
            print(f"perfbench: workload {name} exited with {child.returncode}",
                  file=sys.stderr)
            return child.returncode
        result = json.loads(child.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="a workload name, or 'all' (default): each workload "
                             "BENCHMARK.json lists, in its own process")
    parser.add_argument("--seed", type=int, default=0,
                        help="dataset seed n and plant-noise seed n + 1 (default 0)")
    parser.add_argument("--dataset-seed", type=int, help="default: --seed")
    parser.add_argument("--plant-seed", type=int, help="default: --seed + 1")
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="measuring time; sets the number of episodes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrunken inputs that only exercise the code paths")
    args = parser.parse_args(argv)
    if args.dataset_seed is None:
        args.dataset_seed = args.seed
    if args.plant_seed is None:
        args.plant_seed = args.seed + 1
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    import_softdeepc()
    sys.path.insert(0, str(HERE))
    import workloads as bench

    if args.workload == "all":
        return run_all(args)
    if args.workload not in bench.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(bench.WORKLOADS)} or all")
    record = measure(args)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-{seed_tag(args)}-trace{args.trace}.json", "w") as f:
        json.dump(record, f, indent=1)
    print_record(record)
    print(result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
