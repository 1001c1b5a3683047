"""Benchmark of the certified pipeline: set-up, offline greedy, surrogate
training and a certified online query stream (see README.md).

    python3 perfbench/run.py --workload heat-paper --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps every
layer's public functions and reports the per-layer metrics.  Every metric is
printed by name with its unit; the last line of standard output is one JSON
object.  A run record (and, when traced, the spans) is written to
``perfbench/out/``.
"""

import time

T_PROCESS = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import env  # noqa: E402  (thread pins and import path, before numpy)
import numpy as np  # noqa: E402

import machine  # noqa: E402
import metrics  # noqa: E402
import pipeline  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5


def setup_probes(workload, seed, clock, count=SETUP_PROBES):
    """Seconds from process start to a finished set-up, in fresh
    interpreters: a list of ``(wall, corrected)`` pairs."""
    cmd = [sys.executable, str(env.BENCH_DIR / "setup_probe.py"), workload.name, str(seed)]

    def start():
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        return proc, proc.stdout.readline()

    times = []
    for _ in range(count):
        (proc, line), wall, corrected = clock.call(start)
        with proc:
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise pipeline.StageFailed(f"set-up probe exited with {proc.returncode}")
        times.append((wall, corrected))
    return times


def _quantiles(values):
    if not values:
        return None
    return dict(zip(("min", "p10", "median", "p90", "max"),
                    np.percentile(values, [0, 10, 50, 90, 100]).tolist()), count=len(values))


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "tolist"):
        return value.tolist()
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="online budget: another query round starts only if "
                             "it should end within this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    env.OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    tr = tracing.Tracer().install() if args.trace else tracing.NullTracer()
    clock = machine.WallClock() if args.trace else machine.SpeedMeter()
    workdir = tempfile.mkdtemp(prefix=stem + "-", dir=env.OUT_DIR)
    try:
        probes = [] if args.trace else setup_probes(workload, args.seed, clock)
        with clock.sampling():
            res = pipeline.run(workload, args.seed, args.seconds, workdir, tr, clock)
    except pipeline.StageFailed as exc:
        print(f"perfbench: a stage failed:\n{exc}", file=sys.stderr)
        return 1
    finally:
        if args.trace:
            tr.remove()
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = dict(
        workload=workload.name, seed=args.seed, seconds=args.seconds,
        trace=args.trace, config=dataclasses.asdict(res.config),
        test_parameters=res.test_set, rounds=res.rounds, environment=env.describe(),
        operations=dict(attempted=res.ops.attempted, failed=res.ops.failed,
                        errors=res.ops.errors),
        check_failures=res.failures, stage_s=res.stage_s, fit_s=res.fit_s,
        query_samples_s=res.query_s, setup_probes_s=probes, facts=res.facts,
        calls_wall_and_corrected_s=res.ops.calls,
        reference_kernel_s=_quantiles([s for _, s in clock.samples]),
        certificates=res.certificates,
    )
    if args.trace:
        found = metrics.per_layer(res, tr)
        record["self_time_s"] = metrics.self_time_table(tr)
        record["spans_file"] = str((env.OUT_DIR / f"{stem}-spans.json").relative_to(env.ROOT))
        tr.write(env.OUT_DIR / f"{stem}-spans.json", origin=T_PROCESS)
    else:
        found = metrics.end_to_end(res, probes, peak_rss_mb)
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in found.items()}
    correct = not res.failures
    record["correct"] = correct
    with open(env.OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(_jsonable(record), fh, indent=1)

    for failure in res.failures[:20]:
        print(f"CHECK FAILED: {failure}")
    if args.trace:
        for stage, row in record["self_time_s"].items():
            parts = ", ".join(f"{k} {v:.4f}" for k, v in sorted(row["self_s"].items()))
            print(f"self time [{stage}] wall {row['wall_s']:.4f} s = {parts} "
                  f"(unaccounted {row['unaccounted_s']:.2e} s)")
    for name, (value, unit) in found.items():
        print(f"{name:36s} {value:.6g} {unit}")
    print(f"rounds {res.rounds}, attempted {res.ops.total('attempted')}, "
          f"failed {res.ops.total('failed')}, record {env.OUT_DIR.name}/{stem}.json")
    print(json.dumps({
        "correct": correct,
        "attempted": res.ops.total("attempted"),
        "failed": res.ops.total("failed"),
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
