"""croprank benchmark: one workload per call, or all of them.

    python3 perfbench/run.py --workload train_desk --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30

Run from the repository root; croprank is imported from ``src/``. With
``--trace 0`` the run measures the end-to-end metrics with no tracing,
with times scaled to one reference machine speed (``workloads.run_phase``).
With ``--trace 1`` it sets up once with tracing on, then runs the ops
twice, untraced and traced, interleaved op by op, checks that both
sides gave the same bytes, and reports the per-layer metrics and
the tracing overhead. The metric names and units are the ones
``BENCHMARK.json`` lists. The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
environment, the input profile and, for traced runs, the spans are
written under ``.perfbench-out/``. An op that raises a ``CropError``
counts as failed and the run goes on; the exit code is 1 when an
output check fails.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# the desk model's matrices are at most 64 x 192, too small for a second BLAS
# thread to pay for its hand-off; one thread also keeps runs steady
BLAS_THREADS = 1


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):  # numpy builds that cannot report it
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "preset": "desk",
        "seed": seed,
    }


def latency_stats(latencies: list[float]) -> dict:
    ms = [1000.0 * x for x in latencies]
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[-1] if len(ms) > 1 else ms[0]
    return {"op_ms_p50": statistics.median(ms), "op_ms_p90": p90,
            "samples": len(ms), "samples_beyond_p90": sum(1 for x in ms if x > p90)}


def measure(args, work_dir: Path) -> tuple[dict, dict]:
    """Run one workload; returns (result line, record written to disk)."""
    # imported only now: they load numpy, after run_one has pinned BLAS
    import spans
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, work_dir)
    record: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                    "seconds": args.seconds, "environment": environment(args.seed)}
    if args.trace == 0:
        setup_times, setup_wall = workloads.time_setups(wl)
        phase = workloads.run_phase(wl, spans.Tracer(), seconds=args.seconds)
        problems = phase.problems + wl.final_check(phase)
        errors = phase.errors
        # a second instance, so the data the ops used stays in place
        again = workloads.time_setups(type(wl)(args.seed, work_dir / "again"))
        setup_times += again[0]
        setup_wall += again[1]
        # timings at the reference speed; the wall-clock ones go to `extra`
        lat = latency_stats(wl.reported_latencies(phase.ref_latencies()))
        wall = latency_stats(wl.reported_latencies(phase.latencies))
        values = {
            "setup_s": statistics.median(setup_times),
            "items_per_s": phase.items / phase.ref_elapsed,
            "op_ms_p50": lat["op_ms_p50"],
            "op_ms_p90": lat["op_ms_p90"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        extra = {"failed_share": phase.failed / len(phase.outputs), **wl.output_metrics(phase),
                 "setup_runs": len(setup_times), "op_samples": lat["samples"],
                 "op_samples_beyond_p90": lat["samples_beyond_p90"],
                 "wall_setup_s": statistics.median(setup_wall),
                 "wall_items_per_s": phase.items / phase.elapsed,
                 "wall_op_ms_p50": wall["op_ms_p50"], "wall_op_ms_p90": wall["op_ms_p90"],
                 "reference_task_runs": len(phase.probes),
                 "reference_task_ms_p10_p50_p90": [
                     round(1000.0 * q, 4) for q in statistics.quantiles(phase.probes, n=10)[::4]]}
        attempted, failed, kind = len(phase.outputs), phase.failed, "end_to_end"
        record["ops"] = {**lat, "items": phase.items, "elapsed_s": phase.ref_elapsed,
                         "wall_elapsed_s": phase.elapsed}
    else:
        tracer = spans.Tracer()
        with tracer.active():
            wl.setup()
        untraced, traced = workloads.run_pair(wl, tracer, args.seconds)
        problems = untraced.problems + traced.problems + wl.final_check(untraced)
        errors = untraced.errors + traced.errors
        values = workloads.layer_metrics(wl, tracer, traced, untraced, tracer.summary(ops=False))
        extra = {}
        attempted = len(untraced.outputs) + len(traced.outputs)
        failed, kind = untraced.failed + traced.failed, "per_layer"
        record["ops"] = {"untraced": len(untraced.outputs), "traced": len(traced.outputs)}
        record["spans"] = {name: {k: v for k, v in entry.items() if k != "info"}
                           for name, entry in tracer.summary(ops=True).items()}
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in SPEC[kind]}
    record.update(profile=wl.profile, metrics=metrics, extra=extra, errors=errors, problems=problems)
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, record


def run_one(args) -> int:
    # before numpy is first imported, so that BLAS reads it
    os.environ.update({k: str(BLAS_THREADS) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    work_dir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        result, record = measure(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=2))
    print(json.dumps({"environment": record["environment"], "profile": record["profile"], "ops": record["ops"]}))
    for name, m in result["metrics"].items():
        print(f"{args.workload:14s} {name:40s} {m['value']:14.6g} {m['unit']}")
    for name, value in record["extra"].items():
        print(f"{args.workload:14s} {name:40s} {value}")
    for label, lines in (("OP FAILED", record["errors"]), ("CHECK FAILED", record["problems"])):
        for line in lines[:10]:
            print(f"{label}: {line}")
        if len(lines) > 10:
            print(f"{label}: {len(lines) - 10} more in the result file")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload untraced, then traced, each in its own process."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            if not lines:  # it stopped before measuring; the reason is on stderr
                return proc.returncode or 1
            print("\n".join(lines[:-1]), flush=True)
            result = json.loads(lines[-1])
            merged["correct"] &= result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            merged["metrics"].update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "croprank" / "__init__.py").is_file():
        print(f"croprank sources not found under {SRC}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
