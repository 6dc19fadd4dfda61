"""Benchmark of the ecgphase pipeline: one workload per run.

    python3 perfbench/run.py --workload train_paper|render_long \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is imported from
`src/`. The process re-executes itself once with PINNED_ENV set: BLAS and
OpenMP on one thread, and glibc's mmap and trim thresholds fixed. By
default glibc raises the mmap threshold (up to 32 MiB) as large blocks are
freed, after which numpy's large temporaries come from the heap instead of
fresh pages; when a process switches varies from run to run and moved
evaluate-call time by up to 2x. Fixing the thresholds at the values glibc
settles on puts every run in that steady state from the start.

With --trace 0 a run is WORKERS fresh worker processes, one after another,
each timing rounds for a share of --seconds; the metrics pool the figures
of all of them. On a shared 2-vCPU VM one process ran the same inputs 30%
to 60% slower than the next, repeatably; pooling several processes keeps
one such draw from deciding a run's figures.

A worker warms up (one small pass through every layer), sets the workload
up once and then again until its set-ups took SETUP_MIN_SECONDS / WORKERS
(set-up time is the median over all workers; only the last set-up is
kept), then repeats rounds of the workload for its share of --seconds, and
at least its share of the workload's min_rounds. Every round's output
bytes go through the gate: at DEFAULT_SEED they must match the digest in
digests.json, at any other seed they must match the first round's. A round
that raises or fails the gate counts all its ops as failed.

Standard output ends with two JSON lines: run metadata (environment,
workload properties, tail percentile, digests), then the result with
`correct`, `attempted`, `failed` and `metrics`. With --trace 0 the metrics
are end-to-end (peak_rss_mb is each worker's, read after its share of
min_rounds, median over workers); with --trace 1 the run is one worker that
sets up once, alternates untraced and traced rounds, and reports per-layer
self times over the warm-up, the set-up and one median traced round, the
batch-8 layer probe, and the tracing overhead (spans per traced round
times the cost of one spanned call; the median traced minus median
untraced round wall time goes into the metadata).
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
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    # glibc's dynamic maximum (4 MiB x sizeof(long)) and the trim threshold
    # it pairs with it (twice that)
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(64 << 20),
}

DEFAULT_SEED = 0
WORKERS = 3
RUN_TIMEOUT_S = 170  # for all workers together
SETUP_MIN_SECONDS = 2.0  # cheap set-ups repeat more, for a steadier median


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n) of the highest percentile with >= 10 samples
    above it. Up to 21 samples that percentile is not above p50, so the
    tail is the maximum."""
    s = sorted(samples)
    n = len(s)
    if n < 22:
        return s[-1], 100.0, n
    k = n - 11
    return s[k], 100.0 * k / (n - 1), n


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        cpu = platform.processor() or None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "pinned_env": {v: os.environ.get(v) for v in PINNED_ENV},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def worker(workload_name: str, seed: int, seconds: float, trace: bool,
           workers: int, work: Path) -> dict:
    """One worker process: warm up, set up, then rounds for `seconds`.

    Returns the raw figures; the parent gates the digests and computes the
    metrics over all workers.
    """
    import workloads as wl
    from tracer import Tracer, per_unit, wrapped_call_seconds

    workload = wl.WORKLOADS[workload_name]()
    tracer = Tracer() if trace else None
    min_rounds = -(-workload.min_rounds // workers)

    with wl.traced(tracer, "warmup"):
        model, batch = wl.warm_up(work / "warmup", seed)
    probe = wl.probe_layers(model, batch) if trace else {}

    setup_times = []
    min_seconds = 0.0 if trace else SETUP_MIN_SECONDS / workers
    while not setup_times or sum(setup_times) < min_seconds:
        if setup_times:
            shutil.rmtree(setup_dir)
        setup_dir = work / f"setup{len(setup_times)}"
        with wl.traced(tracer, "setup"):
            start = time.perf_counter()
            workload.setup(setup_dir, seed)
            setup_times.append(time.perf_counter() - start)
    properties = {**wl.record_properties(setup_dir / "data"), **workload.properties()}

    rounds = []
    start = time.perf_counter()
    i = 0
    while i < min_rounds or time.perf_counter() - start < seconds:
        is_traced = trace and i % 2 == 1
        scope = f"round{i}"
        out = work / scope
        round_start = time.perf_counter()
        try:
            with wl.traced(tracer if is_traced else None, scope):
                result = workload.round(out, seed)
        except Exception:  # noqa: BLE001 - a failing round counts its ops as failed
            traceback.print_exc()
            rounds.append({"ops": workload.ops(), "digest": None})
        else:
            rounds.append({
                "ops": len(result.op_seconds),
                "digest": wl.output_digest(result.outputs),
                "traced": is_traced,
                "scope": scope,
                "wall": time.perf_counter() - round_start,
                "op_seconds": result.op_seconds,
                "items": result.items,
            })
        shutil.rmtree(out, ignore_errors=True)
        i += 1
        if i == min_rounds:
            # the work up to here is the same in every run; later rounds only
            # add allocator fragmentation that depends on how many fit
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = {
        "setup_s": setup_times,
        "rounds": rounds,
        "peak_rss_mb": peak_rss_mb,
        "properties": properties,
    }
    if trace:
        traced_rounds = [r for r in rounds if r.get("traced")]
        untraced = [r for r in rounds if r.get("traced") is False]
        if not traced_rounds or not untraced:
            raise RuntimeError("no traced or no untraced round completed")
        self_times = tracer.self_times()
        once = ("warmup", "setup")
        round_scopes = [r["scope"] for r in traced_rounds]
        layers = {
            name: (per_unit(self_times, span, once, round_scopes), "s")
            for name, span in wl.LAYER_SPANS.items()
        }
        # the scopes above rasterize the warm-up record and, in set-up or in
        # each round, the set-up records
        warm = wl.record_properties(work / "warmup" / "data")
        points = sum(p["points_per_record"] * p["records"] for p in (warm, properties))
        layers["rasterizer.points_per_s"] = (points / layers["rasterizer.rasterize_s"][0], "1/s")
        layers["rasterizer.segment_unique_share"] = (properties["segment_unique_share"], "ratio")
        layers.update({name: (value, "s") for name, value in probe.items()})
        # The wall-time difference of traced and untraced rounds is mostly
        # machine noise; the metric is the spans of a round times the
        # measured cost of one spanned call.
        spans = statistics.median(
            sum(1 for span in tracer.spans if span[2] == scope) for scope in round_scopes
        )
        call_s = wrapped_call_seconds()
        layers["trace.overhead_s"] = (spans * call_s, "s")
        record["layers"] = layers
        record["trace_overhead"] = {
            "spans_per_round": spans,
            "wrapped_call_s": call_s,
            "round_wall_diff_s": statistics.median(r["wall"] for r in traced_rounds)
            - statistics.median(r["wall"] for r in untraced),
        }
    return record


def run_workers(args, work: Path) -> list[dict]:
    """Run the workers one after another; each prints its record last."""
    workers = 1 if args.trace else WORKERS
    deadline = time.monotonic() + RUN_TIMEOUT_S
    records = []
    for index in range(workers):
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds / workers), "--trace", str(args.trace),
            "--worker", str(index), "--workers", str(workers),
            "--work", str(work / f"w{index}"),
        ]
        # run() waits for the worker, and kills it first on a timeout
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()), check=True)
        records.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return records


def summarize(args, records: list[dict]) -> tuple[dict, dict]:
    """Gate every round's outputs and compute the metrics over all workers."""
    import workloads as wl

    stored = json.loads(DIGESTS.read_text()).get(args.workload)
    gate = wl.Gate(stored if args.seed == DEFAULT_SEED else None)
    attempted = failed = 0
    digests = set()
    for r in (r for rec in records for r in rec["rounds"]):
        attempted += r["ops"]
        if r["digest"] is None:
            failed += r["ops"]
        else:
            digests.add(r["digest"])
            failed += gate.failed_ops(r["digest"], r["ops"])

    untraced = [r for rec in records for r in rec["rounds"] if r.get("traced") is False]
    if not untraced:
        raise RuntimeError("no round completed")
    op_seconds = [s for r in untraced for s in r["op_seconds"]]
    tail_value, tail_pct, tail_n = tail(op_seconds)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workers": len(records),
        "rounds": sum(len(rec["rounds"]) for rec in records),
        "worker_op_s_p50": [
            statistics.median(ops) if ops else None
            for ops in ([s for r in rec["rounds"] if r.get("traced") is False
                         for s in r["op_seconds"]] for rec in records)
        ],
        "environment": environment(),
        "properties": records[0]["properties"],
        "op_s_tail": {"percentile": tail_pct, "samples": tail_n},
        "digests": sorted(digests),
        "expected_digest": gate.expected,
    }
    if args.trace:
        meta["trace_overhead"] = records[0]["trace_overhead"]
        metrics = {name: tuple(metric) for name, metric in records[0]["layers"].items()}
    else:
        metrics = {
            "setup_s": (statistics.median(s for rec in records for s in rec["setup_s"]), "s"),
            "wall_s": (statistics.median(r["wall"] for r in untraced), "s"),
            "items_per_s": (sum(r["items"] for r in untraced) / sum(op_seconds), "1/s"),
            "op_s_p50": (statistics.median(op_seconds), "s"),
            "op_s_tail": (tail_value, "s"),
            "peak_rss_mb": (statistics.median(rec["peak_rss_mb"] for rec in records), "MB"),
        }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return meta, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("train_paper", "render_long"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", type=int, default=None,
                        help="run as worker N of --workers and print its raw record")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--work", type=Path, help="the worker's scratch directory")
    args = parser.parse_args()

    if not (SRC / "ecgphase" / "__init__.py").is_file():
        print(f"error: no ecgphase sources under {SRC}", file=sys.stderr)
        return 2
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        os.environ.update(PINNED_ENV)
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.path.insert(0, str(SRC))

    if args.worker is not None:
        work = args.work
        try:
            # the program's progress lines go to stderr; stdout carries the record
            with redirect_stdout(sys.stderr):
                record = worker(args.workload, args.seed, args.seconds, bool(args.trace),
                                args.workers, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(json.dumps(record))
        return 0

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        meta, result = summarize(args, run_workers(args, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
