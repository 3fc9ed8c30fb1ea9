"""Spade benchmark: fraud-detection latency and throughput, per workload.

Run from the repository root, for example::

    python3 perfbench/run.py --workload stream_dg --seed 7 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (spans recorded from wrappers this benchmark
installs; see ``tracing.py``). The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the exit
code is non-zero when the correctness gate fails. Everything the run
writes goes under ``.perfbench/`` in the repository root.

A run: generate the inputs from the seed, start a local Spark session,
warm the JVM (a small ``build_engine`` and a short stream), then repeat
rounds (fresh engine from ``build_engine``, the workload's fixed slice
of increments issued back to back) until ``--seconds`` have passed, and
finally check the engine's end state.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shlex
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Set-up time is the median of at least this many builds per run.
SETUP_SAMPLES = 3


def parse_args(argv):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=7, help="passed to load_preset(seed=...)")
    ap.add_argument("--seconds", type=float, default=10.0, help="measuring window")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def start_spark(workdir: Path):
    """A local session whose JVM and temp files stay inside ``workdir``."""
    tmp = workdir / "tmp"
    tmp.mkdir(parents=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(tmp)
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master local[{min(4, os.cpu_count() or 1)}] --driver-memory 2g",
            "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            f"--conf spark.local.dir={shlex.quote(str(tmp))}",
            f"--conf spark.sql.warehouse.dir={shlex.quote(str(workdir / 'warehouse'))}",
            "pyspark-shell",
        ]
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", "4")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM it launched to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except Exception:
            proc.kill()
            proc.wait()


def warm_up(spark, workdir: Path, progress, seed: int, stream: bool) -> None:
    """Untimed: a small build_engine and, if the workload streams, a two-file
    stream, both on throwaway data."""
    from repro.core import DG
    from repro.datasets import load_preset
    from repro.spark.builder import build_engine
    from repro.spark.streaming import run_stream, write_increment_files

    d = workdir / "warmup"
    d.mkdir()
    data = load_preset("grab1_lite", scale=0.02, seed=seed)
    data.initial.to_parquet(d / "initial.parquet", index=False)
    eng = build_engine(spark, spark.read.parquet(str(d / "initial.parquet")), DG)
    if not stream:
        return
    write_increment_files(data.increments, str(d / "increments"), 2)
    n_done = len(progress.terminated)
    run_stream(spark, eng, str(d / "increments"), str(d / "checkpoint"))
    progress.batches_of_next_query(n_done)


def info_lines(args, w, inp, spark) -> list:
    import pyspark
    from workloads import SCALE

    return [
        f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
        f"pyspark={pyspark.__version__} platform={platform.platform()}",
        f"workload={w.name} preset={w.preset} scale={SCALE} seed={args.seed} metric={w.metric} "
        f"mode={w.mode} trace={args.trace} seconds={args.seconds:g}",
        f"edges: initial={len(inp.data.initial)} per_round={len(inp.rows)} "
        f"campaign_edges={int(inp.fraud.sum())} offered_rate={w.rate:g} edges/s",
        f"spark master={spark.sparkContext.master}",
        "generator lateness: 0 s (arrivals are computed from the seed, never from measured times)",
    ]


def run_rounds(args, w, inp, spark, progress, workdir: Path, tracer):
    """Fresh engine plus one pass over the input, repeated within the window.

    Untraced runs first take extra set-up samples. Traced runs alternate
    untraced and traced rounds (at least one of each) so the tracing
    overhead is measured on the same input.
    """
    from gate import state_of
    from workloads import build, run_round

    setup_s = []

    def timed_build():
        gc.collect()
        t0 = time.perf_counter()
        eng = build(spark, w, inp)
        setup_s.append(time.perf_counter() - t0)
        return eng

    if tracer is None:
        for _ in range(SETUP_SAMPLES - 1):
            timed_build()
    dataframe_cls = type(spark.range(0))
    rounds, traced_rounds, states = [], [], []
    walls = ([], [])  # update-phase wall of (untraced, traced) rounds
    engine = None
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        engine = None  # free the last round's engine before the next build
        if traced:
            tracer.install(dataframe_cls)
            try:
                engine = tracer.call("builder.build_engine", timed_build)
                r = run_round(w, engine, inp, spark, progress, workdir, tracer)
            finally:
                tracer.uninstall()
            traced_rounds.append(r)
        else:
            engine = timed_build()
            r = run_round(w, engine, inp, spark, progress, workdir)
        walls[traced].append(r.wall_s)
        states.append(state_of(engine))
        rounds.append(r)
        # Another round only if it fits in the window: rounds are whole
        # passes over the same input, so a faster program runs more of them.
        spent = time.perf_counter() - start
        if spent + spent / len(rounds) > args.seconds and (
            tracer is None or len(rounds) >= 2
        ):
            return rounds, traced_rounds, states, walls, engine, setup_s


def run(args, workdir: Path) -> int:
    import gate
    import layers
    from tracing import ProgressLog, Tracer
    from workloads import WORKLOADS, build, end_to_end, prepare

    w = WORKLOADS[args.workload]
    inp = prepare(w, args.seed, workdir)
    spark = start_spark(workdir)
    try:
        progress = ProgressLog()
        spark.streams.addListener(progress)
        cold_build_s = 0.0
        if args.trace:
            t0 = time.perf_counter()
            build(spark, w, inp)
            cold_build_s = time.perf_counter() - t0
        warm_up(spark, workdir, progress, args.seed, w.mode == "stream")
        tracer = Tracer(w.area_stride) if args.trace else None
        rounds, traced_rounds, states, walls, engine, setup_s = run_rounds(
            args, w, inp, spark, progress, workdir, tracer
        )
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        errors = gate.check(w, inp, states, engine)
        attempted = sum(r.attempted for r in rounds)
        # A failed end-state check fails every update of the run.
        failed = attempted if errors else sum(r.failed for r in rounds)

        reported = {}  # printed, not in the JSON result
        if tracer is not None:
            metrics, notes = layers.layer_metrics(
                w, tracer, traced_rounds, walls, cold_build_s, engine
            )
            spans = workdir.parent / f"spans-{w.name}-seed{args.seed}.jsonl"
            tracer.write(spans)
            notes.append(f"{len(tracer.spans)} spans written to {spans.relative_to(ROOT)}")
        else:
            metrics, reported, notes = end_to_end(w, inp, rounds)
            metrics["setup_s"] = (statistics.median(setup_s), "s")
            metrics["driver_rss_mb"] = (rss_mb, "MB")
            notes.append(f"setup_s: median of {len(setup_s)} builds: "
                         + ", ".join(f"{s:.3f}" for s in setup_s))
        notes.append(f"rounds={len(rounds)} update walls: "
                     + ", ".join(f"{r.wall_s:.2f}" for r in rounds))
        notes.append(f"failed_frac = {failed} / {attempted} = {failed / attempted:g}")

        for line in info_lines(args, w, inp, spark) + notes:
            print(line)
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value:.6g} {unit}")
        for name, (value, unit) in reported.items():
            print(f"{name} = {value:.6g} {unit} (reported, not gated)")
        for e in errors:
            print(f"CORRECTNESS FAILURE: {e}")
        print("correctness gate: " + ("FAILED" if errors else "passed"))
        print(json.dumps({
            "correct": not errors,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 1 if errors else 0
    finally:
        stop_spark(spark)


def main(argv=None) -> int:
    if not __debug__:
        raise SystemExit("run without -O: the correctness gate relies on assert")
    # On SIGTERM, unwind through the finally blocks that stop the JVM.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    args = parse_args(argv)
    workdir = ROOT / ".perfbench" / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
