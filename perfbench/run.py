"""Benchmark of the texlab library: identification and resource workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload identify-narrow --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24

Each workload runs in-process, one operation at a time, against the package
under ``src/``. With ``--trace 0`` the run measures the end-to-end metrics
named in ``BENCHMARK.json``; with ``--trace 1`` it runs each round untraced
and then traced twice, reports the per-layer metrics of the first traced
pass, and checks that the second pass repeats its deterministic counts.
Every output is checked against the ground truth the inputs were generated
from.

The human-readable report comes first; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--workload all`` runs every workload in its own process and
prints one combined table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("identify-narrow", "identify-wide", "detect-noisy", "resource")

#: Round cost measured while sizing (2 cores, default TEXLAB_THREADS). It
#: sets how many rounds set-up generates and how many rounds the traced run
#: replays, so the traced run's operations, counts and report digest depend
#: only on the seed and --seconds. End-to-end runs stop on the clock instead.
NOMINAL_ROUND_S = {
    "identify-narrow": 1.09,
    "identify-wide": 6.3,
    "detect-noisy": 5.6,
    "resource": 4.6,
}

#: Fresh interpreters started to time set-up; the median is reported. One
#: set-up takes about 0.2 s (0.5 s with the interpreter start) and single
#: timings spread by a quarter, so nine are taken.
SETUP_REPEATS = 9

#: Percentiles tried, highest first, for the tail latency.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie beyond a percentile for it to count as the tail.
TAIL_BEYOND = 10

SUMMARY_TAG = "summary: "


def _import_program() -> None:
    if not (SRC / "texlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no texlab package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _planned_rounds(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_ROUND_S[workload]))


def _setup(workload: str, seed: int, seconds: float):
    """What every run does before timing: import numpy and texlab (through
    ``workloads``) and generate the inputs."""
    _import_program()
    import workloads

    stream = workloads.RoundStream(workloads.SPECS[workload], seed)
    stream.get(_planned_rounds(workload, seconds) - 1)
    return stream


def _measure_setup(workload: str, seed: int, seconds: float) -> float:
    """Median set-up time over fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--setup-probe",
                "--workload",
                workload,
                "--seed",
                str(seed),
                "--seconds",
                str(seconds),
            ],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def tail_latency(latencies: list[float]) -> tuple[float, float, int] | None:
    """(percentile, value, samples beyond) for the highest percentile of
    ``TAIL_LADDER`` with at least ``TAIL_BEYOND`` samples above it."""
    n = len(latencies)
    ordered = sorted(latencies)
    for pct in TAIL_LADDER:
        rank = max(1, math.ceil(n * pct / 100.0 - 1e-9))  # nearest rank
        beyond = n - rank
        if beyond >= TAIL_BEYOND:
            return pct, ordered[rank - 1], beyond
    return None


def _digest(outcomes) -> str:
    sha = hashlib.sha256()
    for outcome in outcomes:
        sha.update((outcome.text or "<failed>\n").encode("utf-8"))
    return sha.hexdigest()


def _blas_threads() -> str:
    """Thread count of the loaded OpenBLAS, or "unknown"."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return "unknown"
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
        ):
            func = getattr(lib, name, None)
            if func is not None:
                func.argtypes = []
                func.restype = ctypes.c_int
                return str(func())
    return "unknown"


def environment() -> dict:
    import platform

    import numpy as np

    import texlab.protocol as protocol

    resolve = getattr(protocol, "_thread_count", None)
    try:
        threads = "n/a" if resolve is None else str(resolve())
    except ValueError as exc:
        threads = f"invalid ({exc})"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name")
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "TEXLAB_THREADS": os.environ.get("TEXLAB_THREADS", "unset"),
        "texlab_threads_resolved": threads,
        "blas": blas,
        "blas_threads": _blas_threads(),
    }


def _run_rounds(stream, rounds, tracer=None) -> list:
    from workloads import run_op

    return [run_op(op, tracer) for r in rounds for op in stream.get(r)]


def _failure_lines(outcomes) -> list[str]:
    lines = []
    for index, outcome in enumerate(outcomes):
        if not outcome.ok:
            reason = outcome.error or "wrong result"
            lines.append(f"  op {index} failed: {reason}")
    return lines


def _e2e(workload: str, seed: int, seconds: float) -> tuple[dict, list[str]]:
    setup_s = _measure_setup(workload, seed, seconds)
    stream = _setup(workload, seed, seconds)
    from workloads import MAX_FAILED_RATIO, IdentifySpec

    per_round = []
    start = time.perf_counter()
    while not per_round or time.perf_counter() - start < seconds:
        per_round.append(_run_rounds(stream, [len(per_round)]))
    elapsed = time.perf_counter() - start
    rounds = len(per_round)
    outcomes = [o for ops in per_round for o in ops]
    first_round = len(per_round[0])

    latencies = [o.latency_s for o in outcomes]
    attempted = len(outcomes)
    failed = sum(not o.ok for o in outcomes)
    spec = stream.spec
    identify = isinstance(spec, IdentifySpec)
    clean = identify and spec.noise is None
    tail = tail_latency(latencies)
    summary = {
        "workload": workload,
        "seed": seed,
        "rounds": rounds,
        "elapsed_s": elapsed,
        "attempted": attempted,
        "failed": failed,
        # Ops over busy seconds of the whole run, not a median over rounds:
        # host speed swings by a quarter from one round to the next, and the
        # mean over every round reads steadier from run to run.
        "throughput_ops_per_s": attempted / sum(latencies),
        "latency_s.p50": statistics.median(latencies),
        "latency_s.tail": None if tail is None else tail[1],
        "tail_percentile": None if tail is None else tail[0],
        "tail_beyond": None if tail is None else tail[2],
        "failed_ratio": failed / attempted,
        "full_ratio": sum(o.full for o in outcomes) / attempted if clean else None,
        "hidden_cnot_ratio": (
            sum(o.hidden_cnot for o in outcomes) / attempted if identify else None
        ),
        "all_flagged_ratio": (
            sum(o.all_flagged for o in outcomes) / attempted
            if identify and spec.noise is not None
            else None
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
        "reports_sha256_first_round": _digest(outcomes[:first_round]),
        "first_round_ops": first_round,
        "reports_sha256": _digest(outcomes),
        "correct": failed <= MAX_FAILED_RATIO * attempted,
    }
    return summary, _failure_lines(outcomes)


def _traced(workload: str, seed: int, seconds: float) -> tuple[dict, list[str]]:
    stream = _setup(workload, seed, seconds / 3.0)
    from tracing import DETERMINISTIC, Tracer
    from workloads import MAX_FAILED_RATIO

    rounds = range(_planned_rounds(workload, seconds / 3.0))
    tracer, repeat = Tracer(), Tracer()
    plain, traced, replayed = [], [], []
    for r in rounds:  # interleave so every pass sees the same machine state
        plain += _run_rounds(stream, [r])
        with tracer:
            traced += _run_rounds(stream, [r], tracer)
        with repeat:
            replayed += _run_rounds(stream, [r], repeat)
    layer = tracer.metrics()
    layer["bench.trace_overhead_ratio"] = sum(o.latency_s for o in traced) / sum(
        o.latency_s for o in plain
    )
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"trace-{workload}-seed{seed}.jsonl")

    notes = []
    texts = [o.text for o in plain]
    same_bytes = texts == [o.text for o in traced] == [o.text for o in replayed]
    if not same_bytes:
        notes.append("  traced reports differ from untraced reports")
    again = repeat.metrics()
    counts_differ = [name for name in DETERMINISTIC if layer[name] != again[name]]
    for name in counts_differ:
        notes.append(f"  {name} differs between the traced passes: {layer[name]} vs {again[name]}")

    outcomes = plain + traced + replayed
    attempted = len(outcomes)
    failed = sum(not o.ok for o in outcomes)
    summary = {
        "workload": workload,
        "seed": seed,
        "rounds": len(rounds),
        "attempted": attempted,
        "failed": failed,
        "traced_ops": len(traced),
        "reports_sha256": _digest(traced),
        "counts": {name: layer[name] for name in DETERMINISTIC},
        "counts_differ": counts_differ,
        "per_layer": layer,
        "correct": failed <= MAX_FAILED_RATIO * attempted and same_bytes and not counts_differ,
    }
    return summary, notes + _failure_lines(outcomes)


def _bench_metrics(kind: str) -> list[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)[kind]


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _e2e_table(summary: dict) -> list[str]:
    attempted = summary["attempted"]
    tail = "n/a (fewer than 20 samples)"
    if summary["latency_s.tail"] is not None:
        tail = (
            f"{summary['latency_s.tail']:.6g}  (p{summary['tail_percentile']:g}, "
            f"{summary['tail_beyond']} samples beyond, n={attempted})"
        )
    full = summary["full_ratio"]
    rows = [
        (
            "throughput_ops_per_s",
            f"{_fmt(summary['throughput_ops_per_s'])}  "
            f"({attempted} ops, {summary['rounds']} rounds)",
            "1/s",
        ),
        ("latency_s.p50", f"{_fmt(summary['latency_s.p50'])}  (n={attempted})", "s"),
        ("latency_s.tail", tail, "s"),
        (
            "failed_ratio",
            f"{_fmt(summary['failed_ratio'])}  ({summary['failed']}/{attempted})",
            "ratio",
        ),
        (
            "full_ratio",
            "n/a" if full is None else f"{_fmt(full)}  ({round(full * attempted)}/{attempted})",
            "ratio",
        ),
        ("peak_rss_mb", _fmt(summary["peak_rss_mb"]), "MB"),
        ("setup_s", f"{_fmt(summary['setup_s'])}  (median of {SETUP_REPEATS})", "s"),
    ]
    lines = [f"  {name:<22} {value:<52} {unit}" for name, value, unit in rows]
    for name in ("hidden_cnot_ratio", "all_flagged_ratio"):
        if summary[name] is not None:
            lines.append(f"  {'(' + name + ')':<22} {_fmt(summary[name]):<52} ratio")
    lines.append(
        f"  reports_sha256 first round ({summary['first_round_ops']} ops): "
        f"{summary['reports_sha256_first_round']}"
    )
    lines.append(
        f"  reports_sha256 all ({attempted} ops, {summary['rounds']} rounds, "
        f"{summary['elapsed_s']:.1f} s): {summary['reports_sha256']}"
    )
    return lines


def _result_line(summary: dict, trace: bool) -> str:
    metrics = {}
    for entry in _bench_metrics("per_layer" if trace else "end_to_end"):
        name = entry["name"]
        value = summary["per_layer"][name] if trace else summary[name]
        metrics[name] = {"value": value, "unit": entry["unit"]}
    return json.dumps(
        {
            "correct": bool(summary["correct"]),
            "attempted": summary["attempted"],
            "failed": summary["failed"],
            "metrics": metrics,
        }
    )


def _run_one(workload: str, seed: int, seconds: float, trace: bool) -> None:
    _import_program()
    env = environment()
    print(f"workload {workload}  seed {seed}  seconds {seconds:g}  trace {int(trace)}")
    print("environment: " + "  ".join(f"{k}={v}" for k, v in env.items()))
    if trace:
        summary, notes = _traced(workload, seed, seconds)
        print(
            f"  traced {summary['traced_ops']} ops in {summary['rounds']} rounds "
            f"(and the same ops untraced, and traced again to repeat the counts)"
        )
        for name, value in summary["per_layer"].items():
            print(f"  {name:<40} {_fmt(value)}")
        print(f"  reports_sha256 ({summary['traced_ops']} ops): {summary['reports_sha256']}")
    else:
        summary, notes = _e2e(workload, seed, seconds)
        for line in _e2e_table(summary):
            print(line)
    for line in notes:
        print(line)
    print(f"correct: {summary['correct']}")
    summary["environment"] = env
    print(SUMMARY_TAG + json.dumps(summary))
    print(_result_line(summary, trace))


def _run_all(seed: int, seconds: float) -> int:
    """Run every workload in its own process and print one table."""
    summaries = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload",
                workload,
                "--seed",
                str(seed),
                "--seconds",
                str(seconds),
                "--trace",
                "0",
            ],
            capture_output=True,
            text=True,
            timeout=900,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        for line in proc.stdout.splitlines():
            if line.startswith(SUMMARY_TAG):
                summaries[workload] = json.loads(line[len(SUMMARY_TAG):])
    env = next(iter(summaries.values()))["environment"]
    print(f"seed {seed}  seconds {seconds:g}")
    print("environment: " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for workload, summary in summaries.items():
        print(workload)
        for line in _e2e_table(summary):
            print(line)
        print(f"  correct: {summary['correct']}")
    metrics = {}
    for workload, summary in summaries.items():
        for entry in _bench_metrics("end_to_end"):
            metrics[f"{workload}/{entry['name']}"] = {
                "value": summary[entry["name"]],
                "unit": entry["unit"],
            }
    print(
        json.dumps(
            {
                "correct": all(s["correct"] for s in summaries.values()),
                "attempted": sum(s["attempted"] for s in summaries.values()),
                "failed": sum(s["failed"] for s in summaries.values()),
                "metrics": metrics,
            }
        )
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        if args.trace:
            parser.error("--workload all runs the end-to-end metrics only")
        return _run_all(args.seed, args.seconds)
    if args.setup_probe:
        start = time.perf_counter()
        _setup(args.workload, args.seed, args.seconds)
        print(time.perf_counter() - start)
        return 0
    _run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
