"""opdiv benchmark: one workload, one seed, one line of JSON results.

    python3 bench/run.py --workload {place-table,verify-sweep,pair-query} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from ./src. BLAS and
OpenMP are pinned to one thread. The run makes its inputs from the seed
SETUP_REPEATS times, reporting the median set-up time, then repeats the
workload's round of operations while the measured time of one more round still
fits in --seconds. Every output is checked against bench/oracle.py; `correct`
is false if any operation raised or failed its check.

Times are speed-adjusted: each round's latencies are scaled by the ratio of a
reference kernel's nominal to its measured time in that round (SpeedGauge), so
that a shared machine's drift does not read as a change in opdiv. Unadjusted
figures are in the detail record.

--trace 0 reports the end-to-end metrics. --trace 1 runs every operation twice
in a row, untraced and then with spans around opdiv's public functions
(bench/spans.py), and reports per-round call counts, work counts and self
times, plus the tracing overhead. The line before the result is a JSON detail record:
environment, seed, the figures named per workload, work counts, and score
mismatches against the exact oracle.
"""
from __future__ import annotations

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:  # must precede the first numpy import
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import json
import math
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5

# Per-layer metrics reported with --trace 1 (see BENCHMARK.json).
LAYER_CALLS = (
    "graphs.laplacian_blocks",
    "graphs.tree_path",
    "graphs.partition_followers",
    "dynamics.steady_state",
    "diversity.bin_opinions",
    "placement.brute_force_best",
    "placement.check_balanced_tree_placement",
    "resistance.grounded_inverse",
)
LAYER_COUNTS = ("placement.candidates", "placement.check_balanced_tree_placement.certified")
# Self times only for layers every workload reaches, so none reads a constant 0;
# the others are in the detail record.
LAYER_SELF = (
    "graphs.laplacian_blocks",
    "dynamics.steady_state",
    "diversity.bin_opinions",
    "diversity.score",
)


def percentile(values: list, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def environment(seed: int) -> dict:
    import numpy as np

    env = {
        "seed": seed,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu_model": "unknown",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "unknown",
    }
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu_model"] = next(
                line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        pass
    return env


def set_up(workload, seed: int, workdir: Path) -> tuple:
    """Median time of (a fresh interpreter importing opdiv + making the inputs)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import opdiv"], env=env, cwd=ROOT,
                       check=True, timeout=120)
        ops = workload.setup(seed, workdir)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), ops


class SpeedGauge:
    """Times a fixed reference kernel between operations.

    Other tenants of a shared machine slow it by tens of percent for tens of
    seconds at a time. The kernel mixes the kinds of work opdiv does
    (interpreted dict and loop code, dense array allocation and fancy
    indexing, a LAPACK solve), so its nominal time over its median time in a
    round estimates how fast the machine ran that round.
    """

    NOMINAL_S = 0.0073  # the kernel's median time on a shared 2-vCPU Xeon VM
    INTERVAL_S = 0.2  # operation time between samples

    def __init__(self):
        import numpy as np

        self._np = np
        self._a = np.eye(250) * 3 - np.eye(250, k=1) - np.eye(250, k=-1)
        self._b = np.ones(250)
        self._idx = list(range(1, 300, 2))

    def sample(self) -> float:
        np = self._np
        t0 = time.perf_counter()
        d = {}
        for i in range(12000):
            d[i % 499] = d.get(i % 499, 0.0) + i / 7
        for _ in range(6):
            np.zeros((300, 300))[np.ix_(self._idx, self._idx)]
        for _ in range(3):
            np.linalg.solve(self._a, self._b)
        return time.perf_counter() - t0


def timed_check(workload, op, run) -> tuple:
    """(latency, Check or None, failure note) of one call and its check."""
    t0 = time.perf_counter()
    try:
        out = run(*op.args)
    except Exception as exc:  # an operation that raises counts as failed
        return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    try:
        check = workload.check(op, out)
    except Exception as exc:  # output the check cannot even read is wrong
        return dt, None, f"unreadable output: {type(exc).__name__}: {exc}"
    return dt, check, None if check.ok else check.note


def run_round(workload, ops: list, gauge: SpeedGauge, tracer=None, parity: int = 0) -> dict:
    """One pass over the operations, each timed alone and checked after it.

    With a tracer, each operation runs twice back to back, untraced and with
    spans on, so both runs see the same machine speed and the traced output
    passes the same checks. Which run goes first alternates with the
    operation's index plus `parity`, so the warm-up a first run pays for the
    second does not bias the tracing overhead.
    """
    passes = [("lat", workload.run, contextlib.nullcontext())]
    if tracer is not None:
        passes.append(("lat_traced", tracer.span("bench.op", workload.run), tracer))
    rec = {"wall": 0.0, "lat": [], "lat_traced": [], "gauge": [], "attempted": 0, "failed": 0,
           "checked": 0, "wrong": 0, "argmax_wrong": 0, "notes": []}
    gc.collect()
    since_sample = math.inf
    for i, op in enumerate(ops):
        if since_sample >= gauge.INTERVAL_S:
            rec["gauge"].append(gauge.sample())
            since_sample = 0.0
        for key, run, spans_on in passes if (i + parity) % 2 == 0 else passes[::-1]:
            with spans_on:
                dt, check, note = timed_check(workload, op, run)
            rec["wall"] += dt
            since_sample += dt
            rec["attempted"] += 1
            if check is not None:
                rec[key].append((i, op.kind, dt))
                if key == "lat":
                    rec["checked"] += check.checked
                    rec["wrong"] += check.wrong
                    rec["argmax_wrong"] += check.argmax_wrong
            if note is not None:
                rec["failed"] += 1
                rec["notes"].append(f"{key} {op.kind}: {note}")
    rec["gauge"].append(gauge.sample())
    rec["speed"] = gauge.NOMINAL_S / statistics.median(rec["gauge"])
    return rec


def measure(workload, ops: list, seconds: float, gauge: SpeedGauge, traced: bool = False) -> list:
    """Rounds while the measured time of one more round still fits in `seconds`."""
    from spans import Tracer

    rounds, spent = [], 0.0
    while True:
        tracer = Tracer() if traced else None
        rec = run_round(workload, ops, gauge, tracer, parity=len(rounds))
        rec["tracer"] = tracer
        rounds.append(rec)
        spent += rec["wall"]
        if spent + rec["wall"] > seconds:
            return rounds


def op_medians(rounds: list, adjusted: bool = True, key: str = "lat") -> list:
    """(kind, median latency) of each operation across rounds. Every round
    repeats the same operations, so the median damps a stall that hits one
    operation once. `adjusted` scales each round by its speed factor first;
    key "lat_traced" selects the traced runs."""
    per_op = {}
    for rec in rounds:
        scale = rec["speed"] if adjusted else 1.0
        for i, kind, dt in rec[key]:
            per_op.setdefault((i, kind), []).append(dt * scale)
    return [(kind, statistics.median(v)) for (_, kind), v in per_op.items()]


def timings(rounds: list, adjusted: bool = True, key: str = "lat") -> dict:
    """Round time (the sum of the operations' median latencies) and the
    median and 99th-percentile (nearest rank) of those latencies."""
    lat = [dt for _, dt in op_medians(rounds, adjusted, key)]
    return {
        "wall_s": sum(lat),
        "op_p50_ms": 1e3 * percentile(lat, 50),
        "op_p99_ms": 1e3 * percentile(lat, 99),
    }


def workload_metrics(name: str, rounds: list, key: str = "lat") -> dict:
    """The figures named for each workload, from speed-adjusted latencies."""
    ops = op_medians(rounds, key=key)
    wall = sum(dt for _, dt in ops)
    first = rounds[0]  # every round runs the same operations and gets the same checks
    out = {"fail_frac": sum(r["failed"] for r in rounds) / sum(r["attempted"] for r in rounds)}
    if first["checked"]:
        out["wrong_score_frac"] = sum(r["wrong"] for r in rounds) / sum(r["checked"] for r in rounds)
        out["wrong_scores_per_round"] = f"{first['wrong']}/{first['checked']}"
    kinds = {}
    for kind, dt in ops:
        kinds.setdefault(kind, []).append(dt)
    if name == "place-table":
        out["argmax_wrong_per_round"] = f"{first['argmax_wrong']}/{len(ops)}"
        out["candidates_per_round"] = first["checked"]
        out["candidates_per_s"] = first["checked"] / wall
        for kind in sorted(kinds, key=lambda k: int(k[1:])):
            out[f"place_ms.{kind}"] = 1e3 * statistics.median(kinds[kind])
    elif name == "pair-query":
        lat = [dt for _, dt in ops]
        out["query_p50_ms"] = 1e3 * percentile(lat, 50)
        out["query_p99_ms"] = 1e3 * percentile(lat, 99)
        out["queries_per_s"] = len(ops) / wall
    else:
        out.update({f"suite_s.{kind}": v[0] for kind, v in sorted(kinds.items())})
    return out


def layer_report(rounds: list) -> dict:
    """Per-round span figures of the traced rounds: calls and work counts (the
    same in every round), and median self and inclusive times."""
    tracers = [r["tracer"] for r in rounds]
    spans = {}
    for name in sorted(set().union(*(t.calls for t in tracers))):
        calls = [t.calls[name] for t in tracers]
        spans[name] = {
            "calls": calls[0],
            "calls_same_every_round": len(set(calls)) == 1,
            "self_s": statistics.median(t.self_s[name] for t in tracers),
            "total_s": statistics.median(t.total_s[name] for t in tracers),
        }
    counts = {key: tracers[0].counts[key] for key in LAYER_COUNTS}
    certified = counts["placement.check_balanced_tree_placement.certified"]
    attempts = spans.get("placement.check_balanced_tree_placement", {}).get("calls", 0)
    counts["placement.check_balanced_tree_placement.certified_ratio"] = (
        certified / attempts if attempts else None)
    return {"spans": spans, "counts": counts}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "opdiv" / "__init__.py").is_file():
        print(f"error: no opdiv package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".bench_build" / "bench" / workload.name
    workdir.mkdir(parents=True, exist_ok=True)

    setup_s, ops = set_up(workload, args.seed, workdir)
    gauge = SpeedGauge()
    detail = {"workload": workload.name, "trace": args.trace, "env": environment(args.seed),
              "setup_s": setup_s, "ops_per_round": len(ops)}
    if args.trace:
        rounds = measure(workload, ops, args.seconds, gauge, traced=True)
        layers = layer_report(rounds)
        spans = layers["spans"]
        overhead = timings(rounds, key="lat_traced")["wall_s"] - timings(rounds)["wall_s"]
        absent = {"calls": 0, "self_s": 0.0}  # a layer this workload never calls
        metrics = {f"{n}.calls": (spans.get(n, absent)["calls"], "count") for n in LAYER_CALLS}
        metrics.update({k: (layers["counts"][k], "count") for k in LAYER_COUNTS})
        metrics.update({f"{n}.self_s": (spans.get(n, absent)["self_s"], "s") for n in LAYER_SELF})
        metrics["trace.overhead_s"] = (overhead, "s")
        traced_raw = timings(rounds, adjusted=False, key="lat_traced")["wall_s"]
        self_sum = sum(s["self_s"] for s in spans.values())
        detail.update(
            untraced=workload_metrics(workload.name, rounds),
            traced=workload_metrics(workload.name, rounds, key="lat_traced"),
            trace_overhead_s=overhead,
            traced_wall_unadjusted_s=traced_raw,
            span_self_sum_s=self_sum,
            unaccounted_s=traced_raw - self_sum,
            layers=layers,
        )
    else:
        rounds = measure(workload, ops, args.seconds, gauge)
        metrics = {"setup_s": (setup_s, "s")}
        metrics.update({k: (v, k.rsplit("_", 1)[1]) for k, v in timings(rounds).items()})
        detail["metrics"] = workload_metrics(workload.name, rounds)
        detail["unadjusted"] = timings(rounds, adjusted=False)
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    detail.update(
        round_walls_s=[r["wall"] for r in rounds],
        round_speed=[r["speed"] for r in rounds],
        failures=[note for r in rounds for note in r["notes"]][:20],
    )
    print(json.dumps({"detail": detail}, indent=1))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
