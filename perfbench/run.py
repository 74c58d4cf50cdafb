"""Theorem-level benchmark: each theorem's protocol end to end on seeded workloads.

Runs one workload (or ``all``) as a closed loop — one repetition at a
time, each in a fresh interpreter (``worker.py``) — for ``--seconds``
seconds, audits every coloring against the model's contract and the
pinned counts, and prints a table followed by one JSON line::

    python3 perfbench/run.py --workload thm1-social --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --trace 1

``--trace 0`` reports the end-to-end metrics (medians over untraced
repetitions); ``--trace 1`` alternates untraced and traced repetitions
and reports the per-layer split (see ``layers.py``) plus the tracing
overhead.  Every time is in reference-host seconds (see
``CALIBRATION_REF_S``).  A repetition fails if it raises, fails the audit or differs
from its pinned counts; any failure makes the exit code 1.  See
``README.md`` for the metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(SRC))

from workloads import PINNED_KEYS, SCALES, WORKLOADS, load_pins, replication  # noqa: E402

#: Repetitions a run makes even past its deadline: three untraced, so
#: ``setup_s`` is a median of several set-ups; one of each kind traced.
MIN_REPS = {(0, False): 3, (1, False): 1, (1, True): 1}
REP_TIMEOUT_S = 170

#: The median of ``worker.calibrate()`` in a worker on the reference host
#: (2 vCPUs of an Intel Xeon, Python 3.11) when the host is quiet.  Each
#: repetition's times are scaled by ``CALIBRATION_REF_S`` over the
#: calibration measured around it, so they read in reference-host seconds:
#: the shared host's speed drifts by tens of percent within minutes, the
#: calibration job drifts with it, and their ratio does not.  The table
#: also prints the raw medians.
CALIBRATION_REF_S = 0.28

END_TO_END = {
    "total_s": "s",
    "setup_s": "s",
    "solve_s": "s",
    "peak_mb": "MB",
}

PER_LAYER = {
    "graphs.build_s": "s",
    "graphs.partition_s": "s",
    "graphs.setup_peak_mb": "MB",
    "graphs.edges": "count",
    "graphs.self_s": "s",
    "rand.self_s": "s",
    "rand.perm_calls": "count",
    "rand.perm_distinct": "count",
    "rand.perm_reuse": "ratio",
    "rand.derive_calls": "count",
    "comm.self_s": "s",
    "comm.rounds": "rounds",
    "comm.bits": "bits",
    "comm.bits_per_n": "bits/vertex",
    "comm.parallel_calls": "count",
    "core.self_s": "s",
    "core.cover_build_s": "s",
    "core.cover_build_calls": "count",
    "core.color_sample_calls": "count",
    "core.sample_yield": "ratio",
    "core.leftover": "count",
    "coloring.self_s": "s",
    "verify.s": "s",
    "verify.self_s": "s",
    "other.self_s": "s",
    "trace.total_s": "s",
    "trace.overhead_s": "s",
}


def stamp() -> dict:
    """The code and machine fingerprint every output carries."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    from repro.rand import kernels

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy_version,
        "rand_kernels": kernels.available(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def run_rep(name: str, scale: str, rep: int, traced: bool, damage: bool) -> dict:
    """One repetition in a fresh interpreter; a failed one carries ``problems``."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", name, "--scale", scale, "--rep", str(rep),
        "--trace", str(int(traced)),
    ]
    if damage:
        cmd.append("--corrupt")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"problems": [f"repetition timed out after {REP_TIMEOUT_S} s"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"problems": [f"worker exited {proc.returncode}: {tail[0]}"]}
    return json.loads(lines[-1])


def check_pins(record: dict, expected: dict) -> list[str]:
    """Differences between a repetition's counts and its pinned counts."""
    counts = record["counts"]
    return [
        f"{key} = {counts.get(key)!r}, pinned {expected.get(key)!r}"
        for key in PINNED_KEYS
        if counts.get(key) != expected.get(key)
    ]


def run_workload(name: str, scale: str, seed: int, seconds: float, trace: int,
                 damage: bool = False) -> dict:
    """Repeat one workload for ``seconds``; return its records and verdicts."""
    pins = load_pins()[name][scale]
    rep = replication(seed, pins)
    kinds = (False, True) if trace else (False,)
    records: dict[bool, list[dict]] = {kind: [] for kind in kinds}
    walls: dict[bool, list[float]] = {kind: [] for kind in kinds}
    failures: list[str] = []
    attempted = 0
    start = time.monotonic()
    while True:
        # Alternate kinds in the traced mode; the first kind short of its
        # minimum runs next, then the one with fewer repetitions.
        short = [k for k in kinds if len(walls[k]) < MIN_REPS[(trace, k)]]
        kind = short[0] if short else min(kinds, key=lambda k: len(walls[k]))
        if not short:
            elapsed = time.monotonic() - start
            if elapsed + statistics.median(walls[kind]) > seconds:
                break
        began = time.monotonic()
        record = run_rep(name, scale, rep, kind, damage)
        walls[kind].append(time.monotonic() - began)
        attempted += 1
        problems = record["problems"] or check_pins(record, pins[rep])
        if problems:
            failures.extend(problems)
        else:
            records[kind].append(record)
    return {
        "workload": name, "scale": scale, "seed": seed, "rep": rep,
        "records": records, "attempted": attempted, "failures": failures,
    }


def _median(records: list[dict], get) -> float:
    return statistics.median(get(r) for r in records)


def to_reference(record: dict) -> dict:
    """The repetition's record with every time in reference-host seconds."""
    factor = CALIBRATION_REF_S / record["calibration_s"]
    out = dict(record, timings={k: v * factor for k, v in record["timings"].items()})
    if "self_s" in record:
        out["self_s"] = {k: v * factor for k, v in record["self_s"].items()}
        out["layers"] = {
            k: v * factor if k.endswith("_s") else v for k, v in record["layers"].items()
        }
    return out


def end_to_end(records: list[dict]) -> dict[str, float]:
    """Median end-to-end metrics over untraced repetitions."""
    out = {
        key: _median(records, lambda r, k=key: r["timings"][k])
        for key in ("total_s", "setup_s", "solve_s")
    }
    out["peak_mb"] = _median(records, lambda r: r["peak_mb"])
    return out


def per_layer(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    """Median per-layer metrics over traced repetitions."""
    counts = traced[0]["counts"]
    out: dict[str, float] = {
        "graphs.build_s": _median(traced, lambda r: r["timings"]["build_s"]),
        "graphs.partition_s": _median(traced, lambda r: r["timings"]["partition_s"]),
        "graphs.setup_peak_mb": _median(traced, lambda r: r["setup_peak_mb"]),
        "graphs.edges": counts["m"],
        "comm.rounds": counts["rounds"],
        "comm.bits": counts["total_bits"],
        "comm.bits_per_n": counts["total_bits"] / counts["n"],
        "core.leftover": counts["leftover"] or 0,
        "verify.s": _median(traced, lambda r: r["timings"]["verify_s"]),
    }
    for layer in traced[0]["self_s"]:
        out[f"{layer}.self_s"] = _median(traced, lambda r, k=layer: r["self_s"][k])
    for key in traced[0]["layers"]:
        out[key] = _median(traced, lambda r, k=key: r["layers"][k])
    traced_total = _median(traced, lambda r: r["timings"]["total_s"])
    out["trace.total_s"] = traced_total
    out["trace.overhead_s"] = traced_total - _median(untraced, lambda r: r["timings"]["total_s"])
    return {key: out[key] for key in PER_LAYER}


def summarize(run: dict, trace: int) -> dict:
    """The workload's result object (``metrics`` empty if nothing passed)."""
    records = {kind: [to_reference(r) for r in rs] for kind, rs in run["records"].items()}
    failed = run["attempted"] - sum(len(v) for v in records.values())
    metrics: dict[str, dict] = {}
    if trace and records[False] and records[True]:
        values, units = per_layer(records[False], records[True]), PER_LAYER
    elif not trace and records[False]:
        values, units = end_to_end(records[False]), END_TO_END
    else:
        values, units = {}, {}
    for key, value in values.items():
        metrics[key] = {"value": value, "unit": units[key]}
    return {
        "correct": failed == 0 and bool(metrics),
        "attempted": run["attempted"],
        "failed": failed,
        "metrics": metrics,
    }


def print_table(run: dict, result: dict) -> None:
    records = run["records"]
    print(f"## {run['workload']} (scale {run['scale']}, seed {run['seed']} -> "
          f"replication {run['rep']}; {run['attempted']} repetitions)")
    for key, metric in result["metrics"].items():
        print(f"  {key:<26} {metric['value']:>14.6g} {metric['unit']}")
    if records[False]:
        untraced = records[False]
        calibration = _median(untraced, lambda r: r["calibration_s"])
        print(f"  {'calibration_s':<26} {calibration:>14.6g} s "
              f"(reference {CALIBRATION_REF_S} s)")
        for key, value in end_to_end(untraced).items():
            if key.endswith("_s"):
                print(f"  {'raw ' + key:<26} {value:>14.6g} s")
        counts = untraced[0]["counts"]
        print(f"  {'bits_per_n':<26} {counts['total_bits'] / counts['n']:>14.6g} bits/vertex")
        print(f"  {'rounds':<26} {counts['rounds']:>14d} rounds")
    print(f"  {'fail_rate':<26} {result['failed'] / result['attempted']:>14.6g} fraction")
    for problem in run["failures"][:10]:
        print(f"  FAILED: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", default="bench", choices=SCALES)
    parser.add_argument(
        "--corrupt", action="store_true",
        help="self-test of the gate: damage one color before the audit",
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC / 'repro'} not found; run from a full checkout",
              file=sys.stderr)
        return 2

    print(json.dumps({"stamp": stamp()}))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        run = run_workload(name, args.scale, args.seed, args.seconds, args.trace, args.corrupt)
        results[name] = summarize(run, args.trace)
        print_table(run, results[name])
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{key}": metric
                for name, r in results.items()
                for key, metric in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
