"""One measured repetition of one workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, so no ``lru_cache``,
interned object or allocator high-water mark carries over between
repetitions or workloads: ``setup_s`` is a real build and ``peak_mb`` is
this instance's own peak RSS.  Imports happen before the clock starts.

Usage (normally only through ``run.py``)::

    python3 perfbench/worker.py --workload thm1-social --scale bench \
        --rep 0 --trace 0

Prints one JSON object: the stage timings, peak RSS, the counts the
pins compare, the contract audit's problems, the host-speed calibration
timed around the repetition and, when traced, the per-layer split.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from repro.core import (  # noqa: E402
    run_edge_coloring,
    run_vertex_coloring,
    run_zero_comm_edge_coloring,
)
from repro.engine.scenarios import FAMILIES, Scenario  # noqa: E402
from repro.graphs import (  # noqa: E402
    PARTITIONERS,
    is_proper_edge_coloring,
    is_proper_vertex_coloring,
)
from repro.rand import Stream, derived_random  # noqa: E402
from repro.verify import verify_edge_result, verify_vertex_result  # noqa: E402
from workloads import SCALES, WORKLOADS, Workload  # noqa: E402


def _rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def calibrate() -> float:
    """Seconds a fixed pure-Python job takes on this host right now.

    The job mixes what the protocols spend their time on — integer
    arithmetic, dict updates, tuple allocation, a sort and random reads
    over an 8 MB list — and calls nothing in ``repro``, so no change to
    the program moves it; only the speed the shared host gives this
    process does.  ``main`` runs it just before and just after the
    measured repetition, and ``run.py`` scales the repetition's timings
    by it (see ``CALIBRATION_REF_S`` there).
    """
    gc.disable()
    t0 = time.perf_counter()
    mask = (1 << 64) - 1
    x = 0x9E3779B97F4A7C15
    table: dict[int, int] = {}
    rows = []
    big = list(range(1 << 20))
    acc = 0
    for i in range(300_000):
        x = (x * 6364136223846793005 + 1442695040888963407) & mask
        key = x >> 47
        table[key] = table.get(key, 0) + 1
        acc += big[x & 0xFFFFF]
        if not i & 15:
            rows.append((x & 1023, x >> 54, i))
    rows.sort()
    elapsed = time.perf_counter() - t0
    gc.enable()
    return elapsed


def corrupt(protocol: str, partition, result) -> None:
    """Give one edge's endpoints (or two adjacent edges) the same color."""
    graph = partition.graph
    if protocol == "vertex":
        u, v = next(iter(graph.edges()))
        result.colors[u] = result.colors[v]
        return
    for v in graph.vertices():
        incident = sorted((min(u, v), max(u, v)) for u in graph.neighbors(v))
        if len(incident) >= 2:
            first, second = incident[:2]
            side = result.alice_colors if second in result.alice_colors else result.bob_colors
            side[second] = result.colors[first]
            return
    raise ValueError("no vertex of degree >= 2 to corrupt")


def measure(workload: Workload, scale: str, rep: int, trace: bool, damage: bool) -> dict:
    """Build, solve and audit one instance; return the worker record."""
    params = workload.params(scale)
    scenario = Scenario(
        family=workload.family,
        params=tuple(params.items()),
        partition=workload.partition,
        protocol=workload.protocol,
        backend=workload.backend,
        transport=workload.transport,
    )
    seed = scenario.rep_seed(rep)
    family = FAMILIES[workload.family]
    run_protocol = {
        "vertex": run_vertex_coloring,
        "edge": run_edge_coloring,
        "edge_zero_comm": run_zero_comm_edge_coloring,
    }[workload.protocol]

    counters = layers.Counters() if trace else None
    profiler = cProfile.Profile() if trace else None
    if trace:
        counters.install()
        profiler.enable()

    # The same seed derivation as the engine's workload and partition
    # caches (repro.engine.runner), without the caches.
    t0 = time.perf_counter()
    if getattr(family, "stream_native", False):
        graph = family(Stream.from_seed(seed).derive("workload"), **params)
    else:
        graph = family(derived_random(seed, "workload"), **params)
    t1 = time.perf_counter()
    partition = PARTITIONERS[workload.partition](graph, derived_random(seed, "partition"))
    partition = partition.astype(workload.backend)
    t2 = time.perf_counter()
    setup_peak_mb = _rss_mb()
    result = run_protocol(partition, transport=workload.transport, rand=Stream.from_seed(seed))
    t3 = time.perf_counter()
    if damage:
        corrupt(workload.protocol, partition, result)
    if workload.protocol == "vertex":
        report = verify_vertex_result(partition, result)
        proper = is_proper_vertex_coloring(partition.graph, result.colors, result.num_colors)
    else:
        report = verify_edge_result(
            partition, result, zero_communication=workload.protocol == "edge_zero_comm"
        )
        proper = is_proper_edge_coloring(partition.graph, result.colors, result.num_colors)
    t4 = time.perf_counter()

    if trace:
        profiler.disable()
        counters.uninstall()

    problems = list(report.problems)
    if not proper:
        problems.append("coloring is not proper")
    leftover = getattr(result, "leftover_size", None)
    record = {
        "workload": workload.name,
        "scale": scale,
        "rep": rep,
        "seed": seed,
        "trace": trace,
        "problems": problems,
        "counts": {
            "n": partition.n,
            "m": graph.m,
            "delta": partition.max_degree,
            "total_bits": result.total_bits,
            "rounds": result.rounds,
            "num_colors": result.num_colors,
            "leftover": leftover,
        },
        "timings": {
            "build_s": t1 - t0,
            "partition_s": t2 - t1,
            "setup_s": t2 - t0,
            "solve_s": t3 - t2,
            "verify_s": t4 - t3,
            "total_s": t4 - t0,
        },
        "setup_peak_mb": setup_peak_mb,
        "peak_mb": _rss_mb(),
    }
    if trace:
        profiler.create_stats()
        record["self_s"] = layers.layer_self_times(profiler.stats)
        perm_distinct = len(counters.perm_keys)
        colored = partition.n - (leftover or 0)
        instances = counters.color_sample_calls / 2  # one call per party
        record["layers"] = {
            "rand.perm_calls": counters.perm_calls,
            "rand.perm_distinct": perm_distinct,
            "rand.perm_reuse": counters.perm_calls / perm_distinct if perm_distinct else 0.0,
            "rand.derive_calls": counters.derive_calls,
            "comm.parallel_calls": counters.parallel_calls,
            "core.cover_build_s": counters.cover_build_s,
            "core.cover_build_calls": counters.cover_build_calls,
            "core.color_sample_calls": instances,
            "core.sample_yield": colored / instances if instances else 0.0,
        }
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--scale", default="bench", choices=SCALES)
    parser.add_argument("--rep", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true")
    args = parser.parse_args(argv)
    before = calibrate()
    record = measure(
        WORKLOADS[args.workload], args.scale, args.rep, bool(args.trace), args.corrupt
    )
    gc.collect()
    record["calibration_s"] = (before + calibrate()) / 2
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
