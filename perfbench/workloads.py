"""The benchmark's workloads: one theorem on one seeded instance each.

A workload fixes the theorem, the graph family, the partition scheme, the
graph backend and the comm transport.  Its size depends on the *scale*:

* ``bench`` — the sizes ``BENCHMARK.json`` declares, chosen so one
  instance builds, solves and validates in about 1.5-2.5 s untraced,
  which lets a 40 s run repeat it about a dozen times (its median then
  shrugs off a few seconds of host contention) and keeps a benchmark
  pass of about 70 runs within an hour;
* ``full`` — the ROADMAP's headline sizes (n = 10⁵, and 10⁶ for Thm 3),
  minutes per run, for one-off trajectory points;
* ``tiny`` — n ≈ 10³ variants for the benchmark's own tests.

The instance seed comes from the engine's own replication scheme:
``--seed s`` runs replication ``s % K`` of the workload's scenario, where
``K`` is the number of seeds pinned for that scale in ``pins.json``.
Replication 0 is the scenario's default seed, so a bench row and a
``sweep`` record of the same coordinate describe the same instance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
PINS_PATH = HERE / "pins.json"

SCALES = ("bench", "full", "tiny")

#: The counts pinned per (workload, scale, replication); see ``pin.py``.
PINNED_KEYS = ("n", "m", "delta", "total_bits", "rounds", "num_colors", "leftover")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a theorem on a family instance."""

    name: str
    protocol: str  # engine protocol key: vertex | edge | edge_zero_comm
    family: str
    sizes: dict[str, dict[str, Any]]  # scale -> family params
    backend: str
    transport: str
    why: str
    partition: str = "random"

    def params(self, scale: str) -> dict[str, Any]:
        """The family parameters at ``scale``."""
        return dict(self.sizes[scale])


def _social(n: int) -> dict[str, Any]:
    return {"n": n, "exponent": 2.3, "max_degree": 64}


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="thm1-social",
            protocol="vertex",
            family="social",
            sizes={
                "bench": _social(15_000),
                "full": _social(100_000),
                "tiny": _social(1_000),
            },
            backend="csr",
            transport="count",
            why=(
                "Thm 1, social n=1.5e4 Δ<=64, csr, count: m = Δ+1 <= 65 <= 96, "
                "so every Color-Sample builds a full SmallPermutation "
                "(rand-heavy); 99-136 pooled ch.parallel rounds"
            ),
        ),
        Workload(
            name="thm1-dense",
            protocol="vertex",
            family="regular",
            sizes={
                "bench": {"n": 4_000, "d": 128},
                "full": {"n": 4_000, "d": 128},
                "tiny": {"n": 400, "d": 100},
            },
            backend="set",
            transport="lockstep",
            why=(
                "Thm 1, regular n=4000 d=128, set backend, lockstep: m = 129 > "
                "96 takes the lazy Feistel path, lockstep builds real Msg "
                "objects, 256k edges to validate"
            ),
        ),
        Workload(
            name="thm2-social",
            protocol="edge",
            family="social",
            sizes={
                "bench": _social(25_000),
                "full": _social(100_000),
                "tiny": _social(1_000),
            },
            backend="csr",
            transport="count",
            why=(
                "Thm 2, social n=2.5e4 Δ=64, csr, count: build_cover_message "
                "dominates time and peak memory (core-heavy); no permutations "
                "and 2 rounds bypass rand and comm"
            ),
        ),
        Workload(
            name="thm3-social",
            protocol="edge_zero_comm",
            family="social",
            sizes={
                "bench": _social(75_000),
                "full": _social(1_000_000),
                "tiny": _social(1_000),
            },
            backend="csr",
            transport="count",
            why=(
                "Thm 3, social n=7.5e4 Δ=64, csr: graph build, partition and "
                "the audit dominate (graphs- and verify-heavy); zero "
                "communication bypasses rand, comm and core"
            ),
        ),
    )
}


def load_pins() -> dict[str, dict[str, list[dict[str, int]]]]:
    """``pins[workload][scale]`` is the list of pinned counts per replication."""
    with PINS_PATH.open() as fh:
        return json.load(fh)


def replication(seed: int, pinned: list) -> int:
    """The replication index that ``--seed seed`` selects."""
    if not pinned:
        raise ValueError("no pinned replications for this workload and scale")
    return seed % len(pinned)
