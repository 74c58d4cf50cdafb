"""Regenerate ``pins.json``: the counts every benchmark run is checked against.

A run fails if its ``n``, ``m``, Δ, bits, rounds, palette size or leftover
differ from the pinned values of its (workload, scale, replication).  Re-pin
only for a change that deliberately alters those counts, and say why in the
change's log::

    python3 perfbench/pin.py --scale bench --reps 16
    python3 perfbench/pin.py --scale full --reps 1 --workload thm1-social

Each replication runs untraced in a fresh interpreter and must pass the
contract audit before its counts are written.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import run_rep  # noqa: E402
from workloads import PINNED_KEYS, PINS_PATH, SCALES, WORKLOADS  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", required=True, choices=SCALES)
    parser.add_argument("--reps", type=int, required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), action="append")
    args = parser.parse_args(argv)
    pins = json.loads(PINS_PATH.read_text()) if PINS_PATH.exists() else {}
    for name in args.workload or list(WORKLOADS):
        rows = []
        for rep in range(args.reps):
            record = run_rep(name, args.scale, rep, traced=False, damage=False)
            if record["problems"]:
                print(f"{name} rep {rep}: {record['problems']}", file=sys.stderr)
                return 1
            rows.append({key: record["counts"][key] for key in PINNED_KEYS})
            print(f"{name} {args.scale} rep {rep}: {rows[-1]}", flush=True)
        pins.setdefault(name, {})[args.scale] = rows
    ordered = {
        name: {scale: pins[name][scale] for scale in SCALES if scale in pins[name]}
        for name in WORKLOADS
        if name in pins
    }
    PINS_PATH.write_text(json.dumps(ordered, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
