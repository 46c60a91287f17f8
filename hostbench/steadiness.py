"""Run the benchmark at several seeds and tabulate each metric's spread.

Usage (from the repository root)::

    python3 hostbench/steadiness.py --seeds 101-110 --workloads fig12_stall figs_warm

Each run is a separate ``hostbench/run.py`` process, one after another.
For every workload and end-to-end metric this prints the median and
IQR/median over the runs (quartiles from ``statistics.quantiles(n=4)``),
with each metric's bound from ``BENCHMARK.json``, as a Markdown table.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from arith import iqr_share

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="101-110")
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    failed = 0
    for workload in args.workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        digests = []
        for seed in parse_seeds(args.seeds):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=300,
            )
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if done.returncode == 0 else None
            if result is None or not result["correct"]:
                failed += 1
                print(f"{workload} seed {seed}: FAILED\n{done.stdout}{done.stderr}",
                      file=sys.stderr)
                continue
            digests.extend(line for line in lines if line.startswith("digest:"))
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + json.dumps(
                {name: round(v[-1], 4) for name, v in values.items()}),
                file=sys.stderr)
        print(f"\n### {workload} ({len(values['setup_s'])} runs, "
              f"{len(set(digests))} distinct digests)\n")
        print("| metric | median | IQR/median | bound |")
        print("|---|---|---|---|")
        for name, series in values.items():
            if len(series) >= 2:
                print(f"| `{name}` | {statistics.median(series):.4g} | "
                      f"{iqr_share(series):.3f} | {bounds[name]} |")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
