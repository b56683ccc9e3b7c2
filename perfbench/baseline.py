"""Run the benchmark over several seeds and summarise every metric.

    python3 perfbench/baseline.py --seeds 1-10 --traced-seeds 1-3 --write perfbench/baseline.json

Each (workload, seed, trace) is one run of perfbench/run.py in its own
process, one after another. The table gives each metric's median, first and
third quartile and the spread (q3 - q1) / median across seeds, plus
fail_frac as failed ops over attempted ops.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import HERE, WORKLOADS


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_one(workload: str, seed: int, seconds: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", seconds, "--trace", str(trace)],
        capture_output=True, text=True, cwd=HERE.parent, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--traced-seeds", default="",
                        help="seeds for --trace 1 runs (per-layer metrics)")
    parser.add_argument("--seconds", default="50")
    parser.add_argument("--write", type=Path, help="write the summary as JSON")
    args = parser.parse_args(argv)

    plan = [(0, s) for s in seed_list(args.seeds)]
    if args.traced_seeds:
        plan += [(1, s) for s in seed_list(args.traced_seeds)]
    summary = {
        "seeds": seed_list(args.seeds),
        "traced_seeds": seed_list(args.traced_seeds) if args.traced_seeds else [],
        "seconds": float(args.seconds),
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        values: dict[str, list] = {}
        units: dict[str, str] = {}
        attempted = failed = 0
        for trace, seed in plan:
            out = run_one(workload, seed, args.seconds, trace)
            attempted += out["attempted"]
            failed += out["failed"]
            for name, m in out["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"{workload} seed {seed} trace {trace}: "
                  f"{out['failed']}/{out['attempted']} failed", flush=True)
        entry = {name: dict(summarise(v), unit=units[name]) for name, v in values.items()}
        entry["fail_frac"] = {
            "value": failed / attempted, "failed": failed, "attempted": attempted,
        }
        summary["workloads"][workload] = entry

    print(f"\n{'workload':8s} {'metric':42s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>7s}  unit")
    for workload, entry in summary["workloads"].items():
        for name, s in entry.items():
            if name == "fail_frac":
                continue
            print(f"{workload:8s} {name:42s} {s['median']:12.6g} {s['q1']:12.6g} "
                  f"{s['q3']:12.6g} {s['spread']:7.4f}  {s['unit']}")
        ff = entry["fail_frac"]
        print(f"{workload:8s} {'fail_frac':42s} {ff['value']:12.6g}  "
              f"({ff['failed']} of {ff['attempted']} ops)")

    if args.write:
        records = sorted((HERE / "out").glob("*-trace*.json"))
        if records:
            summary["environment"] = json.loads(records[-1].read_text())["environment"]
        args.write.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
