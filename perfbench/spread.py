"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 perfbench/spread.py --workload sparse_all --seeds 1-10

Runs ``perfbench/run.py`` once per seed (one after another) and prints, for
each metric, the median of the runs and the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median, next to the metric's bound in BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--seconds", type=int, help="in place of BENCHMARK.json's run_seconds")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {}
    ok = True
    for seed in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(args.seconds or bench["run_seconds"]),
                                  "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok &= proc.returncode == 0 and result["correct"]
        line = {k: round(v["value"], 4) for k, v in result["metrics"].items()
                if k in bounds or args.trace}
        print(f"seed {seed}: rc={proc.returncode} correct={result['correct']} {line}",
              flush=True)
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    for k, vs in values.items():
        if len(vs) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vs, n=4)
        print(f"{k:36s} median {med:12.4f}  iqr/median {(q3 - q1) / med:7.4f}"
              f"  bound {bounds.get(k)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
