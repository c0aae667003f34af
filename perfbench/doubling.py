"""Doubling report: how each stage scales when the trade count doubles.

    python3 perfbench/doubling.py [--seed 1] [--repeat 3] [--out perfbench/baseline_doubling.json]

Runs ``cexdex all`` on the dense shape at 10k and 20k trades (4 days, 4
searchers) in fresh processes, untraced for the total and traced for the
stages, alternating the two sizes ``--repeat`` times so that drift in the
host's speed falls on both, and prints the ratio of the medians,
t(20k)/t(10k), for each stage. ROADMAP item 1's target is that no stage
takes much more than twice as long; builder's per-block scan is expected
near 4x. This is a report, not a gated workload: it has no bounds, but each
run still passes the correctness gate.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import corpus
import run
import spans

SIZES = (("10k", "dense10k"), ("20k", "dense20k"))


def measure(shape: str, seed: int, env: dict, ledger: run.Ledger) -> dict:
    """One untraced and one traced `cexdex all` run on the shape's corpus."""
    corpus_dir = corpus.ensure(run.ROOT, shape, seed, env)
    truth = json.loads((corpus_dir / "ground_truth.json").read_text())
    work = run.ROOT / ".bench_work" / "runs" / f"doubling-{shape}-s{seed}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "trace").mkdir(parents=True)
    try:
        untraced = run.run_pipeline("all", corpus_dir, work / "out", env, ledger)
        first = run.check_outputs(untraced, work / "out", truth, None, None, ledger)
        traced = run.run_pipeline("all", corpus_dir, work / "out", env, ledger, work / "trace")
        run.check_outputs(traced, work / "out", truth, None, first, ledger)
        raw = spans.summarize(traced["traces"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    stages = {s: raw.get(f"pipeline.{s}.wall_s", 0.0) for s in spans.STAGE_ORDER}
    stages["manifest"] = raw.get("pipeline.write_manifest.s", 0.0)
    return {"trades": len(truth["blocks"]), "all": untraced["wall_s"], **stages}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--out", default=str(run.ROOT / ".bench_work" / "results" / "doubling.json"))
    args = ap.parse_args(argv)
    env = run.prepare()
    if env is None:
        return 2
    ledger = run.Ledger()
    samples: dict[str, list[dict]] = {label: [] for label, _ in SIZES}
    for _ in range(args.repeat):
        for label, shape in SIZES:
            samples[label].append(measure(shape, args.seed, env, ledger))
    medians = {label: {k: run.median(s[k] for s in runs) for k in runs[0]}
               for label, runs in samples.items()}
    small, large = medians["10k"], medians["20k"]
    names = ["all", *spans.STAGE_ORDER, "manifest"]
    ratios = {k: large[k] / small[k] for k in names if small[k] > 0}
    report = {
        "seed": args.seed, "repeat": args.repeat, "median_s": medians,
        "samples_s": samples, "ratio_20k_over_10k": ratios,
        "correct": not ledger.failed, "failed_checks": ledger.failed,
        "stamp": run.stamp(args.seed, corpus.ensure(run.ROOT, "dense20k", args.seed, env),
                           run.src_digest()),
    }
    for k, ratio in ratios.items():
        print(f"{k:10s} {small[k]:8.3f} s -> {large[k]:8.3f} s   x{ratio:.2f}")
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"written to {args.out}")
    return 0 if not ledger.failed else 1


if __name__ == "__main__":
    sys.exit(main())
