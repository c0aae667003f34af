"""Pipeline benchmark: cexdex's six stages on cached synthetic corpora.

    python3 perfbench/run.py --workload sparse_all --seed 1 --seconds 24 --trace 0

Run from the repository root. Every measured pipeline run is a fresh
process (``perfbench/worker.py``) on a corpus generated beforehand, on the
one CPU the harness pins itself to, beside the host-speed sampler
(``perfbench/hostspeed.py``), and is followed by the correctness gate.
Every time is scaled to the reference host speed of the span it was
measured in. ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates untraced and traced runs and prints the
per-layer metrics with the tracing overhead. The last stdout line is the
JSON result; the line before it is the stamp (machine, versions, corpus).
The full record goes to ``.bench_work/results/``. The exit code is 0 only
when every stage call and every check passed. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import corpus
import gate
import hostspeed
import spans

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"

# workload -> (corpus shape, how the stages run)
WORKLOADS = {
    "dense_all": ("dense", "all"),
    "sparse_all": ("sparse", "all"),
    "sparse_stagewise": ("sparse", "stagewise"),
}
MIN_SETUP_SAMPLES = 3
STAGE_ORDER = spans.STAGE_ORDER

# per-layer metric -> (unit, how it is computed from spans.summarize output)
_PER_LAYER = {}
for _stage in STAGE_ORDER:
    for _part in ("wall", "parse", "compute", "write"):
        _key = f"pipeline.{_stage}.{_part}_s"
        _PER_LAYER[_key] = ("s", _key)
_PER_LAYER.update({
    "builder.block_economics_calls": ("count", "builder.block_economics.calls"),
    "builder.block_economics_s": ("s", "builder.block_economics.s"),
    "builder.builder_summary_s": ("s", "builder.builder_summary.s"),
    "estimate.utc_day_calls": ("count", "estimate.utc_day"),
    "market.integration_matrix_s": ("s", "market.integration_matrix.s"),
    "market.spearman_calls": ("count", "market.spearman.calls"),
    "market.spearman_s": ("s", "market.spearman.s"),
    "data_model.load_quotes_calls": ("count", "data_model.load_quotes.calls"),
    "data_model.load_quotes_rows": ("count", "data_model.load_quotes.rows"),
    "data_model.load_quotes_s": ("s", "data_model.load_quotes.s"),
    "quotes.store_build_s": ("s", "quotes.QuoteStore.s"),
    "pipeline.read_csv_calls": ("count", "pipeline._read_csv.calls"),
    "pipeline.read_csv_rows": ("count", "pipeline._read_csv.rows"),
    "pipeline.read_csv_bytes": ("B", "pipeline._read_csv.bytes"),
    "pipeline.write_csv_rows": ("count", "pipeline._write_csv.rows"),
    "pipeline.write_csv_bytes": ("B", "pipeline._write_csv.bytes"),
    "pipeline.markouts_csv_bytes": ("B", "markouts_csv_bytes"),
    "pipeline.manifest_calls": ("count", "pipeline.write_manifest.calls"),
    "pipeline.manifest_s": ("s", "pipeline.write_manifest.s"),
    "data_model.load_transactions_s": ("s", "data_model.load_transactions.s"),
    "detect.detect_all_s": ("s", "detect.detect_all.s"),
    "detect.pass_ratio": ("1", ("detect.trades", "detect.txs")),
    "markout.markout_curve_calls": ("count", "markout.markout_curve.calls"),
    "markout.markout_curve_s": ("s", "markout.markout_curve.s"),
    "markout.included_ratio": ("1", ("markout.included", "markout.curves")),
    "kernels.step_mid_lookup_calls": ("count", "kernels.step_mid_lookup.calls"),
    "kernels.step_mid_lookup_s": ("s", "kernels.step_mid_lookup.s"),
    "quotes.eth_usd_calls": ("count", "quotes.eth_usd.calls"),
    "quotes.eth_usd_s": ("s", "quotes.eth_usd.s"),
    "horizon.build_profile_s": ("s", "horizon.build_profile.s"),
    "estimate.trade_economics_calls": ("count", "estimate.trade_economics.calls"),
    "estimate.trade_economics_s": ("s", "estimate.trade_economics.s"),
    "estimate.cumulative_ev_series_s": ("s", "estimate.cumulative_ev_series.s"),
})
PER_LAYER_UNITS = {name: unit for name, (unit, _) in _PER_LAYER.items()}
PER_LAYER_UNITS.update({"cli.import_s": "s", "trace.untraced_wall_s": "s",
                        "trace.traced_wall_s": "s", "trace.overhead_s": "s",
                        "failed_ratio": "1"})
END_TO_END_UNITS = {"wall_s": "s", "trades_per_s": "1/s", "cpu_s": "s",
                    "peak_rss_mb": "MB", "setup_s": "s"}


class Ledger:
    """Operations attempted and failed: stage calls and correctness checks."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed.append(f"{name}: {detail}")
            print(f"FAILED {name}: {detail}", file=sys.stderr)
        return ok


def spawn(command: str, input_dir: Path, out_dir: Path, env: dict,
          trace_path: Path | None = None) -> dict:
    """Run one worker process; add its wall, CPU and peak RSS as the OS saw them."""
    argv = [sys.executable, str(WORKER), command, str(input_dir), str(out_dir)]
    if trace_path is not None:
        argv.append(str(trace_path))
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, cwd=ROOT)
    try:
        stdout = proc.stdout.read()
        # wait4 rather than wait: the rusage of this one child
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = stdout.decode().strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"rc": None}
    if proc.returncode != 0:
        result["rc"] = proc.returncode
    ready_at = result.get("ready_at")
    result.update(spawned_at=t0, spawn_wall_s=wall,
                  os_cpu_s=usage.ru_utime + usage.ru_stime, os_maxrss_kb=usage.ru_maxrss,
                  setup_s=ready_at - t0 if ready_at is not None else None)
    return result


def run_pipeline(mode: str, corpus_dir: Path, out_dir: Path, env: dict,
                 ledger: Ledger, trace_dir: Path | None = None) -> dict:
    """One measured pipeline run: `cexdex all`, or six `cexdex <stage>` processes."""
    shutil.rmtree(out_dir, ignore_errors=True)
    commands = ["all"] if mode == "all" else list(STAGE_ORDER)
    procs, traces = [], []
    t0 = time.perf_counter()
    for i, command in enumerate(commands):
        trace_path = trace_dir / f"{i}-{command}.json" if trace_dir else None
        result = spawn(command, corpus_dir, out_dir, env, trace_path)
        procs.append(result)
        if result["rc"] != 0:
            break
        if trace_path is not None:
            traces.append(json.loads(trace_path.read_text()))
    total = time.perf_counter() - t0
    ok = len(procs) == len(commands) and all(p["rc"] == 0 for p in procs)
    # `all` runs the six stages; a failed call fails each of them
    for stage in STAGE_ORDER:
        done = ok or (mode == "stagewise" and STAGE_ORDER.index(stage) < len(procs) - 1)
        ledger.record(f"stage {stage}", done, "stage call exited non-zero")
    if mode == "all" and procs[0].get("wall_s") is not None:
        wall, cpu = procs[0]["wall_s"], procs[0]["cpu_s"]
        span = (procs[0]["start_at"], procs[0]["start_at"] + wall)
    else:
        wall, cpu = total, sum(p["os_cpu_s"] for p in procs)
        span = (t0, t0 + total)
    return {
        "ok": ok, "wall_s": wall, "cpu_s": cpu, "span": span,
        "peak_rss_mb": max(p["os_maxrss_kb"] for p in procs) / 1024.0,
        # set-up and import of each process, with the span (spawn to a
        # built Workspace) that holds both
        "setup": [(p["setup_s"], p.get("import_s"), (p["spawned_at"], p["ready_at"]))
                  for p in procs if p["setup_s"] is not None],
        "traces": traces,
    }


def check_outputs(run: dict, out_dir: Path, truth: dict, reference: dict | None,
                  first: dict | None, ledger: Ledger) -> dict:
    """Apply the correctness gate to one run's outputs; return their digests."""
    for name, ok, detail in gate.score_checks(truth, out_dir):
        ledger.record(f"score {name}", run["ok"] and ok, detail)
    got = gate.digests(out_dir)
    if reference is not None:
        ledger.record(*gate.digest_check("digests equal cexdex all", got, reference))
    if first is not None:
        ledger.record(*gate.digest_check("digests equal first run", got, first))
    return got


def src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src" / "cexdex").rglob("*.py")):
        h.update(p.relative_to(ROOT).as_posix().encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def stamp(seed: int, corpus_dir: Path, src_sha: str) -> dict:
    from importlib.metadata import version

    from cexdex import _kernels

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "using_numba": _kernels.USING_NUMBA,
        "git_commit": git_commit(),
        "src_sha256": src_sha,
        "seed": seed,
        "corpus": json.loads((corpus_dir / "stats.json").read_text()),
    }


def load_reference(corpus_dir: Path, src_sha: str) -> dict | None:
    """Digests of an earlier gated `cexdex all` run of this source tree on this corpus."""
    path = corpus_dir / "ref_all_digests.json"
    if path.exists():
        ref = json.loads(path.read_text())
        if ref["src_sha256"] == src_sha:
            return ref["digests"]
    return None


def store_reference(corpus_dir: Path, src_sha: str, got: dict) -> None:
    path = corpus_dir / "ref_all_digests.json"
    path.write_text(json.dumps({"src_sha256": src_sha, "digests": got}))


def prepare() -> dict | None:
    """Put the checkout's cexdex on the path; return the workers' environment.

    None, with a message on stderr, when the checkout holds no cexdex source.
    """
    if not (ROOT / "src" / "cexdex" / "__init__.py").exists():
        print(f"error: no cexdex source under {ROOT / 'src'}", file=sys.stderr)
        return None
    sys.path.insert(0, str(ROOT / "src"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(WORKER.parent)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def median(values) -> float:
    return statistics.median(values)


def finite(x: float) -> float:
    """A metric of runs that all failed is NaN; JSON has no NaN, so print 0."""
    return x if math.isfinite(x) else 0.0


def per_layer(raw: dict) -> dict:
    out = {}
    for name, (_unit, key) in _PER_LAYER.items():
        if isinstance(key, tuple):
            num, den = raw.get(key[0], 0), raw.get(key[1], 0)
            out[name] = num / den if den else 0.0
        else:
            out[name] = raw.get(key, 0)
    return out


def measure(args, mode, corpus_dir, truth, src_sha, env, work, ledger) -> dict:
    out_dir = work / "out"
    reference = load_reference(corpus_dir, src_sha)
    if mode == "stagewise" and reference is None:
        # untimed `cexdex all` run whose gated outputs stagewise must equal
        n_failed = len(ledger.failed)
        run = run_pipeline("all", corpus_dir, out_dir, env, ledger)
        got = check_outputs(run, out_dir, truth, None, None, ledger)
        if len(ledger.failed) == n_failed:
            store_reference(corpus_dir, src_sha, got)
            reference = got

    runs, traced = [], []
    first = None
    cpu = hostspeed.pin()
    with hostspeed.Sampler(env) as sampler:
        # at least two timed runs (one traced pair), then repeat while another
        # repetition would end closer to --seconds than stopping now
        start = time.perf_counter()
        min_runs = 1 if args.trace else 2
        while (len(runs) < min_runs
               or (time.perf_counter() - start) * (1 + 0.5 / len(runs)) < args.seconds):
            for trace_dir in ([None, work / "trace"] if args.trace else [None]):
                if trace_dir is not None:
                    shutil.rmtree(trace_dir, ignore_errors=True)
                    trace_dir.mkdir()
                n_failed = len(ledger.failed)
                run = run_pipeline(mode, corpus_dir, out_dir, env, ledger, trace_dir)
                got = check_outputs(run, out_dir, truth, reference, first, ledger)
                if first is None:
                    first = got
                    if reference is None and mode == "all" and len(ledger.failed) == n_failed:
                        store_reference(corpus_dir, src_sha, got)
                if trace_dir is None:
                    runs.append(run)
                else:
                    raw = spans.summarize(run["traces"])
                    markouts = out_dir / "markouts.csv"
                    raw["markouts_csv_bytes"] = markouts.stat().st_size if markouts.exists() else 0
                    traced.append((run, per_layer(raw)))
        # set-up time: spawn to a built Workspace, from every untraced pipeline
        # process, topped up with set-up-only processes
        setup = [s for r in runs for s in r["setup"]]
        while not args.trace and len(setup) < MIN_SETUP_SAMPLES:
            probe = spawn("setup", corpus_dir, work / "setup", env)
            if not ledger.record("setup", probe["rc"] == 0, "set-up process exited non-zero"):
                break
            setup.append((probe["setup_s"], probe["import_s"],
                          (probe["spawned_at"], probe["ready_at"])))
    detections = out_dir / "detections.csv"
    n_trades = corpus.rows_and_bytes(detections)[0] if detections.exists() else 0

    # every time is scaled to the reference host speed of the span it was
    # measured in (hostspeed.py)
    for run in runs + [r for r, _ in traced]:
        run["host_factor"] = sampler.factor(*run["span"])
    setup_factors = [sampler.factor(*span) for _, _, span in setup]
    record = {
        "workload": args.workload, "mode": mode, "seconds": args.seconds,
        "trace": args.trace, "n_trades": n_trades, "measured_cpu": cpu,
        "reference_burst_s": hostspeed.REFERENCE_BURST_S,
        "setup": [{"setup_s": s, "import_s": i, "host_factor": f}
                  for (s, i, _), f in zip(setup, setup_factors)],
        "runs": [{k: v for k, v in r.items() if k not in ("traces", "setup")} for r in runs],
    }
    ok_runs = [r for r in runs if r["ok"]] or runs
    # a mean, not a median: a run holds only 2 to 8 pipeline runs, and once
    # scaled their mean varies less from run to run than their median
    wall = statistics.fmean((r["wall_s"] or float("nan")) * r["host_factor"] for r in ok_runs)
    if not args.trace:
        record["metrics"] = {
            "wall_s": wall,
            "trades_per_s": n_trades / wall,
            "cpu_s": statistics.fmean((r["cpu_s"] or float("nan")) * r["host_factor"]
                                      for r in ok_runs),
            "peak_rss_mb": median(r["peak_rss_mb"] for r in ok_runs),
            "setup_s": median([s * f for (s, _, _), f in zip(setup, setup_factors)]
                              or [float("nan")]),
        }
        return record
    layers = [{name: v * run["host_factor"] if PER_LAYER_UNITS[name] == "s" else v
               for name, v in m.items()} for run, m in traced]
    metrics = {name: median(m[name] for m in layers) for name in _PER_LAYER}
    imports = [i * f for (_, i, _), f in zip(setup, setup_factors) if i is not None]
    metrics["cli.import_s"] = median(imports) if imports else float("nan")
    traced_wall = statistics.fmean((run["wall_s"] or float("nan")) * run["host_factor"]
                                   for run, _ in traced)
    metrics["trace.untraced_wall_s"] = wall
    metrics["trace.traced_wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - wall
    record["traced_runs"] = [{k: v for k, v in r.items() if k not in ("traces", "setup")}
                             for r, _ in traced]
    record["metrics"] = metrics
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--shape", choices=sorted(corpus.SHAPES),
                    help="corpus shape in place of the workload's own (smoke tests)")
    args = ap.parse_args(argv)
    env = prepare()
    if env is None:
        return 2

    shape, mode = WORKLOADS[args.workload]
    shape = args.shape or shape
    corpus_dir = corpus.ensure(ROOT, shape, args.seed, env)
    truth = json.loads((corpus_dir / "ground_truth.json").read_text())
    src_sha = src_digest()
    work = ROOT / ".bench_work" / "runs" / f"{args.workload}-{shape}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ledger = Ledger()
    try:
        record = measure(args, mode, corpus_dir, truth, src_sha, env, work, ledger)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["stamp"] = stamp(args.seed, corpus_dir, src_sha)
    record["failed_checks"] = ledger.failed

    results = ROOT / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-{shape}-s{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=2, sort_keys=True))

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    metrics = dict(record["metrics"])
    if args.trace:
        metrics["failed_ratio"] = len(ledger.failed) / max(ledger.attempted, 1)
    print(json.dumps({"stamp": record["stamp"]}, sort_keys=True))
    print(json.dumps({
        "correct": not ledger.failed,
        "attempted": ledger.attempted,
        "failed": len(ledger.failed),
        "metrics": {k: {"value": finite(metrics[k]), "unit": u} for k, u in units.items()},
    }))
    return 0 if not ledger.failed else 1


if __name__ == "__main__":
    sys.exit(main())
