"""Smoke test of the benchmark's own code on the tiny corpus.

    python3 -m pytest perfbench/test_smoke.py

Takes about a minute: every pipeline run is a fresh interpreter.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import corpus
import gate
import hostspeed
import run
import spans

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--shape", "tiny", "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_end_to_end_metric_is_printed_with_its_unit():
    result = bench("dense_all", trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_per_layer_metrics_and_stage_split_add_up():
    result = bench("sparse_stagewise", trace=1)
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    value = {k: v["value"] for k, v in metrics.items()}
    slack = abs(value["trace.overhead_s"]) + 1e-6
    for stage in spans.STAGE_ORDER:
        parts = [value[f"pipeline.{stage}.{p}_s"] for p in ("parse", "compute", "write")]
        assert min(parts) >= 0, stage
        assert abs(sum(parts) - value[f"pipeline.{stage}.wall_s"]) <= slack, stage
    # stagewise parses quotes once in each of markout, estimate and builder
    assert value["data_model.load_quotes_calls"] == 3
    assert value["pipeline.manifest_calls"] == 6


def test_gate_catches_a_corrupted_output(tmp_path):
    env = run.prepare()
    corpus_dir = corpus.ensure(run.ROOT, "tiny", 1, env)
    truth = json.loads((corpus_dir / "ground_truth.json").read_text())
    ledger = run.Ledger()
    out = tmp_path / "out"
    result = run.run_pipeline("all", corpus_dir, out, env, ledger)
    good = run.check_outputs(result, out, truth, None, None, ledger)
    assert not ledger.failed

    bad = tmp_path / "bad"
    shutil.copytree(out, bad)
    econ = bad / "economics.csv"
    header, first, *rest = econ.read_text().splitlines()
    cols = first.split(",")
    ev = header.split(",").index("ev_usd")
    cols[ev] = repr(float(cols[ev]) * 1.001)
    econ.write_text("\n".join([header, ",".join(cols), *rest]) + "\n")

    failed = [name for name, ok, _ in gate.score_checks(truth, bad) if not ok]
    assert failed == ["ev_rel_error"]
    assert not gate.digest_check("digests", gate.digests(bad), good)[1]
    assert gate.digest_check("digests", gate.digests(out), good)[1]


def test_host_factor_scales_by_the_bursts_of_the_span():
    sampler = hostspeed.Sampler({})
    ref = hostspeed.REFERENCE_BURST_S
    # bursts twice the reference time from t=0 to 9, at the reference after
    sampler.samples = [[float(t), 2 * ref if t < 10 else ref] for t in range(20)]
    assert abs(sampler.factor(0.0, 9.0) - 0.5) < 1e-12
    assert abs(sampler.factor(10.0, 19.0) - 1.0) < 1e-12
    # a span shorter than the sampling interval takes the nearest samples
    assert abs(sampler.factor(14.2, 14.3) - 1.0) < 1e-12
