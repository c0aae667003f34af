import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from cexdex.cli import main

SCENARIO = {
    "seed": 5,
    "n_days": 1,
    "searchers": [
        {"label": "s_gentle", "impact_decay": "gentle", "trades_per_day": 25,
         "true_hedge_delay_s": 1.0, "major_share": 0.4},
        {"label": "s_flat", "impact_decay": "none", "trades_per_day": 10},
    ],
    "integrated_with": {"s_gentle": "builderA"},
}


@pytest.fixture(scope="module")
def synth_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    scenario = root / "scenario.json"
    scenario.write_text(json.dumps(SCENARIO))
    inputs = root / "inputs"
    assert main(["synth", "--config", str(scenario), "--out-dir", str(inputs)]) == 0
    return inputs


def test_all_produces_bundle(synth_inputs, tmp_path):
    out = tmp_path / "out"
    assert main(["all", "--input-dir", str(synth_inputs), "--out-dir", str(out)]) == 0
    for name in ("detections.csv", "verdicts.csv", "markouts.csv", "profiles.csv",
                 "economics.csv", "summary.csv", "cumulative_ev.csv", "market.csv",
                 "integration.csv", "correlations.csv", "builder_blocks.csv",
                 "builder_summary.csv", "manifest.json"):
        assert (out / name).exists(), name


def test_grid_step_off_the_decline_window_exits_1(synth_inputs, tmp_path, capsys):
    """A grid step that does not divide horizon's 3 s decline window is refused
    when the config is read, before any stage runs."""
    inputs = tmp_path / "inputs"
    shutil.copytree(synth_inputs, inputs)
    config = json.loads((inputs / "config.json").read_text())
    config.update(grid_start_s=-1.4, grid_step_s=0.7)
    (inputs / "config.json").write_text(json.dumps(config))
    capsys.readouterr()
    assert main(["all", "--input-dir", str(inputs), "--out-dir", str(tmp_path / "out")]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "InvalidConfig" and "grid_step_s" in err["message"]


def test_manifest_digests_match(synth_inputs, tmp_path):
    out = tmp_path / "out"
    main(["all", "--input-dir", str(synth_inputs), "--out-dir", str(out)])
    manifest = json.loads((out / "manifest.json").read_text())
    for name, meta in manifest["outputs"].items():
        digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert digest == meta["sha256"], name
    assert manifest["inputs"]["transactions.csv"]["rows"] == 35


def test_stagewise_equals_all(synth_inputs, tmp_path):
    staged = tmp_path / "staged"
    combined = tmp_path / "combined"
    for stage in ("detect", "markout", "horizon", "estimate", "market", "builder"):
        assert main([stage, "--input-dir", str(synth_inputs), "--out-dir", str(staged)]) == 0
    main(["all", "--input-dir", str(synth_inputs), "--out-dir", str(combined)])
    for p in combined.glob("*.csv"):
        assert p.read_bytes() == (staged / p.name).read_bytes(), p.name


def test_stagewise_manifest_equals_all(synth_inputs, tmp_path):
    staged = tmp_path / "staged"
    combined = tmp_path / "combined"
    for stage in ("detect", "markout", "horizon", "estimate", "market", "builder"):
        assert main([stage, "--input-dir", str(synth_inputs), "--out-dir", str(staged)]) == 0
    assert main(["all", "--input-dir", str(synth_inputs), "--out-dir", str(combined)]) == 0
    assert (staged / "manifest.json").read_bytes() == (combined / "manifest.json").read_bytes()


def test_rerun_reproduces_byte_identical(synth_inputs, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["all", "--input-dir", str(synth_inputs), "--out-dir", str(a)])
    main(["all", "--input-dir", str(synth_inputs), "--out-dir", str(b)])
    for p in a.glob("*.csv"):
        assert p.read_bytes() == (b / p.name).read_bytes(), p.name


def test_missing_input_exits_2(tmp_path, capsys):
    rc = main(["detect", "--input-dir", str(tmp_path / "nope"),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "io"
    assert "transactions.csv" in err["message"]


def test_short_input_row_exits_1(synth_inputs, tmp_path, capsys):
    inputs = tmp_path / "inputs"
    shutil.copytree(synth_inputs, inputs)
    lines = (inputs / "tokens.csv").read_text().splitlines()
    lines[3] = ",".join(lines[3].split(",")[:2])
    (inputs / "tokens.csv").write_text("\n".join(lines) + "\n")
    rc = main(["detect", "--input-dir", str(inputs), "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "MalformedRow",
                   "message": "malformed row 3: fewer fields than the header"}


def test_stage_dependency_exits_1(synth_inputs, tmp_path, capsys):
    rc = main(["horizon", "--input-dir", str(synth_inputs),
               "--out-dir", str(tmp_path / "fresh")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "DependencyMissing"
    assert "markouts.csv" in err["message"]


def test_score_subcommand(synth_inputs, tmp_path, capsys):
    out = tmp_path / "out"
    main(["all", "--input-dir", str(synth_inputs), "--out-dir", str(out)])
    rc = main(["score", "--truth", str(synth_inputs / "ground_truth.json"),
               "--out-dir", str(out)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["max_t_star_error_s"] == 0.0
    assert report["searchers"]["s_gentle"]["est_pattern"] == "P1"
    assert report["searchers"]["s_flat"]["est_pattern"] == "P3"


def test_bad_scenario_exits_1(tmp_path, capsys):
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps({
        "seed": 1, "n_days": 1,
        "searchers": [{"label": "x", "impact_decay": "gentle",
                       "trades_per_day": 5, "true_hedge_delay_s": 0.71}],
    }))
    rc = main(["synth", "--config", str(scenario), "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    assert json.loads(capsys.readouterr().err)["error"] == "InvalidConfig"


def test_charts_flag(synth_inputs, tmp_path):
    pytest.importorskip("matplotlib")
    out = tmp_path / "out"
    rc = main(["all", "--input-dir", str(synth_inputs), "--out-dir", str(out), "--charts"])
    assert rc == 0
    assert (out / "median_gr.svg").exists()
    assert (out / "integration.svg").exists()


def test_startup_imports_no_scipy():
    """Every `cexdex <stage>` process starts without scipy; only the
    t-approximation p-value imports scipy.special, on first use."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    code = ("import sys, cexdex.cli, cexdex.pipeline; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
