import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from cexdex import pipeline
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
    for name in ("detections.csv", "verdicts.csv", "markouts.csv", "markouts_mr.npy",
                 "profiles.csv", "economics.csv", "summary.csv", "cumulative_ev.csv", "market.csv",
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


def run_with_replaced_input(synth_inputs, tmp_path, capsys, name: str, text: str):
    """(exit code, error JSON, CSVs written) of `cexdex all` on a copy of the
    inputs whose ``name`` holds ``text``."""
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    shutil.copytree(synth_inputs, inputs)
    (inputs / name).write_text(text)
    capsys.readouterr()
    rc = main(["all", "--input-dir", str(inputs), "--out-dir", str(out)])
    lines = capsys.readouterr().err.strip().splitlines()
    return rc, json.loads(lines[-1]) if lines else None, sorted(out.glob("*.csv"))


@pytest.mark.parametrize("update, message", [
    ({"grid_step_s": "0.5"}, "'grid_step_s' must be a number, not \"0.5\""),
    ({"min_trades_low_confidence": "x"}, "'min_trades_low_confidence' must be an integer"),
    ({"quote_staleness_ms": True}, "'quote_staleness_ms' must be an integer, not true"),
    ({"rolling_window_days": 30.5}, "'rolling_window_days' must be an integer, not 30.5"),
    ({"taker_fee_rate": False}, "'taker_fee_rate' must be a number, not false"),
], ids=["str_for_float", "str_for_int", "bool_for_int", "float_for_int", "bool_for_float"])
def test_config_value_of_another_type_exits_1(synth_inputs, tmp_path, capsys, update, message):
    """Each config.json value must have its field's JSON type (a bool is
    neither an integer nor a number); it is checked before any stage runs."""
    config = json.loads((synth_inputs / "config.json").read_text())
    rc, err, written = run_with_replaced_input(
        synth_inputs, tmp_path, capsys, "config.json", json.dumps({**config, **update}))
    assert (rc, err["error"], written) == (1, "InvalidConfig", [])
    assert message in err["message"]


@pytest.mark.parametrize("update, key", [
    ({"taker_fee_rate": float("nan")}, "taker_fee_rate"),
    ({"grid_end_s": float("inf")}, "grid_end_s"),
    ({"grid_step_s": float("nan")}, "grid_step_s"),
    ({"grid_start_s": -0.7}, "grid_start_s"),
    ({"pattern_abrupt_drop_fraction": -1.0}, "pattern_abrupt_drop_fraction"),
    ({"pattern_abrupt_drop_fraction": 0.0}, "pattern_abrupt_drop_fraction"),
    ({"pattern_flat_epsilon_bps": -0.5}, "pattern_flat_epsilon_bps"),
    ({"min_trades_low_confidence": -1}, "min_trades_low_confidence"),
    ({"grid_step_s": 0.0}, "grid_step_s must be > 0"),
    ({"grid_start_s": 10.0, "grid_end_s": 10.0}, "grid_start_s must be < grid_end_s"),
    ({"exclusivity_threshold": 1.0}, "exclusivity_threshold must be in (0, 1)"),
    ({"quote_staleness_ms": 0}, "quote_staleness_ms must be > 0"),
], ids=["nan_fee", "infinite_grid_end", "nan_grid_step", "grid_without_zero",
        "negative_drop_fraction", "zero_drop_fraction", "negative_flat_epsilon",
        "negative_min_trades", "zero_grid_step", "empty_grid", "exclusivity_threshold_one",
        "zero_staleness"])
def test_config_non_finite_or_grid_without_zero_exits_1(synth_inputs, tmp_path, capsys,
                                                         update, key):
    """JSON's NaN and Infinity, a grid that is empty or misses offset 0, and
    a setting out of range are refused naming the key, before any stage
    writes a file."""
    config = json.loads((synth_inputs / "config.json").read_text())
    rc, err, written = run_with_replaced_input(
        synth_inputs, tmp_path, capsys, "config.json", json.dumps({**config, **update}))
    assert (rc, err["error"], written) == (1, "InvalidConfig", [])
    assert key in err["message"]


def test_config_that_is_not_an_object_exits_1(synth_inputs, tmp_path, capsys):
    rc, err, written = run_with_replaced_input(synth_inputs, tmp_path, capsys, "config.json", "[]")
    assert (rc, err["error"], written) == (1, "InvalidConfig", [])
    assert "JSON object" in err["message"]


SEARCHERS_KEYS = ("labels", "integrated_with")
# section values that are not an object; null is read as absent, not refused
NOT_OBJECTS = {"list": [], "zero": 0, "empty_string": "", "false": False}


@pytest.mark.parametrize("searchers, message", [
    ([{"labels": {}}], "searchers.json must be a JSON object"),
    ({"labels": {"s_gentle": "0x5ea"}},
     "'labels' of 's_gentle' in searchers.json must be a list of address strings"),
    ({"labels": {"s_gentle": ["0x5ea"]}, "integrated_with": {"s_gentle": ["builderA"]}},
     "'integrated_with' of 's_gentle' in searchers.json must be one builder label"),
    ({"labels": {"s_a": ["0x5EA"], "s_b": ["0x5ea"]}}, "address 0x5ea appears under two labels"),
    ({"labels": {"s_gentle": ["0x5ea"]}, "integrated_with": {"s_other": "builderA"}},
     "integrated_with references unknown label 's_other'"),
    *(({key: section}, f"{key!r} in searchers.json must be an object keyed by searcher label")
      for key in SEARCHERS_KEYS for section in NOT_OBJECTS.values()),
], ids=["top_level_list", "labels_a_string", "integrated_with_a_list",
        "address_under_two_labels", "integrated_with_an_unknown_label",
        *(f"{key}_is_{name}" for key in SEARCHERS_KEYS for name in NOT_OBJECTS)])
def test_searchers_of_another_shape_exit_1(synth_inputs, tmp_path, capsys, searchers, message):
    rc, err, _ = run_with_replaced_input(
        synth_inputs, tmp_path, capsys, "searchers.json", json.dumps(searchers))
    assert (rc, err["error"]) == (1, "InvalidConfig")
    assert message in err["message"]


def test_searchers_that_is_not_json_exits_1(synth_inputs, tmp_path, capsys):
    rc, err, _ = run_with_replaced_input(synth_inputs, tmp_path, capsys, "searchers.json", "")
    assert (rc, err["error"]) == (1, "InvalidConfig")
    assert err["message"].startswith("searchers.json is not valid JSON: Expecting value")


@pytest.mark.parametrize("where", ["label", "address", "builder"])
def test_searchers_with_a_lone_surrogate_exit_1(synth_inputs, tmp_path, capsys, where):
    """JSON can spell a lone surrogate ("\\ud800"), which is no UTF-8 text, so
    no output could hold it: refused before any stage writes a file."""
    searchers = json.loads((synth_inputs / "searchers.json").read_text())
    bad = "s_\ud800"
    if where == "label":
        searchers["labels"][bad] = searchers["labels"].pop("s_flat")
    elif where == "address":
        searchers["labels"]["s_flat"].append(bad)
    else:
        searchers["integrated_with"]["s_gentle"] = bad
    rc, err, written = run_with_replaced_input(
        synth_inputs, tmp_path, capsys, "searchers.json", json.dumps(searchers))
    assert (rc, written) == (1, [])
    assert err == {"error": "InvalidConfig",
                   "message": "searchers.json holds 's_\\ud800', which is not UTF-8 text"}


@pytest.mark.parametrize("name", ["config.json", "searchers.json"])
def test_json_input_that_is_not_utf8_exits_1_naming_it(synth_inputs, tmp_path, capsys, name):
    inputs = tmp_path / "inputs"
    shutil.copytree(synth_inputs, inputs)
    (inputs / name).write_bytes(b"\xff")
    capsys.readouterr()
    assert main(["all", "--input-dir", str(inputs), "--out-dir", str(tmp_path / "out")]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "InvalidConfig", "message": f"{name} is not valid JSON: 'utf-8' "
                   "codec can't decode byte 0xff in position 0: invalid start byte"}


DROP = object()  # a scenario key to leave out


@pytest.mark.parametrize("update, message", [
    ({"horizon_days": 3}, "unknown keys in scenario.json: ['horizon_days']"),
    ({"searchers": [{**SCENARIO["searchers"][0], "volume": 1.0}]},
     "unknown keys in searcher 0 of scenario.json: ['volume']"),
    ({"searchers": DROP}, "scenario.json lacks the required keys ['searchers']"),
    ({"n_days": "2"}, "scenario.json key 'n_days' must be an integer, not \"2\""),
    ({"n_days": 0}, "n_days must be > 0"),
    ({"builders": []}, "searchers and builders must not be empty"),
    ({"seed": -1}, "seed must be in [0, 2**64)"),
    (b"\xff", "scenario.json is not valid JSON: 'utf-8' codec can't decode byte 0xff in "
     "position 0: invalid start byte"),  # the whole file
], ids=["unknown_key", "unknown_searcher_key", "no_searchers", "str_for_int", "zero_days",
        "no_builders", "negative_seed", "not_utf8"])
def test_synth_refuses_a_bad_scenario_before_writing(tmp_path, capsys, update, message):
    if not isinstance(update, bytes):
        scenario = {k: v for k, v in {**SCENARIO, **update}.items() if v is not DROP}
        update = json.dumps(scenario).encode()
    (tmp_path / "scenario.json").write_bytes(update)
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["synth", "--config", str(tmp_path / "scenario.json"), "--out-dir", str(out)]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "InvalidConfig", "message": message}
    assert not out.exists()


def test_manifest_digests_match(synth_inputs, tmp_path):
    out = tmp_path / "out"
    main(["all", "--input-dir", str(synth_inputs), "--out-dir", str(out)])
    manifest = json.loads((out / "manifest.json").read_text())
    for name, meta in manifest["outputs"].items():
        digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert digest == meta["sha256"], name
    assert manifest["inputs"]["transactions.csv"]["rows"] == 35


@pytest.fixture(scope="module")
def awkward_labels(tmp_path_factory):
    """SCENARIO with a third and a fourth searcher, the four labelled
    " s_pad ", 's,"q"', "s_é" and "s_nul\\x00": every output that names a
    searcher holds an unstripped, a quoted, a non-ASCII cell and one that
    ends in NUL, which the reader takes cell by cell and numpy's fixed-width
    text would cut."""
    root = tmp_path_factory.mktemp("awkward")
    scenario = dict(SCENARIO, searchers=[*SCENARIO["searchers"], {
        "label": "s_abrupt", "impact_decay": "abrupt", "trades_per_day": 15,
        "true_hedge_delay_s": 0.5}, {
        "label": "s_nul", "impact_decay": "gentle", "trades_per_day": 12,
        "true_hedge_delay_s": 1.5}])
    (root / "scenario.json").write_text(json.dumps(scenario))
    inputs = root / "inputs"
    assert main(["synth", "--config", str(root / "scenario.json"), "--out-dir", str(inputs)]) == 0
    names = {"s_gentle": " s_pad ", "s_flat": 's,"q"', "s_abrupt": "s_é", "s_nul": "s_nul\x00"}
    searchers = json.loads((inputs / "searchers.json").read_text())
    (inputs / "searchers.json").write_text(json.dumps({
        "labels": {names[k]: v for k, v in searchers["labels"].items()},
        "integrated_with": {names[k]: v for k, v in searchers["integrated_with"].items()}}))
    return inputs


def test_stagewise_equals_all(synth_inputs, awkward_labels, tmp_path):
    for k, inputs in enumerate((synth_inputs, awkward_labels)):
        staged = tmp_path / f"staged{k}"
        combined = tmp_path / f"combined{k}"
        for stage in ("detect", "markout", "horizon", "estimate", "market", "builder"):
            assert main([stage, "--input-dir", str(inputs), "--out-dir", str(staged)]) == 0
        main(["all", "--input-dir", str(inputs), "--out-dir", str(combined)])
        for p in combined.glob("*.csv"):
            assert p.read_bytes() == (staged / p.name).read_bytes(), (inputs, p.name)
    with open(combined / "detections.csv", newline="", encoding="utf-8") as f:
        labels = {r["searcher_label"] for r in csv.DictReader(f)}
    assert labels == {" s_pad ", 's,"q"', "s_é", "s_nul\x00"}


def test_outputs_are_utf8_under_an_ascii_locale(awkward_labels, tmp_path):
    """Under the C locale, whose encoding is ASCII, cexdex all writes and
    reads its CSVs as UTF-8: the bytes of a run under any other locale."""
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = tmp_path / "c_locale"
    proc = subprocess.run([sys.executable, "-m", "cexdex.cli", "all", "--input-dir",
                           str(awkward_labels), "--out-dir", str(out)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert main(["all", "--input-dir", str(awkward_labels), "--out-dir", str(tmp_path / "here")]) == 0
    for p in (tmp_path / "here").glob("*.csv"):
        assert p.read_bytes() == (out / p.name).read_bytes(), p.name
    assert "s_é".encode() in (out / "detections.csv").read_bytes()


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
                   "message": "malformed row 3 of tokens.csv: fewer fields than the header"}


@pytest.mark.parametrize("row, old, new", [
    (2, b"USDT", b"US\xffDT"),  # a symbol
    (0, b"symbol", b"s\xffmbol"),  # the header
], ids=["symbol", "header"])
def test_input_that_is_not_utf8_exits_1_naming_its_row(synth_inputs, tmp_path, capsys, row, old, new):
    inputs = tmp_path / "inputs"
    shutil.copytree(synth_inputs, inputs)
    lines = (inputs / "tokens.csv").read_bytes().split(b"\n")
    assert old in lines[row]
    lines[row] = lines[row].replace(old, new)
    (inputs / "tokens.csv").write_bytes(b"\n".join(lines))
    rc = main(["detect", "--input-dir", str(inputs), "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "MalformedRow",
                   "message": f"malformed row {row} of tokens.csv: byte 0xff is not UTF-8"}


@pytest.mark.parametrize("row, error, message", [
    (3, "MalformedRow", "malformed row 3 of detections.csv: byte 0xe9 is not UTF-8"),
    (0, "OutdatedOutput", "rerun the detect stage"),  # a header this version does not write
], ids=["row", "header"])
def test_stage_output_that_is_not_utf8_exits_1(synth_inputs, tmp_path, capsys, row, error, message):
    out = tmp_path / "out"
    assert main(["all", "--input-dir", str(synth_inputs), "--out-dir", str(out)]) == 0
    lines = (out / "detections.csv").read_bytes().split(b"\n")
    lines[row] = lines[row].replace(b"builder", b"build\xe9r", 1)
    (out / "detections.csv").write_bytes(b"\n".join(lines))
    capsys.readouterr()
    assert main(["estimate", "--input-dir", str(synth_inputs), "--out-dir", str(out)]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == error and err["message"].endswith(message)


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


def test_score_truth_that_is_not_json_exits_1(tmp_path, capsys):
    truth = tmp_path / "ground_truth.json"
    truth.write_text("{not json")
    assert main(["score", "--truth", str(truth), "--out-dir", str(tmp_path)]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "InvalidConfig" and "ground_truth.json" in err["message"]


def test_program_fault_is_not_a_validation_error(synth_inputs, tmp_path, monkeypatch, capsys):
    """A ValueError out of a stage is a fault of the program: main raises it
    rather than reporting it as bad input with exit 1."""
    def fault(ws):
        raise ValueError("stage fault")

    monkeypatch.setitem(pipeline.STAGES, "detect", fault)
    with pytest.raises(ValueError, match="stage fault"):
        main(["detect", "--input-dir", str(synth_inputs), "--out-dir", str(tmp_path / "out")])
    assert '"error"' not in capsys.readouterr().err


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


def test_startup_imports_no_scipy():
    """Every `cexdex <stage>` process starts without scipy; only the
    t-approximation p-value imports scipy.special, on first use."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    code = ("import sys, cexdex.cli, cexdex.pipeline; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_a_run_imports_no_numpy_ma(synth_inputs, tmp_path):
    """numpy imports numpy.ma, about 10 ms, on the first np.median, plain
    np.unique or np.isin that sorts; cexdex all calls none of them. scipy,
    which a p-value of more than 9 points imports, loads numpy.ma too; this
    corpus's one day has no such p-value."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    argv = ["all", "--input-dir", str(synth_inputs), "--out-dir", str(tmp_path / "out")]
    code = (f"import sys; from cexdex.cli import main; rc = main({argv!r}); "
            "print(rc, 'numpy.ma' in sys.modules, 'scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["0", "False", "False"]


def test_startup_imports_no_synth():
    """A pipeline process does not import the corpus generator; only
    `cexdex synth` and `cexdex score` do."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    code = "import sys, cexdex.cli, cexdex.pipeline; print('cexdex.synth' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


@pytest.mark.parametrize("days", [2, 1, 0, -3])
def test_config_rolling_window_shorter_than_three_days_exits_1(synth_inputs, tmp_path, capsys,
                                                               days):
    """A Spearman rank correlation needs three points, so a shorter rolling
    window would drop every pair_rolling row; it is refused naming the key."""
    config = json.loads((synth_inputs / "config.json").read_text())
    rc, err, written = run_with_replaced_input(
        synth_inputs, tmp_path, capsys, "config.json",
        json.dumps({**config, "rolling_window_days": days}))
    assert (rc, err["error"], written) == (1, "InvalidConfig", [])
    assert "rolling_window_days" in err["message"]
