import hashlib
import json
from pathlib import Path

import pytest

from cexdex.cli import main
from cexdex.config import MarkoutGrid, PipelineConfig
from cexdex.errors import InvalidConfig, MissingOutputs
from cexdex.synth import SearcherSpec, SynthConfig, generate, score


def small_config(**overrides):
    base = dict(
        seed=42,
        n_days=1,
        searchers=(
            SearcherSpec("a", "gentle", 20, true_hedge_delay_s=1.0),
            SearcherSpec("b", "abrupt", 15, true_hedge_delay_s=0.5),
            SearcherSpec("c", "none", 10),
        ),
        integrated_with={"b": "builderA"},
    )
    base.update(overrides)
    return SynthConfig(**base)


def digest_dir(path: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.iterdir())
    }


def test_same_seed_byte_identical(tmp_path):
    generate(small_config(), tmp_path / "run1")
    generate(small_config(), tmp_path / "run2")
    assert digest_dir(tmp_path / "run1") == digest_dir(tmp_path / "run2")


def test_different_seed_differs(tmp_path):
    generate(small_config(), tmp_path / "run1")
    generate(small_config(seed=43), tmp_path / "run2")
    assert digest_dir(tmp_path / "run1") != digest_dir(tmp_path / "run2")


def test_emits_all_inputs(tmp_path):
    generate(small_config(), tmp_path / "out")
    names = {p.name for p in (tmp_path / "out").iterdir()}
    assert {"transactions.csv", "quotes.csv", "tokens.csv", "blocks.csv",
            "searchers.json", "config.json", "ground_truth.json"} <= names


def test_ground_truth_shape(tmp_path):
    generate(small_config(), tmp_path / "out")
    truth = json.loads((tmp_path / "out" / "ground_truth.json").read_text())
    assert truth["searchers"]["a"] == {"true_hedge_delay_s": 1.0, "true_pattern": "P1"}
    assert truth["searchers"]["b"]["true_pattern"] == "P2"
    assert truth["searchers"]["c"] == {"true_hedge_delay_s": None, "true_pattern": "P3"}
    # P3 searchers have no per-trade economics (excluded downstream)
    labels = {t["searcher_label"] for t in truth["trades"].values()}
    assert labels == {"a", "b"}
    assert len(truth["blocks"]) == 45  # one block per trade


def test_validation_rejects_off_grid_delay():
    with pytest.raises(InvalidConfig):
        small_config(searchers=(
            SearcherSpec("a", "gentle", 10, true_hedge_delay_s=0.7),
        )).validate(MarkoutGrid(PipelineConfig()))


def test_validation_rejects_delay_on_flat():
    with pytest.raises(InvalidConfig):
        small_config(searchers=(
            SearcherSpec("a", "none", 10, true_hedge_delay_s=1.0),
        )).validate(MarkoutGrid(PipelineConfig()))


def test_validation_rejects_unknown_integration():
    with pytest.raises(InvalidConfig):
        small_config(integrated_with={"nobody": "builderA"}).validate(MarkoutGrid(PipelineConfig()))


def test_score_requires_outputs(tmp_path):
    generate(small_config(), tmp_path / "out")
    truth = json.loads((tmp_path / "out" / "ground_truth.json").read_text())
    with pytest.raises(MissingOutputs):
        score(truth, tmp_path / "empty")


def test_score_zero_horizon(tmp_path):
    """A t* of 0.0 s is an estimate, scored like any other."""
    cfg = small_config(searchers=(SearcherSpec("z", "gentle", 20, true_hedge_delay_s=0.0),),
                       integrated_with={})
    truth = generate(cfg, tmp_path / "in")
    assert main(["all", "--input-dir", str(tmp_path / "in"), "--out-dir", str(tmp_path / "out")]) == 0
    report = score(truth, tmp_path / "out")
    assert report["searchers"]["z"]["t_star_error_s"] == 0.0
    assert report["max_t_star_error_s"] == 0.0


def test_from_json_round_trip(tmp_path):
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps({
        "seed": 7, "n_days": 2,
        "searchers": [{"label": "x", "impact_decay": "gentle",
                       "trades_per_day": 5, "true_hedge_delay_s": 0.5}],
    }))
    cfg = SynthConfig.from_json(p)
    assert cfg.seed == 7
    assert cfg.searchers[0].true_hedge_delay_s == 0.5
