import hashlib
import json
from pathlib import Path

import pytest

from cexdex.cli import main
from cexdex.config import PipelineConfig
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


def varied_config():
    """Three days; one searcher always trades the major, one sometimes; a
    tip fraction other than one half; three builders, one integrated."""
    return SynthConfig(
        seed=9,
        n_days=3,
        searchers=(
            SearcherSpec("m", "gentle", 30, true_hedge_delay_s=1.5, major_share=0.4,
                         tip_fraction=0.25),
            SearcherSpec("x", "abrupt", 12, true_hedge_delay_s=0.0, major_share=1.0),
            SearcherSpec("f", "none", 8, major_share=0.4),
        ),
        builders=("b1", "b2", "b3"),
        integrated_with={"x": "b2"},
        base_volatility=1e-3,
    )


# sha256 of every file generate writes; a change to the generator that moves
# one byte of a corpus for these scenarios fails here
PINNED_DIGESTS = {
    "small": (small_config, {
        "blocks.csv": "55c12fb7d08aabb813e74ecdf5ba246e72ae2771cd018ab8139a49fdfb1a0bd5",
        "config.json": "33b638ec5c56c91c6751edfeab106d178b008bb74957526f7d056b2d88ffb4bf",
        "ground_truth.json": "2578d5a2dcbae9c0de90105d9112864a214b7929f3e31b203a9936904d79561a",
        "quotes.csv": "2a06d80497e8e826771fd93c573adb711abb23c5cbaec1e87d8a0a9c41530c79",
        "searchers.json": "81f6b02bded572df19d14555b0517e90d4fe9111dad0c2f09fee3c289e4562a9",
        "tokens.csv": "bdd87bd33489e520da6421bf21436fa784fcdbbaa93b56f2b7b7e8440f004fd9",
        "transactions.csv": "31c7f40b5174d180ecc9e171b03e952d25d9e1194d1f4f392cd5ccdf710109b3",
    }),
    "varied": (varied_config, {
        "blocks.csv": "afa29fa1fe8455f8bb37acbe6360dbe718348361609d32dfe51ea101fe9d2954",
        "config.json": "33b638ec5c56c91c6751edfeab106d178b008bb74957526f7d056b2d88ffb4bf",
        "ground_truth.json": "aeb897bdae9a0c0593292fed42648d5330b74517f301feef6b9a0443fd4976b6",
        "quotes.csv": "d81e590dff1a96f92fd2f8fcb7ab210981b6387d439b7e40a5a8515ecdf28170",
        "searchers.json": "270f2aab12f7a210bfc782c8b7c6e86187010351cfb84e03d9dd395fe4cef56f",
        "tokens.csv": "bdd87bd33489e520da6421bf21436fa784fcdbbaa93b56f2b7b7e8440f004fd9",
        "transactions.csv": "8538b7e20658dd704d19b80619965de53dbd4d6fae3027bf95a4c1527ee3a7b8",
    }),
}


@pytest.mark.parametrize("scenario", sorted(PINNED_DIGESTS))
def test_generate_writes_pinned_bytes(tmp_path, scenario):
    make_config, digests = PINNED_DIGESTS[scenario]
    generate(make_config(), tmp_path)
    assert digest_dir(tmp_path) == digests


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
        )).validate(PipelineConfig())


def test_validation_rejects_delay_on_flat():
    with pytest.raises(InvalidConfig):
        small_config(searchers=(
            SearcherSpec("a", "none", 10, true_hedge_delay_s=1.0),
        )).validate(PipelineConfig())


def test_validation_rejects_unknown_integration():
    with pytest.raises(InvalidConfig):
        small_config(integrated_with={"nobody": "builderA"}).validate(PipelineConfig())


@pytest.mark.parametrize("overrides, message", [
    (dict(seed=-1), "seed must be in [0, 2**64)"),
    (dict(seed=2**64), "seed must be in [0, 2**64)"),
    (dict(n_days=0), "n_days must be > 0"),
    (dict(searchers=(), integrated_with={}), "searchers and builders must not be empty"),
    (dict(builders=(), integrated_with={}), "searchers and builders must not be empty"),
    (dict(base_volatility=float("nan")), "base_volatility must be finite"),
    (dict(searchers=(SearcherSpec("a", "none", 5), SearcherSpec("a", "none", 5)),
          integrated_with={}), "searcher labels must be distinct"),
    # the spread rises from the grid's first offset, so the delay must come later
    (dict(searchers=(SearcherSpec("a", "gentle", 5, true_hedge_delay_s=-1.0),),
          integrated_with={}), "a: delay not a grid offset after the first"),
    (dict(searchers=(SearcherSpec("a", "gentle", 5, true_hedge_delay_s=float("inf")),),
          integrated_with={}), "a: delay not a grid offset after the first"),
    (dict(searchers=(SearcherSpec("a", "none", 7000), SearcherSpec("b", "none", 201)),
          integrated_with={}), "7201 trades/day exceeds 7200 slots"),
    (dict(integrated_with={"b": "builderZ"}), "integrated_with references unknown builder builderZ"),
], ids=["negative_seed", "seed_past_uint64", "no_days", "no_searchers", "no_builders",
        "nan_volatility", "duplicate_label", "delay_at_grid_start",
        "infinite_delay", "more_trades_than_slots", "unknown_integrated_builder"])
def test_validation_rejects_out_of_range_values(tmp_path, overrides, message):
    with pytest.raises(InvalidConfig) as e:
        generate(small_config(**overrides), tmp_path / "out")
    assert str(e.value) == message
    assert not (tmp_path / "out").exists()


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


def test_score_leaves_out_a_searcher_without_a_profile(tmp_path):
    """A truth searcher that profiles.csv has no row for is not scored: a
    ground truth with one more such searcher gives the same report."""
    truth = generate(small_config(), tmp_path / "in")
    assert main(["all", "--input-dir", str(tmp_path / "in"), "--out-dir", str(tmp_path / "out")]) == 0
    report = score(truth, tmp_path / "out")
    assert sorted(report["searchers"]) == ["a", "b", "c"]
    truth["searchers"]["ghost"] = truth["searchers"]["a"]
    assert score(truth, tmp_path / "out") == report


@pytest.mark.parametrize("key", ["dex_edge", "peak_amplitude", "alt_price", "btc_price",
                                 "eth_price", "base_notional_usd", "base_fee_eth"])
def test_from_json_refuses_a_scenario_constant(tmp_path, key):
    """Prices, notional, the base fee and the impact model's edge and peak
    are the generator's constants, not scenario keys."""
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps({
        "seed": 7, "n_days": 2, key: 1.0,
        "searchers": [{"label": "x", "impact_decay": "none", "trades_per_day": 5}],
    }))
    with pytest.raises(InvalidConfig) as e:
        SynthConfig.from_json(p)
    assert str(e.value) == f"unknown keys in scenario.json: [{key!r}]"


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
