"""End-to-end acceptance suite.

Each test pins one of the nine release criteria at its stated tolerance and
prints a one-line PASS marker so the suite doubles as a checklist.
"""

import itertools
import json
import time
from pathlib import Path

import numpy as np
import pytest

from cexdex.builder import REFUND_CUTOFF_MS, subsidy_flags
from cexdex.cli import main
from cexdex.config import MarkoutGrid, PipelineConfig
from cexdex.data_model import BlockRecord
from cexdex.detect import HEURISTICS
from cexdex.estimate import t_star_column
from cexdex.horizon import SearcherProfile
from cexdex.market import (
    classify_exclusivity,
    hhi,
    lagged_correlation,
    spearman,
)
from cexdex.synth import SearcherSpec, SynthConfig, generate, score, uniform01

from conftest import detect, integration_of, make_store, make_trade, mr_at_zero
from test_builder import bp_of
from test_estimate import economics_of


def run_pipeline(inputs: Path, out: Path):
    rc = main(["all", "--input-dir", str(inputs), "--out-dir", str(out)])
    assert rc == 0


def run_scored(cfg: SynthConfig, tmp_path: Path, tag: str):
    inputs = tmp_path / f"in_{tag}"
    out = tmp_path / f"out_{tag}"
    truth = generate(cfg, inputs)
    run_pipeline(inputs, out)
    return score(truth, out)


# 1 ------------------------------------------------------------------------

def test_criterion_1_heuristic_corpus(registry, tmp_path):
    from heuristic_corpus import build_corpus

    txs, manifest = build_corpus()
    assert len(txs) == 40
    start = time.perf_counter()
    _, verdicts = detect(tmp_path, txs, registry)
    assert set(verdicts) == set(manifest)
    for tx_hash, verdict in verdicts.items():
        expected_pass, expected_failed = manifest[tx_hash]
        assert verdict.passed == expected_pass, tx_hash
        failed = {h for h in HEURISTICS if not getattr(verdict, h.lower())}
        assert failed == set(expected_failed), tx_hash
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: 40/40 verdicts, {elapsed * 1e3:.1f} ms")


# 2 ------------------------------------------------------------------------

def test_criterion_2_markout_anchor(registry, config):
    # anchor: EV = -1, tips = 10 => PnL = -11, margin undefined
    flat = make_store({
        "TOKAUSDT": [(998_000 + 500 * k, 50.5, 50.5) for k in range(30)],
        "ETHUSDT": [(998_000, 2000.0, 2000.0)],
    })
    trade = make_trade(amount_bought="2", amount_sold="100", volume_usd=101.0,
                       base_fee_eth=0.00098266375, builder_tip_eth=0.005)
    mr0 = mr_at_zero(trade, flat, registry, config)
    profile = SearcherProfile(searcher_label="s1", t_star_s=0.0, pattern="P1",
                              decline_3s_fraction=0.1, n_arb_trades=500,
                              low_confidence=False)
    assert t_star_column(profile, MarkoutGrid(config)) == MarkoutGrid(config).index_of(0.0)
    e = economics_of(trade, mr0, eth_usd_at_slot=2000.0)
    assert e.ev_usd == pytest.approx(-1.0, abs=1e-9)
    assert e.pnl_usd == pytest.approx(-11.0, abs=1e-9)
    assert e.margin is None

    # hand-oracle two-leg fee fixtures at 1e-9 USD
    fixtures = [
        # (P_A, x, y, expected MR) with P_B = 1 (USDT leg)
        (55.0, "2", "100", 110 - 100 - 0.0001725 * 210),
        (50.0, "2", "100", 100 - 100 - 0.0001725 * 200),
        (12.34, "10", "120", 123.4 - 120 - 0.0001725 * 243.4),
        (0.5, "1000", "501", 500 - 501 - 0.0001725 * 1001),
    ]
    for p_a, x, y, expected in fixtures:
        store = make_store({
            "TOKAUSDT": [(998_000, p_a, p_a)],
            "ETHUSDT": [(998_000, 2000.0, 2000.0)],
        })
        t = make_trade(amount_bought=x, amount_sold=y, volume_usd=float(y))
        assert mr_at_zero(t, store, registry, config) == pytest.approx(
            expected, abs=1e-9
        )
    print("\nPASS criterion 2: EV/PnL anchor exact, 4 MR fixtures within 1e-9")


# 3 ------------------------------------------------------------------------

def test_criterion_3_noiseless_recovery(tmp_path):
    delays = (0.5, 1.0, 1.5)
    decays = ("gentle", "abrupt", "none")
    searchers = []
    for i, (delay, decay) in enumerate(itertools.product(delays, decays)):
        searchers.append(SearcherSpec(
            label=f"s{i}_{decay}_{delay}",
            impact_decay=decay,
            trades_per_day=556,  # 9 searchers x 2 days -> just over 1e4 trades
            true_hedge_delay_s=None if decay == "none" else delay,
        ))
    cfg = SynthConfig(seed=101, n_days=2, searchers=tuple(searchers),
                      base_volatility=0.0)
    n_trades = 2 * sum(s.trades_per_day for s in searchers)
    assert n_trades >= 10_000

    start = time.perf_counter()
    report = run_scored(cfg, tmp_path, "c3")
    elapsed = time.perf_counter() - start

    expected_pattern = {"gentle": "P1", "abrupt": "P2", "none": "P3"}
    for s in searchers:
        row = report["searchers"][s.label]
        assert row["est_pattern"] == expected_pattern[s.impact_decay], s.label
        if s.impact_decay != "none":
            assert row["t_star_error_s"] == 0.0, s.label
    assert elapsed < 30.0
    print(f"\nPASS criterion 3: exact t*/pattern recovery on {n_trades} trades "
          f"in {elapsed:.1f} s")


# 4 ------------------------------------------------------------------------

def test_criterion_4_noisy_recovery(tmp_path):
    hits = 0
    total = 0
    for seed in range(20):
        cfg = SynthConfig(
            seed=1000 + seed, n_days=1,
            searchers=(
                SearcherSpec("g", "gentle", 500, true_hedge_delay_s=1.0),
                SearcherSpec("a", "abrupt", 500, true_hedge_delay_s=0.5),
            ),
            base_volatility=0.0008,
        )
        report = run_scored(cfg, tmp_path, f"c4_{seed}")
        for label in ("g", "a"):
            total += 1
            if abs(report["searchers"][label]["t_star_error_s"]) <= 0.5:
                hits += 1
    rate = hits / total
    assert rate >= 0.9, f"recovery rate {rate:.2f}"
    print(f"\nPASS criterion 4: {hits}/{total} noisy horizons within 0.5 s")


# 5 ------------------------------------------------------------------------

def test_criterion_5_ev_pnl_oracle(tmp_path):
    base_searchers = (
        SearcherSpec("g", "gentle", 300, true_hedge_delay_s=1.0, major_share=0.3,
                     tip_fraction=0.4),
        SearcherSpec("a", "abrupt", 300, true_hedge_delay_s=0.5, tip_fraction=0.7),
    )
    # zero-fee pass
    cfg0 = SynthConfig(seed=55, n_days=1, searchers=base_searchers,
                       taker_fee_rate=0.0, base_volatility=0.0)
    r0 = run_scored(cfg0, tmp_path, "c5_nofee")
    assert r0["trades"]["n_compared"] == r0["trades"]["n_truth"] == 600
    assert r0["trades"]["max_ev_rel_error"] < 1e-6
    assert r0["trades"]["max_pnl_rel_error"] < 1e-6

    # with-fee pass against the hand fee formula baked into the ground truth
    cfg1 = SynthConfig(seed=56, n_days=1, searchers=base_searchers,
                       base_volatility=0.0)
    r1 = run_scored(cfg1, tmp_path, "c5_fee")
    assert r1["trades"]["max_ev_rel_error"] < 1e-6
    assert r1["trades"]["max_pnl_rel_error"] < 1e-6
    print(f"\nPASS criterion 5: EV rel err {r1['trades']['max_ev_rel_error']:.2e}, "
          f"PnL rel err {r1['trades']['max_pnl_rel_error']:.2e}")


# 6 ------------------------------------------------------------------------

def test_criterion_6_builder_correction():
    cutoff = REFUND_CUTOFF_MS

    def mk(delta_c, bid, used, delta, slot):
        return BlockRecord(block_number=1, builder_label="b",
                           coinbase_delta_eth=delta_c, bid_eth=bid,
                           used_bid_adjustment=used, adjustment_delta_eth=delta,
                           slot_time_ms=slot)

    # three branch fixtures, hand values
    assert bp_of(mk(1.0, 9.0, False, 0.0, cutoff), 1.0) == 1.0
    assert bp_of(mk(5.0, 10.0, True, 4.0, cutoff - 1), 1.0) == pytest.approx(-1.0)
    assert bp_of(mk(5.0, 10.0, True, 4.0, cutoff), 1.0) == pytest.approx(-3.0)

    # subsidy monotonicity over 1000 randomized fixtures
    u = uniform01(777, 0, 3000)
    before_count = after_count = 0
    for i in range(1000):
        bp = (u[3 * i] - 0.5) * 10.0
        sp = (u[3 * i + 1] - 0.3) * 5.0
        before, after = subsidy_flags(bp, bp + sp)
        assert after <= before  # after implies before
        before_count += before
        after_count += after
    assert after_count <= before_count
    assert before_count > 0
    print(f"\nPASS criterion 6: Eq branches exact; subsidies {before_count} before "
          f">= {after_count} after on 1000 fixtures")


# 7 ------------------------------------------------------------------------

def test_criterion_7_statistics():
    from test_market import brute_spearman

    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(3, 13))
        x = np.round(rng.uniform(0, 10, n), 1)  # rounded -> frequent ties
        y = np.round(rng.uniform(0, 10, n), 1)
        if len(set(x)) == 1 or len(set(y)) == 1:
            continue
        assert spearman(x, y).rho == pytest.approx(brute_spearman(x, y), abs=1e-12)
        checked += 1
    assert checked > 900

    for _ in range(10_000):
        n = int(rng.integers(1, 20))
        w = rng.uniform(1e-6, 1.0, n)
        shares = w / w.sum()
        v = hhi(list(shares))
        assert 1.0 / n - 1e-9 <= v <= 1.0 + 1e-12

    x = rng.uniform(size=30)
    y = rng.uniform(size=30)
    lag0 = lagged_correlation(x, y, lags=(0,))[0]
    plain = spearman(x, y)
    assert lag0.rho == plain.rho and lag0.p_value == plain.p_value
    print(f"\nPASS criterion 7: {checked} spearman oracle matches, 1e4 HHI vectors, "
          "lag-0 identity")


# 8 ------------------------------------------------------------------------

def test_criterion_8_determinism(tmp_path):
    """Two `cexdex all` runs and one run of the six stage commands write the
    same bytes: every CSV and manifest.json."""
    cfg = SynthConfig(
        seed=9, n_days=2,
        searchers=(
            SearcherSpec("g", "gentle", 60, true_hedge_delay_s=1.0, major_share=0.5),
            SearcherSpec("a", "abrupt", 40, true_hedge_delay_s=0.5),
            SearcherSpec("f", "none", 30),
        ),
        integrated_with={"a": "builderA"},
        base_volatility=0.0005,
    )
    inputs = tmp_path / "in"
    generate(cfg, inputs)
    for run in ("all_1", "all_2"):
        run_pipeline(inputs, tmp_path / run)
    for stage in ("detect", "markout", "horizon", "estimate", "market", "builder"):
        rc = main([stage, "--input-dir", str(inputs), "--out-dir", str(tmp_path / "stages")])
        assert rc == 0
    outs = {}
    for run in ("all_1", "all_2", "stages"):
        files = sorted((tmp_path / run).glob("*.csv")) + [tmp_path / run / "manifest.json"]
        outs[run] = {p.name: p.read_bytes() for p in files}
    assert outs["all_1"] == outs["all_2"] == outs["stages"]
    n_csv = sum(name.endswith(".csv") for name in outs["all_1"])
    assert n_csv >= 12
    print(f"\nPASS criterion 8: {n_csv} CSVs and manifest.json byte-identical "
          "across two `all` runs and one stagewise run")


# 9 ------------------------------------------------------------------------

def test_criterion_9_exclusivity():
    from cexdex.data_model import SearcherLabelFile

    trades = [
        make_trade("0x1", searcher_label="graves", builder_label="titan", volume_usd=100.0),
        make_trade("0x2", searcher_label="kayle", builder_label="titan", volume_usd=52.0),
        make_trade("0x3", searcher_label="kayle", builder_label="rsync", volume_usd=48.0),
        make_trade("0x4", searcher_label="draven", builder_label="titan", volume_usd=50.0),
        make_trade("0x5", searcher_label="draven", builder_label="rsync", volume_usd=50.0),
        make_trade("0x6", searcher_label="ezreal", builder_label="titan", volume_usd=34.0),
        make_trade("0x7", searcher_label="ezreal", builder_label="rsync", volume_usd=33.0),
        make_trade("0x8", searcher_label="ezreal", builder_label="flashbots", volume_usd=33.0),
    ]
    labels = SearcherLabelFile(labels={})
    classes = classify_exclusivity(integration_of(*trades), labels, 0.5)
    assert classes["graves"] == ("Exclusive", "titan")  # 100%
    assert classes["kayle"] == ("Exclusive", "titan")  # 52%
    assert classes["draven"] == ("Neutral", None)  # 50% exactly
    assert classes["ezreal"] == ("Neutral", None)  # 34% max
    print("\nPASS criterion 9: 100% and 52% Exclusive, <=50% Neutral")
