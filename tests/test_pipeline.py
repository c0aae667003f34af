"""Stage boundaries: the CSV layouts stages hand each other and the joins
the market and builder stages make over them."""

import csv
import dataclasses
import hashlib
import json
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cexdex import _kernels, estimate, horizon, market, pipeline
from cexdex.cli import main
from cexdex.synth import SearcherSpec, SynthConfig, generate

from markout_oracle import assert_same_row, oracle_curve, same_bits

SLOT_MS = 12_000
T0_MS = 1717200000000
DAY_MS = 86_400_000


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def write_rows(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


# ---------------------------------------------------------------------------
# layouts: every output's header, written out here, so that renaming a field
# of a row type cannot change a file unnoticed

DEFAULT_OFFSETS = [
    "-1.0", "-0.5", "0.0", "0.5", "1.0", "1.5", "2.0", "2.5", "3.0", "3.5", "4.0", "4.5",
    "5.0", "5.5", "6.0", "6.5", "7.0", "7.5", "8.0", "8.5", "9.0", "9.5", "10.0",
]

LAYOUTS = {
    "detections.csv": [
        "tx_hash", "block_number", "searcher_label", "builder_label", "slot_time_ms",
        "token_bought", "amount_bought", "token_sold", "amount_sold",
        "volume_usd", "base_fee_eth", "builder_tip_eth",
    ],
    "verdicts.csv": [
        "tx_hash", "passed", "h1", "h2", "h3", "h4", "h5", "h6", "failure_reasons",
    ],
    "markouts.csv": (
        ["tx_hash", "searcher_label", "excluded", "exclusion_reason", "volume_usd"]
        + [f"mr_usd@{o}" for o in DEFAULT_OFFSETS]
    ),
    "profiles.csv": [
        "searcher_label", "t_star_s", "pattern", "decline_3s_fraction",
        "n_arb_trades", "low_confidence",
    ],
    "economics.csv": [
        "tx_hash", "searcher_label", "builder_label", "block_number", "slot_time_ms",
        "volume_usd", "ev_usd", "pnl_usd", "margin", "builder_tip_usd", "base_fee_usd",
    ],
    "summary.csv": [
        "searcher_label", "total_volume_usd", "total_ev_usd", "total_tips_usd",
        "total_pnl_usd", "median_trade_ev", "median_trade_pnl", "median_margin",
        "count_total", "count_inventory_adj", "count_quote_gap", "count_arbitrage",
        "count_profitable", "count_unprofitable",
    ],
    "cumulative_ev.csv": ["searcher_label", "date", "ev_usd", "cumulative_ev_usd"],
    "market.csv": [
        "date", "searcher_label", "volume_usd", "volume_share",
        "ev_usd", "ev_share", "hhi_volume", "hhi_ev",
    ],
    "integration.csv": [
        "searcher_label", "builder_label", "volume_fraction", "class", "class_builder",
    ],
    "correlations.csv": ["analysis", "pair", "lag_days", "window_end", "rho", "n", "p_value"],
    "builder_blocks.csv": [
        "block_number", "builder_label", "bp_usd", "sp_usd", "p_usd", "margin",
        "sp_applicable", "subsidized_before", "subsidized_after",
    ],
    "builder_summary.csv": [
        "builder_label", "n_blocks", "total_bid_eth", "total_bp_usd", "total_sp_usd",
        "total_p_usd", "builder_margin", "aggregated_profit_margin", "sp_applicable",
        "subsidized_blocks_before", "subsidized_blocks_after",
        "subsidy_bp_before_usd", "subsidy_bp_after_usd", "subsidy_p_after_usd",
        "margin_skipped_blocks",
    ],
}


def test_every_output_has_its_pinned_header(varied_builders):
    _, out = varied_builders  # a cexdex all run on the default grid
    headers = {}
    for p in out.glob("*.csv"):
        with open(p, newline="") as f:
            headers[p.name] = next(csv.reader(f))
    assert headers == LAYOUTS


def test_reader_refuses_a_field_it_cannot_decode(tmp_path):
    @dataclasses.dataclass
    class Row:
        name: "str"
        values: "list[int]"

    path = tmp_path / "rows.csv"
    pipeline._write_output(path, Row, [Row("a", [1])])
    with pytest.raises(TypeError, match=r"list\[int\]"):
        pipeline._read_output(path, Row, "test")


# ---------------------------------------------------------------------------
# the writer: csv.writer's bytes, from columns

def reference_csv(path: Path, header: list[str], rows) -> None:
    """The rows written one at a time by csv.writer, a bool as true/false."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows([("true" if v else "false") if v.__class__ is bool else v for v in row]
                    for row in rows)


WRITER_CHUNK = pipeline._CHUNK_ROWS
texts = st.text(st.sampled_from([",", '"', "\r", "\n", " ", "a", "Z", "é", "\x00"])
                | st.characters(blacklist_categories=("Cs",)), max_size=5)
floats = st.floats() | st.sampled_from([-0.0, 5e-324, 2.2e-308, 1e16, 0.1, float("nan")])
ints = st.integers(-2**70, 2**70)
decimals = st.integers(-10**50, 10**50).map(lambda i: Decimal(i).scaleb(-20)) | st.decimals()
# (values of one kind, as the column is passed: a list, a numpy array, or a scalar)
KINDS = {
    "str": (texts, list), "float": (floats, list), "int": (ints, list), "bool": (st.booleans(), list),
    "float|None": (floats | st.none(), list), "Decimal": (decimals, list),
    "any": (texts | floats | ints | st.booleans() | st.none() | decimals, list),
    "float64": (floats, lambda v: np.array(v, dtype=np.float64)),
    "int64": (st.integers(-2**63, 2**63 - 1), lambda v: np.array(v, dtype=np.int64)),
    "bool_": (st.booleans(), lambda v: np.array(v, dtype=bool)),
    "scalar": (texts | floats | ints | st.booleans() | st.none(), None),
}


@st.composite
def tables(draw):
    """(columns, rows): each column filled with its kind's first value and a
    few others at random rows, so that quotes fall in some chunks only. The
    first column is not a scalar: scalars alone give no row count."""
    n = draw(st.sampled_from([0, 1, 2, WRITER_CHUNK - 1, WRITER_CHUNK, WRITER_CHUNK + 1,
                              2 * WRITER_CHUNK + 3]))
    rnd = draw(st.randoms(use_true_random=False))
    columns, plain = [], []
    first = draw(st.sampled_from(sorted(set(KINDS) - {"scalar"})))
    for kind in [first, *draw(st.lists(st.sampled_from(sorted(KINDS)), max_size=5))]:
        values, wrap = KINDS[kind]
        pool = draw(st.lists(values, min_size=1, max_size=4))
        if wrap is None:
            columns.append(pool[0])
            plain.append([pool[0]] * n)
            continue
        column = [pool[0]] * n
        for i in rnd.sample(range(n), min(n, 3)):
            column[i] = rnd.choice(pool)
        columns.append(wrap(column))
        plain.append(column if wrap is list else columns[-1].tolist())
    return columns, list(zip(*plain))


@given(tables())
@settings(max_examples=150, deadline=None)
def test_writer_bytes_equal_csv_writer(tmp_path_factory, table):
    columns, rows = table
    header = [f"c{i}" for i in range(len(columns))]
    d = tmp_path_factory.mktemp("csv")
    pipeline._write_csv(d / "columns.csv", header, columns)
    reference_csv(d / "rows.csv", header, rows)
    assert (d / "columns.csv").read_bytes() == (d / "rows.csv").read_bytes()


@pytest.mark.parametrize("columns", [
    [["0xa", True, 1.5], ["0xb", False, 2.5]],  # two rows where three columns are due
    [["0xa", "0xb"], [True], [1.5, 2.5]],  # a short column
])
def test_writer_refuses_a_wrong_shape(tmp_path, columns):
    path = tmp_path / "verdicts.csv"
    with pytest.raises(ValueError, match="verdicts.csv"):
        pipeline._write_csv(path, ["tx_hash", "passed", "volume"], columns)
    assert not path.exists()


# ---------------------------------------------------------------------------
# builder: SP is the integrated searcher's PnL in the block, in row order

def test_builder_sp_sums_in_economics_row_order(tmp_path):
    inputs, out = tmp_path / "in", tmp_path / "out"
    inputs.mkdir()
    out.mkdir()
    builders = {1: "builderA", 2: "builderB", 3: "builderA", 4: "builderA"}
    write_rows(
        inputs / "blocks.csv",
        ["block_number", "builder_label", "coinbase_delta_eth", "bid_eth",
         "used_bid_adjustment", "adjustment_delta_eth", "slot_time_ms"],
        [[bn, b, 0.01, 0.0, "false", 0.0, T0_MS + bn * SLOT_MS] for bn, b in builders.items()],
    )
    write_rows(inputs / "quotes.csv", ["symbol", "ts_ms", "bid", "ask"],
               [["ETHUSDT", T0_MS + bn * SLOT_MS - 1000, 2000.0, 2000.0] for bn in builders])
    (inputs / "searchers.json").write_text(json.dumps(
        {"labels": {"s_int": ["0xa"], "s_other": ["0xb"]},
         "integrated_with": {"s_int": "builderA"}}))
    # (block, searcher, pnl): block 1 holds three s_int trades whose sum
    # depends on the order, with another searcher's trade between them;
    # block 2 holds an s_int trade in a builder it is not integrated with;
    # block 3 has no trades.
    trades = [
        (1, "s_int", 1e16), (1, "s_other", 5.0), (4, "s_int", 0.1), (1, "s_int", 1.0),
        (2, "s_int", 7.0), (4, "s_int", 0.2), (1, "s_int", -1e16), (4, "s_int", 0.3),
    ]
    write_rows(out / "economics.csv", LAYOUTS["economics.csv"], [
        [f"0x{k}", label, builders[bn], bn, T0_MS + bn * SLOT_MS, 100.0,
         pnl + 1.0, pnl, "", 1.0, 0.0]
        for k, (bn, label, pnl) in enumerate(trades)
    ])
    assert main(["builder", "--input-dir", str(inputs), "--out-dir", str(out)]) == 0

    econ = read_rows(out / "economics.csv")
    sp = {int(r["block_number"]): float(r["sp_usd"]) for r in read_rows(out / "builder_blocks.csv")}
    assert sorted(sp) == [1, 2, 3, 4]
    for bn, builder in builders.items():
        expected = sum(
            float(r["pnl_usd"]) for r in econ
            if int(r["block_number"]) == bn and r["searcher_label"] == "s_int"
        ) if builder == "builderA" else 0.0
        assert sp[bn] == expected, bn
    # the order matters for these values, so the check above pins it
    assert sp[1] == 0.0 and sum([1e16, -1e16, 1.0]) == 1.0
    assert sp[4] == (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)


# ---------------------------------------------------------------------------
# market: the integrated searcher's daily share vs its builder's block share

N_DAYS = 12
# per day: how many of s_int's 10 trades go to builderB, and how many of the
# other searchers' 20 blocks go to builderA (the rest alternate B and C)
INT_AWAY = [0, 3, 1, 4, 2, 0, 3, 1, 4, 2, 1, 3]
OTHERS_TO_A = [2, 14, 8, 18, 1, 11, 5, 16, 9, 0, 13, 4]


@pytest.fixture(scope="module")
def varied_builders(tmp_path_factory):
    """A synth corpus whose builder labels vary by day, consistently in
    transactions.csv and blocks.csv; s_int stays exclusive to builderA."""
    root = tmp_path_factory.mktemp("varied")
    inputs = root / "in"
    generate(SynthConfig(
        seed=11, n_days=N_DAYS,
        searchers=(
            SearcherSpec("s_int", "abrupt", 10, true_hedge_delay_s=0.5),
            SearcherSpec("s_gentle", "gentle", 10, true_hedge_delay_s=1.0),
            SearcherSpec("s_flat", "none", 10),
        ),
        builders=("builderA", "builderB", "builderC"),
        integrated_with={"s_int": "builderA"},
        base_volatility=5e-4,
    ), inputs)
    int_contract = json.loads((inputs / "searchers.json").read_text())["labels"]["s_int"][0]
    txs = read_rows(inputs / "transactions.csv")
    builder_of: dict[str, str] = {}
    seen: dict[tuple[int, bool], int] = {}
    for r in txs:
        day = (int(r["slot_time_ms"]) - T0_MS) // 86_400_000
        is_int = r["searcher_contract"] == int_contract
        k = seen[(day, is_int)] = seen.get((day, is_int), -1) + 1
        if is_int:
            b = "builderB" if k < INT_AWAY[day] else "builderA"
        else:
            b = "builderA" if k < OTHERS_TO_A[day] else ("builderB", "builderC")[k % 2]
        builder_of[r["block_number"]] = b
    for name in ("transactions.csv", "blocks.csv"):
        rows = read_rows(inputs / name)
        for r in rows:
            r["builder_label"] = builder_of[r["block_number"]]
        write_rows(inputs / name, list(rows[0]), [list(r.values()) for r in rows])
    config = json.loads((inputs / "config.json").read_text())
    config["rolling_window_days"] = 5
    (inputs / "config.json").write_text(json.dumps(config))
    out = root / "out"
    assert main(["all", "--input-dir", str(inputs), "--out-dir", str(out)]) == 0
    return inputs, out


def t_approx_reference(rho: float, n: int) -> float:
    from scipy import stats
    t = rho * np.sqrt((n - 2) / (1.0 - rho * rho))
    return float(2.0 * stats.t.sf(abs(t), df=n - 2))


def brute_pair_series(inputs: Path, out: Path, label: str, builder: str):
    """The pair series the way the market stage first computed it: every
    date re-scans the searcher's trades."""
    excluded = {r["tx_hash"] for r in read_rows(out / "markouts.csv") if r["excluded"] == "true"}
    included = [r for r in read_rows(out / "detections.csv") if r["tx_hash"] not in excluded]
    day = lambda r: estimate._utc_day(int(r["slot_time_ms"]))  # noqa: E731
    day_volume: dict[str, dict[str, float]] = {}
    for r in included:
        vols = day_volume.setdefault(day(r), {})
        vols[r["searcher_label"]] = vols.get(r["searcher_label"], 0.0) + float(r["volume_usd"])
    day_blocks: dict[str, dict[str, int]] = {}
    for r in read_rows(inputs / "blocks.csv"):
        blk = day_blocks.setdefault(day(r), {})
        blk[r["builder_label"]] = blk.get(r["builder_label"], 0) + 1
    x, y, dates = [], [], []
    for d in sorted(day_volume):
        total_v = sum(day_volume[d].values())
        in_builder = sum(
            float(r["volume_usd"]) for r in included
            if r["searcher_label"] == label and day(r) == d and r["builder_label"] == builder
        )
        blk = day_blocks.get(d, {})
        total_b = sum(blk.values())
        if total_v <= 0 or total_b <= 0:
            continue
        x.append(in_builder / total_v)
        y.append(blk.get(builder, 0) / total_b)
        dates.append(d)
    return x, y, dates


def test_market_pair_series_match_brute_force(varied_builders):
    inputs, out = varied_builders
    rows = [r for r in read_rows(out / "correlations.csv") if r["analysis"].startswith("pair_")]
    assert {r["analysis"] for r in rows} == {"pair_contemporaneous", "pair_lagged", "pair_rolling"}
    pairs = sorted({r["pair"] for r in rows})
    assert "s_int->builderA" in pairs
    for pair in pairs:
        label, builder = pair.split("->")
        x, y, dates = brute_pair_series(inputs, out, label, builder)
        assert len(set(x)) > 1 and len(set(y)) > 1
        expected = [("pair_contemporaneous", 0, "", market.spearman(x, y))]
        expected += [("pair_lagged", r.lag_days, "", r) for r in market.lagged_correlation(x, y)]
        expected += [
            ("pair_rolling", 0, end, r)
            for end, r in market.rolling_correlation(x, y, dates=dates, window_days=5)
        ]
        got = [r for r in rows if r["pair"] == pair]
        assert [(r["analysis"], int(r["lag_days"]), r["window_end"]) for r in got] == [
            (a, lag, end) for a, lag, end, _ in expected
        ]
        for r, (_, _, _, res) in zip(got, expected):
            assert float(r["rho"]) == res.rho and int(r["n"]) == res.n
        for r in got:
            if int(r["n"]) >= 10:  # the t-approximation, bit for bit
                assert float(r["p_value"]) == t_approx_reference(float(r["rho"]), int(r["n"]))


# ---------------------------------------------------------------------------
# markouts.csv: one row per trade, parsed back bit for bit

@pytest.fixture(scope="module")
def markout_corpus(tmp_path_factory):
    """Small corpus with QuoteGap and InventoryAdjustment exclusions and a
    grid of quarter seconds starting at -1.5 s."""
    root = tmp_path_factory.mktemp("markouts")
    inputs = root / "in"
    generate(SynthConfig(
        seed=5, n_days=1,
        searchers=(
            SearcherSpec("s_gentle", "gentle", 12, true_hedge_delay_s=1.0, major_share=0.4),
            SearcherSpec("s_abrupt", "abrupt", 8, true_hedge_delay_s=0.5),
            SearcherSpec("s_flat", "none", 6),
        ),
        base_volatility=5e-4,
    ), inputs)
    quotes = read_rows(inputs / "quotes.csv")
    # s_abrupt's token loses its quotes: its non-major trades are QuoteGap
    write_rows(inputs / "quotes.csv", list(quotes[0]),
               [list(r.values()) for r in quotes if r["symbol"] != "TOK01USDT"])
    txs = read_rows(inputs / "transactions.csv")
    # the first two trades find no fresh quote at -1.5 s (QuoteGap); the
    # third never covers this fee (InventoryAdjustment)
    txs[2]["base_fee_eth"] = "10.0"
    write_rows(inputs / "transactions.csv", list(txs[0]), [list(r.values()) for r in txs])
    config = json.loads((inputs / "config.json").read_text())
    config.update(grid_start_s=-1.5, grid_step_s=0.25)
    (inputs / "config.json").write_text(json.dumps(config))
    out = root / "out"
    assert main(["all", "--input-dir", str(inputs), "--out-dir", str(out)]) == 0
    return inputs, out


def test_markouts_round_trip_bit_identical(markout_corpus):
    """The parsed table, GR recomputed from MR and volume_usd, equals the
    frozen per-trade reference's bit for bit."""
    inputs, out = markout_corpus
    ws = pipeline.Workspace(inputs, out)
    trades = pipeline._load_detections(ws)
    computed = [oracle_curve(t, ws.grid, ws.quotes, ws.registry, ws.config) for t in trades]
    loaded = pipeline._load_markout_curves(ws)
    assert loaded.tx_hash == [t.tx_hash for t in trades]
    reasons = {reason for _, _, reason in computed}
    assert reasons == {None, "QuoteGap", "InventoryAdjustment"}
    assert ws.grid.offsets_s[:3] == [-1.5, -1.25, -1.0]
    for i, (trade, c) in enumerate(zip(trades, computed)):
        assert_same_row(loaded, i, trade, c)


def test_markout_looks_up_each_symbol_once(markout_corpus, tmp_path, monkeypatch):
    """One quote lookup per leg symbol and one for ETH, whatever the trade count."""
    inputs, out = markout_corpus
    ws = pipeline.Workspace(inputs, copy_tree(out, tmp_path / "out"))
    symbols = {ws.registry.get(token).quote_symbol for t in ws.detections
               for token in (t.token_bought, t.token_sold)} - {"USDT"}
    assert len(ws.detections) > len(symbols) + 1
    calls = []
    lookup = _kernels.step_mid_lookup
    monkeypatch.setattr(_kernels, "step_mid_lookup", lambda *a: calls.append(a) or lookup(*a))
    pipeline.run_markout(ws)
    assert 0 < len(calls) <= len(symbols) + 1
    assert (tmp_path / "out" / "markouts.csv").read_bytes() == (out / "markouts.csv").read_bytes()


def test_markouts_header_carries_the_offsets(markout_corpus):
    _, out = markout_corpus
    with open(out / "markouts.csv", newline="") as f:
        header = next(csv.reader(f))
    assert header[:7] == ["tx_hash", "searcher_label", "excluded", "exclusion_reason",
                          "volume_usd", "mr_usd@-1.5", "mr_usd@-1.25"]
    assert header[-1] == "mr_usd@10.0"
    detections = read_rows(out / "detections.csv")
    assert len(read_rows(out / "markouts.csv")) == len(detections)


def gr_columns(header: list[str], rows: list[list[str]]) -> tuple[list[str], list[list[str]]]:
    """The offsets of a markouts.csv and, per row, GR at each as written before
    GR was dropped from the file: repr(MR / volume_usd), or 0.0."""
    offsets = [h.split("@")[1] for h in header[5:]]
    return offsets, [[repr(float(mr) / float(r[4]) if float(r[4]) > 0 else 0.0)
                      for mr in r[5:]] for r in rows]


def long_format(path: Path) -> None:
    """Rewrite a markouts.csv in the earliest one-row-per-offset layout."""
    with open(path, newline="") as f:
        header, *rows = list(csv.reader(f))
    offsets, grs = gr_columns(header, rows)
    write_rows(path, ["tx_hash", "searcher_label", "offset_s", "mr_usd", "gr",
                      "excluded", "exclusion_reason"],
               [[r[0], r[1], off, r[5 + k], gr[k], r[2], r[3]]
                for r, gr in zip(rows, grs) for k, off in enumerate(offsets)])


def wide_with_gr(path: Path) -> None:
    """Rewrite a markouts.csv in the earlier wide layout: no volume_usd, and
    an MR column then a GR column per offset."""
    with open(path, newline="") as f:
        header, *rows = list(csv.reader(f))
    offsets, grs = gr_columns(header, rows)
    write_rows(path, header[:4] + header[5:] + [f"gr@{o}" for o in offsets],
               [r[:4] + r[5:] + gr for r, gr in zip(rows, grs)])


def truncate_last_row(path: Path) -> None:
    text = path.read_text().rstrip("\n")
    path.write_text(text[:text.rindex(",")] + "\n")


def drop_first_offset(path: Path) -> None:
    """Rewrite a markouts.csv as if written for a grid starting one step later."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    write_rows(path, rows[0][:5] + rows[0][6:], [r[:5] + r[6:] for r in rows[1:]])


@pytest.mark.parametrize("damage", [long_format, wide_with_gr, truncate_last_row, drop_first_offset])
@pytest.mark.parametrize("stage", ["horizon", "estimate", "market"])
def test_outdated_markouts_exit_1(markout_corpus, tmp_path, capsys, damage, stage):
    inputs, out = markout_corpus
    stale = tmp_path / "out"
    stale.mkdir()
    for p in out.glob("*.csv"):
        (stale / p.name).write_bytes(p.read_bytes())
    damage(stale / "markouts.csv")
    capsys.readouterr()
    assert main([stage, "--input-dir", str(inputs), "--out-dir", str(stale)]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "OutdatedOutput"
    assert "markouts.csv" in err["message"] and "rerun the markout stage" in err["message"]


def drop_second_row(path: Path) -> None:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    write_rows(path, rows[0], rows[1:2] + rows[3:])


def swap_first_rows(path: Path) -> None:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    write_rows(path, rows[0], [rows[2], rows[1]] + rows[3:])


@pytest.mark.parametrize("damage", [drop_second_row, swap_first_rows])
@pytest.mark.parametrize("stage", ["estimate", "market"])
def test_markouts_of_other_trades_exit_1(markout_corpus, tmp_path, capsys, damage, stage):
    """estimate and market join markouts.csv to detections.csv row by row, so
    a markouts.csv whose trades are not detections.csv's, in order, is refused."""
    inputs, out = markout_corpus
    stale = copy_tree(out, tmp_path / "out")
    damage(stale / "markouts.csv")
    capsys.readouterr()
    assert main([stage, "--input-dir", str(inputs), "--out-dir", str(stale)]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "OutdatedOutput"
    assert "markouts.csv" in err["message"] and "rerun the markout stage" in err["message"]


def swap_first_columns(path: Path) -> None:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    write_rows(path, rows[0][1::-1] + rows[0][2:], [r[1::-1] + r[2:] for r in rows[1:]])


@pytest.mark.parametrize("damage", [swap_first_columns, truncate_last_row])
@pytest.mark.parametrize("name, stage, producer", [
    ("detections.csv", "markout", "detect"),
    ("profiles.csv", "estimate", "horizon"),
    ("economics.csv", "builder", "estimate"),
])
def test_other_layout_exits_1(markout_corpus, tmp_path, capsys, damage, name, stage, producer):
    """Loaders unpack rows by position, so a file whose header or row width is
    not what this version writes is refused, not read with its columns crossed."""
    inputs, out = markout_corpus
    stale = copy_tree(out, tmp_path / "out")
    damage(stale / name)
    capsys.readouterr()
    assert main([stage, "--input-dir", str(inputs), "--out-dir", str(stale)]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "OutdatedOutput"
    assert name in err["message"] and f"rerun the {producer} stage" in err["message"]


def damage_cell(path: Path, column: str) -> None:
    """Write 12x into ``column`` of data row 2."""
    with open(path, newline="") as f:
        header, *rows = list(csv.reader(f))
    rows[1][header.index(column)] = "12x"
    write_rows(path, header, rows)


@pytest.mark.parametrize("name, column, stage", [
    ("detections.csv", "amount_bought", "markout"),  # Decimal
    ("detections.csv", "block_number", "markout"),  # int
    ("markouts.csv", "mr_usd@0.0", "horizon"),
])
def test_undecodable_output_cell_exits_1(markout_corpus, tmp_path, capsys, name, column, stage):
    inputs, out = markout_corpus
    stale = copy_tree(out, tmp_path / "out")
    damage_cell(stale / name, column)
    capsys.readouterr()
    assert main([stage, "--input-dir", str(inputs), "--out-dir", str(stale)]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "MalformedRow",
                   "message": f"malformed row 2: bad value '12x' in {column} of {name}"}


# ---------------------------------------------------------------------------
# one ETH lookup per stage: the same blocks skipped and the same first error

def copy_tree(src: Path, dst: Path) -> Path:
    dst.mkdir()
    for p in src.iterdir():
        (dst / p.name).write_bytes(p.read_bytes())
    return dst


def drop_eth_quotes(inputs: Path, keep) -> list[int]:
    """Keep the ETHUSDT quotes whose timestamp passes ``keep``; return their times."""
    rows = read_rows(inputs / "quotes.csv")
    rows = [r for r in rows if r["symbol"] != "ETHUSDT" or keep(int(r["ts_ms"]))]
    write_rows(inputs / "quotes.csv", ["symbol", "ts_ms", "bid", "ask"],
               [list(r.values()) for r in rows])
    return [int(r["ts_ms"]) for r in rows if r["symbol"] == "ETHUSDT"]


@pytest.mark.parametrize("keep_eth", ["some", "none"])
def test_builder_skips_blocks_without_eth_quote(markout_corpus, tmp_path, capsys, keep_eth):
    inputs, out = markout_corpus
    inputs = copy_tree(inputs, tmp_path / "in")
    out = copy_tree(out, tmp_path / "out")
    blocks = sorted(int(r["block_number"]) for r in read_rows(inputs / "blocks.csv"))
    slot = {int(r["block_number"]): int(r["slot_time_ms"]) for r in read_rows(inputs / "blocks.csv")}
    if keep_eth == "some":  # every third block loses its ETH quote
        lost = set(slot[b] - 1000 for b in blocks[::3])
        kept = drop_eth_quotes(inputs, lambda ts: ts not in lost)
    else:
        kept = drop_eth_quotes(inputs, lambda ts: False)
    priced = [b for b in blocks if any(0 <= slot[b] - ts <= 5000 for ts in kept)]
    capsys.readouterr()
    assert main(["builder", "--input-dir", str(inputs), "--out-dir", str(out)]) == 0
    written = [int(r["block_number"]) for r in read_rows(out / "builder_blocks.csv")]
    assert written == priced and len(priced) < len(blocks)
    assert (f"builder: skipped {len(blocks) - len(priced)} blocks with no ETH quote"
            in capsys.readouterr().err)


def test_estimate_fails_on_first_trade_without_eth_quote(markout_corpus, tmp_path, capsys):
    inputs, out = markout_corpus
    inputs = copy_tree(inputs, tmp_path / "in")
    out = copy_tree(out, tmp_path / "out")
    priced = [int(r["slot_time_ms"]) for r in read_rows(out / "economics.csv")]
    cut = priced[len(priced) // 2]
    kept = drop_eth_quotes(inputs, lambda ts: ts < cut - 6000)
    first = next(t for t in priced if not any(0 <= t - ts <= 5000 for ts in kept))
    gap = first - max(ts for ts in kept if ts <= first)
    capsys.readouterr()
    assert main(["estimate", "--input-dir", str(inputs), "--out-dir", str(out)]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "StaleQuote", "message": f"latest quote is {gap} ms old"}


# ---------------------------------------------------------------------------
# manifest: digest and row count from one binary pass

CHUNK = 1 << 20


def text_mode_rows(path: Path) -> int:
    with open(path) as f:
        return max(sum(1 for _ in f) - 1, 0)


@pytest.mark.parametrize("data", [
    pytest.param(b"a,b\n1,2\n3,4\n", id="lf"),
    pytest.param(b"a,b\r\n1,2\r\n3,4\r\n", id="crlf"),
    pytest.param(b"a,b\r1,2\r3,4\r", id="bare-cr"),
    pytest.param(b"a,b\r\n1,2\n3,4\r5,6\r\r\n\n7,8", id="mixed"),
    pytest.param(b"a,b\n1,2\n3,4", id="no-trailing-newline"),
    pytest.param(b"a,b\n", id="header-only"),
    pytest.param(b"a,b", id="header-only-no-newline"),
    pytest.param(b"", id="empty"),
    pytest.param(b"\n", id="lf-only"),
    pytest.param(b"\r", id="cr-only"),
    pytest.param(b"\r\n\r\n", id="blank-lines"),
    pytest.param(b"x" * (CHUNK - 1) + b"\r\n1,2\r\n", id="crlf-split-across-chunks"),
    pytest.param(b"x" * (CHUNK - 1) + b"\r1,2\r\n", id="bare-cr-ends-chunk"),
    pytest.param(b"x" * (CHUNK - 1) + b"\r\r\n1,2", id="cr-crlf-split-across-chunks"),
    pytest.param(b"x" * CHUNK + b"\n1,2", id="lf-starts-chunk"),
    pytest.param(b"x" * (2 * CHUNK - 1) + b"\r\n" + b"1,2\r\n" * 3, id="crlf-split-second-boundary"),
])
def test_manifest_rows_match_text_mode(tmp_path, data):
    path = tmp_path / "f.csv"
    path.write_bytes(data)
    assert pipeline._manifest_entry(path) == {
        "sha256": hashlib.sha256(data).hexdigest(), "rows": text_mode_rows(path),
    }


def test_manifest_counts_no_rows_outside_csv(tmp_path):
    path = tmp_path / "config.json"
    path.write_bytes(b'{"a":\n 1}\n')
    assert pipeline._manifest_entry(path) == {
        "sha256": hashlib.sha256(path.read_bytes()).hexdigest(), "rows": None,
    }


# ---------------------------------------------------------------------------
# stage outputs handed on in memory: the same values the CSVs hold

@pytest.fixture(scope="module")
def handoff_corpus(markout_corpus, tmp_path_factory):
    """markout_corpus with a flat (P3) searcher and a trade whose EV is not
    positive, so every optional field of the stage outputs is None somewhere."""
    src, out = markout_corpus
    inputs = copy_tree(src, tmp_path_factory.mktemp("handoff") / "in")
    ws = pipeline.Workspace(src, out)
    table = ws.markouts
    spread_bps = {
        label: float(np.ptp(horizon.median_curve(label, table.gr[rows], ws.grid)
                            .median_gr)) * 1e4
        for label, rows in table.included_rows().items()
    }
    assert spread_bps["s_flat"] < min(v for k, v in spread_bps.items() if k != "s_flat")
    config = json.loads((inputs / "config.json").read_text())
    config["pattern_flat_epsilon_bps"] = spread_bps["s_flat"] * 1.01
    (inputs / "config.json").write_text(json.dumps(config))
    # a trade whose MR at its searcher's t* is below its own best MR: a base
    # fee between the two keeps it included and makes its EV negative
    for i, trade in enumerate(ws.detections):
        if table.exclusion_reason[i] is not None or trade.searcher_label == "s_flat":
            continue
        t_star = ws.profiles[trade.searcher_label].t_star_s
        low = float(table.mr_usd[i, ws.grid.index_of(t_star)])
        high = float(table.mr_usd[i].max())
        if low < high:
            break
    else:
        raise AssertionError("every included trade peaks at its searcher's t*")
    eth = ws.quotes.eth_usd(trade.slot_time_ms, ws.config.quote_staleness_ms)
    txs = read_rows(inputs / "transactions.csv")
    for r in txs:
        if r["tx_hash"] == trade.tx_hash:
            r["base_fee_eth"] = repr((low + high) / 2 / eth)
    write_rows(inputs / "transactions.csv", list(txs[0]), [list(r.values()) for r in txs])
    return inputs


def same_fields(kept, parsed) -> None:
    """Dataclass fields equal and of the same Python type; arrays and floats
    bit for bit, Decimals with the same exponent."""
    for f in dataclasses.fields(kept):
        a, b = getattr(kept, f.name), getattr(parsed, f.name)
        assert type(a) is type(b), (f.name, a, b)
        if isinstance(a, (float, np.ndarray)):
            assert same_bits(a, b), (f.name, a, b)
        elif isinstance(a, Decimal):
            assert a.as_tuple() == b.as_tuple(), (f.name, a, b)
        elif isinstance(a, list):  # the markout table's columns of strings and None
            assert [type(x) for x in a] == [type(x) for x in b] and a == b, f.name
        else:
            assert a == b, (f.name, a, b)


def test_kept_outputs_equal_parsed(handoff_corpus, tmp_path):
    """After a whole run, the objects a Workspace kept equal what a fresh
    Workspace parses from the CSVs, so no later stage changed one."""
    kept = pipeline.Workspace(handoff_corpus, tmp_path)
    pipeline.run_all(kept)
    parsed = pipeline.Workspace(handoff_corpus, tmp_path)
    assert len(kept.detections) == len(parsed.detections)
    for a, b in zip(kept.detections, parsed.detections):
        same_fields(a, b)
    same_fields(kept.markouts, parsed.markouts)
    assert same_bits(kept.markouts.gr, parsed.markouts.gr)
    assert None not in kept.markouts.searcher_label
    assert list(kept.profiles) == list(parsed.profiles)
    for a, b in zip(kept.profiles.values(), parsed.profiles.values()):
        same_fields(a, b)
    assert len(kept.economics) == len(parsed.economics)
    for a, b in zip(kept.economics, parsed.economics):
        same_fields(a, b)
    # every optional field is None somewhere
    assert set(kept.markouts.exclusion_reason) == {None, "QuoteGap", "InventoryAdjustment"}
    assert any(p.t_star_s is None for p in kept.profiles.values())
    assert any(p.decline_3s_fraction is None for p in kept.profiles.values())
    assert any(e.margin is None for e in kept.economics)


def test_ev_uses_t_star_offset(markout_corpus):
    """EV is the trade's MR in its searcher's t* column less the base fee, bit
    for bit, with t* off 0 for some trades."""
    inputs, out = markout_corpus
    ws = pipeline.Workspace(inputs, out)
    table = ws.markouts
    row = {tx: i for i, tx in enumerate(table.tx_hash)}
    off_zero = 0
    for e in ws.economics:
        mr = table.mr_usd[row[e.tx_hash]]
        col = ws.grid.index_of(ws.profiles[e.searcher_label].t_star_s)
        assert same_bits(e.ev_usd, float(mr[col]) - e.base_fee_usd), e.tx_hash
        off_zero += bool(mr[col] != mr[ws.grid.index_of(0.0)])
    assert ws.economics and off_zero


def test_all_parses_no_stage_output(markout_corpus, tmp_path, monkeypatch):
    inputs, _ = markout_corpus
    out = tmp_path / "out"
    read: list[str] = []
    parse = pipeline._read_csv
    monkeypatch.setattr(pipeline, "_read_csv", lambda path: read.append(path.name) or parse(path))
    assert main(["all", "--input-dir", str(inputs), "--out-dir", str(out)]) == 0
    assert read == []
    assert main(["estimate", "--input-dir", str(inputs), "--out-dir", str(out)]) == 0
    assert read == ["detections.csv", "markouts.csv", "profiles.csv"]


def test_market_formats_each_day_once(varied_builders, tmp_path, monkeypatch):
    inputs, out = varied_builders
    out = copy_tree(out, tmp_path / "out")
    formatted: list[int] = []
    utc_day = estimate._utc_day
    monkeypatch.setattr(estimate, "_utc_day", lambda ms: formatted.append(ms) or utc_day(ms))
    assert main(["market", "--input-dir", str(inputs), "--out-dir", str(out)]) == 0
    dates = list(dict.fromkeys(r["date"] for r in read_rows(out / "market.csv")))
    assert len(dates) == N_DAYS and [utc_day(ms) for ms in formatted] == dates


def test_estimate_formats_each_cumulative_ev_row_once(varied_builders, tmp_path, monkeypatch):
    inputs, out = varied_builders
    out = copy_tree(out, tmp_path / "out")
    formatted: list[int] = []
    utc_day = estimate._utc_day
    monkeypatch.setattr(estimate, "_utc_day", lambda ms: formatted.append(ms) or utc_day(ms))
    assert main(["estimate", "--input-dir", str(inputs), "--out-dir", str(out)]) == 0
    dates = [r["date"] for r in read_rows(out / "cumulative_ev.csv")]
    assert len(dates) > N_DAYS
    assert sorted(utc_day(ms) for ms in formatted) == sorted(dates)


def test_rolling_windows_are_labelled_by_their_last_day(varied_builders, tmp_path):
    """A day without blocks drops out of the pair series, so a window's label
    is the last day it holds, not the day at its position in the calendar."""
    src, _ = varied_builders
    inputs = copy_tree(src, tmp_path / "in")
    lost_day = T0_MS // DAY_MS + 8  # 2024-06-09
    blocks = read_rows(inputs / "blocks.csv")
    write_rows(inputs / "blocks.csv", list(blocks[0]),
               [list(r.values()) for r in blocks if int(r["slot_time_ms"]) // DAY_MS != lost_day])
    config = json.loads((inputs / "config.json").read_text())
    config["rolling_window_days"] = 3
    (inputs / "config.json").write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["all", "--input-dir", str(inputs), "--out-dir", str(out)]) == 0
    ends = [r["window_end"] for r in read_rows(out / "correlations.csv")
            if r["analysis"] == "pair_rolling" and r["pair"] == "s_int->builderA"]
    assert ends[0] == "2024-06-03"
    assert "2024-06-09" not in ends


def test_each_pair_analysis_fails_on_its_own(varied_builders, tmp_path):
    """With 8 days, lag 7 leaves too few pairs and the lagged analysis fails;
    the contemporaneous and rolling rows of the pair are still written."""
    src, _ = varied_builders
    inputs = copy_tree(src, tmp_path / "in")
    last_day = T0_MS // DAY_MS + 7
    for name in ("transactions.csv", "blocks.csv"):
        rows = read_rows(inputs / name)
        write_rows(inputs / name, list(rows[0]),
                   [list(r.values()) for r in rows if int(r["slot_time_ms"]) // DAY_MS <= last_day])
    assert json.loads((inputs / "config.json").read_text())["rolling_window_days"] == 5
    out = tmp_path / "out"
    assert main(["all", "--input-dir", str(inputs), "--out-dir", str(out)]) == 0
    assert len({r["date"] for r in read_rows(out / "market.csv")}) == 8
    with pytest.raises(market.TooShort):
        market.lagged_correlation(list(range(8)), list(range(8)))
    rows = [r for r in read_rows(out / "correlations.csv") if r["pair"] == "s_int->builderA"]
    analyses = [r["analysis"] for r in rows]
    assert "pair_contemporaneous" in analyses and "pair_rolling" in analyses
    assert "pair_lagged" not in analyses


# ---------------------------------------------------------------------------
# decline vs Major-Major share: one point per searcher with a decline

@pytest.fixture(scope="module")
def four_peaked(tmp_path_factory):
    """Four peaked searchers whose Major-Major shares differ, so that both
    decline_vs_major rows are written, with n = 4."""
    root = tmp_path_factory.mktemp("four_peaked")
    inputs = root / "in"
    generate(SynthConfig(seed=7, n_days=2, searchers=tuple(
        SearcherSpec(f"s{j}", decay, 20, true_hedge_delay_s=delay, major_share=share)
        for j, (decay, delay, share) in enumerate((
            ("abrupt", 0.5, 0.2), ("gentle", 1.0, 0.5),
            ("abrupt", 1.5, 0.8), ("gentle", 2.0, 0.1))))), inputs)
    out = root / "out"
    assert main(["all", "--input-dir", str(inputs), "--out-dir", str(out)]) == 0
    return inputs, out


def test_decline_vs_major_rows_are_spearman_over_the_profiles(four_peaked):
    """Each row is the Spearman of profiles.csv's decline_3s_fraction against
    the Major-Major count (or volume) share of the searcher's included trades."""
    inputs, out = four_peaked
    registry = pipeline.Workspace(inputs, out).registry
    excluded = {r["tx_hash"] for r in read_rows(out / "markouts.csv") if r["excluded"] == "true"}
    included: dict[str, list[dict]] = {}
    for r in read_rows(out / "detections.csv"):
        if r["tx_hash"] not in excluded:
            included.setdefault(r["searcher_label"], []).append(r)
    declines, count_shares, volume_shares = [], [], []
    for p in read_rows(out / "profiles.csv"):
        if not p["decline_3s_fraction"]:
            continue
        trades = included[p["searcher_label"]]
        mm = [t for t in trades if market.pair_class(t["token_bought"], t["token_sold"], registry)
              == market.PAIR_MAJOR_MAJOR]
        declines.append(float(p["decline_3s_fraction"]))
        count_shares.append(len(mm) / len(trades))
        volume_shares.append(sum(float(t["volume_usd"]) for t in mm)
                             / sum(float(t["volume_usd"]) for t in trades))
    assert len(declines) == 4 and len(set(count_shares)) == 4
    rows = [r for r in read_rows(out / "correlations.csv") if r["analysis"].startswith("decline")]
    assert [r["analysis"] for r in rows] == ["decline_vs_major_count", "decline_vs_major_volume"]
    for r, shares in zip(rows, (count_shares, volume_shares)):
        want = market.spearman(declines, shares)
        assert (r["pair"], r["lag_days"], r["window_end"]) == ("", "0", "")
        assert (float(r["rho"]), int(r["n"]), float(r["p_value"])) == (want.rho, 4, want.p_value)
