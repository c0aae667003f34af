"""Stage boundaries: the CSV layouts stages hand each other and the joins
the market and builder stages make over them."""

import csv
import dataclasses
import functools
import hashlib
import json
import operator
import os
import shutil
import subprocess
import sys
from datetime import date, timedelta
from decimal import Context, Decimal, Inexact, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cexdex import _kernels, builder, data_model, estimate, horizon, market, pipeline
from cexdex.cli import main
from cexdex.data_model import Table
from cexdex.detect import ArbTrade, DetectionVerdict
from cexdex.errors import MalformedRow
from cexdex.synth import SearcherSpec, SynthConfig, generate

from markout_oracle import assert_same_row, oracle_curve, same_bits
from test_synth import small_config, varied_config

SLOT_MS = 12_000
T0_MS = 1717200000000
DAY_MS = 86_400_000


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def write_table(path: Path, table: Table) -> None:
    """Write ``table`` as a stage writes its output."""
    pipeline._write_csv(path, data_model.kinds_of(table.row), table.columns)


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
    "markouts.csv": ["tx_hash", "searcher_label", "excluded", "exclusion_reason", "volume_usd"],
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
    mr = np.load(out / "markouts_mr.npy", allow_pickle=False)
    assert mr.dtype == np.dtype([(f"mr_usd@{o}", "<f8") for o in DEFAULT_OFFSETS])


def test_reader_refuses_a_field_it_cannot_decode(tmp_path):
    @dataclasses.dataclass
    class Row:
        name: "str"
        values: "list[int]"

    path = tmp_path / "rows.csv"
    write_rows(path, ["name", "values"], [["a", "[1]"]])
    with pytest.raises(TypeError, match=r"list\[int\]"):
        pipeline._read_output(path, Row, "test")


@dataclasses.dataclass(frozen=True)
class FloatRow:
    label: "str"
    value: "float"
    maybe: "float | None"


# random bit patterns, and the edges: signed zeros, subnormals, infinities, NaN
any_bits = st.integers(0, 2**64 - 1).map(lambda b: float(np.uint64(b).view(np.float64)))
edge_floats = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                               2.2250738585072014e-308, 1.7976931348623157e308,
                               float("inf"), float("-inf"), float("nan")])


def written_bits(values) -> np.ndarray:
    """Each float's bits as a CSV can hold them: repr writes every NaN as nan."""
    floats = np.array([float("nan") if v != v else v for v in values], dtype=np.float64)
    return floats.view(np.int64)


@pytest.mark.parametrize("label, tokenized", [("s", True), ("s_é", False)])
@given(rows=st.lists(st.tuples(any_bits | edge_floats, any_bits | edge_floats | st.none()),
                     min_size=1, max_size=30))
@settings(max_examples=100, deadline=None)
def test_floats_round_trip_bit_for_bit(tmp_path_factory, label, tokenized, rows):
    """What a stage writes, _read_output reads back with every float's
    bits, on the tokenizer path and on the cell pass (a non-ASCII cell)."""
    path = tmp_path_factory.mktemp("floats") / "floats.csv"
    values, maybe = [v for v, _ in rows], [m for _, m in rows]
    write_table(path, Table(FloatRow, [[label] * len(rows), values, maybe]))
    kinds = data_model.kinds_of(FloatRow)
    assert (data_model._tokenize_columns(path, kinds) is not None) == tokenized
    read = pipeline._read_output(path, FloatRow, "test")
    assert read.label.tolist() == [label] * len(rows)
    assert np.array_equal(written_bits(read.value.tolist()), written_bits(values))
    assert [m is None for m in read.maybe] == [m is None for m in maybe]
    assert np.array_equal(written_bits([m for m in read.maybe if m is not None]),
                          written_bits([m for m in maybe if m is not None]))


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
decimals = st.integers(-10**50, 10**50).map(lambda i: Decimal(i).scaleb(-20)) | st.decimals()
# each kind the writer formats: (its values, as Python gives them, and its column's dtype)
KINDS = {
    data_model.STR: (texts, np.dtypes.StringDType()),
    data_model.AMOUNT: (decimals.map(str), np.dtypes.StringDType()),
    data_model.INT: (st.integers(-2**63, 2**63 - 1), np.int64),
    data_model.ANY_FLOAT: (floats, np.float64),
    data_model.FLAG: (st.booleans(), bool),
    data_model.FLOAT_OR_NONE: (floats | st.none(), object),
}


@st.composite
def tables(draw):
    """(kinds, columns, rows): each column an array of its kind's dtype,
    filled with the kind's first value and a few others at random rows, so
    that quotes fall in some chunks only; or else that value as a scalar.
    The first column is not a scalar: scalars alone give no row count."""
    n = draw(st.sampled_from([0, 1, 2, WRITER_CHUNK - 1, WRITER_CHUNK, WRITER_CHUNK + 1,
                              2 * WRITER_CHUNK + 3]))
    rnd = draw(st.randoms(use_true_random=False))
    kinds, columns, plain = {}, [], []
    for i, kind in enumerate(draw(st.lists(st.sampled_from(sorted(KINDS)), min_size=1,
                                           max_size=6))):
        values, dtype = KINDS[kind]
        pool = draw(st.lists(values, min_size=1, max_size=4))
        kinds[f"c{i}"] = kind
        if i and draw(st.booleans()):
            columns.append(pool[0])
            plain.append([pool[0]] * n)
            continue
        column = [pool[0]] * n
        for k in rnd.sample(range(n), min(n, 3)):
            column[k] = rnd.choice(pool)
        columns.append(np.array(column, dtype=dtype))
        plain.append(column)
    return kinds, columns, list(zip(*plain))


@given(tables())
@settings(max_examples=150, deadline=None)
def test_writer_bytes_equal_csv_writer(tmp_path_factory, table):
    kinds, columns, rows = table
    d = tmp_path_factory.mktemp("csv")
    pipeline._write_csv(d / "columns.csv", kinds, columns)
    reference_csv(d / "rows.csv", list(kinds), rows)
    assert (d / "columns.csv").read_bytes() == (d / "rows.csv").read_bytes()


VERDICT_KINDS = {"tx_hash": data_model.STR, "passed": data_model.FLAG,
                 "volume": data_model.ANY_FLOAT}


@pytest.mark.parametrize("columns", [
    [np.array(["0xa", "0xb"]), np.array([True, False])],  # two columns where three are due
    [np.array(["0xa", "0xb"]), np.array([True]), np.array([1.5, 2.5])],  # a short column
])
def test_writer_refuses_a_wrong_shape(tmp_path, columns):
    path = tmp_path / "verdicts.csv"
    with pytest.raises(ValueError, match="verdicts.csv"):
        pipeline._write_csv(path, VERDICT_KINDS, columns)
    assert not path.exists()


@pytest.mark.parametrize("flags", [
    np.array(["false", "true"], dtype=object), data_model.strings(["false", "true"]), "false",
    np.array([0, 1]), np.array([np.False_, np.True_], dtype=object),
])
def test_writer_refuses_a_flag_column_that_is_not_bool(tmp_path, flags):
    """A flag is written from a bool and nothing else: cast to bool, the text
    "false" would be written true."""
    path = tmp_path / "verdicts.csv"
    with pytest.raises(ValueError, match="verdicts.csv: the flag column passed"):
        pipeline._write_csv(path, VERDICT_KINDS, [np.array(["0xa", "0xb"]), flags, 1.5])
    assert not path.exists()


def test_writer_writes_numpy_scalars_as_their_values(tmp_path):
    """A float | None column of numpy floats is written as the Python values
    are, and reads back."""
    nan = float("nan")
    floats = np.array([np.float64(1.5), np.float64(-0.0), None, np.float64(nan)], dtype=object)
    pipeline._write_csv(tmp_path / "numpy.csv", {"x": data_model.FLOAT_OR_NONE}, [floats])
    reference_csv(tmp_path / "python.csv", ["x"], zip([1.5, -0.0, None, nan]))
    assert (tmp_path / "numpy.csv").read_bytes() == (tmp_path / "python.csv").read_bytes()
    path = tmp_path / "floats.csv"
    write_table(path, Table(FloatRow, [["s", "s"], np.array([1.5, 2.5]),
                                       np.array([np.float64(1.5), None], dtype=object)]))
    assert pipeline._read_output(path, FloatRow, "test").maybe.tolist() == [1.5, None]


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
        # a left-to-right fold, as _kernels.group_sum adds (from Python 3.12 sum() compensates)
        expected = functools.reduce(operator.add, (
            float(r["pnl_usd"]) for r in econ
            if int(r["block_number"]) == bn and r["searcher_label"] == "s_int"
        ), 0.0) if builder == "builderA" else 0.0
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


N_MANY = 24
MANY_BUILDERS = ("b0", "b1", "b2", "b3")


def many_searchers_corpus(inputs: Path) -> None:
    """24 searchers over N_DAYS days, Major-Major shares (j % 7) / 7, every
    sixth flat, and each block's builder drawn by a seeded generator whose
    weights vary by day, consistently in transactions.csv and blocks.csv.
    Every fourth searcher sends most of its trades to a home builder, so that
    several are Exclusive; s00 and s03 are integrated with b0 and b1."""
    generate(SynthConfig(
        seed=13, n_days=N_DAYS,
        searchers=tuple(
            SearcherSpec(f"s{j:02d}", "none", 3 + j % 4, major_share=(j % 7) / 7) if j % 6 == 5
            else SearcherSpec(f"s{j:02d}", ("abrupt", "gentle")[j % 2], 3 + j % 4,
                              true_hedge_delay_s=(0.5, 1.0, 1.5, 2.0)[j % 4],
                              major_share=(j % 7) / 7)
            for j in range(N_MANY)),
        builders=MANY_BUILDERS,
        integrated_with={"s00": "b0", "s03": "b1"},
        base_volatility=5e-4,
    ), inputs)
    labels = json.loads((inputs / "searchers.json").read_text())["labels"]
    searcher_of = {contracts[0]: int(label[1:]) for label, contracts in labels.items()}
    rng = np.random.default_rng(13)
    builder_of: dict[str, str] = {}
    for r in read_rows(inputs / "transactions.csv"):
        day = (int(r["slot_time_ms"]) - T0_MS) // DAY_MS
        j = searcher_of[r["searcher_contract"]]
        weights = np.array([1.0 + (day * (b + 1)) % 5 for b in range(len(MANY_BUILDERS))])
        if j % 4 == 0 and rng.uniform() < 0.9 - 0.05 * (day % 4):
            b = j // 4 % len(MANY_BUILDERS)
        else:
            b = int(rng.choice(len(MANY_BUILDERS), p=weights / weights.sum()))
        builder_of[r["block_number"]] = MANY_BUILDERS[b]
    for name in ("transactions.csv", "blocks.csv"):
        rows = read_rows(inputs / name)
        for r in rows:
            r["builder_label"] = builder_of[r["block_number"]]
        write_rows(inputs / name, list(rows[0]), [list(r.values()) for r in rows])
    config = json.loads((inputs / "config.json").read_text())
    config["rolling_window_days"] = 5
    (inputs / "config.json").write_text(json.dumps(config))


@pytest.fixture(scope="module")
def many_searchers(tmp_path_factory):
    """many_searchers_corpus and the outputs of cexdex all on it."""
    root = tmp_path_factory.mktemp("many")
    many_searchers_corpus(root / "in")
    assert main(["all", "--input-dir", str(root / "in"), "--out-dir", str(root / "out")]) == 0
    return root / "in", root / "out"


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
    assert_pair_rows_match_brute_force(*varied_builders, {"s_gentle->builderA", "s_int->builderA"})


LONG_PREFIX = "searcher_number_"


@pytest.fixture(scope="module")
def many_long_labels(many_searchers, tmp_path_factory):
    """many_searchers_corpus with every label renamed to LONG_PREFIX + label,
    19 bytes, and the outputs of cexdex all on it."""
    root = tmp_path_factory.mktemp("many_long")
    inputs = copy_tree(many_searchers[0], root / "in")
    searchers = json.loads((inputs / "searchers.json").read_text())
    for key in ("labels", "integrated_with"):
        searchers[key] = {LONG_PREFIX + label: v for label, v in searchers[key].items()}
    (inputs / "searchers.json").write_text(json.dumps(searchers))
    assert main(["all", "--input-dir", str(inputs), "--out-dir", str(root / "out")]) == 0
    return inputs, root / "out"


def test_market_pair_series_match_brute_force_for_many_searchers(many_searchers, many_long_labels):
    """Also with every label over 15 bytes, where numpy's StringDType
    searchsorted finds wrong rows: the same series, and the same 12 CSVs but
    for the labels."""
    pairs = {"s00->b0", "s03->b1", "s04->b1", "s08->b2", "s12->b3", "s16->b0", "s20->b1"}
    assert_pair_rows_match_brute_force(*many_searchers, pairs)
    assert_pair_rows_match_brute_force(*many_long_labels, {LONG_PREFIX + p for p in pairs})
    short, long = many_searchers[1], many_long_labels[1]
    assert sorted(p.name for p in long.glob("*.csv")) == sorted(p.name for p in short.glob("*.csv"))
    for p in sorted(short.glob("*.csv")):
        assert (long / p.name).read_text().replace(LONG_PREFIX, "") == p.read_text(), p.name


def assert_pair_rows_match_brute_force(inputs: Path, out: Path, all_pairs: set[str]) -> None:
    rows = [r for r in read_rows(out / "correlations.csv") if r["analysis"].startswith("pair_")]
    assert {r["analysis"] for r in rows} == {"pair_contemporaneous", "pair_lagged", "pair_rolling"}
    pairs = sorted({r["pair"] for r in rows})
    assert set(pairs) == all_pairs
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
    trades = pipeline._load_detections(ws).rows()
    computed = [oracle_curve(t, ws.quotes, ws.registry, ws.config) for t in trades]
    loaded = pipeline._load_markout_curves(ws)
    assert loaded.mr_usd.shape == (len(trades), len(ws.config.offsets_ms))
    reasons = {reason for _, _, reason in computed}
    assert reasons == {"", "QuoteGap", "InventoryAdjustment"}
    assert ws.config.offsets_s[:3] == [-1.5, -1.25, -1.0]
    for i, (trade, c) in enumerate(zip(trades, computed)):
        assert_same_row(loaded, i, trade, c)


def test_markout_looks_up_each_symbol_once(markout_corpus, tmp_path, monkeypatch):
    """One quote lookup per leg symbol and one for ETH, whatever the trade count."""
    inputs, out = markout_corpus
    ws = pipeline.Workspace(inputs, copy_tree(out, tmp_path / "out"))
    tokens = np.concatenate([ws.detections.token_bought, ws.detections.token_sold])
    symbols = set(ws.registry.quote_symbol[ws.registry.rows(tokens)].tolist()) - {"USDT"}
    assert len(ws.detections) > len(symbols) + 1
    calls = []
    lookup = _kernels.step_mid_lookup
    monkeypatch.setattr(_kernels, "step_mid_lookup", lambda *a: calls.append(a) or lookup(*a))
    pipeline.run_markout(ws)
    assert 0 < len(calls) <= len(symbols) + 1
    for name in ("markouts.csv", "markouts_mr.npy"):
        assert (tmp_path / "out" / name).read_bytes() == (out / name).read_bytes(), name


def test_markouts_header_carries_the_offsets(markout_corpus):
    """markouts.csv holds the keys; markouts_mr.npy a row per trade, whose
    field names carry the grid's offsets in grid order."""
    _, out = markout_corpus
    with open(out / "markouts.csv", newline="") as f:
        header = next(csv.reader(f))
    assert header == ["tx_hash", "searcher_label", "excluded", "exclusion_reason", "volume_usd"]
    mr = np.load(out / "markouts_mr.npy", allow_pickle=False)
    assert mr.dtype.names[:2] == ("mr_usd@-1.5", "mr_usd@-1.25")
    assert mr.dtype.names[-1] == "mr_usd@10.0" and len(mr.dtype.names) == 47
    assert all(mr.dtype[name] == np.dtype("<f8") for name in mr.dtype.names)
    detections = read_rows(out / "detections.csv")
    assert len(read_rows(out / "markouts.csv")) == len(mr) == len(detections)


def mr_matrix(mr: np.ndarray) -> np.ndarray:
    """A markouts_mr.npy array as its (trades, offsets) float64 matrix."""
    return mr.view("<f8").reshape(len(mr), len(mr.dtype.names))


def wide_markouts(out: Path) -> tuple[list[str], list[list]]:
    """markouts.csv and markouts_mr.npy as the one wide markouts.csv earlier
    versions wrote: its header, and each row's key cells as text, then its
    MR at each offset as a float, under mr_usd@<offset>."""
    with open(out / "markouts.csv", newline="", encoding="utf-8") as f:
        header, *rows = list(csv.reader(f))
    mr = np.load(out / "markouts_mr.npy", allow_pickle=False)
    return header + list(mr.dtype.names), [r + m for r, m in zip(rows, mr_matrix(mr).tolist())]


def test_no_detection_runs_every_stage(markout_corpus, tmp_path):
    """With no token CEX-listed, no transaction passes detect (H6): cexdex all
    and the six stage commands exit 0, with an empty (0,) markouts_mr.npy,
    and write the same bytes."""
    inputs = copy_tree(markout_corpus[0], tmp_path / "in")
    tokens = read_rows(inputs / "tokens.csv")
    write_rows(inputs / "tokens.csv", list(tokens[0]),
               [list((r | {"cex_listed": "false", "is_major": "false"}).values()) for r in tokens])
    args = ["--input-dir", str(inputs), "--out-dir"]
    assert main(["all", *args, str(tmp_path / "all")]) == 0
    for stage in pipeline.STAGE_ORDER:
        assert main([stage, *args, str(tmp_path / "stages")]) == 0
    assert read_rows(tmp_path / "all" / "detections.csv") == []
    assert np.load(tmp_path / "all" / "markouts_mr.npy").shape == (0,)
    assert output_bytes(tmp_path / "stages") == output_bytes(tmp_path / "all")


def gr_columns(header: list[str], rows: list[list]) -> tuple[list[str], list[list[str]]]:
    """The offsets of a wide markouts.csv and, per row, GR at each as written
    before GR was dropped from the file: repr(MR / volume_usd), or 0.0."""
    offsets = [h.split("@")[1] for h in header[5:]]
    return offsets, [[repr(float(mr) / float(r[4]) if float(r[4]) > 0 else 0.0)
                      for mr in r[5:]] for r in rows]


def wide_layout(out: Path) -> None:
    """Rewrite the markouts as earlier versions wrote them: one wide
    markouts.csv, an MR column per offset, and no markouts_mr.npy."""
    write_rows(out / "markouts.csv", *wide_markouts(out))
    (out / "markouts_mr.npy").unlink()


def long_format(out: Path) -> None:
    """Rewrite the markouts in the earliest one-row-per-offset layout."""
    header, rows = wide_markouts(out)
    offsets, grs = gr_columns(header, rows)
    write_rows(out / "markouts.csv", ["tx_hash", "searcher_label", "offset_s", "mr_usd", "gr",
                                      "excluded", "exclusion_reason"],
               [[r[0], r[1], off, r[5 + k], gr[k], r[2], r[3]]
                for r, gr in zip(rows, grs) for k, off in enumerate(offsets)])
    (out / "markouts_mr.npy").unlink()


def wide_with_gr(out: Path) -> None:
    """Rewrite the markouts in the earlier wide layout: no volume_usd, and
    an MR column then a GR column per offset."""
    header, rows = wide_markouts(out)
    offsets, grs = gr_columns(header, rows)
    write_rows(out / "markouts.csv", header[:4] + header[5:] + [f"gr@{o}" for o in offsets],
               [r[:4] + r[5:] + gr for r, gr in zip(rows, grs)])
    (out / "markouts_mr.npy").unlink()


def truncate_last_row(path: Path) -> None:
    text = path.read_text().rstrip("\n")
    path.write_text(text[:text.rindex(",")] + "\n")


def drop_first_offset(out: Path) -> None:
    """Rewrite markouts_mr.npy as if written for a grid starting one step later."""
    mr = np.load(out / "markouts_mr.npy")
    dtype = np.dtype([(name, "<f8") for name in mr.dtype.names[1:]])
    np.save(out / "markouts_mr.npy", np.ascontiguousarray(mr_matrix(mr)[:, 1:]).view(dtype).reshape(-1))


def add_mr_row(out: Path) -> None:
    mr = np.load(out / "markouts_mr.npy")
    np.save(out / "markouts_mr.npy", np.concatenate([mr, mr[:1]]))


def drop_mr_row(out: Path) -> None:
    np.save(out / "markouts_mr.npy", np.load(out / "markouts_mr.npy")[:-1])


def truncate_mr(out: Path) -> None:
    path = out / "markouts_mr.npy"
    path.write_bytes(path.read_bytes()[:-8])


def mr_not_npy(out: Path) -> None:
    (out / "markouts_mr.npy").write_bytes((out / "markouts.csv").read_bytes())


def mr_unstructured(out: Path) -> None:
    """markouts_mr.npy as a bare (trades, offsets) float64 matrix, which cannot name its grid."""
    np.save(out / "markouts_mr.npy", mr_matrix(np.load(out / "markouts_mr.npy")))


@pytest.mark.parametrize("damage", [
    long_format, wide_with_gr, wide_layout,
    pytest.param(lambda out: truncate_last_row(out / "markouts.csv"), id="truncate_last_row"),
    drop_first_offset, add_mr_row, drop_mr_row, truncate_mr, mr_not_npy,
    mr_unstructured])
@pytest.mark.parametrize("stage", ["horizon", "estimate", "market"])
def test_outdated_markouts_exit_1(markout_corpus, tmp_path, capsys, damage, stage):
    """markouts.csv in another layout, or a markouts_mr.npy not of this
    config's grid or not of a row per row of markouts.csv, is refused."""
    inputs, out = markout_corpus
    stale = copy_tree(out, tmp_path / "out")
    damage(stale)
    capsys.readouterr()
    assert main([stage, "--input-dir", str(inputs), "--out-dir", str(stale)]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "OutdatedOutput"
    assert "markouts.csv" in err["message"] and "rerun the markout stage" in err["message"]


@pytest.mark.parametrize("stage", ["horizon", "estimate", "market"])
def test_missing_mr_exits_1(markout_corpus, tmp_path, capsys, stage):
    inputs, out = markout_corpus
    stale = copy_tree(out, tmp_path / "out")
    (stale / "markouts_mr.npy").unlink()
    capsys.readouterr()
    assert main([stage, "--input-dir", str(inputs), "--out-dir", str(stale)]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "DependencyMissing" and "markouts_mr.npy" in err["message"]


@pytest.mark.parametrize("stage", ["horizon", "estimate", "market"])
def test_mr_of_a_shifted_grid_exits_1(markout_corpus, tmp_path, capsys, stage):
    """A markouts_mr.npy that markout wrote under a grid of as many offsets,
    shifted (-2.0 s to 9.0 s), is refused under the default grid (-1.0 s to
    10.0 s) by its field names, though its shape fits."""
    inputs = copy_tree(markout_corpus[0], tmp_path / "in")
    out = tmp_path / "out"
    config = json.loads((inputs / "config.json").read_text())
    for start, end, stages in ((-2.0, 9.0, ["detect", "markout"]), (-1.0, 10.0, [])):
        config.update(grid_start_s=start, grid_end_s=end, grid_step_s=0.5)
        (inputs / "config.json").write_text(json.dumps(config))
        for name in stages:
            assert main([name, "--input-dir", str(inputs), "--out-dir", str(out)]) == 0
    capsys.readouterr()
    assert main([stage, "--input-dir", str(inputs), "--out-dir", str(out)]) == 1
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


def relabel_first_row(path: Path) -> None:
    """Give the first trade another trade's searcher label."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    col = rows[0].index("searcher_label")
    rows[1][col] = next(r[col] for r in rows[2:] if r[col] != rows[1][col])
    write_rows(path, rows[0], rows[1:])


@pytest.mark.parametrize("damage", [drop_second_row, swap_first_rows, relabel_first_row])
@pytest.mark.parametrize("stage", ["horizon", "estimate", "market"])
def test_markouts_of_other_trades_exit_1(markout_corpus, tmp_path, capsys, damage, stage):
    """horizon, estimate and market group by the searchers of markouts.csv,
    and estimate and market join it to detections.csv row by row, so a
    markouts.csv whose trades are not detections.csv's, in order and of the
    same searchers, is refused."""
    inputs, out = markout_corpus
    stale = copy_tree(out, tmp_path / "out")
    hashes = [r["tx_hash"] for r in read_rows(stale / "markouts.csv")]
    damage(stale / "markouts.csv")
    # markouts_mr.npy's rows follow the damaged keys, so the pair agrees
    row = {h: i for i, h in enumerate(hashes)}
    mr = np.load(stale / "markouts_mr.npy")
    kept = [row[r["tx_hash"]] for r in read_rows(stale / "markouts.csv")]
    np.save(stale / "markouts_mr.npy", mr[kept])
    capsys.readouterr()
    assert main([stage, "--input-dir", str(inputs), "--out-dir", str(stale)]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "OutdatedOutput"
    assert "markouts.csv" in err["message"] and "rerun the markout stage" in err["message"]


@pytest.mark.parametrize("damage", [drop_second_row, swap_first_rows])
def test_economics_of_other_trades_exit_1(markout_corpus, tmp_path, capsys, damage):
    """market reads economics.csv as the priced trades of detections.csv, in
    order, so a stale or truncated economics.csv is refused, not mixed in."""
    inputs, out = markout_corpus
    stale = copy_tree(out, tmp_path / "out")
    damage(stale / "economics.csv")
    capsys.readouterr()
    assert main(["market", "--input-dir", str(inputs), "--out-dir", str(stale)]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "OutdatedOutput"
    assert "economics.csv" in err["message"] and "rerun the estimate stage" in err["message"]


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
    ("markouts.csv", "volume_usd", "horizon"),  # float
    ("profiles.csv", "low_confidence", "estimate"),  # bool
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


def test_output_int_past_int64_exits_1(markout_corpus, tmp_path, capsys):
    """An int column is held as int64, so a cell past it is refused, named."""
    inputs, out = markout_corpus
    stale = copy_tree(out, tmp_path / "out")
    with open(stale / "economics.csv", newline="") as f:
        header, *rows = list(csv.reader(f))
    rows[1][header.index("block_number")] = str(2**63)
    write_rows(stale / "economics.csv", header, rows)
    capsys.readouterr()
    assert main(["builder", "--input-dir", str(inputs), "--out-dir", str(stale)]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "MalformedRow", "message": "malformed row 2: bad value "
                   f"'{2**63}' in block_number of economics.csv"}


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


def test_estimate_names_first_priced_trade_without_eth_series(markout_corpus, tmp_path, capsys):
    # with no ETHUSDT row at all, the error names the slot time of the first priced trade
    inputs, out = markout_corpus
    inputs = copy_tree(inputs, tmp_path / "in")
    out = copy_tree(out, tmp_path / "out")
    first = int(read_rows(out / "economics.csv")[0]["slot_time_ms"])
    assert drop_eth_quotes(inputs, lambda ts: False) == []
    capsys.readouterr()
    assert main(["estimate", "--input-dir", str(inputs), "--out-dir", str(out)]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "NoQuoteBefore", "message": f"no quote at or before t={first}"}


# ---------------------------------------------------------------------------
# copies: quotes.npz and the stage outputs a later stage command loads

COPIES = ["detections.npz", "economics.npz", "markouts.npz", "profiles.npz", "quotes.npz"]


def output_bytes(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.glob("*.csv")) + [out / "manifest.json"]}


def cross_first_quote_not_of_eth(inputs: Path) -> int:
    """Give the first quote of a symbol other than ETHUSDT an ask below its
    bid; return its 1-based data row."""
    rows = read_rows(inputs / "quotes.csv")
    k = next(i for i, r in enumerate(rows) if r["symbol"] != "ETHUSDT")
    rows[k]["ask"] = repr(float(rows[k]["bid"]) / 2)
    write_rows(inputs / "quotes.csv", list(rows[0]), [list(r.values()) for r in rows])
    return k + 1


@pytest.fixture(scope="module")
def staged_corpus(markout_corpus, tmp_path_factory):
    """The out-dir of markout_corpus's six stage commands, copies included."""
    inputs, _ = markout_corpus
    out = tmp_path_factory.mktemp("staged") / "out"
    for stage in pipeline.STAGE_ORDER:
        assert main([stage, "--input-dir", str(inputs), "--out-dir", str(out)]) == 0
    return out


def test_stage_commands_keep_copies_and_all_keeps_none(markout_corpus, staged_corpus, tmp_path):
    inputs, out = markout_corpus
    assert output_bytes(staged_corpus) == output_bytes(out)
    assert sorted(p.name for p in staged_corpus.glob("*.npz")) == COPIES
    assert main(["all", "--input-dir", str(inputs), "--out-dir", str(tmp_path / "all")]) == 0
    assert [p.name for p in (tmp_path / "all").glob("*.npz")] == ["quotes.npz"]


def test_stages_after_markout_load_the_spill(markout_corpus, tmp_path, monkeypatch):
    """After markout, each later stage command, a fresh Workspace, loads the
    quotes from quotes.npz and the outputs of earlier stages from their
    copies, tokenizing no CSV but its inputs, and writes the bytes of
    cexdex all."""
    inputs, out = markout_corpus
    stages = ["--input-dir", str(inputs), "--out-dir", str(tmp_path / "stages")]
    for stage in ("detect", "markout"):
        assert main([stage, *stages]) == 0
    assert (tmp_path / "stages" / "quotes.npz").exists()

    read_columns = data_model._read_columns
    tokenized = []

    def read_but_quotes(path, kinds):
        assert Path(path).name != "quotes.csv", "quotes.csv tokenized again"
        tokenized.append(Path(path).name)
        return read_columns(path, kinds)

    monkeypatch.setattr(data_model, "_read_columns", read_but_quotes)
    for stage in ("horizon", "estimate", "market", "builder"):
        assert main([stage, *stages]) == 0
    assert output_bytes(tmp_path / "stages") == output_bytes(out)
    assert tokenized and set(tokenized) <= set(pipeline.INPUT_FILES)


def keep_members(copy: Path, change) -> None:
    """Rewrite the copy with the members ``change`` makes of its members."""
    with np.load(copy) as z:
        members = change({name: z[name] for name in z.files})
    np.savez(copy, **members)


def other_file(members: dict) -> dict:
    """The members of another file's copy: its floats doubled, under the key
    of another sha256."""
    _, kinds = json.loads(members["key"].item())
    return {k: v * 2 if v.dtype == np.float64 else v for k, v in members.items()} | {
        "key": np.array(json.dumps(["0" * 64, kinds]))}


@pytest.mark.parametrize("damage", [
    lambda copy: copy.write_bytes(copy.read_bytes()[:copy.stat().st_size // 2]),
    lambda copy: copy.write_bytes(b"symbol,ts_ms,bid,ask\n" * 50),
    # the first after the key, which every reader of the copy reads
    lambda copy: keep_members(copy, lambda m: dict(list(m.items())[:1] + list(m.items())[2:])),
    lambda copy: keep_members(copy, other_file),
], ids=["truncated", "garbage", "member missing", "other sha256"])
def test_damaged_spill_is_replaced(markout_corpus, staged_corpus, tmp_path, damage):
    """Every copy damaged, the stage commands after markout parse the CSVs,
    write the bytes of cexdex all and replace each copy with what it held."""
    inputs, out = markout_corpus
    staged = copy_tree(staged_corpus, tmp_path / "out")
    kept = {}
    for name in COPIES:
        with np.load(staged / name) as z:
            kept[name] = {member: z[member] for member in z.files}
        damage(staged / name)
    for stage in ("horizon", "estimate", "market", "builder"):
        assert main([stage, "--input-dir", str(inputs), "--out-dir", str(staged)]) == 0
    assert output_bytes(staged) == output_bytes(out)
    for name, members in kept.items():
        with np.load(staged / name, allow_pickle=False) as z:
            assert sorted(z.files) == sorted(members), name
            for member in members:
                assert np.array_equal(z[member], members[member]), (name, member)
    assert sorted(p.name for p in staged.iterdir()) == sorted(p.name for p in staged_corpus.iterdir())


def test_edited_output_is_parsed(staged_corpus, markout_corpus, tmp_path):
    """A CSV edited after its stage wrote it is read as edited: the next
    stage writes what it writes without the copies, and a cell that does
    not parse is refused as before."""
    inputs, _ = markout_corpus
    outs = [copy_tree(staged_corpus, tmp_path / name) for name in ("copies", "none")]
    for out in outs:
        rows = read_rows(out / "economics.csv")
        rows[0]["ev_usd"] = repr(float(rows[0]["ev_usd"]) * 1.5)
        write_rows(out / "economics.csv", list(rows[0]), [list(r.values()) for r in rows])
    for copy in outs[1].glob("*.npz"):
        copy.unlink()
    for out in outs:
        assert main(["market", "--input-dir", str(inputs), "--out-dir", str(out)]) == 0
    assert output_bytes(outs[0]) == output_bytes(outs[1])
    assert output_bytes(outs[0])["market.csv"] != output_bytes(staged_corpus)["market.csv"]

    path = outs[0] / "markouts.csv"
    path.write_text(path.read_text().replace("InventoryAdjustment,", "InventoryAdjustment,x", 1))
    with pytest.raises(MalformedRow, match="in volume_usd of markouts.csv"):
        pipeline.Workspace(inputs, outs[0]).markouts


def test_copy_of_another_grid_is_refused(markout_corpus, tmp_path, capsys):
    """markouts_mr.npy of a grid that holds this config's grid: markouts.csv
    and its copy are loaded, but the .npy's fields name the other grid, so
    it is refused as outdated."""
    inputs = copy_tree(markout_corpus[0], tmp_path / "in")
    out = tmp_path / "out"
    for stage in ("detect", "markout"):
        assert main([stage, "--input-dir", str(inputs), "--out-dir", str(out)]) == 0
    config = json.loads((inputs / "config.json").read_text())
    config.update(grid_start_s=-1.0)
    (inputs / "config.json").write_text(json.dumps(config))
    capsys.readouterr()
    assert main(["horizon", "--input-dir", str(inputs), "--out-dir", str(out)]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "OutdatedOutput" and "rerun the markout stage" in err["message"]


def test_estimate_refuses_quotes_changed_after_markout(markout_corpus, tmp_path, capsys):
    inputs, out = markout_corpus
    inputs = copy_tree(inputs, tmp_path / "in")
    out = copy_tree(out, tmp_path / "out")
    row = cross_first_quote_not_of_eth(inputs)
    capsys.readouterr()
    assert main(["estimate", "--input-dir", str(inputs), "--out-dir", str(out)]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "CrossedQuote",
                   "message": f"crossed quote (ask < bid) at row {row} of quotes.csv"}


def test_failed_parse_writes_no_spill(markout_corpus, tmp_path):
    inputs = copy_tree(markout_corpus[0], tmp_path / "in")
    cross_first_quote_not_of_eth(inputs)
    out = tmp_path / "out"
    assert main(["all", "--input-dir", str(inputs), "--out-dir", str(out)]) == 1
    assert not (out / "quotes.npz").exists() and not list(out.glob("quotes.*"))


# ---------------------------------------------------------------------------
# manifest: digest and row count from one binary pass

CHUNK = pipeline._BLOCK


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


def test_rewritten_output_is_digested_as_it_now_is(markout_corpus, tmp_path):
    """A Workspace digests a file once, and writing the file drops that
    digest: outputs digested, then written again with other bytes (a CSV by
    _write_output, the .npy by run_markout), enter the manifest as they now are."""
    inputs, out = markout_corpus
    out = copy_tree(out, tmp_path / "out")
    ws = pipeline.Workspace(inputs, out)
    rewritten = [out / "markouts.csv", out / pipeline.MR_FILE]
    before = [ws.entry(p) for p in rewritten]
    ws.detections = ws.detections.select(np.arange(len(ws.detections)) > 0)  # one trade fewer
    pipeline.run_markout(ws)
    pipeline.write_manifest(ws)
    manifest = json.loads((out / "manifest.json").read_text())
    for p, old in zip(rewritten, before):
        assert manifest["outputs"][p.name] == pipeline._manifest_entry(p) != old
    files = {**{n: inputs / n for n in manifest["inputs"]},
             **{n: out / n for n in manifest["outputs"]}}
    assert {**manifest["inputs"], **manifest["outputs"]} == {
        n: pipeline._manifest_entry(p) for n, p in files.items()}


# ---------------------------------------------------------------------------
# stage outputs handed on in memory: the same values the CSVs hold

@pytest.fixture(scope="module")
def handoff_corpus(markout_corpus, tmp_path_factory):
    """markout_corpus with a flat (P3) searcher and a trade whose EV is not
    positive, so every optional field of the stage outputs is None somewhere,
    and s_gentle integrated with builderA, whose blocks hold its trades in
    some cases and none in others."""
    src, out = markout_corpus
    inputs = copy_tree(src, tmp_path_factory.mktemp("handoff") / "in")
    searchers = json.loads((inputs / "searchers.json").read_text())
    searchers["integrated_with"] = {"s_gentle": "builderA"}
    (inputs / "searchers.json").write_text(json.dumps(searchers))
    ws = pipeline.Workspace(src, out)
    table, (labels, code) = ws.markouts, ws.searchers
    spread_bps = {
        label: float(np.ptp(np.median(table.gr[rows], axis=0))) * 1e4
        for k, label in enumerate(labels.tolist())
        if (rows := table.included() & (code == k)).any()
    }
    assert spread_bps["s_flat"] < min(v for k, v in spread_bps.items() if k != "s_flat")
    config = json.loads((inputs / "config.json").read_text())
    config["pattern_flat_epsilon_bps"] = spread_bps["s_flat"] * 1.01
    (inputs / "config.json").write_text(json.dumps(config))
    # a trade whose MR at its searcher's t* is below its own best MR: a base
    # fee between the two keeps it included and makes its EV negative
    for i, trade in enumerate(ws.detections.rows()):
        if table.exclusion_reason[i] != "" or trade.searcher_label == "s_flat":
            continue
        t_star = ws.profiles[trade.searcher_label].t_star_s
        low = float(table.mr_usd[i, ws.config.index_of(t_star)])
        high = float(table.mr_usd[i].max())
        if low < high:
            break
    else:
        raise AssertionError("every included trade peaks at its searcher's t*")
    mids, _ = ws.quotes.eth_usd([trade.slot_time_ms], ws.config.quote_staleness_ms)
    eth = float(mids[0])
    txs = read_rows(inputs / "transactions.csv")
    for r in txs:
        if r["tx_hash"] == trade.tx_hash:
            r["base_fee_eth"] = repr((low + high) / 2 / eth)
    write_rows(inputs / "transactions.csv", list(txs[0]), [list(r.values()) for r in txs])
    return inputs


def same_fields(kept, parsed) -> None:
    """Fields of a dataclass, or columns of a Table, equal and of the same
    Python type: arrays of the same dtype, their numbers and floats bit for
    bit (None where the other has None), and Decimals with the same exponent."""
    for f in dataclasses.fields(kept.row if isinstance(kept, Table) else kept):
        a, b = getattr(kept, f.name), getattr(parsed, f.name)
        assert type(a) is type(b), (f.name, a, b)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype, (f.name, a.dtype, b.dtype)
            if a.dtype == object:  # a column of floats and None
                a, b = a.tolist(), b.tolist()
                assert [type(x) for x in a] == [type(x) for x in b], f.name
                assert all(same_bits(x, y) if isinstance(x, float) else x == y
                           for x, y in zip(a, b)), f.name
            else:
                assert a.tolist() == b.tolist() if a.dtype.kind == "T" else same_bits(a, b), f.name
        elif isinstance(a, float):
            assert same_bits(a, b), (f.name, a, b)
        elif isinstance(a, Decimal):
            assert a.as_tuple() == b.as_tuple(), (f.name, a, b)
        else:
            assert a == b, (f.name, a, b)


def test_kept_outputs_equal_parsed(handoff_corpus, tmp_path, monkeypatch):
    """After a whole run, the objects a Workspace kept equal what a fresh
    Workspace parses from the CSVs, so no later stage changed one; and what
    one loads from the copies that the stage commands keep equals both."""
    kept = pipeline.Workspace(handoff_corpus, tmp_path / "all")
    pipeline.run_all(kept)
    parsed = pipeline.Workspace(handoff_corpus, tmp_path / "all")
    for name in ("detections", "markouts", "profiles", "economics"):
        getattr(parsed, name)  # parsed now, before the parser is taken away below
    for stage in pipeline.STAGE_ORDER:
        pipeline.run_stage(stage, pipeline.Workspace(handoff_corpus, tmp_path / "stages"))
    monkeypatch.setattr(pipeline, "_read_csv", None)  # loaded, not parsed
    copied = pipeline.Workspace(handoff_corpus, tmp_path / "stages")
    for other in (parsed, copied):
        assert len(kept.detections) == len(other.detections)
        same_fields(kept.detections, other.detections)
        same_fields(kept.markouts, other.markouts)
        assert same_bits(kept.markouts.gr, other.markouts.gr)
        assert list(kept.profiles) == list(other.profiles)
        for a, b in zip(kept.profiles.values(), other.profiles.values()):
            same_fields(a, b)
        assert len(kept.economics) == len(other.economics)
        same_fields(kept.economics, other.economics)
    assert "" not in kept.detections.searcher_label.tolist()
    # every column is an array, kept, parsed and copied alike, and an included
    # trade's exclusion reason is "", as markouts.csv writes it
    for ws in (kept, parsed, copied):
        for table in (ws.detections, ws.economics, ws.blocks, ws.markouts):
            for f in dataclasses.fields(table.row if isinstance(table, Table) else table):
                assert isinstance(getattr(table, f.name), np.ndarray), (table, f.name)
        assert set(ws.markouts.exclusion_reason.tolist()) == {"", "QuoteGap", "InventoryAdjustment"}
    # every optional field is None somewhere
    assert any(p.t_star_s is None for p in kept.profiles.values())
    assert any(p.decline_3s_fraction is None for p in kept.profiles.values())
    assert None in kept.economics.margin


# the row type of every output but markouts.csv, whose one float column is volume_usd
OUTPUT_ROWS = {
    "detections.csv": ArbTrade, "verdicts.csv": DetectionVerdict,
    "profiles.csv": horizon.SearcherProfile, "economics.csv": estimate.TradeEconomics,
    "summary.csv": estimate.SearcherSummary, "cumulative_ev.csv": estimate.CumulativeEv,
    "market.csv": market.DailyShare, "integration.csv": market.IntegrationCell,
    "correlations.csv": market.Correlation, "builder_blocks.csv": builder.BuilderBlockEconomics,
    "builder_summary.csv": builder.BuilderSummary,
}


@pytest.fixture(scope="module")
def handoff_out(handoff_corpus, tmp_path_factory):
    """The outputs of cexdex all on handoff_corpus."""
    out = tmp_path_factory.mktemp("handoff_out")
    assert main(["all", "--input-dir", str(handoff_corpus), "--out-dir", str(out)]) == 0
    return out


def test_float_cells_are_written_as_floats(handoff_out):
    """A cell of a float column is empty or a float's repr, never an int's."""
    floats = {name: [f.name.removesuffix("_") for f in dataclasses.fields(cls)
                     if f.type in ("float", "float | None")]
              for name, cls in OUTPUT_ROWS.items()}
    floats["markouts.csv"] = ["volume_usd"]
    assert sorted(p.name for p in handoff_out.glob("*.csv")) == sorted(floats)
    for name, columns in floats.items():
        for k, row in enumerate(read_rows(handoff_out / name), start=1):
            for c in columns:
                cell = row[c]
                assert cell == "" or any(s in cell for s in (".", "e", "inf", "nan")), \
                    (name, k, c, cell)


def all_digests(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.glob("*.csv")) + [out / "markouts_mr.npy", out / "manifest.json"]}


# sha256 of the 12 CSVs, markouts_mr.npy and manifest.json of cexdex all on test_synth's
# pinned corpora, on handoff_corpus and on many_searchers_corpus; a change
# that moves one byte of an output for these inputs fails here
PINNED_RUN_DIGESTS = {
    "many": {
        "builder_blocks.csv": "80ce64835a075330027009ab52223664f3191d07847a909127c6f4b32bc4750a",
        "builder_summary.csv": "e9724d0b41cc569eb4ebc4e00c8c24e133f3126878c41b4021851b9b0982e191",
        "correlations.csv": "e80ca95622bc3020ded7b49c7d7459eb70eb63aa90b0262cf65d1f84fb936335",
        "cumulative_ev.csv": "e88fe21b35eb2f3d9bcc3b1cc4009d05e9ed04dc4f3b1c50ea603b24cef49396",
        "detections.csv": "b0154788ef314cf15131d1792d3e824c80048f90349b6fb9f6cd99c97cf91ba8",
        "economics.csv": "b52954840288e2d35f77a95d6115adc3a61c7abe2e3c7b5705b2675e53c7a0eb",
        "integration.csv": "773e0716ef4e9a33c1fb683f0d630684c77b4c49cff12af4060f9e1434efbef2",
        "market.csv": "574f4bb15ed261c2411535d407782ac5b4cc3d465033116c38216de6b4f186b2",
        "markouts.csv": "1ed096df6e5761322eb3c2a7d4c3d2306c6e28a4e92b2690f8d553cda9f7d966",
        "markouts_mr.npy": "af7a2841f8def4028f6a1f4233f21ef07164e23650eaac3fb58f3409fd04bf87",
        "profiles.csv": "4cc4f6cd4d3f5851d864f3c0aefcc9dd0e619cedb71876d65af4a328b999fcef",
        "summary.csv": "7cf0c26d860bef0ba1810aaad3768408cd8a7637160c347c818f26b8b0f2afd1",
        "verdicts.csv": "b2e085c1225a267f200c6e1e413289dcb4ceeef296219e0f32a9afcf71a3d9b9",
        "manifest.json": "d68c830112af4ef463656bb9ccc6965d63b2af461300c2c52247314f6a3f877f",
    },
    "small": {
        "builder_blocks.csv": "2cb56b400292aadb9883b74e9c307a180d47859402464467c970c0b9502bc395",
        "builder_summary.csv": "ee0af7c07896b416396713137554fb7b924ae1377c35b062c34c27fb3403f1a7",
        "correlations.csv": "fcd6862de0dfc8d225d0b78bb70a1819e805b1b66af97ce9792db9e3dad380fa",
        "cumulative_ev.csv": "2d501ff02239f6f721b45b31d7874081cb19ceaaa0de893dd7c3d5c6efcafaca",
        "detections.csv": "bb649d84f9a8183f6a69700e65fffe76d97616807739e8a3ba0c835f9a8e9860",
        "economics.csv": "837a978a7413297a6d3f4d2b5ae070a73d2fd899d8fd7e6a75d46390a6d66b16",
        "integration.csv": "6bcb60665a99956227691990deb71271b925807cef8117b31ac8531a5950aff8",
        "market.csv": "544f43dc46aff3bae8abaddb6620d8a6374a399f58dc312cfd9c6854bea0007c",
        "markouts.csv": "dfa7b3be9dc0f0ed3a4778e0bdf2decc20633cbaf0e9ffea57d7fd9f8384d6ac",
        "markouts_mr.npy": "d35003857cdcd0dc9234cdb85de70cc4056bc2e1c1ef49081571c5e28bc90a97",
        "profiles.csv": "8ac9ab6ec6ce488d9ad9d68c473db3d67455bbc831c3fe239cbd80f38ce8535c",
        "summary.csv": "18b37f3d43340e14d5acbc7fe8ad1c5db2b04782dc680d37e75a445c4d7fdad9",
        "verdicts.csv": "7c8f2ddff5b7b882742e32fb9b3e9bfa47ba3de198afc569be32bc4d1c12c437",
        "manifest.json": "4da616cfabfcbf51027b3e827766563b442f7de188835bb558b92bdb2c792b33",
    },
    "varied": {
        "builder_blocks.csv": "0627c26f91768cc5c268b3c130a73a5a0e15819a125043813657ea5103e7293f",
        "builder_summary.csv": "2cd667057f60edf176c8a3e39116ef852c738940020e08fd4f555702ff55679b",
        "correlations.csv": "e44f37119e2b91b8d15c26555a7cae9bb2f4f8a2590c2d214ea98055e326654b",
        "cumulative_ev.csv": "4217272807b2585388ccfe94fbfe8cfc979d4feea3f050311556139dfcf3ef20",
        "detections.csv": "801cfff2024f2ff2685f3294809e9225ef0c0213f36ef562dc8e7643c3e683d8",
        "economics.csv": "2fef6aca836ad9d5477b09e7b1d0011dbaa4b08bdd8b3d5af40099a922c1a193",
        "integration.csv": "9c4e1e47dfd3805eab5e3260b5f5698e4c6960c7b6663f4ce67cdf8d1da61837",
        "market.csv": "5ee6da35b244a145f9baca1dcd13db6741830614a2d530df4f7c67b1619b79af",
        "markouts.csv": "623284a9cf099d39af0be7587feea48d83358262507e320275829ef84b37d1af",
        "markouts_mr.npy": "c5c3a69dde907637edaced457bca479427b6ae05a0baf05a3c02cdf5c7ec6cd5",
        "profiles.csv": "651c355895c9c39cc48088a7bd238a31aeffe5d0df2f3efad8a718b8dd28bdcb",
        "summary.csv": "10ab5ecaad6c9de930c9f848e1ead08630e4c79d9dc0d5122c9ea6c5cef89b14",
        "verdicts.csv": "328052a1f1aae92bfbf23d9abdbf7244c2c20413853ad7fb7c6e55a9c5c764cd",
        "manifest.json": "cc7062e084390f731e195800819661ccd711e47ecbc954d97e658faac00718b1",
    },
    "handoff": {
        "builder_blocks.csv": "165497edfd70a94eb6a64e7d3ec0c1050c8bbb6f1ca8976f65866ebec3b9f0ed",
        "builder_summary.csv": "f1c4bae37c77be1d0da3a398a0a5498e45a59b9f8f3b7212ae8f60063ca79543",
        "correlations.csv": "fcd6862de0dfc8d225d0b78bb70a1819e805b1b66af97ce9792db9e3dad380fa",
        "cumulative_ev.csv": "ec6fab2b689a57a43c8555285ea722657dc692edad08cece57e486f1db455f34",
        "detections.csv": "a1fe48451bf1e32c6e7285375ef122380ad561fc2c5d8817377c8ace5ffbbf9b",
        "economics.csv": "d7a86370c35096a9d3d343b8c2f8c1975786a587e5645380a883b0fc9aa98563",
        "integration.csv": "e1b1bbdfcc9cf19c47e16a220bb7571a0727a24a1b05019a407d75469a4c533e",
        "market.csv": "f7a93160a2c1eef7e1748d7360537dfe8da39d632237139fd4c8dbca8925ab33",
        "markouts.csv": "cbee244e6f6629f04ced96d0fc15bd6f88d76941356d3e373b2e4580ccfb80bc",
        "markouts_mr.npy": "c2a8b68bf3b200df16806ef6ec975bcd54c8ea15e644bcbf86a30bd3e724d8e9",
        "profiles.csv": "2191b2e32df9a301db42760b3b7e7fff0521e7af3d8640489b76ebe626780758",
        "summary.csv": "f7549b9fa08546f0f368287a625d7ec1a8d9daa87cf04d1c9534e9eb4043ce1b",
        "verdicts.csv": "e769f325bdc9e2ac05b67f9868412da2c149ea60dc29948225d2fe9d20c4ed9a",
        "manifest.json": "f8c776a508a6d73a245ee4c5376ff9f7e39f45aea26d896c4cc0d2a4a19f5344",
    },
}


def pinned_run(scenario: str, request, tmp_path: Path) -> tuple[Path, Path]:
    """(inputs, cexdex all's out-dir) of a scenario of PINNED_RUN_DIGESTS."""
    if scenario == "handoff":
        return request.getfixturevalue("handoff_corpus"), request.getfixturevalue("handoff_out")
    if scenario == "many":
        return request.getfixturevalue("many_searchers")
    inputs = tmp_path / "in"
    generate({"small": small_config, "varied": varied_config}[scenario](), inputs)
    assert main(["all", "--input-dir", str(inputs), "--out-dir", str(tmp_path / "out")]) == 0
    return inputs, tmp_path / "out"


@pytest.mark.parametrize("scenario", sorted(PINNED_RUN_DIGESTS))
def test_all_writes_pinned_bytes(scenario, request, tmp_path):
    """cexdex all, and the six stage commands run one by one, each a fresh
    process's worth of reading the outputs before it, write the pinned bytes."""
    inputs, out = pinned_run(scenario, request, tmp_path)
    assert all_digests(out) == PINNED_RUN_DIGESTS[scenario]
    for stage in pipeline.STAGE_ORDER:
        assert main([stage, "--input-dir", str(inputs), "--out-dir", str(tmp_path / "stages")]) == 0
    assert all_digests(tmp_path / "stages") == PINNED_RUN_DIGESTS[scenario]


# sha256 of the wide markouts.csv that earlier versions wrote, its key columns
# then an mr_usd@<offset> column per offset, for the scenarios above
WIDE_MARKOUTS_DIGESTS = {
    "many": "f60ff41dc07f98001a650b65fcde2d188b636a49e37a904c24e1ea35184c805a",
    "small": "8369de1ff2f194c14d52f690554beffbba93aa784b806794f2c49843ad28a7dd",
    "varied": "3dcc46cf8bad9de9c8fd07f0b49c43801f9cad239e9de65954f65c856e25653c",
    "handoff": "3b580fa9e774d6c9d20354a5bc94c5f0d7c3a10b338f643e3b7a260ebcf924fc",
}


@pytest.mark.parametrize("scenario", sorted(WIDE_MARKOUTS_DIGESTS))
def test_markouts_npy_rebuilds_the_parent_csv(scenario, request, tmp_path):
    """markouts.csv's key cells and markouts_mr.npy's floats, written by
    _write_csv as one wide file, are the wide markouts.csv byte for byte: the
    .npy holds the MR that file held, bit for bit, in its row order."""
    _, out = pinned_run(scenario, request, tmp_path)
    header, rows = wide_markouts(out)
    wide = tmp_path / "wide.csv"
    kinds = {c: data_model.ANY_FLOAT if c.startswith("mr_usd@") else data_model.STR
             for c in header}
    pipeline._write_csv(wide, kinds, [np.array([r[k] for r in rows], dtype=object)
                                      for k in range(len(header))])
    assert hashlib.sha256(wide.read_bytes()).hexdigest() == WIDE_MARKOUTS_DIGESTS[scenario]


def cexdex_process(args: list[str], hash_seed: int) -> None:
    """``cexdex <args>`` in a fresh interpreter with PYTHONHASHSEED=``hash_seed``."""
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    subprocess.run([sys.executable, "-m", "cexdex.cli", *args], env=env, check=True,
                   capture_output=True)


def test_outputs_do_not_depend_on_the_process(many_searchers, tmp_path):
    """cexdex all under two string-hash seeds, and the six stage commands
    under a third, each its own process, write the same bytes; so do the six
    again under a fourth, where the later stages load quotes.npz."""
    dirs = ["--input-dir", str(many_searchers[0]), "--out-dir"]
    for seed in (0, 1):
        cexdex_process(["all", *dirs, str(tmp_path / f"all{seed}")], seed)
    for stage in pipeline.STAGE_ORDER:
        cexdex_process([stage, *dirs, str(tmp_path / "stages")], 2)
    for out in ("all0", "all1", "stages"):
        assert all_digests(tmp_path / out) == PINNED_RUN_DIGESTS["many"], out
    assert (tmp_path / "stages" / "quotes.npz").exists()
    for stage in pipeline.STAGE_ORDER:
        cexdex_process([stage, *dirs, str(tmp_path / "stages")], 3)
    assert all_digests(tmp_path / "stages") == PINNED_RUN_DIGESTS["many"]


def test_ev_uses_t_star_offset(markout_corpus):
    """EV is the trade's MR in its searcher's t* column less the base fee, bit
    for bit, with t* off 0 for some trades."""
    inputs, out = markout_corpus
    ws = pipeline.Workspace(inputs, out)
    table = ws.markouts
    row = {tx: i for i, tx in enumerate(ws.detections.tx_hash)}
    off_zero = 0
    for e in ws.economics.rows():
        mr = table.mr_usd[row[e.tx_hash]]
        col = ws.config.index_of(ws.profiles[e.searcher_label].t_star_s)
        assert same_bits(e.ev_usd, float(mr[col]) - e.base_fee_usd), e.tx_hash
        off_zero += bool(mr[col] != mr[ws.config.index_of(0.0)])
    assert ws.economics and off_zero


def test_all_parses_no_stage_output(markout_corpus, tmp_path, monkeypatch):
    inputs, _ = markout_corpus
    out = tmp_path / "out"
    read: list[str] = []
    parse = pipeline._read_csv
    monkeypatch.setattr(pipeline, "_read_csv",
                        lambda path, *args: read.append(path.name) or parse(path, *args))
    assert main(["all", "--input-dir", str(inputs), "--out-dir", str(out)]) == 0
    assert read == []
    assert main(["estimate", "--input-dir", str(inputs), "--out-dir", str(out)]) == 0
    assert read == ["detections.csv", "markouts.csv", "profiles.csv"]
    # which it kept as copies, and a second estimate loads
    assert main(["estimate", "--input-dir", str(inputs), "--out-dir", str(out)]) == 0
    assert read == ["detections.csv", "markouts.csv", "profiles.csv"]


def tiny_corpus(inputs: Path) -> None:
    """perfbench's tiny corpus, seed 1, in ``inputs``."""
    generate(SynthConfig(seed=1, n_days=2, searchers=(
        SearcherSpec("s_gentle_1s", "gentle", 5, true_hedge_delay_s=1.0),
        SearcherSpec("s_abrupt_05s", "abrupt", 5, true_hedge_delay_s=0.5),
        SearcherSpec("s_gentle_2s", "gentle", 5, true_hedge_delay_s=2.0),
        SearcherSpec("s_flat", "none", 5)),
        integrated_with={"s_abrupt_05s": "builderA"}), inputs)


def edit_rows(path: Path, change) -> None:
    """Rewrite the CSV at ``path`` with each row, a dict, updated by ``change(row)``."""
    rows = read_rows(path)
    write_rows(path, list(rows[0]), [list((r | change(r)).values()) for r in rows])


def test_a_block_with_no_trade_moves_only_the_builder_outputs(tmp_path):
    """An irrelevant input: one more block, numbered 2**40 and with no trade,
    changes only builder_blocks.csv (by its row), builder_summary.csv and the
    manifest. No stage sizes memory by the range of block numbers."""
    inputs = tmp_path / "in"
    tiny_corpus(inputs)
    assert main(["all", "--input-dir", str(inputs), "--out-dir", str(tmp_path / "plain")]) == 0
    with open(inputs / "blocks.csv", newline="") as f:
        header, first = next(csv.reader(f)), next(csv.reader(f))
    extra = dict(zip(header, first), block_number=str(2**40), builder_label="builderB")
    with open(inputs / "blocks.csv", "a", newline="") as f:
        csv.writer(f, lineterminator="\n").writerow([extra[c] for c in header])
    assert main(["all", "--input-dir", str(inputs), "--out-dir", str(tmp_path / "more")]) == 0

    plain, more = all_digests(tmp_path / "plain"), all_digests(tmp_path / "more")
    moved = {"builder_blocks.csv", "builder_summary.csv", "manifest.json"}
    assert {name for name in plain if plain[name] != more[name]} == moved
    rows = read_rows(tmp_path / "more" / "builder_blocks.csv")
    assert rows[:-1] == read_rows(tmp_path / "plain" / "builder_blocks.csv")
    assert (rows[-1]["block_number"], rows[-1]["builder_label"]) == (str(2**40), "builderB")


TOK00 = "0xa170000000000000000000000000000000000000"  # synth's first alt, quoted as TOK00USDT


def test_redenominated_token_moves_only_its_amounts(tmp_path):
    """Re-denomination: TOK00 quoted at twice its price, with each of its DEX
    amounts halved (both exact in decimal text, and exact again as doubles),
    has every USD value's bits. Only TOK00's amount cells in detections.csv
    move, and in manifest.json the digests of the two files edited and of
    detections.csv. An output that moves shows a quantity kept in token units."""
    inputs = tmp_path / "in"
    tiny_corpus(inputs)
    assert main(["all", "--input-dir", str(inputs), "--out-dir", str(tmp_path / "plain")]) == 0
    with localcontext(Context(prec=100, traps=[Inexact])):
        edit_rows(inputs / "quotes.csv", lambda r: {k: str(Decimal(r[k]) * 2) for k in (
            "bid", "ask")} if r["symbol"] == "TOK00USDT" else {})
        edit_rows(inputs / "transactions.csv", lambda r: {
            f"amount_{leg}": str(Decimal(r[f"amount_{leg}"]) / 2)
            for leg in ("in", "out") if r[f"token_{leg}"] == TOK00})
    assert main(["all", "--input-dir", str(inputs), "--out-dir", str(tmp_path / "moved")]) == 0

    plain, moved = tmp_path / "plain", tmp_path / "moved"
    before, after = all_digests(plain), all_digests(moved)
    assert {name for name in before if before[name] != after[name]} == {
        "detections.csv", "manifest.json"}
    halved = 0
    for row, old in zip(read_rows(moved / "detections.csv"), read_rows(plain / "detections.csv"),
                        strict=True):
        for cell in (f"amount_{leg}" for leg in ("bought", "sold") if row[f"token_{leg}"] == TOK00):
            assert Decimal(row[cell]) * 2 == Decimal(old[cell])
            row[cell], halved = old[cell], halved + 1
        assert row == old
    assert halved
    was, now = (json.loads((out / "manifest.json").read_text()) for out in (plain, moved))
    for section, name in (("inputs", "transactions.csv"), ("inputs", "quotes.csv"),
                          ("outputs", "detections.csv")):
        assert was[section].pop(name)["rows"] == now[section].pop(name)["rows"]
    assert was == now


def cexdex_all(inputs: Path, out: Path) -> Path:
    """``out`` after cexdex all on ``inputs``, which exits 0."""
    assert main(["all", "--input-dir", str(inputs), "--out-dir", str(out)]) == 0
    return out


def moved_outputs(before: Path, after: Path) -> set[str]:
    """The outputs, markouts_mr.npy and manifest.json, whose bytes differ."""
    was, now = all_digests(before), all_digests(after)
    return {name for name in was if was[name] != now[name]}


def test_a_transaction_failing_h1_moves_only_its_verdict(tmp_path):
    """Irrelevant input: one more transaction in an existing block, seen in
    the public mempool (H1 fails), changes only verdicts.csv, by the row of
    that transaction, and the manifest."""
    inputs = tmp_path / "in"
    tiny_corpus(inputs)
    plain = cexdex_all(inputs, tmp_path / "plain")
    rows = read_rows(inputs / "transactions.csv")
    seen = rows[0] | {"tx_hash": "0xtx_seen", "seen_in_mempool": "true"}
    write_rows(inputs / "transactions.csv", list(seen), [list(r.values()) for r in [*rows, seen]])
    more = cexdex_all(inputs, tmp_path / "more")

    assert moved_outputs(plain, more) == {"verdicts.csv", "manifest.json"}
    verdicts = read_rows(more / "verdicts.csv")
    assert [r for r in verdicts if r["tx_hash"] != "0xtx_seen"] == read_rows(plain / "verdicts.csv")
    assert [(r["passed"], r["h1"]) for r in verdicts if r["tx_hash"] == "0xtx_seen"] == [
        ("false", "false")]


def test_quotes_of_an_unused_symbol_move_only_the_manifest(tmp_path):
    """Irrelevant input: ETHUSDT's quotes copied under ZZZUSDT, a symbol no
    token is quoted as, ahead of every other row, change no output: only
    quotes.csv's digest in the manifest."""
    inputs = tmp_path / "in"
    tiny_corpus(inputs)
    plain = cexdex_all(inputs, tmp_path / "plain")
    rows = read_rows(inputs / "quotes.csv")
    copies = [r | {"symbol": "ZZZUSDT"} for r in rows if r["symbol"] == "ETHUSDT"]
    assert copies
    write_rows(inputs / "quotes.csv", list(rows[0]), [list(r.values()) for r in [*copies, *rows]])
    more = cexdex_all(inputs, tmp_path / "more")

    assert moved_outputs(plain, more) == {"manifest.json"}
    was, now = (json.loads((out / "manifest.json").read_text()) for out in (plain, more))
    assert was["inputs"].pop("quotes.csv")["rows"] + len(copies) == now["inputs"].pop(
        "quotes.csv")["rows"]
    assert was == now


SHIFT_DAYS = 3


def test_a_shift_by_whole_days_moves_only_times_and_dates(tmp_path):
    """Time shift: every slot, quote and block time 3 days later moves only
    the date cells of market.csv and cumulative_ev.csv and the slot_time_ms
    cells of detections.csv and economics.csv, each by 3 days, and the
    manifest. Both corpora are past builder.REFUND_CUTOFF_MS."""
    inputs = tmp_path / "in"
    tiny_corpus(inputs)
    plain = cexdex_all(inputs, tmp_path / "plain")
    shift = SHIFT_DAYS * DAY_MS
    shifted = {"transactions.csv": "slot_time_ms", "quotes.csv": "ts_ms",
               "blocks.csv": "slot_time_ms"}
    for name, column in shifted.items():
        edit_rows(inputs / name, lambda r, c=column: {c: str(int(r[c]) + shift)})
    later = cexdex_all(inputs, tmp_path / "later")

    assert min(int(r["slot_time_ms"]) for r in read_rows(plain / "detections.csv")) > \
        builder.REFUND_CUTOFF_MS
    earlier = {"date": lambda d: (date.fromisoformat(d) - timedelta(days=SHIFT_DAYS)).isoformat(),
               "slot_time_ms": lambda ms: str(int(ms) - shift)}
    moved = {"market.csv": "date", "cumulative_ev.csv": "date",
             "detections.csv": "slot_time_ms", "economics.csv": "slot_time_ms"}
    assert moved_outputs(plain, later) == {*moved, "manifest.json"}
    for name, column in moved.items():
        rows = read_rows(later / name)
        assert rows and [r | {column: earlier[column](r[column])} for r in rows] == read_rows(
            plain / name), name
    was, now = (json.loads((out / "manifest.json").read_text()) for out in (plain, later))
    for section, name in [*(("inputs", name) for name in shifted),
                          *(("outputs", name) for name in moved)]:
        assert was[section].pop(name)["rows"] == now[section].pop(name)["rows"], name
    assert was == now


# a bijection of tiny_corpus's searchers that reverses their sort order
RENAMED = {"s_gentle_1s": "z_one", "s_abrupt_05s": "y_two", "s_gentle_2s": "x_three",
           "s_flat": "a_four"}


def test_relabelled_searchers_move_only_names_and_row_order(tmp_path):
    """Relabelling: the searchers renamed in searchers.json by RENAMED. With
    the names mapped back, the outputs not sorted by searcher are identical,
    and those sorted by searcher hold the same rows, reordered: no bit moves,
    day totals and HHI included, and markouts_mr.npy is unchanged."""
    inputs = tmp_path / "in"
    tiny_corpus(inputs)
    plain = cexdex_all(inputs, tmp_path / "plain")
    raw = json.loads((inputs / "searchers.json").read_text())
    for key in ("labels", "integrated_with"):
        raw[key] = {RENAMED[label]: v for label, v in raw[key].items()}
    (inputs / "searchers.json").write_text(json.dumps(raw))
    renamed = cexdex_all(inputs, tmp_path / "renamed")

    old = {new: label for label, new in RENAMED.items()}

    def named_back(row: dict) -> dict:  # a correlation's pair is "<searcher>-><builder>"
        if "searcher_label" in row:
            row["searcher_label"] = old[row["searcher_label"]]
        if row.get("pair"):
            searcher, arrow, builder_label = row["pair"].partition("->")
            row["pair"] = old[searcher] + arrow + builder_label
        return row

    same = {"detections.csv", "verdicts.csv", "markouts.csv", "economics.csv",
            "builder_blocks.csv", "builder_summary.csv", "correlations.csv"}
    reordered = {"cumulative_ev.csv", "integration.csv", "market.csv", "profiles.csv",
                 "summary.csv"}
    assert {p.name for p in plain.glob("*.csv")} == same | reordered
    for name in same | reordered:
        rows, was = [named_back(r) for r in read_rows(renamed / name)], read_rows(plain / name)
        if name in same:
            assert rows == was, name
        else:
            assert rows != was and sorted(rows, key=lambda r: list(r.values())) == sorted(
                was, key=lambda r: list(r.values())), name
    assert (renamed / "markouts_mr.npy").read_bytes() == (plain / "markouts_mr.npy").read_bytes()


def test_a_split_at_midnight_concatenates_the_per_trade_rows(tmp_path):
    """Locality in time: tiny_corpus split at its UTC midnight, each half with
    its day's transactions and blocks and all the quotes. The whole run's
    rows of detections.csv, verdicts.csv and markouts.csv, and its MR rows in
    markouts_mr.npy, are the halves' rows concatenated, bit for bit."""
    inputs = tmp_path / "in"
    tiny_corpus(inputs)
    whole = cexdex_all(inputs, tmp_path / "whole")
    midnight = T0_MS + DAY_MS  # tiny_corpus's two days start at T0_MS
    halves = []
    for k, on_day in enumerate((lambda ms: ms < midnight, lambda ms: ms >= midnight)):
        half = tmp_path / f"in{k}"
        shutil.copytree(inputs, half)
        for name in ("transactions.csv", "blocks.csv"):
            rows = read_rows(inputs / name)
            write_rows(half / name, list(rows[0]),
                       [list(r.values()) for r in rows if on_day(int(r["slot_time_ms"]))])
        halves.append(cexdex_all(half, tmp_path / f"out{k}"))

    for name in ("detections.csv", "verdicts.csv", "markouts.csv"):
        first, second = (read_rows(out / name) for out in halves)
        assert first and second and first + second == read_rows(whole / name), name
    first, second, mr = (np.load(out / "markouts_mr.npy") for out in (*halves, whole))
    assert first.dtype == mr.dtype and np.concatenate([first, second]).tobytes() == mr.tobytes()


def staged_tiny(tmp_path: Path) -> tuple[Path, Path]:
    """perfbench's tiny corpus, seed 1, after cexdex detect, markout and horizon."""
    inputs, out = tmp_path / "in", tmp_path / "out"
    tiny_corpus(inputs)
    for stage in ("detect", "markout", "horizon"):
        assert main([stage, "--input-dir", str(inputs), "--out-dir", str(out)]) == 0
    return inputs, out


def set_excluded(out: Path, row: int, cell: str) -> None:
    """Write ``cell`` into markouts.csv's excluded column of data row ``row``,
    an included trade's."""
    rows = read_rows(out / "markouts.csv")
    assert (rows[row - 1]["excluded"], rows[row - 1]["exclusion_reason"]) == ("false", "")
    rows[row - 1]["excluded"] = cell
    write_rows(out / "markouts.csv", list(rows[0]), [list(r.values()) for r in rows])


def test_excluded_flag_that_is_not_a_flag_exits_1(tmp_path, capsys):
    inputs, out = staged_tiny(tmp_path)
    set_excluded(out, 2, "maybe")
    capsys.readouterr()
    assert main(["horizon", "--input-dir", str(inputs), "--out-dir", str(out)]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "MalformedRow",
                   "message": "malformed row 2: bad value 'maybe' in excluded of markouts.csv"}


def excluded_in_csv(out: Path) -> None:
    set_excluded(out, 1, "true")


def excluded_in_copy(out: Path) -> None:
    """The copy markouts.npz, under the key of markouts.csv's bytes, with the
    first trade excluded and still without a reason."""
    kinds = data_model.kinds_of(pipeline.MarkoutKeys)
    sha256 = hashlib.sha256((out / "markouts.csv").read_bytes()).hexdigest()
    keys = data_model.kept_arrays(out / "markouts.npz", sha256, kinds, list(kinds))
    assert keys is not None and keys["exclusion_reason"][0] == ""
    keys["excluded"][0] = True
    data_model.keep_arrays(out / "markouts.npz", sha256, kinds, keys)


@pytest.mark.parametrize("damage", [excluded_in_csv, excluded_in_copy])
def test_excluded_without_a_reason_exits_1(tmp_path, capsys, damage):
    """markouts.csv's excluded flag says whether a trade has an exclusion
    reason: a row that contradicts it is refused as outdated, read from the
    CSV or from its copy, and profiles.csv is left as it was."""
    inputs, out = staged_tiny(tmp_path)
    profiles = (out / "profiles.csv").read_bytes()
    damage(out)
    capsys.readouterr()
    assert main(["horizon", "--input-dir", str(inputs), "--out-dir", str(out)]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "OutdatedOutput" and "row 1 of markouts.csv" in err["message"]
    assert "rerun the markout stage" in err["message"]
    assert (out / "profiles.csv").read_bytes() == profiles


def stale_tokens(inputs: Path, change: str) -> None:
    """tokens.csv in ``inputs`` with TOK00's row unlisted or deleted."""
    rows = read_rows(inputs / "tokens.csv")
    assert [r["cex_listed"] for r in rows if r["address"] == TOK00] == ["true"]
    if change == "unlisted":
        kept = [r | {"cex_listed": "false"} if r["address"] == TOK00 else r for r in rows]
    else:
        kept = [r for r in rows if r["address"] != TOK00]
    write_rows(inputs / "tokens.csv", list(rows[0]), [list(r.values()) for r in kept])


@pytest.mark.parametrize("change", ["unlisted", "deleted"])
def test_detections_of_another_tokens_csv_exit_1(tmp_path, capsys, change):
    """Detect passes only trades of CEX-listed tokens, so detections with a
    token that tokens.csv no longer lists, or no longer holds, were made
    under another tokens.csv: markout and market refuse them, naming the
    token and the detect stage, and write nothing."""
    inputs, out = tmp_path / "in", tmp_path / "out"
    tiny_corpus(inputs)
    for stage in ("detect", "markout", "horizon", "estimate"):
        assert main([stage, "--input-dir", str(inputs), "--out-dir", str(out)]) == 0
    assert TOK00 in {r["token_bought"] for r in read_rows(out / "detections.csv")}
    stale_tokens(inputs, change)
    markouts = (out / "markouts.csv").read_bytes()
    for stage in ("markout", "market"):
        capsys.readouterr()
        assert main([stage, "--input-dir", str(inputs), "--out-dir", str(out)]) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "OutdatedOutput", err
        assert f"token {TOK00} of detections.csv" in err["message"]
        assert err["message"].endswith("rerun the detect stage")
    assert (out / "markouts.csv").read_bytes() == markouts
    assert not (out / "market.csv").exists()


@pytest.fixture(scope="module")
def dense_inputs(tmp_path_factory) -> Path:
    """perfbench's dense corpus, seed 1."""
    inputs = tmp_path_factory.mktemp("dense") / "in"
    generate(SynthConfig(seed=1, n_days=4, searchers=(
        SearcherSpec("s_gentle_1s", "gentle", 400, true_hedge_delay_s=1.0),
        SearcherSpec("s_abrupt_05s", "abrupt", 400, true_hedge_delay_s=0.5),
        SearcherSpec("s_gentle_2s", "gentle", 400, true_hedge_delay_s=2.0),
        SearcherSpec("s_flat", "none", 400)),
        integrated_with={"s_abrupt_05s": "builderA"}, base_volatility=5e-4), inputs)
    return inputs


def test_all_looks_each_token_column_up_once(dense_inputs, tmp_path, monkeypatch):
    """One cexdex all finds tokens in tokens.csv five times: load_tokens its
    own addresses, detect each transaction's bought and sold token, and
    Workspace.legs each trade's, for markout and market both."""
    sizes: list[int] = []
    rows = data_model.TokenRegistry.rows
    monkeypatch.setattr(data_model.TokenRegistry, "rows",
                        lambda self, tokens: sizes.append(len(tokens)) or rows(self, tokens))
    out = cexdex_all(dense_inputs, tmp_path / "out")
    n_tokens, n_txs, n_trades = (len(read_rows(p)) for p in (
        dense_inputs / "tokens.csv", out / "verdicts.csv", out / "detections.csv"))
    assert sizes == [n_tokens, n_txs, n_txs, n_trades, n_trades]


def test_all_codes_no_token_column(dense_inputs, tmp_path, monkeypatch):
    """Tokens are looked up in tokens.csv's vocabulary, never coded by
    np.unique over the trades; the text codings left are one per column."""
    inputs, out = dense_inputs, tmp_path / "out"
    calls: list[tuple[set, bool]] = []
    unique = np.unique

    def counted(values, *args, **kwargs):
        if values.dtype.kind in "TU":
            calls.append((set(values.tolist()), kwargs.get("return_inverse", False)))
        return unique(values, *args, **kwargs)

    monkeypatch.setattr(np, "unique", counted)
    assert main(["all", "--input-dir", str(inputs), "--out-dir", str(out)]) == 0
    monkeypatch.setattr(np, "unique", unique)
    txs = read_rows(inputs / "transactions.csv")
    tokens = {r["address"].lower() for r in read_rows(inputs / "tokens.csv")} | {
        r[c].lower() for r in txs for c in ("token_in", "token_out")}
    assert len(tokens) > 3 and not any(values & tokens for values, _ in calls)
    columns = {"tx_hash": {r["tx_hash"] for r in txs},
               "contract": {r["searcher_contract"] for r in txs},
               "searcher": {r["searcher_label"] for r in read_rows(out / "detections.csv")},
               "builder": {r["builder_label"] for r in txs}}
    coded = [next(c for c, cells in columns.items() if values <= cells)
             for values, inverse in calls if inverse]
    assert sorted(coded) == ["builder", "builder", "contract", "searcher", "tx_hash"]


def test_market_formats_each_day_once(varied_builders, tmp_path, monkeypatch):
    inputs, out = varied_builders
    out = copy_tree(out, tmp_path / "out")
    formatted: list[int] = []
    utc_day = estimate._utc_day
    monkeypatch.setattr(estimate, "_utc_day", lambda ms: formatted.append(ms) or utc_day(ms))
    assert main(["market", "--input-dir", str(inputs), "--out-dir", str(out)]) == 0
    dates = list(dict.fromkeys(r["date"] for r in read_rows(out / "market.csv")))
    assert len(dates) == N_DAYS and [utc_day(ms) for ms in formatted] == dates


def test_market_selects_as_often_for_any_searcher_count(four_peaked, many_searchers, tmp_path,
                                                        monkeypatch):
    """cexdex market copies rows with Table.select as often for 24 searchers
    as for 4, and writes the same bytes: no pass per searcher."""
    calls: list[int] = []
    select = Table.select
    monkeypatch.setattr(Table, "select", lambda self, mask: calls.append(1) or select(self, mask))
    counts = []
    for k, (inputs, full) in enumerate((four_peaked, many_searchers)):
        out = copy_tree(full, tmp_path / f"out{k}")
        calls.clear()
        assert main(["market", "--input-dir", str(inputs), "--out-dir", str(out)]) == 0
        counts.append(len(calls))
        for name in ("market.csv", "integration.csv", "correlations.csv"):
            assert (out / name).read_bytes() == (full / name).read_bytes(), name
    assert len(read_rows(many_searchers[1] / "profiles.csv")) == N_MANY
    assert counts[0] == counts[1] > 0


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
    assert None in market.lagged_correlation(list(range(8)), list(range(8)))
    rows = [r for r in read_rows(out / "correlations.csv") if r["pair"] == "s_int->builderA"]
    analyses = [r["analysis"] for r in rows]
    assert "pair_contemporaneous" in analyses and "pair_rolling" in analyses
    assert "pair_lagged" not in analyses


def test_market_runs_without_blocks(varied_builders, tmp_path, capsys):
    """blocks.csv is builder's input only: without it market writes no pair
    rows and its other outputs unchanged, and builder exits 2 naming it."""
    src, full = varied_builders
    inputs, out = copy_tree(src, tmp_path / "in"), tmp_path / "out"
    for stage in ("detect", "markout", "horizon", "estimate"):
        assert main([stage, "--input-dir", str(inputs), "--out-dir", str(out)]) == 0
    (inputs / "blocks.csv").unlink()
    assert main(["market", "--input-dir", str(inputs), "--out-dir", str(out)]) == 0
    analyses = {r["analysis"] for r in read_rows(out / "correlations.csv")}
    assert not any(a.startswith("pair_") for a in analyses)
    assert any(r["analysis"].startswith("pair_") for r in read_rows(full / "correlations.csv"))
    for name in ("market.csv", "integration.csv"):
        assert (out / name).read_bytes() == (full / name).read_bytes(), name
    capsys.readouterr()
    assert main(["builder", "--input-dir", str(inputs), "--out-dir", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "io" and "blocks.csv" in err["message"]


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
    assert_decline_rows_are_spearman(*four_peaked, n_points=4)


def test_upper_case_tokens_in_detections_are_found(four_peaked, tmp_path):
    """A hand-edited detections.csv whose token addresses are upper case is
    marked out and grouped as the lower-case file is."""
    inputs, out = four_peaked
    edited = copy_tree(out, tmp_path / "out")
    with open(edited / "detections.csv", newline="") as f:
        rows = list(csv.reader(f))
    tokens = [rows[0].index("token_bought"), rows[0].index("token_sold")]
    for r in rows[1:]:
        for c in tokens:
            assert r[c] == r[c].lower()
            r[c] = r[c].upper()
    with open(edited / "detections.csv", "w", newline="") as f:
        csv.writer(f).writerows(rows)
    for stage in ("markout", "market"):
        assert main([stage, "--input-dir", str(inputs), "--out-dir", str(edited)]) == 0
    for name in ("markouts.csv", "market.csv", "integration.csv", "correlations.csv"):
        assert (edited / name).read_bytes() == (out / name).read_bytes(), name
    assert [r["analysis"] for r in read_rows(edited / "correlations.csv")][:2] == [
        "decline_vs_major_count", "decline_vs_major_volume"]
    with open(out / "markouts.csv", newline="") as f:
        assert "QuoteGap" not in f.read()


def test_decline_vs_major_rows_for_many_searchers(many_searchers):
    assert_decline_rows_are_spearman(*many_searchers, n_points=21)


def assert_decline_rows_are_spearman(inputs: Path, out: Path, n_points: int) -> None:
    """Each row is the Spearman of profiles.csv's decline_3s_fraction against
    the Major-Major count (or volume) share of the searcher's included trades."""
    registry = pipeline.Workspace(inputs, out).registry
    major = dict(zip(registry.address.tolist(), registry.major.tolist()))
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
        mm = [t for t in trades if major[t["token_bought"]] and major[t["token_sold"]]]
        declines.append(float(p["decline_3s_fraction"]))
        count_shares.append(len(mm) / len(trades))
        volume_shares.append(sum(float(t["volume_usd"]) for t in mm)
                             / sum(float(t["volume_usd"]) for t in trades))
    assert len(declines) == n_points and len(set(count_shares)) >= 4
    rows = [r for r in read_rows(out / "correlations.csv") if r["analysis"].startswith("decline")]
    assert [r["analysis"] for r in rows] == ["decline_vs_major_count", "decline_vs_major_volume"]
    for r, shares in zip(rows, (count_shares, volume_shares)):
        want = market.spearman(declines, shares)
        assert (r["pair"], r["lag_days"], r["window_end"]) == ("", "0", "")
        assert (float(r["rho"]), int(r["n"]), float(r["p_value"])) == (
            want.rho, n_points, want.p_value)
