import csv
import dataclasses
import gc
import json
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cexdex import data_model
from cexdex.data_model import (
    BlockRecord,
    Table,
    TokenRegistry,
    load_block_records,
    load_quotes,
    load_searchers,
    load_tokens,
    load_transactions,
    strings,
)
from cexdex.errors import (
    CrossedQuote,
    DuplicateBlock,
    DuplicateTimestamp,
    InvalidConfig,
    MalformedRow,
    MissingColumn,
    NonMonotonicSlotTime,
    PipelineError,
)

from conftest import TOKA, USDT, WETH

TOKENS_CSV = """address,symbol,cex_listed,is_major,decimals
{usdt},USDT,true,true,6
{toka},TOKA,true,false,18
0x{weth},WETH,true,true,18
""".format(usdt=USDT, toka=TOKA, weth="1" * 40)

TX_HEADER = (
    "tx_hash,block_number,slot_time_ms,searcher_contract,pool_id,dex,"
    "token_in,amount_in,token_out,amount_out,log_index,first_in_direction,"
    "seen_in_mempool,atomic_mev_flag,liquidation_flag,ofa_backrun_flag,"
    "router_or_bot_flag,erc721_transfer_count,base_fee_eth,priority_fee_eth,"
    "coinbase_transfer_eth,builder_label,volume_usd"
)


def tx_row(tx_hash, block, slot, amount_in="1000", log_index=0,
           token_in=USDT, token_out=TOKA, amount_out="100"):
    return (
        f"{tx_hash},{block},{slot},0xsea,p0,d0,{token_in},{amount_in},"
        f"{token_out},{amount_out},{log_index},true,false,false,false,false,"
        f"false,0,0.001,0.01,0.0,builderX,1000.0"
    )


@pytest.fixture
def token_registry(tmp_path):
    p = tmp_path / "tokens.csv"
    p.write_text(TOKENS_CSV)
    return load_tokens(p)


def test_load_tokens_aliases(token_registry):
    rows = token_registry.rows(strings(["0x" + "1" * 40, USDT, TOKA]))
    assert token_registry.quote_symbol[rows].tolist() == ["ETH", "USDT", "TOKA"]


def test_load_tokens_address_case_insensitive(tmp_path):
    p = tmp_path / "tokens.csv"
    p.write_text(TOKENS_CSV + "0xABcd" + "0" * 36 + ",TOKC,true,false,18\n")
    registry = load_tokens(p)
    assert registry.address[3] == "0xabcd" + "0" * 36
    assert registry.rows(strings(["0xabcd" + "0" * 36, "0XABCD" + "0" * 36])).tolist() == [3, 3]


def test_rows_of_an_unknown_token_is_minus_1(token_registry):
    assert token_registry.rows(strings([TOKA, "0x" + "9" * 40, "", USDT])).tolist() == [1, -1, -1, 0]
    assert TokenRegistry([], [], [], []).rows(strings([USDT])).tolist() == [-1]
    assert token_registry.rows(strings([])).dtype == np.int64


def test_rows_finds_an_upper_case_address():
    registry = TokenRegistry(["0x" + "ab" * 20, "0xEF"], [True, True], [False, False], ["A", "B"])
    assert registry.address.tolist() == ["0x" + "ab" * 20, "0xef"]
    assert registry.rows(strings(["0X" + "AB" * 20, "0xEf", "0xef"])).tolist() == [0, 1, 1]


def test_rows_finds_long_addresses_in_any_order():
    """42-byte addresses, registry and cells both unsorted: np.searchsorted
    on StringDType text over 15 bytes misorders them on numpy 2.4.6."""
    addresses = ["0x" + "5" * 30 + f"{k:010x}" for k in (9, 3, 14, 1, 7, 12, 5, 10)]
    registry = TokenRegistry(addresses, [True] * 8, [False] * 8, ["X"] * 8)
    order = [7, 0, 6, 1, 5, 2, 4, 3]
    assert registry.rows(strings([addresses[k] for k in order])).tolist() == order
    assert registry.rows(strings(sorted(addresses))).tolist() == sorted(
        range(8), key=lambda k: addresses[k])


def test_rows_of_a_column_longer_than_one_chunk(token_registry):
    n = TokenRegistry._CHUNK + 5
    tokens = strings([(USDT, TOKA.upper(), "0x" + "9" * 40)[k % 3] for k in range(n)])
    assert token_registry.rows(tokens).tolist() == [(0, 1, -1)[k % 3] for k in range(n)]


def test_load_transactions_groups_by_hash(tmp_path):
    p = tmp_path / "transactions.csv"
    rows = [
        tx_row("0xa", 1, 12000),
        tx_row("0xa", 1, 12000, log_index=1, token_in=TOKA, amount_in="100",
               token_out="0x" + "1" * 40, amount_out="5"),
        tx_row("0xb", 2, 24000),
    ]
    p.write_text(TX_HEADER + "\n" + "\n".join(rows) + "\n")
    table = load_transactions(p)
    assert table.tx_hash.tolist() == ["0xa", "0xb"]
    assert table.starts.tolist() == [0, 2]  # 0xa has two swaps
    assert table.token_in.tolist()[:2] == [USDT, TOKA]  # sorted by log index


def test_load_transactions_rejects_zero_amount(tmp_path):
    p = tmp_path / "transactions.csv"
    p.write_text(TX_HEADER + "\n" + tx_row("0xa", 1, 12000, amount_in="0") + "\n")
    with pytest.raises(MalformedRow) as e:
        load_transactions(p)
    assert e.value.row_index == 1


def test_load_transactions_rejects_duplicate_log_index(tmp_path):
    p = tmp_path / "transactions.csv"
    rows = [tx_row("0xa", 1, 12000), tx_row("0xa", 1, 12000)]
    p.write_text(TX_HEADER + "\n" + "\n".join(rows) + "\n")
    with pytest.raises(MalformedRow):
        load_transactions(p)


def test_load_transactions_missing_column(tmp_path):
    p = tmp_path / "transactions.csv"
    p.write_text("tx_hash,block_number\n0xa,1\n")
    with pytest.raises(MissingColumn):
        load_transactions(p)


def test_load_transactions_nonmonotonic_slot_time(tmp_path):
    p = tmp_path / "transactions.csv"
    rows = [tx_row("0xa", 1, 24000), tx_row("0xb", 2, 12000)]
    p.write_text(TX_HEADER + "\n" + "\n".join(rows) + "\n")
    with pytest.raises(NonMonotonicSlotTime):
        load_transactions(p)


def test_load_transactions_sorted_by_block(tmp_path):
    p = tmp_path / "transactions.csv"
    rows = [tx_row("0xb", 5, 60000), tx_row("0xa", 1, 12000)]
    p.write_text(TX_HEADER + "\n" + "\n".join(rows) + "\n")
    assert load_transactions(p).block_number.tolist() == [1, 5]


def test_load_quotes_sorted_and_validated(tmp_path):
    p = tmp_path / "quotes.csv"
    p.write_text("symbol,ts_ms,bid,ask\nBTCUSDT,200,99,101\nBTCUSDT,100,98,100\n")
    ts, bid, ask = load_quotes(p)["BTCUSDT"]
    assert ts.dtype == np.int64 and ts.tolist() == [100, 200]
    assert bid.tolist() == [98.0, 99.0] and ask.tolist() == [100.0, 101.0]


def test_load_quotes_splits_symbols_in_first_seen_order(tmp_path):
    p = tmp_path / "quotes.csv"
    p.write_text("symbol,ts_ms,bid,ask\n ETHUSDT ,300,1,2\nBTCUSDT,100,3,4\n"
                 "ETHUSDT,200,5,6\n\nBTCUSDT,50,7,8\n")
    series = load_quotes(p)
    assert list(series) == ["ETHUSDT", "BTCUSDT"]
    assert series["ETHUSDT"][0].tolist() == [200, 300]
    assert series["ETHUSDT"][1].tolist() == [5.0, 1.0]
    assert series["BTCUSDT"][0].tolist() == [50, 100]
    assert series["BTCUSDT"][2].tolist() == [8.0, 4.0]


QUOTES_HEADER = "symbol,ts_ms,bid,ask\n"
GOOD_QUOTE = "BTCUSDT,{ts},99,101\n"


def quotes_file(tmp_path, bad_row: str, at: int, n: int = 5):
    """n good rows with ``bad_row`` as the 1-based data row ``at``."""
    rows = [GOOD_QUOTE.format(ts=100 * (k + 1)) for k in range(n)]
    rows[at - 1] = bad_row
    p = tmp_path / "quotes.csv"
    p.write_text(QUOTES_HEADER + "".join(rows))
    return p


@pytest.mark.parametrize("bad_row", [
    "BTCUSDT,1x,99,101\n", "BTCUSDT,300,abc,101\n", "BTCUSDT,300,99,\n",
    "BTCUSDT,300.5,99,101\n", "BTCUSDT,300,0,101\n", "BTCUSDT,300,-1,101\n",
    "BTCUSDT,99999999999999999999,99,101\n",  # past int64
])
def test_load_quotes_malformed_reports_first_row(tmp_path, bad_row):
    with pytest.raises(MalformedRow) as e:
        load_quotes(quotes_file(tmp_path, bad_row, at=3))
    assert e.value.row_index == 3


def test_load_quotes_crossed_reports_first_row(tmp_path):
    with pytest.raises(CrossedQuote) as e:
        load_quotes(quotes_file(tmp_path, "BTCUSDT,300,101,99\n", at=4))
    assert e.value.row_index == 4


def test_load_quotes_first_offending_row_wins_across_checks(tmp_path):
    p = tmp_path / "quotes.csv"
    p.write_text(QUOTES_HEADER + "BTCUSDT,100,99,101\nBTCUSDT,200,102,101\n"
                 "BTCUSDT,zz,99,101\nBTCUSDT,400,0,101\n")
    with pytest.raises(CrossedQuote) as e:
        load_quotes(p)
    assert e.value.row_index == 2
    # within one row, a parse error comes before the value checks
    p.write_text(QUOTES_HEADER + "BTCUSDT,100,99,101\nBTCUSDT,x,-1,-2\n")
    with pytest.raises(MalformedRow) as e:
        load_quotes(p)
    assert e.value.row_index == 2 and "ts_ms" in str(e.value)
    # a short row after a bad value: the bad value's row is the first
    p.write_text(QUOTES_HEADER + "BTCUSDT,100,99,101\nBTCUSDT,200,zz,101\nBTCUSDT,300,99\n")
    with pytest.raises(MalformedRow) as e:
        load_quotes(p)
    assert e.value.row_index == 2 and "bid" in str(e.value)


def test_load_quotes_duplicate_not_adjacent(tmp_path):
    p = tmp_path / "quotes.csv"
    p.write_text(QUOTES_HEADER + "BTCUSDT,100,99,101\nETHUSDT,100,9,10\n"
                 "BTCUSDT,200,99,101\nBTCUSDT,100,98,102\n")
    with pytest.raises(DuplicateTimestamp) as e:
        load_quotes(p)
    assert (e.value.symbol, e.value.ts_ms) == ("BTCUSDT", 100)


def test_load_quotes_same_ts_other_symbol_is_not_duplicate(tmp_path):
    p = tmp_path / "quotes.csv"
    p.write_text(QUOTES_HEADER + "BTCUSDT,100,99,101\nETHUSDT,100,9,10\n")
    assert set(load_quotes(p)) == {"BTCUSDT", "ETHUSDT"}


def test_load_quotes_crossed(tmp_path):
    p = tmp_path / "quotes.csv"
    p.write_text("symbol,ts_ms,bid,ask\nBTCUSDT,100,101,99\n")
    with pytest.raises(CrossedQuote):
        load_quotes(p)


def test_load_quotes_duplicate_ts(tmp_path):
    p = tmp_path / "quotes.csv"
    p.write_text("symbol,ts_ms,bid,ask\nBTCUSDT,100,99,101\nBTCUSDT,100,99,101\n")
    with pytest.raises(DuplicateTimestamp):
        load_quotes(p)


def reference_quotes(path):
    """load_quotes of a valid file by csv.reader, int() and float(), row by row."""
    with open(path, newline="") as f:
        header, *rows = [r for r in csv.reader(f) if r]
    series: dict[str, list] = {}
    for r in rows:
        row = dict(zip(header, r))  # a repeated column name is its last column
        symbol, ts, bid, ask = (row[c] for c in ("symbol", "ts_ms", "bid", "ask"))
        series.setdefault(symbol.strip(), []).append((int(ts), float(bid), float(ask)))
    dtypes = (np.int64, np.float64, np.float64)
    return {
        symbol: tuple(np.array(c, dtype=t) for c, t in zip(zip(*sorted(quotes)), dtypes))
        for symbol, quotes in series.items()
    }


def assert_same_quotes(got, want):
    assert list(got) == list(want)  # first-seen symbol order
    for symbol in want:
        for a, b in zip(got[symbol], want[symbol], strict=True):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), symbol


# which reader load_quotes reads a file with: its one tokenizer pass, that pass
# and the two of _tokenize_columns with the symbol as text, or the cell pass
ONE_PASS, TWO_PASSES, CELLS = "one pass", "two passes", "cells"
# the reads each reader makes: np.loadtxt calls, and the cell pass, which
# comes after at most one tokenizer pass
READS = {ONE_PASS: [["loadtxt"]], TWO_PASSES: [["loadtxt"] * 3],
         CELLS: [["cells"], ["loadtxt", "cells"]]}


def count_reads(monkeypatch) -> list:
    """The np.loadtxt calls ("loadtxt") and cell passes ("cells") made from
    now on, in order."""
    calls = []
    loadtxt, by_cell = np.loadtxt, data_model._parse_columns_by_cell
    monkeypatch.setattr(np, "loadtxt", lambda *a, **k: calls.append("loadtxt") or loadtxt(*a, **k))
    monkeypatch.setattr(data_model, "_parse_columns_by_cell",
                        lambda *a: calls.append("cells") or by_cell(*a))
    return calls


@pytest.mark.parametrize("text, reader", [
    ('symbol,ts_ms,bid,ask\n"BTC,USDT",100,"99.5",101\n"ETH""X",100,1,2\n"BTC,USDT",50,1,2\n', ONE_PASS),
    ("symbol,ts_ms,bid,ask\nA#x,100,1,2\n#B,100,1,2\n", ONE_PASS),
    ("symbol,ts_ms,bid,ask\r\n BTCUSDT , 200 ,\t99.5 , 101 \r\n\r\n\nBTCUSDT,100,1,2\r\n", ONE_PASS),
    ('symbol,ts_ms,bid,ask\r\n"BTC\r\nUSDT",1,1,2\r\n', CELLS),  # a line break in a symbol
    ("ask,extra,bid,symbol,ts_ms\n2,x,1,BTC,100,past,the,header\n3,,2,BTC,50\n", ONE_PASS),
    ('"ex\r\ntra",symbol,ts_ms,bid,ask\r\nx,BTC,1,1,2\r\n', ONE_PASS),  # a header on two lines
    ("symbol,ts_ms,bid,ask\nA_SYMBOL_LONGER_THAN_16_CHARACTERS,1,1,2\nA_SYMBOL_LONGER_THAN_16,1,1,2\n",
     TWO_PASSES),
    ("symbol,ts_ms,bid,ask\nBTC,1,1,2\nETH,1,1,2\nBTC,2,1,2\nETH,0,1,2\nBTC,0,1,2\n", ONE_PASS),
    ("symbol,ts_ms,bid,ask\nÉTHUSDT,1,1,2\n", CELLS),  # not ASCII: read cell by cell
    ("symbol,ts_ms,bid,ask\nBTC,1_000,1,2\nBTC,999,1.5,2\n", CELLS),  # numpy refuses 1_000
    ("bid,symbol,ts_ms,bid,ask\nx,BTC,1,1,2\ny,BTC,2,1.5,2\n", ONE_PASS),
    ("symbol,ts_ms,bid,ask,extra\n" + "A" * 15 + ",1,1,2,x\n" + "A" * 14 + " ,2,1,2,\n", ONE_PASS),
    ("symbol,ts_ms,bid,ask\n" + "A" * 15 + ",1,1,2\n" + "A" * 16 + ",1,1,2\n", TWO_PASSES),
    ("symbol,ts_ms,bid,ask\n" + " " + "A" * 15 + ",1,1,2\n", TWO_PASSES),  # 16 bytes, padded
    ("symbol,ts_ms,bid,ask\n BTC,3,1,2\nBTC,1,1,2\nBTC ,2,1,2\nETH,1,1,2\n\t BTC,0,1,2\n", ONE_PASS),
    ('symbol,ts_ms,bid,ask\n"B,TC",1,1,2\nB,2,1,2\n"B,TC",0,1,2\n', ONE_PASS),
], ids=["quoted", "hash", "padded-crlf-blank", "crlf-in-symbol", "reordered-extra-long",
        "two-line-header", "long-symbol", "interleaved", "non-ascii", "underscore",
        "repeated-column", "15-bytes", "16-bytes", "16-bytes-padded", "padded-run-mates",
        "quoted-comma"])
def test_load_quotes_equals_a_csv_reference(tmp_path, monkeypatch, text, reader):
    p = tmp_path / "quotes.csv"
    p.write_bytes(text.encode())
    calls = count_reads(monkeypatch)
    series = load_quotes(p)
    assert calls in READS[reader]
    assert_same_quotes(series, reference_quotes(p))


@pytest.mark.parametrize("n, bad_row, at, message", [
    (5, "BTCUSDT,300,nan,101\n", 3, "bad value 'nan' in bid"),
    (70_000, "BTCUSDT,7e6,99,101\n", 70_000, "bad value '7e6' in ts_ms"),
], ids=["nan-bid", "bad-ts-on-the-last-of-70000-rows"])
def test_load_quotes_names_the_row_the_one_pass_refuses(tmp_path, monkeypatch, n, bad_row, at,
                                                        message):
    p = quotes_file(tmp_path, bad_row, at, n)
    calls = count_reads(monkeypatch)
    with pytest.raises(MalformedRow) as e:
        load_quotes(p)
    assert calls == ["loadtxt", "cells"]
    assert str(e.value) == f"malformed row {at} of quotes.csv: {message}"


# (a non-finite bid takes this route too: see the test above)
@pytest.mark.parametrize("text, message", [
    (QUOTES_HEADER + 'BTC,1,1,2\n"B\nTC",2,1,2\nBTC,3,1,2\n', None),
    ("symbol,ts_ms,bid,ask,extra\nBTC,1,1,2,x\nBTC,2,1,2\nBTC,3,1,2,\n",
     "malformed row 2 of quotes.csv: fewer fields than the header"),
], ids=["line-break-in-symbol", "short-row-past-the-read-columns"])
def test_load_quotes_reaches_the_cell_pass_after_one_tokenizer_pass(tmp_path, monkeypatch, text,
                                                                   message):
    p = tmp_path / "quotes.csv"
    p.write_text(text)
    calls = count_reads(monkeypatch)
    if message is None:
        assert_same_quotes(load_quotes(p), reference_quotes(p))
    else:
        with pytest.raises(MalformedRow) as e:
            load_quotes(p)
        assert str(e.value) == message
    assert calls == ["loadtxt", "cells"]


def test_load_quotes_tokenizes_a_plain_file_once(tmp_path, monkeypatch):
    p = tmp_path / "quotes.csv"
    p.write_text(QUOTES_HEADER + "".join(f"{s},{ts},99,101\n" for s in ("ETHUSDT", " BTCUSDT")
                                         for ts in range(1, 1000)))
    calls = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *a, **k: calls.append(k) or loadtxt(*a, **k))
    series = load_quotes(p)
    symbol_and_numbers = [("symbol", "S16"), ("ts_ms", np.int64), ("bid", np.float64),
                          ("ask", np.float64)]
    assert [(np.dtype(k["dtype"]), k["usecols"]) for k in calls] == [
        (np.dtype(symbol_and_numbers), [0, 1, 2, 3])]
    assert list(series) == ["ETHUSDT", "BTCUSDT"] and len(series["BTCUSDT"][0]) == 999


def test_load_quotes_header_only_is_empty(tmp_path):
    p = tmp_path / "quotes.csv"
    for text in (QUOTES_HEADER, QUOTES_HEADER + "\n\n"):
        p.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert load_quotes(p) == {}


def test_load_quotes_reads_numbers_as_int_and_float_do(tmp_path):
    # numpy's C parser reads the Devanagari digit two as 2360 and skips \x1c as
    # a blank; int() reads the first as 2 and refuses the second
    p = tmp_path / "quotes.csv"
    p.write_bytes("symbol,ts_ms,bid,ask\nBTC,1२,1,2\n".encode())
    assert load_quotes(p)["BTC"][0].tolist() == [12]
    p.write_bytes(b"symbol,ts_ms,bid,ask\nBTC,1,1,2\nBTC,\x1c2,1,2\n")
    with pytest.raises(MalformedRow) as e:
        load_quotes(p)
    assert e.value.row_index == 2 and "ts_ms" in str(e.value)


def test_load_quotes_after_a_failed_tokenizer_pass(tmp_path):
    # Both files fail numpy's pass and are read again cell by cell. The
    # second, whose unclosed quote makes the rest of the file one field,
    # raised SystemError when the first pass's StringDType was reused.
    p = tmp_path / "quotes.csv"
    for text, row in [
        ("symbol,ts_ms,bid,ask,extra\nBTC,1,1,2,x\nBTC,2,1,2\n", 2),
        ('symbol,ts_ms,bid,ask,extra\n"\tB\r\n\tC\n \r\n\nBTC,2,1\n', 1),
    ]:
        p.write_bytes(text.encode())
        with pytest.raises(MalformedRow) as e:
            load_quotes(p)
        assert e.value.row_index == row and "fewer fields" in str(e.value)


decimal_strings = st.from_regex(r"\A[0-9]{1,20}\Z").flatmap(
    lambda d: st.integers(0, len(d)).map(lambda k: d[:k] + "." + d[k:]))


@given(
    st.lists(st.one_of(st.floats(min_value=0, exclude_min=True, allow_infinity=False).map(repr),
                       decimal_strings),
             min_size=1, max_size=40),
    st.lists(st.integers(-2**63, 2**63 - 1), min_size=40, max_size=40, unique=True),
)
@settings(max_examples=100, deadline=None)
def test_load_quotes_parses_numbers_bit_for_bit(tmp_path_factory, bids, stamps):
    bids = [b for b in bids if float(b) > 0]
    p = tmp_path_factory.mktemp("quotes") / "quotes.csv"
    # the largest float asks at least any finite bid
    p.write_text(QUOTES_HEADER + "".join(f"X,{t},{b},{sys.float_info.max!r}\n"
                                         for t, b in zip(stamps, bids)))
    assert data_model._tokenize_columns(p, data_model.QUOTE_KINDS) is not None
    assert_same_quotes(load_quotes(p), reference_quotes(p))


def test_load_quotes_peak_memory_per_row(tmp_path):
    # the one tokenizer pass peaks near 88 B/row, as it keeps its 40-byte rows
    # until the sorted series are built; a parse that makes a Python object
    # per cell peaks near 380
    n = 200_000
    rng = np.random.default_rng(0)
    p = tmp_path / "quotes.csv"
    with open(p, "w") as f:
        f.write(QUOTES_HEADER)
        for symbol, ts, bid in zip(np.repeat(["ETHUSDT", "BTCUSDT", "TOKAUSDT", "TOKCUSDT"], n // 4),
                                   np.tile(1_717_200_000_000 + 12_000 * np.arange(n // 4), 4),
                                   rng.lognormal(5, 2, n).tolist()):
            f.write(f"{symbol},{ts},{bid!r},{bid * 1.0001!r}\n")
    gc.collect()
    tracemalloc.start()
    try:
        series = load_quotes(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(len(ts) for ts, _, _ in series.values()) == n
    assert peak / n <= 160


BLOCK_HEADER = ("block_number,builder_label,coinbase_delta_eth,bid_eth,"
                "used_bid_adjustment,adjustment_delta_eth,slot_time_ms")


def test_load_blocks(tmp_path):
    p = tmp_path / "blocks.csv"
    p.write_text(BLOCK_HEADER + "\n1,b1,1.5,2.0,true,0.1,12000\n2,b2,0.5,0.0,false,0.0,24000\n")
    records = load_block_records(p).rows()
    assert records[0].adjustment_delta_eth == 0.1
    assert records[1].used_bid_adjustment is False


def test_load_blocks_duplicate(tmp_path):
    p = tmp_path / "blocks.csv"
    p.write_text(BLOCK_HEADER + "\n1,b1,1.5,2.0,false,0.0,12000\n1,b1,1.5,2.0,false,0.0,12000\n")
    with pytest.raises(DuplicateBlock):
        load_block_records(p)


def test_load_blocks_delta_without_flag(tmp_path):
    p = tmp_path / "blocks.csv"
    p.write_text(BLOCK_HEADER + "\n1,b1,1.5,2.0,false,0.3,12000\n")
    with pytest.raises(MalformedRow):
        load_block_records(p)


def test_load_searchers(tmp_path):
    p = tmp_path / "searchers.json"
    p.write_text(json.dumps({
        "labels": {"s1": ["0xAA"], "s2": ["0xbb", "0xcc"]},
        "integrated_with": {"s1": "builderA"},
    }))
    labels = load_searchers(p)
    assert labels.address_to_label()["0xaa"] == "s1"
    assert labels.integrated_with == {"s1": "builderA"}


def test_searchers_section_that_is_null_is_absent(tmp_path):
    p = tmp_path / "searchers.json"
    p.write_text(json.dumps({"labels": None, "integrated_with": None}))
    labels = load_searchers(p)
    assert (labels.labels, labels.integrated_with) == ({}, {})


def third_row_short(text: str) -> str:
    """``text`` with a blank line before data row 3, which keeps only its
    first two fields."""
    header, r1, r2, r3, *rest = text.splitlines()
    return "\n".join([header, r1, r2, "", ",".join(r3.split(",")[:2]), *rest]) + "\n"


@pytest.mark.parametrize("text, load", [
    (TOKENS_CSV, load_tokens),
    (TX_HEADER + "\n" + "\n".join(tx_row(f"0x{k}", k, 12000 * k) for k in range(1, 5)),
     load_transactions),
    (QUOTES_HEADER + "".join(GOOD_QUOTE.format(ts=100 * k) for k in range(1, 5)), load_quotes),
    (BLOCK_HEADER + "".join(f"\n{k},b1,1.5,2.0,false,0.0,{12000 * k}" for k in range(1, 5)),
     load_block_records),
], ids=["tokens", "transactions", "quotes", "blocks"])
def test_short_row_reports_its_data_row(tmp_path, text, load):
    p = tmp_path / "input.csv"
    p.write_text(third_row_short(text))
    with pytest.raises(MalformedRow) as e:
        load(p)
    assert e.value.row_index == 3
    assert str(e.value) == "malformed row 3 of input.csv: fewer fields than the header"


@pytest.mark.parametrize("text, row", [
    (QUOTES_HEADER + "\n\nBTCUSDT,1,99,101\n" * 1000 + "BTC\xe9USDT,2,99,101\n", 1001),
    (QUOTES_HEADER + 'BTCUSDT,1,99,101\n"BTC\nUSDT",2,99,101\n\n"a\nb\xe9",3,99,101\n', 3),
    (QUOTES_HEADER + "BTCUSDT,1,99,101\nBTCUSDT,2,99,101\xe9", 2),  # the last byte
    (QUOTES_HEADER.replace("bid", "b\xe9d") + "BTCUSDT,1,99,101\n", 0),  # the header
], ids=["blank-lines-past-8-KiB", "quoted-newlines", "last-byte", "header"])
def test_not_utf8_names_the_data_row_of_its_first_bad_byte(tmp_path, text, row):
    p = tmp_path / "quotes.csv"
    p.write_bytes(text.encode("latin-1"))
    with pytest.raises(MalformedRow) as e:
        data_model._read_columns(p, data_model.QUOTE_KINDS)
    assert str(e.value) == f"malformed row {row} of quotes.csv: byte 0xe9 is not UTF-8"


@pytest.mark.parametrize("name, text, load, error, message", [
    ("tokens.csv", TOKENS_CSV.replace(",6\n", ",six\n"), load_tokens, MalformedRow,
     "malformed row 1 of tokens.csv: bad value 'six' in decimals"),
    ("transactions.csv", TX_HEADER + "\n" + tx_row("0xa", 1, 12000, amount_in="0"), load_transactions,
     MalformedRow, "malformed row 1 of transactions.csv: amount_in must be > 0"),
    ("blocks.csv", BLOCK_HEADER + "\n1,b1,1.5,-2.0,false,0.0,12000", load_block_records, MalformedRow,
     "malformed row 1 of blocks.csv: bid_eth must be >= 0"),
    ("quotes.csv", QUOTES_HEADER + "BTCUSDT,100,99,101\nBTCUSDT,200,99,98\n", load_quotes, CrossedQuote,
     "crossed quote (ask < bid) at row 2 of quotes.csv"),
    ("quotes.csv", QUOTES_HEADER + "BTCUSDT,100,99,101\nBTCUSDT,100,99,101\n", load_quotes,
     DuplicateTimestamp, "duplicate timestamp 100 for BTCUSDT in quotes.csv"),
    ("quotes.csv", QUOTES_HEADER + "BTCUSDT,100,99,101\nBTCUSDT,200,0,101\n", load_quotes, MalformedRow,
     "malformed row 2 of quotes.csv: bid must be > 0"),
    ("quotes.csv", QUOTES_HEADER + "BTCUSDT,100,9x,101\n", load_quotes, MalformedRow,
     "malformed row 1 of quotes.csv: bad value '9x' in bid"),
    ("transactions.csv", TX_HEADER + "\n" + tx_row("0xa", 1, 24000) + "\n" + tx_row("0xb", 2, 12000),
     load_transactions, NonMonotonicSlotTime,
     "slot time not increasing from block 1 to 2 in transactions.csv"),
    ("blocks.csv", BLOCK_HEADER + "\n1,b1,1.5,2.0,false,0.0,12000" * 2, load_block_records,
     DuplicateBlock, "duplicate block 1 in blocks.csv"),
], ids=["tokens", "transactions", "blocks", "crossed", "duplicate-ts", "bid", "bad-cell",
        "slot-times", "duplicate-block"])
def test_loader_errors_name_their_file(tmp_path, name, text, load, error, message):
    p = tmp_path / name
    p.write_text(text)
    with pytest.raises(error) as e:
        load(p)
    assert str(e.value) == message


# ---------------------------------------------------------------------------
# transactions.csv: each check, its message and the row it names

# 0xb's two swaps are rows 3 and 5, with 0xc's between them
SECOND_SWAP = dict(log_index=1, token_in=TOKA, amount_in="100", token_out=WETH, amount_out="5")
TX_ROWS = [
    tx_row("0xa", 1, 12000),
    tx_row("0xa", 1, 12000, **SECOND_SWAP),
    tx_row("0xb", 2, 24000),
    tx_row("0xc", 3, 36000),
    tx_row("0xb", 2, 24000, **SECOND_SWAP),
]
SHORT = None  # an edit that keeps only the row's first two fields


def edited_csv(path, header: str, rows: list[str], edits):
    """Write ``header`` and ``rows`` to ``path``, each (row, column, cell) in
    ``edits`` applied; return ``path``."""
    columns, rows = header.split(","), [r.split(",") for r in rows]
    for row, column, cell in edits:
        if cell is SHORT:
            rows[row - 1] = rows[row - 1][:2]
        else:
            rows[row - 1][columns.index(column)] = cell
    path.write_text(header + "\n" + "\n".join(",".join(r) for r in rows) + "\n")
    return path


def edited_transactions(tmp_path, edits):
    """transactions.csv with TX_ROWS, each (row, column, cell) in ``edits`` applied."""
    return edited_csv(tmp_path / "transactions.csv", TX_HEADER, TX_ROWS, edits)


def row_error(row: int, reason: str) -> str:
    return f"malformed row {row} of transactions.csv: {reason}"


TX_PARSED = ["amount_in", "amount_out", "log_index", "first_in_direction",
             "erc721_transfer_count", "base_fee_eth", "priority_fee_eth",
             "coinbase_transfer_eth", "volume_usd", "block_number", "slot_time_ms",
             "seen_in_mempool", "atomic_mev_flag", "liquidation_flag",
             "ofa_backrun_flag", "router_or_bot_flag"]
TX_FEES = ["base_fee_eth", "priority_fee_eth", "coinbase_transfer_eth", "volume_usd"]
TX_LEVEL = {"block_number": "7", "slot_time_ms": "24001", "searcher_contract": "0xother",
            "erc721_transfer_count": "1", "base_fee_eth": "0.002", "priority_fee_eth": "0",
            "coinbase_transfer_eth": "0.5", "builder_label": "builderY", "volume_usd": "999",
            "seen_in_mempool": "true", "atomic_mev_flag": "1", "liquidation_flag": "t",
            "ofa_backrun_flag": "yes", "router_or_bot_flag": " TRUE "}

TX_CHECKS = [
    ("short", [(3, None, SHORT)], MalformedRow, row_error(3, "fewer fields than the header")),
    *[(f"bad-{c}", [(3, c, " x1 ")], MalformedRow, row_error(3, f"bad value ' x1 ' in {c}"))
      for c in TX_PARSED],
    ("bad-int-as-float", [(3, "log_index", "1.0")], MalformedRow,
     row_error(3, "bad value '1.0' in log_index")),
    ("zero-amount_in", [(3, "amount_in", "0")], MalformedRow,
     row_error(3, "amount_in must be > 0")),
    ("negative-zero-amount_in", [(3, "amount_in", "-0.0")], MalformedRow,
     row_error(3, "amount_in must be > 0")),
    ("negative-amount_out", [(3, "amount_out", "-1")], MalformedRow,
     row_error(3, "amount_out must be > 0")),
    ("same-token", [(3, "token_out", " " + USDT.upper().replace("0X", "0x"))], MalformedRow,
     row_error(3, "token_in == token_out")),
    ("negative-erc721", [(3, "erc721_transfer_count", "-1")], MalformedRow,
     row_error(3, "erc721_transfer_count must be >= 0")),
    *[(f"negative-{c}", [(3, c, "-0.5")], MalformedRow, row_error(3, f"{c} must be >= 0"))
      for c in TX_FEES],
    ("empty-tx_hash", [(4, "tx_hash", " ")], MalformedRow, row_error(4, "empty tx_hash")),
    *[(f"differs-{c}", [(5, c, v)], MalformedRow,
       row_error(5, "transaction-level fields differ across rows of one tx"))
      for c, v in TX_LEVEL.items()],
    ("duplicate-log_index", [(2, "log_index", "0")], MalformedRow,
     row_error(2, "duplicate log_index 0")),
    ("duplicate-log_index-not-adjacent", [(5, "log_index", " +0")], MalformedRow,
     row_error(5, "duplicate log_index 0")),
    ("two-slot-times", [(4, "block_number", "2")], NonMonotonicSlotTime,
     "block 2 has two slot times in transactions.csv"),
    ("slot-time-decreases", [(4, "slot_time_ms", "6000")], NonMonotonicSlotTime,
     "slot time not increasing from block 2 to 3 in transactions.csv"),
    ("slot-time-repeats", [(4, "slot_time_ms", "24000")], NonMonotonicSlotTime,
     "slot time not increasing from block 2 to 3 in transactions.csv"),
    # two bad rows: the earlier one wins, whatever its check
    ("earlier-row-wins", [(4, "amount_in", "x"), (2, "priority_fee_eth", "-1")], MalformedRow,
     row_error(2, "priority_fee_eth must be >= 0")),
    ("earlier-short-row-wins", [(5, "log_index", "0"), (3, None, SHORT)], MalformedRow,
     row_error(3, "fewer fields than the header")),
    ("row-error-before-slot-times", [(4, "slot_time_ms", "6000"), (5, "builder_label", "b")],
     MalformedRow, row_error(5, "transaction-level fields differ across rows of one tx")),
    # within a row, the checks run in the loader's order
    ("fees-before-block_number", [(3, "block_number", "x"), (3, "base_fee_eth", "-1")],
     MalformedRow, row_error(3, "base_fee_eth must be >= 0")),
    ("amounts-parsed-before-sign", [(3, "amount_in", "0"), (3, "amount_out", "y")], MalformedRow,
     row_error(3, "bad value 'y' in amount_out")),
    ("erc721-before-fees", [(3, "volume_usd", "-1"), (3, "erc721_transfer_count", "-2")],
     MalformedRow, row_error(3, "erc721_transfer_count must be >= 0")),
    ("flags-before-empty-hash", [(3, "tx_hash", ""), (3, "router_or_bot_flag", "?")],
     MalformedRow, row_error(3, "bad value '?' in router_or_bot_flag")),
]


@pytest.mark.parametrize("edits, error, message", [c[1:] for c in TX_CHECKS],
                         ids=[c[0] for c in TX_CHECKS])
def test_load_transactions_names_the_first_failing_check(tmp_path, edits, error, message):
    with pytest.raises(PipelineError) as e:
        load_transactions(edited_transactions(tmp_path, edits))
    assert type(e.value) is error
    assert str(e.value) == message


def test_load_transactions_accepts_equal_spellings_of_one_tx(tmp_path):
    # the tx-level fields of 0xb's second row are the first row's, spelt otherwise
    load_transactions(edited_transactions(tmp_path, [
        (5, "searcher_contract", " 0XSEA "), (5, "seen_in_mempool", " F"),
        (5, "atomic_mev_flag", "0"), (5, "liquidation_flag", ""), (5, "ofa_backrun_flag", "No"),
        (5, "base_fee_eth", "1e-3"), (5, "coinbase_transfer_eth", "-0.0"),
        (5, "block_number", "+2"), (5, "builder_label", "builderX "),
    ]))


# ---------------------------------------------------------------------------
# tokens.csv and blocks.csv: each check, its message and the row it names

TOKEN_HEADER, *TOKEN_ROWS = TOKENS_CSV.splitlines()


def token_error(row: int, reason: str) -> str:
    return f"malformed row {row} of tokens.csv: {reason}"


TOKEN_CHECKS = [
    ("short", [(2, None, SHORT)], MalformedRow, token_error(2, "fewer fields than the header")),
    *[(f"bad-{c}", [(2, c, " x1 ")], MalformedRow, token_error(2, f"bad value ' x1 ' in {c}"))
      for c in ("decimals", "cex_listed", "is_major")],
    ("bad-decimals-as-float", [(2, "decimals", "18.0")], MalformedRow,
     token_error(2, "bad value '18.0' in decimals")),
    ("empty-address", [(2, "address", " ")], MalformedRow, token_error(2, "empty address")),
    ("duplicate-address", [(3, "address", " " + TOKA.upper().replace("0X", "0x"))], MalformedRow,
     token_error(3, f"duplicate token address {TOKA}")),
    ("major-not-listed", [(3, "cex_listed", "false")], MalformedRow,
     token_error(3, "is_major requires cex_listed")),
    # two bad rows: the earlier one wins, whatever its check
    ("earlier-row-wins", [(3, "decimals", "x"), (2, "is_major", "?")], MalformedRow,
     token_error(2, "bad value '?' in is_major")),
    ("earlier-short-row-wins", [(3, "address", USDT), (2, None, SHORT)], MalformedRow,
     token_error(2, "fewer fields than the header")),
    ("row-error-before-registry", [(1, "cex_listed", "false"), (3, "decimals", "x")], MalformedRow,
     token_error(1, "is_major requires cex_listed")),
    # within a row, the checks run in the loader's order
    ("empty-before-decimals", [(2, "address", ""), (2, "decimals", "x")], MalformedRow,
     token_error(2, "empty address")),
    ("duplicate-before-decimals", [(3, "address", USDT), (3, "decimals", "x")], MalformedRow,
     token_error(3, f"duplicate token address {USDT}")),
    ("decimals-before-cex_listed", [(2, "cex_listed", "x"), (2, "decimals", "y")], MalformedRow,
     token_error(2, "bad value 'y' in decimals")),
    ("cex_listed-before-is_major", [(2, "is_major", "x"), (2, "cex_listed", "y")], MalformedRow,
     token_error(2, "bad value 'y' in cex_listed")),
]


@pytest.mark.parametrize("edits, error, message", [c[1:] for c in TOKEN_CHECKS],
                         ids=[c[0] for c in TOKEN_CHECKS])
def test_load_tokens_names_the_first_failing_check(tmp_path, edits, error, message):
    with pytest.raises(PipelineError) as e:
        load_tokens(edited_csv(tmp_path / "tokens.csv", TOKEN_HEADER, TOKEN_ROWS, edits))
    assert type(e.value) is error
    assert str(e.value) == message


BLOCK_ROWS = ["1,b1,1.5,2.0,true,0.1,12000", "2,b2,0.5,0.0,false,0.0,24000",
              "3,b1,-0.5,1.0,true,0.0,36000"]


def block_error(row: int, reason: str) -> str:
    return f"malformed row {row} of blocks.csv: {reason}"


BLOCK_PARSED = ["block_number", "coinbase_delta_eth", "bid_eth", "used_bid_adjustment",
                "adjustment_delta_eth", "slot_time_ms"]
BLOCK_CHECKS = [
    ("short", [(2, None, SHORT)], MalformedRow, block_error(2, "fewer fields than the header")),
    *[(f"bad-{c}", [(2, c, " x1 ")], MalformedRow, block_error(2, f"bad value ' x1 ' in {c}"))
      for c in BLOCK_PARSED],
    ("bad-int-as-float", [(2, "block_number", "2.0")], MalformedRow,
     block_error(2, "bad value '2.0' in block_number")),
    ("negative-bid_eth", [(2, "bid_eth", "-1")], MalformedRow, block_error(2, "bid_eth must be >= 0")),
    ("negative-adjustment_delta_eth", [(1, "adjustment_delta_eth", "-0.1")], MalformedRow,
     block_error(1, "adjustment_delta_eth must be >= 0")),
    ("delta-without-adjustment", [(2, "adjustment_delta_eth", "0.3")], MalformedRow,
     block_error(2, "adjustment_delta_eth > 0 without used_bid_adjustment")),
    ("duplicate-block", [(3, "block_number", " +2 ")], DuplicateBlock, "duplicate block 2 in blocks.csv"),
    # two bad rows: the earlier one wins, whatever its check
    ("earlier-row-wins", [(3, "bid_eth", "-1"), (2, "slot_time_ms", "x")], MalformedRow,
     block_error(2, "bad value 'x' in slot_time_ms")),
    ("row-error-before-duplicate", [(3, "block_number", "1"), (2, "bid_eth", "-1")], MalformedRow,
     block_error(2, "bid_eth must be >= 0")),
    ("earlier-short-row-wins", [(3, "used_bid_adjustment", "?"), (2, None, SHORT)], MalformedRow,
     block_error(2, "fewer fields than the header")),
    # within a row, the checks run in the loader's order
    ("duplicate-before-flag", [(3, "block_number", "1"), (3, "used_bid_adjustment", "x")],
     DuplicateBlock, "duplicate block 1 in blocks.csv"),
    ("flag-before-delta", [(2, "adjustment_delta_eth", "x"), (2, "used_bid_adjustment", "y")],
     MalformedRow, block_error(2, "bad value 'y' in used_bid_adjustment")),
    ("delta-before-bid", [(2, "bid_eth", "x"), (2, "adjustment_delta_eth", "y")], MalformedRow,
     block_error(2, "bad value 'y' in adjustment_delta_eth")),
    ("bid-before-negative-delta", [(1, "adjustment_delta_eth", "-1"), (1, "bid_eth", "-1")],
     MalformedRow, block_error(1, "bid_eth must be >= 0")),
    ("negative-delta-before-flag-rule", [(2, "adjustment_delta_eth", "-1")], MalformedRow,
     block_error(2, "adjustment_delta_eth must be >= 0")),
    ("flag-rule-before-coinbase", [(2, "adjustment_delta_eth", "0.3"), (2, "coinbase_delta_eth", "x")],
     MalformedRow, block_error(2, "adjustment_delta_eth > 0 without used_bid_adjustment")),
    ("coinbase-before-slot", [(2, "slot_time_ms", "x"), (2, "coinbase_delta_eth", "y")], MalformedRow,
     block_error(2, "bad value 'y' in coinbase_delta_eth")),
]


@pytest.mark.parametrize("edits, error, message", [c[1:] for c in BLOCK_CHECKS],
                         ids=[c[0] for c in BLOCK_CHECKS])
def test_load_block_records_names_the_first_failing_check(tmp_path, edits, error, message):
    with pytest.raises(PipelineError) as e:
        load_block_records(edited_csv(tmp_path / "blocks.csv", BLOCK_HEADER, BLOCK_ROWS, edits))
    assert type(e.value) is error
    assert str(e.value) == message


@pytest.mark.parametrize("column", ["block_number", "slot_time_ms"])
def test_load_blocks_refuses_integers_past_int64(tmp_path, column):
    p = edited_csv(tmp_path / "blocks.csv", BLOCK_HEADER, BLOCK_ROWS, [(2, column, str(2**63))])
    with pytest.raises(MalformedRow) as e:
        load_block_records(p)
    assert str(e.value) == block_error(2, f"bad value '{2**63}' in {column}")


def test_load_tokens_refuses_decimals_past_int64(tmp_path):
    p = edited_csv(tmp_path / "tokens.csv", TOKEN_HEADER, TOKEN_ROWS, [(2, "decimals", str(2**63))])
    with pytest.raises(MalformedRow) as e:
        load_tokens(p)
    assert str(e.value) == token_error(2, f"bad value '{2**63}' in decimals")


def reference_rows(path) -> list[dict]:
    """The data rows of a CSV file by csv.reader, each a dict keyed by the
    header: a repeated column name is its last column."""
    with open(path, newline="") as f:
        header, *rows = [r for r in csv.reader(f) if r]
    return [dict(zip(header, r)) for r in rows]


def flag(cell: str) -> bool:
    return cell.strip().lower() in {"true", "1", "t", "yes"}


def reference_tokens(path) -> list[tuple]:
    """load_tokens(path)'s rows of a valid file, (address, listed, major,
    quote symbol), by csv.reader, int() and str methods."""
    rows = []
    for row in reference_rows(path):
        int(row["decimals"])
        symbol = row["symbol"].strip()
        quote = row.get("quote_symbol", "").strip() or {"WETH": "ETH", "WBTC": "BTC"}.get(symbol, symbol)
        rows.append((row["address"].strip().lower(), flag(row["cex_listed"]),
                     flag(row["is_major"]), quote))
    return rows


def token_rows(registry: TokenRegistry) -> list[tuple]:
    assert [registry.address.dtype.kind, registry.listed.dtype, registry.major.dtype,
            registry.quote_symbol.dtype.kind] == ["T", bool, bool, "T"]
    columns = (registry.address, registry.listed, registry.major, registry.quote_symbol)
    return list(zip(*(c.tolist() for c in columns)))


TOKENS_WITH_QUOTE = "address,symbol,cex_listed,is_major,decimals,quote_symbol\n"


@pytest.mark.parametrize("text, tokenized", [
    (TOKENS_WITH_QUOTE + '"0xAB","WETH",true,"false",18,"E""TH"\n"0xcd","W,BTC",1,0,"8",\n', True),
    (TOKENS_WITH_QUOTE.replace("\n", "\r\n") + " 0xAB , WETH ,TRUE, no , 18 , \r\n\r\n\r\n"
     "0XCD,WBTC,T,F,+8, BTCB \r\n", True),
    (TOKENS_WITH_QUOTE + "0xab,WETH,true,true,18,,past,the,header\n0xcd,X,false,false,0,Y\n", True),
    (TOKENS_WITH_QUOTE + "0xab,ÉTH,true,true,18,\n", False),  # not ASCII
    (TOKENS_WITH_QUOTE + "0xab,WETH,true,true,1_8,\n", False),  # numpy refuses 1_8
    (TOKENS_WITH_QUOTE, True),
    (TOKENS_CSV, True),
    ("symbol,address,cex_listed,is_major,decimals,symbol\nX,0xab,true,true,18,WBTC\n", True),
    (TOKENS_WITH_QUOTE + "0xab,W\0,true,true,18, \n", False),  # str.strip keeps a NUL
], ids=["quoted", "padded-crlf-blank", "extra-cells", "non-ascii", "underscore", "header-only",
        "no-quote_symbol", "repeated-column", "nul"])
def test_load_tokens_equals_a_csv_reference(tmp_path, text, tokenized):
    p = tmp_path / "tokens.csv"
    p.write_bytes(text.encode())
    assert (data_model._tokenize_columns(p, data_model.TOKEN_KINDS) is not None) == tokenized
    # repr tells 1 from True
    assert repr(token_rows(load_tokens(p))) == repr(reference_tokens(p))


def reference_blocks(path) -> list[BlockRecord]:
    """load_block_records of a valid file by csv.reader, int(), float() and str
    methods, in block number order."""
    return sorted((BlockRecord(
        int(row["block_number"]), row["builder_label"].strip(), float(row["coinbase_delta_eth"]),
        float(row["bid_eth"]), flag(row["used_bid_adjustment"]),
        float(row["adjustment_delta_eth"]), int(row["slot_time_ms"]),
    ) for row in reference_rows(path)), key=lambda b: b.block_number)


@pytest.mark.parametrize("text, tokenized", [
    (BLOCK_HEADER + '\n"1","b,""1""",1.5,"2.0",true,0.1,12000\n', True),
    (BLOCK_HEADER + "\r\n 1 , b1 , -0.0 ,2e0, TRUE ,1e-1, 12000 \r\n\r\n\r\n+2,b2,0,0,no,-0.0,24000\r\n",
     True),
    (BLOCK_HEADER + "\n1,b1,1.5,2.0,true,0.1,12000,past,the,header\n2,b2,0,0,false,0,24000\n", True),
    (BLOCK_HEADER + "\n1,bü,1.5,2.0,true,0.1,12000\n", False),  # not ASCII
    (BLOCK_HEADER + "\n1,b1,1.5,2.0,true,0.1,12_000\n", False),  # numpy refuses 12_000
    (BLOCK_HEADER + "\n", True),
    (BLOCK_HEADER + ",bid_eth\n1,b1,1.5,-2.0,true,0.1,12000,3.5\n", True),
    (BLOCK_HEADER + "\n3,b3,0.5,0,false,0,36000\n1,b1,1.5,2.0,true,0.1,12000\n2,b2,0,0,false,0,24000\n",
     True),
], ids=["quoted", "padded-crlf-blank", "extra-cells", "non-ascii", "underscore", "header-only",
        "repeated-column", "out-of-order"])
def test_load_block_records_equals_a_csv_reference(tmp_path, text, tokenized):
    p = tmp_path / "blocks.csv"
    p.write_bytes(text.encode())
    assert (data_model._tokenize_columns(p, data_model.BLOCK_KINDS) is not None) == tokenized
    # repr tells -0.0 from 0.0 and 1 from True
    assert repr(load_block_records(p).rows()) == repr(reference_blocks(p))


@pytest.mark.parametrize("column, cell", [
    ("volume_usd", "nan"), ("base_fee_eth", "NaN"), ("priority_fee_eth", "inf"),
    ("coinbase_transfer_eth", "1e400"), ("amount_in", "Infinity"), ("amount_in", "NaN"),
    ("amount_in", "sNaN"), ("amount_out", "-inf"), ("amount_out", "1e400"),
])
def test_load_transactions_refuses_non_finite_numbers(tmp_path, column, cell):
    with pytest.raises(MalformedRow) as e:
        load_transactions(edited_transactions(tmp_path, [(3, column, cell)]))
    assert str(e.value) == row_error(3, f"bad value {cell!r} in {column}")


def test_cell_pass_refuses_an_amount_past_the_largest_double(tmp_path):
    """Decimal holds 1e400, but the float the markout prices it at is inf;
    the non-ASCII dex sends the file to the cell pass from the start."""
    with pytest.raises(MalformedRow) as e:
        load_transactions(edited_transactions(
            tmp_path, [(1, "dex", "dé"), (3, "amount_out", "1e400")]))
    assert str(e.value) == row_error(3, "bad value '1e400' in amount_out")


@pytest.mark.parametrize("column, cell", [
    ("bid_eth", "nan"), ("coinbase_delta_eth", "nan"), ("adjustment_delta_eth", "inf"),
])
def test_load_blocks_refuses_non_finite_numbers(tmp_path, column, cell):
    rows = [dict(zip(BLOCK_HEADER.split(","), f"{k},b1,1.5,0.0,false,0.0,{12000 * k}".split(",")))
            for k in (1, 2, 3)]
    rows[1][column] = cell
    p = tmp_path / "blocks.csv"
    p.write_text(BLOCK_HEADER + "".join("\n" + ",".join(r.values()) for r in rows) + "\n")
    with pytest.raises(MalformedRow) as e:
        load_block_records(p)
    assert str(e.value) == f"malformed row 2 of blocks.csv: bad value {cell!r} in {column}"


@pytest.mark.parametrize("bad_row, column, cell", [
    ("BTCUSDT,300,nan,101\n", "bid", "nan"), ("BTCUSDT,300,99,nan\n", "ask", "nan"),
    ("BTCUSDT,300,99,inf\n", "ask", "inf"), ("BTCUSDT,300,-inf,101\n", "bid", "-inf"),
])
def test_load_quotes_refuses_non_finite_numbers(tmp_path, bad_row, column, cell):
    with pytest.raises(MalformedRow) as e:
        load_quotes(quotes_file(tmp_path, bad_row, at=3))
    assert str(e.value) == f"malformed row 3 of quotes.csv: bad value {cell!r} in {column}"


def test_load_transactions_peak_memory_per_row(tmp_path):
    # the columnar loader peaks near 1,100 B/row; a dict per row and two
    # Decimals per swap peak near 3,100
    n = 100_000
    rng = np.random.default_rng(0)
    p = tmp_path / "transactions.csv"
    tokens = [f"0x{k:040x}" for k in range(1, 9)]
    fee = rng.lognormal(-7, 1, n // 2).tolist()
    with open(p, "w") as f:
        f.write(TX_HEADER + "\n")
        for k, (a, b, x, y) in enumerate(zip(rng.integers(0, 8, n).tolist(),
                                             rng.integers(1, 8, n).tolist(),
                                             rng.lognormal(5, 2, n).tolist(),
                                             rng.lognormal(5, 2, n).tolist())):
            j = k // 2  # two swaps a transaction
            f.write(f"0x{j:064x},{19_000_000 + j},{1_717_200_000_000 + 12_000 * j},"
                    f"0x{j % 7:040x},pool-{a},univ3,{tokens[a]},{x!r},{tokens[(a + b) % 8]},{y!r},"
                    f"{k % 2},true,false,false,false,false,false,0,{fee[j]!r},{fee[j] / 3!r},"
                    f"0.0,builder{j % 3},{fee[j] * 1e6!r}\n")
    gc.collect()
    tracemalloc.start()
    try:
        table = load_transactions(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table) == n // 2
    assert peak / n <= 1500


TX_FIELDS = ["tx_hash", "block_number", "slot_time_ms", "searcher_contract", "builder_label",
             "erc721_transfer_count", "base_fee_eth", "priority_fee_eth", "coinbase_transfer_eth",
             "volume_usd", "seen_in_mempool", "atomic_mev_flag", "liquidation_flag",
             "ofa_backrun_flag", "router_or_bot_flag"]
SWAP_FIELDS = ["token_in", "amount_in", "token_out", "amount_out", "first_in_direction"]


def reference_transactions(path):
    """load_transactions of a valid file by csv.reader, int(), float() and
    str methods, row by row: [(transaction fields, its swaps)] in
    (block_number, tx_hash) order, the swaps in log_index order."""
    with open(path, newline="") as f:
        header, *rows = [r for r in csv.reader(f) if r]
    parse = {"tx_hash": str.strip, "searcher_contract": lambda v: v.strip().lower(),
             "builder_label": str.strip, "token_in": lambda v: v.strip().lower(),
             "token_out": lambda v: v.strip().lower(), "amount_in": str, "amount_out": str,
             **dict.fromkeys(["block_number", "slot_time_ms", "erc721_transfer_count"], int),
             **dict.fromkeys(["base_fee_eth", "priority_fee_eth", "coinbase_transfer_eth",
                              "volume_usd"], float),
             **dict.fromkeys(["first_in_direction", "seen_in_mempool", "atomic_mev_flag",
                              "liquidation_flag", "ofa_backrun_flag", "router_or_bot_flag"], flag)}
    txs: dict[str, tuple] = {}
    for r in rows:
        row = dict(zip(header, r))  # a repeated column name is its last column
        cell = {c: parse[c](row[c]) for c in parse}
        fields = tuple(cell[c] for c in TX_FIELDS)
        swaps = txs.setdefault(fields[0], (fields, []))[1]
        swaps.append((int(row["log_index"]), tuple(cell[c] for c in SWAP_FIELDS)))
    return [(fields, [s for _, s in sorted(swaps)])
            for fields, swaps in sorted(txs.values(), key=lambda t: (t[0][1], t[0][0]))]


def table_transactions(table):
    """A TransactionTable in reference_transactions' shape."""
    fields = list(zip(*(getattr(table, c).tolist() for c in TX_FIELDS)))
    swaps = list(zip(*(getattr(table, c).tolist() for c in SWAP_FIELDS)))
    ends = [*table.starts.tolist()[1:], len(swaps)]
    return [(f, swaps[a:b]) for f, a, b in zip(fields, table.starts.tolist(), ends)]


def tx_text(*rows, header=TX_HEADER, end="\n") -> str:
    return end.join([header, *rows]) + end


@pytest.mark.parametrize("text, tokenized", [
    (tx_text('"0xa",1,12000,"0xSEA",p0,d0,"' + USDT + '","1000.5",' + TOKA + ',100,0,true,'
             'false,false,false,false,false,0,"0.001",0.01,0.0,"builder,""X""",1000.0'), True),
    (tx_text(tx_row("0xa", 1, 12000).replace("builderX", "b#1").replace(",p0,", ",#p,")), True),
    (tx_text(" 0xb , 2 ,24000, 0XSEA ,p0,d0," + USDT.upper().replace("0X", "0x") + ", 5 ,"
             + TOKA + ",7e-3,1,TRUE,No,F,0,,yes, 0 ,0.001,0.01,-0.0, builderX ,1e3",
             "", tx_row("0xa", 1, 12000), end="\r\n"), True),
    (tx_text(tx_row("0xa", 1, 12000) + ",past,the,header",
             tx_row("0xa", 1, 12000, log_index=1, token_in=TOKA, token_out=USDT)), True),
    (tx_text(tx_row("0xb", 2, 24000, log_index=5), tx_row("0xa", 1, 12000),
             tx_row("0xb", 2, 24000, log_index=2, token_in=TOKA, token_out=USDT)), True),
    (tx_text(tx_row("0xa", 1, 12000).replace(",1000.0", ",1_000.0")), False),  # numpy refuses 1_000
    (tx_text(tx_row("0xa", 1, 12000).replace("builderX", "bü")), False),  # not ASCII
    (tx_text(tx_row("0xa", 1, 12000).replace("builderX", "\x1cb")), False),  # csv keeps \x1c
    (tx_text(tx_row("0xa", 1, 12000).replace("builderX", '"b\r\nX"'), end="\r\n"), False),
    (tx_text(tx_row("0xa", 1, 12000) + ",b2", header=TX_HEADER + ",builder_label"), True),
    (tx_text(), True),
], ids=["quoted", "hash", "padded-crlf-blank-spelt", "extra-cells", "out-of-order", "underscore",
        "non-ascii", "file-separator", "crlf-in-cell", "repeated-column", "header-only"])
def test_load_transactions_equals_a_csv_reference(tmp_path, text, tokenized):
    p = tmp_path / "transactions.csv"
    p.write_bytes(text.encode())
    assert (data_model._tokenize_columns(p, data_model.TRANSACTION_KINDS) is not None) == tokenized
    got, want = table_transactions(load_transactions(p)), reference_transactions(p)
    assert repr(got) == repr(want)  # repr tells -0.0 from 0.0 and 1 from True


@pytest.mark.parametrize("column", ["block_number", "slot_time_ms", "log_index",
                                    "erc721_transfer_count"])
def test_load_transactions_refuses_integers_past_int64(tmp_path, column):
    with pytest.raises(MalformedRow) as e:
        load_transactions(edited_transactions(tmp_path, [(3, column, "9223372036854775808")]))
    assert str(e.value) == row_error(3, f"bad value '9223372036854775808' in {column}")


def test_a_short_row_is_found_when_only_text_is_read(tmp_path):
    """The tokenizer reads the header's last column too, though only a text
    column before it is asked for, so a row that stops short is flagged."""
    p = tmp_path / "t.csv"
    p.write_text("a,b\nx,1\ny\n")
    cells, parsed = data_model._read_columns(p, {"a": data_model.TEXT})
    assert cells["a"].tolist() == ["x", "y"]
    assert parsed["short"][0].tolist() == [False, True]


PAIR = dataclasses.make_dataclass("Pair", [("a", "int"), ("b", "str")])


def test_table_refuses_columns_that_do_not_fit_its_row():
    assert Table(PAIR, [[1, 2], ["x", "y"]]).rows() == [PAIR(1, "x"), PAIR(2, "y")]
    with pytest.raises(ValueError, match=r"^Pair: 2 columns of \[1, 2\] rows for 2 fields$"):
        Table(PAIR, [[1], ["x", "y"]])
    with pytest.raises(ValueError, match=r"^Pair: 1 columns of \[2\] rows for 2 fields$"):
        Table(PAIR, [[1, 2]])
    hides = dataclasses.make_dataclass("Hides", [("a", "int"), ("select", "int")])
    with pytest.raises(TypeError, match="^Hides: the field select hides Table.select$"):
        Table(hides, [[1], [2]])
