import csv
import gc
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cexdex import data_model
from cexdex.data_model import (
    TokenInfo,
    TokenRegistry,
    load_block_records,
    load_quotes,
    load_searchers,
    load_tokens,
    load_transactions,
)
from cexdex.errors import (
    CrossedQuote,
    DuplicateBlock,
    DuplicateTimestamp,
    InvalidConfig,
    MalformedRow,
    MissingColumn,
    NonMonotonicSlotTime,
)

from conftest import TOKA, USDT

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
    assert token_registry.get("0x" + "1" * 40).quote_symbol == "ETH"
    assert token_registry.get(USDT).quote_symbol == "USDT"
    assert token_registry.get(TOKA).quote_symbol == "TOKA"


def test_load_tokens_address_case_insensitive(token_registry):
    assert token_registry.get(USDT.upper().replace("0X", "0x")) is not None


def test_registry_rejects_major_unlisted():
    with pytest.raises(InvalidConfig):
        TokenRegistry({"0xbad": TokenInfo("X", False, True, "X")})


def test_load_transactions_groups_by_hash(tmp_path):
    p = tmp_path / "transactions.csv"
    rows = [
        tx_row("0xa", 1, 12000),
        tx_row("0xa", 1, 12000, log_index=1, token_in=TOKA, amount_in="100",
               token_out="0x" + "1" * 40, amount_out="5"),
        tx_row("0xb", 2, 24000),
    ]
    p.write_text(TX_HEADER + "\n" + "\n".join(rows) + "\n")
    txs = load_transactions(p)
    assert [t.tx_hash for t in txs] == ["0xa", "0xb"]
    assert len(txs[0].swaps) == 2
    assert txs[0].swaps[0].log_index == 0  # sorted by log index


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
    txs = load_transactions(p)
    assert [t.block_number for t in txs] == [1, 5]


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
    cols = [header.index(c) for c in ("symbol", "ts_ms", "bid", "ask")]
    series: dict[str, list] = {}
    for r in rows:
        symbol, ts, bid, ask = (r[j] for j in cols)
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


@pytest.mark.parametrize("text, tokenized", [
    ('symbol,ts_ms,bid,ask\n"BTC,USDT",100,"99.5",101\n"ETH""X",100,1,2\n"BTC,USDT",50,1,2\n', True),
    ("symbol,ts_ms,bid,ask\nA#x,100,1,2\n#B,100,1,2\n", True),
    ("symbol,ts_ms,bid,ask\r\n BTCUSDT , 200 ,\t99.5 , 101 \r\n\r\n\nBTCUSDT,100,1,2\r\n", True),
    ('symbol,ts_ms,bid,ask\r\n"BTC\r\nUSDT",1,1,2\r\n', False),  # a line break in a symbol
    ("ask,extra,bid,symbol,ts_ms\n2,x,1,BTC,100,past,the,header\n3,,2,BTC,50\n", True),
    ('"ex\r\ntra",symbol,ts_ms,bid,ask\r\nx,BTC,1,1,2\r\n', True),  # a header on two lines
    ("symbol,ts_ms,bid,ask\nA_SYMBOL_LONGER_THAN_16_CHARACTERS,1,1,2\nA_SYMBOL_LONGER_THAN_16,1,1,2\n",
     True),
    ("symbol,ts_ms,bid,ask\nBTC,1,1,2\nETH,1,1,2\nBTC,2,1,2\nETH,0,1,2\nBTC,0,1,2\n", True),
    ("symbol,ts_ms,bid,ask\nÉTHUSDT,1,1,2\n", False),  # not ASCII: read cell by cell
    ("symbol,ts_ms,bid,ask\nBTC,1_000,1,2\nBTC,999,1.5,2\n", False),  # numpy refuses 1_000
], ids=["quoted", "hash", "padded-crlf-blank", "crlf-in-symbol", "reordered-extra-long",
        "two-line-header", "long-symbol", "interleaved", "non-ascii", "underscore"])
def test_load_quotes_equals_a_csv_reference(tmp_path, text, tokenized):
    p = tmp_path / "quotes.csv"
    p.write_bytes(text.encode())
    assert (data_model._tokenize_quotes(p) is not None) == tokenized
    assert_same_quotes(load_quotes(p), reference_quotes(p))


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
    st.lists(st.one_of(st.floats(min_value=0, exclude_min=True).map(repr), decimal_strings),
             min_size=1, max_size=40),
    st.lists(st.integers(-2**63, 2**63 - 1), min_size=40, max_size=40, unique=True),
)
@settings(max_examples=100, deadline=None)
def test_load_quotes_parses_numbers_bit_for_bit(tmp_path_factory, bids, stamps):
    bids = [b for b in bids if float(b) > 0]
    p = tmp_path_factory.mktemp("quotes") / "quotes.csv"
    p.write_text(QUOTES_HEADER + "".join(f"X,{t},{b},inf\n" for t, b in zip(stamps, bids)))
    assert data_model._tokenize_quotes(p) is not None
    assert_same_quotes(load_quotes(p), reference_quotes(p))


def test_load_quotes_peak_memory_per_row(tmp_path):
    # numpy's tokenizer peaks near 72 B/row; a parse that makes a Python
    # object per cell peaks near 380
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
    records = load_block_records(p)
    assert records[1].adjustment_delta_eth == 0.1
    assert records[2].used_bid_adjustment is False


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
