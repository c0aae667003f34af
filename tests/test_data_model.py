import json

import numpy as np
import pytest

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
        TokenRegistry({"0xbad": TokenInfo("X", False, True, 18, "X")})


def test_load_transactions_groups_by_hash(tmp_path, token_registry):
    p = tmp_path / "transactions.csv"
    rows = [
        tx_row("0xa", 1, 12000),
        tx_row("0xa", 1, 12000, log_index=1, token_in=TOKA, amount_in="100",
               token_out="0x" + "1" * 40, amount_out="5"),
        tx_row("0xb", 2, 24000),
    ]
    p.write_text(TX_HEADER + "\n" + "\n".join(rows) + "\n")
    txs = load_transactions(p, token_registry)
    assert [t.tx_hash for t in txs] == ["0xa", "0xb"]
    assert len(txs[0].swaps) == 2
    assert txs[0].swaps[0].log_index == 0  # sorted by log index


def test_load_transactions_rejects_zero_amount(tmp_path, token_registry):
    p = tmp_path / "transactions.csv"
    p.write_text(TX_HEADER + "\n" + tx_row("0xa", 1, 12000, amount_in="0") + "\n")
    with pytest.raises(MalformedRow) as e:
        load_transactions(p, token_registry)
    assert e.value.row_index == 1


def test_load_transactions_rejects_duplicate_log_index(tmp_path, token_registry):
    p = tmp_path / "transactions.csv"
    rows = [tx_row("0xa", 1, 12000), tx_row("0xa", 1, 12000)]
    p.write_text(TX_HEADER + "\n" + "\n".join(rows) + "\n")
    with pytest.raises(MalformedRow):
        load_transactions(p, token_registry)


def test_load_transactions_missing_column(tmp_path, token_registry):
    p = tmp_path / "transactions.csv"
    p.write_text("tx_hash,block_number\n0xa,1\n")
    with pytest.raises(MissingColumn):
        load_transactions(p, token_registry)


def test_load_transactions_nonmonotonic_slot_time(tmp_path, token_registry):
    p = tmp_path / "transactions.csv"
    rows = [tx_row("0xa", 1, 24000), tx_row("0xb", 2, 12000)]
    p.write_text(TX_HEADER + "\n" + "\n".join(rows) + "\n")
    with pytest.raises(NonMonotonicSlotTime):
        load_transactions(p, token_registry)


def test_load_transactions_sorted_by_block(tmp_path, token_registry):
    p = tmp_path / "transactions.csv"
    rows = [tx_row("0xb", 5, 60000), tx_row("0xa", 1, 12000)]
    p.write_text(TX_HEADER + "\n" + "\n".join(rows) + "\n")
    txs = load_transactions(p, token_registry)
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
     lambda p: load_transactions(p, TokenRegistry({}))),
    (QUOTES_HEADER + "".join(GOOD_QUOTE.format(ts=100 * k) for k in range(1, 5)), load_quotes),
    (BLOCK_HEADER + "".join(f"\n{k},b1,1.5,2.0,false,0.0,{12000 * k}" for k in range(1, 5)),
     load_block_records),
], ids=["tokens", "transactions", "quotes", "blocks"])
def test_short_row_reports_its_data_row(tmp_path, text, load):
    p = tmp_path / "input.csv"
    p.write_text(third_row_short(text))
    with pytest.raises(MalformedRow) as e:
        load(p)
    assert e.value.row_index == 3 and "fewer fields" in str(e.value)
