"""Domain types and file ingestion.

The four tabular inputs are CSV with a header row, read by ``read_csv``; an
error names the 1-based data row, blank lines not counted. Searchers are JSON.
Token amounts are parsed as Decimal so that ERC-20 integer amounts beyond
2^64 survive the round trip; everything price-like stays float downstream.
"""

from __future__ import annotations

import csv
import decimal
import json
from dataclasses import dataclass, field
from decimal import Decimal
from pathlib import Path

import numpy as np

from .errors import (
    DuplicateBlock,
    DuplicateTimestamp,
    CrossedQuote,
    InvalidConfig,
    MalformedRow,
    MissingColumn,
    NonMonotonicSlotTime,
)

# Net-flow sums over many swaps need headroom past the 38 significant digits
# an ERC-20 balance can carry.
AMOUNT_CONTEXT = decimal.Context(prec=50)

MAJOR_SYMBOLS = frozenset(
    {"WETH", "WBTC", "USDT", "USDC", "TUSD", "FDUSD", "BUSD", "DAI"}
)

# Wrapped tokens quote on Binance under the unwrapped symbol.
QUOTE_SYMBOL_ALIASES = {"WETH": "ETH", "WBTC": "BTC"}

_TRUE = {"true", "1", "t", "yes"}
_FALSE = {"false", "0", "f", "no", ""}


@dataclass(frozen=True)
class TokenInfo:
    symbol: str
    cex_listed: bool
    is_major: bool
    decimals: int
    quote_symbol: str  # symbol used for the Binance USDT pair


class TokenRegistry:
    """Token metadata keyed by lowercase contract address."""

    def __init__(self, entries: dict[str, TokenInfo]):
        for addr, info in entries.items():
            if info.is_major and not info.cex_listed:
                raise InvalidConfig(f"{addr}: is_major requires cex_listed")
        self.entries = dict(entries)

    def get(self, address: str) -> TokenInfo | None:
        return self.entries.get(address.lower())

    def is_listed(self, address: str) -> bool:
        info = self.get(address)
        return info is not None and info.cex_listed


@dataclass(frozen=True)
class SwapEvent:
    pool_id: str
    dex: str
    token_in: str
    amount_in: Decimal
    token_out: str
    amount_out: Decimal
    log_index: int
    first_in_direction: bool


@dataclass(frozen=True)
class RawTransaction:
    tx_hash: str
    block_number: int
    slot_time_ms: int
    searcher_contract: str
    swaps: tuple[SwapEvent, ...]
    seen_in_mempool: bool
    atomic_mev_flag: bool
    liquidation_flag: bool
    ofa_backrun_flag: bool
    router_or_bot_flag: bool
    erc721_transfer_count: int
    base_fee_eth: float
    priority_fee_eth: float
    coinbase_transfer_eth: float
    builder_label: str
    volume_usd: float


@dataclass(frozen=True)
class BlockRecord:
    block_number: int
    builder_label: str
    coinbase_delta_eth: float  # signed
    bid_eth: float
    used_bid_adjustment: bool
    adjustment_delta_eth: float
    slot_time_ms: int


@dataclass(frozen=True)
class SearcherLabelFile:
    labels: dict[str, list[str]]  # label -> contract addresses (lowercase)
    integrated_with: dict[str, str] = field(default_factory=dict)

    def address_to_label(self) -> dict[str, str]:
        out: dict[str, str] = {}
        for label, addrs in self.labels.items():
            for a in addrs:
                a = a.lower()
                if a in out:
                    raise InvalidConfig(f"address {a} appears under two labels")
                out[a] = label
        return out

    def builder_to_searcher(self) -> dict[str, str]:
        return {b: s for s, b in self.integrated_with.items()}


# ---------------------------------------------------------------------------
# reading CSV rows and cells


def read_csv(path: str | Path, required: list[str]) -> tuple[list[str], list[list[str]]]:
    """(header, data rows) of a CSV file, blank lines skipped: list index k is
    data row k + 1. Raises MissingColumn for a ``required`` column not in the header."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, [])
        for col in required:
            if col not in header:
                raise MissingColumn(col, str(path))
        return header, [r for r in reader if r]


def _iter_rows(path: str | Path, required: list[str]):
    """Yield (1-based data row index, row as a dict); cells past the header are ignored."""
    header, rows = read_csv(path, required)
    for i, r in enumerate(rows, start=1):
        if len(r) < len(header):
            raise MalformedRow(i, "fewer fields than the header")
        yield i, dict(zip(header, r))


def _bad_value(raw: str, row_index: int, col: str) -> MalformedRow:
    return MalformedRow(row_index, f"bad value {raw!r} in {col}")


def parse_cell(parse, raw: str, row_index: int, col: str):
    """``parse(raw)``; a cell it rejects raises MalformedRow naming the row and ``col``."""
    try:
        return parse(raw)
    except (ValueError, ArithmeticError):  # decimal.InvalidOperation is an ArithmeticError
        raise _bad_value(raw, row_index, col) from None


def _bool(raw: str) -> bool:
    v = raw.strip().lower()
    if v not in _TRUE and v not in _FALSE:
        raise ValueError(raw)
    return v in _TRUE


def _amount(raw: str) -> Decimal:
    return AMOUNT_CONTEXT.create_decimal(raw.strip())


# ---------------------------------------------------------------------------
# loaders

TOKEN_COLUMNS = ["address", "symbol", "cex_listed", "is_major", "decimals"]


def load_tokens(path: str | Path) -> TokenRegistry:
    entries: dict[str, TokenInfo] = {}
    for i, row in _iter_rows(path, TOKEN_COLUMNS):
        addr = row["address"].strip().lower()
        if not addr:
            raise MalformedRow(i, "empty address")
        if addr in entries:
            raise MalformedRow(i, f"duplicate token address {addr}")
        symbol = row["symbol"].strip()
        quote_symbol = (row.get("quote_symbol") or "").strip()
        if not quote_symbol:
            quote_symbol = QUOTE_SYMBOL_ALIASES.get(symbol, symbol)
        entries[addr] = TokenInfo(
            symbol=symbol,
            cex_listed=parse_cell(_bool, row["cex_listed"], i, "cex_listed"),
            is_major=parse_cell(_bool, row["is_major"], i, "is_major"),
            decimals=parse_cell(int, row["decimals"], i, "decimals"),
            quote_symbol=quote_symbol,
        )
    return TokenRegistry(entries)


TRANSACTION_COLUMNS = [
    "tx_hash", "block_number", "slot_time_ms", "searcher_contract",
    "pool_id", "dex", "token_in", "amount_in", "token_out", "amount_out",
    "log_index", "first_in_direction",
    "seen_in_mempool", "atomic_mev_flag", "liquidation_flag",
    "ofa_backrun_flag", "router_or_bot_flag", "erc721_transfer_count",
    "base_fee_eth", "priority_fee_eth", "coinbase_transfer_eth",
    "builder_label", "volume_usd",
]

_TX_FLAGS = [
    "seen_in_mempool", "atomic_mev_flag", "liquidation_flag",
    "ofa_backrun_flag", "router_or_bot_flag",
]


def load_transactions(path: str | Path) -> list[RawTransaction]:
    """Load transactions.csv; one row per swap, grouped by tx_hash.

    Rows violating per-type invariants are rejected with the 1-based index
    of the first offending row.
    """
    # tx_hash -> (header fields, swaps, first row index)
    grouped: dict[str, dict] = {}
    for i, row in _iter_rows(path, TRANSACTION_COLUMNS):
        amount_in = parse_cell(_amount, row["amount_in"], i, "amount_in")
        amount_out = parse_cell(_amount, row["amount_out"], i, "amount_out")
        token_in = row["token_in"].strip().lower()
        token_out = row["token_out"].strip().lower()
        if amount_in <= 0:
            raise MalformedRow(i, "amount_in must be > 0")
        if amount_out <= 0:
            raise MalformedRow(i, "amount_out must be > 0")
        if token_in == token_out:
            raise MalformedRow(i, "token_in == token_out")
        swap = SwapEvent(
            pool_id=row["pool_id"].strip(),
            dex=row["dex"].strip(),
            token_in=token_in,
            amount_in=amount_in,
            token_out=token_out,
            amount_out=amount_out,
            log_index=parse_cell(int, row["log_index"], i, "log_index"),
            first_in_direction=parse_cell(_bool, row["first_in_direction"], i, "first_in_direction"),
        )
        erc721 = parse_cell(int, row["erc721_transfer_count"], i, "erc721_transfer_count")
        if erc721 < 0:
            raise MalformedRow(i, "erc721_transfer_count must be >= 0")
        fees = {}
        for col in ("base_fee_eth", "priority_fee_eth", "coinbase_transfer_eth", "volume_usd"):
            v = parse_cell(float, row[col], i, col)
            if v < 0:
                raise MalformedRow(i, f"{col} must be >= 0")
            fees[col] = v
        header = dict(
            tx_hash=row["tx_hash"].strip(),
            block_number=parse_cell(int, row["block_number"], i, "block_number"),
            slot_time_ms=parse_cell(int, row["slot_time_ms"], i, "slot_time_ms"),
            searcher_contract=row["searcher_contract"].strip().lower(),
            erc721_transfer_count=erc721,
            builder_label=row["builder_label"].strip(),
            **fees,
            **{c: parse_cell(_bool, row[c], i, c) for c in _TX_FLAGS},
        )
        if not header["tx_hash"]:
            raise MalformedRow(i, "empty tx_hash")
        entry = grouped.get(header["tx_hash"])
        if entry is None:
            grouped[header["tx_hash"]] = {"header": header, "swaps": [swap], "row": i}
        else:
            if entry["header"] != header:
                raise MalformedRow(i, "transaction-level fields differ across rows of one tx")
            if any(s.log_index == swap.log_index for s in entry["swaps"]):
                raise MalformedRow(i, f"duplicate log_index {swap.log_index}")
            entry["swaps"].append(swap)

    txs = []
    for entry in grouped.values():
        h = entry["header"]
        swaps = tuple(sorted(entry["swaps"], key=lambda s: s.log_index))
        txs.append(RawTransaction(swaps=swaps, **h))
    txs.sort(key=lambda t: (t.block_number, t.tx_hash))

    # slot time must be strictly increasing with block number
    by_block: dict[int, int] = {}
    for t in txs:
        prev = by_block.get(t.block_number)
        if prev is not None and prev != t.slot_time_ms:
            raise NonMonotonicSlotTime(f"block {t.block_number} has two slot times")
        by_block[t.block_number] = t.slot_time_ms
    ordered = sorted(by_block.items())
    for (b1, s1), (b2, s2) in zip(ordered, ordered[1:]):
        if s2 <= s1:
            raise NonMonotonicSlotTime(f"slot time not increasing from block {b1} to {b2}")
    return txs


QUOTE_COLUMNS = ["symbol", "ts_ms", "bid", "ask"]

QuoteArrays = tuple[np.ndarray, np.ndarray, np.ndarray]  # ts_ms, bid, ask


def _read_columns(path: Path, columns: list[str]) -> tuple[np.ndarray, list[list[str]]]:
    """(mask of the rows shorter than the header, each column's raw strings, "" if missing)."""
    header, rows = read_csv(path, columns)
    short = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows)) < len(header)
    if short.any():
        rows = [r + [""] * (len(header) - len(r)) for r in rows]
    return short, [[r[j] for r in rows] for j in map(header.index, columns)]


def _parse_column(raw: list[str], parse, dtype) -> tuple[np.ndarray, np.ndarray]:
    """``parse`` of every entry, and the mask of the entries it rejects (left 0)."""
    try:
        return np.array(list(map(parse, raw)), dtype=dtype), np.zeros(len(raw), dtype=bool)
    except (ValueError, ArithmeticError):  # OverflowError: an int past int64
        pass
    values, bad = np.zeros(len(raw), dtype=dtype), np.zeros(len(raw), dtype=bool)
    for k, v in enumerate(raw):
        try:
            values[k] = parse(v)
        except (ValueError, ArithmeticError):
            bad[k] = True
    return values, bad


def load_quotes(path: str | Path) -> dict[str, QuoteArrays]:
    """Per-symbol (ts_ms, bid, ask) arrays sorted by timestamp ascending.

    Raises for the first row that fails a check, with the first check it
    fails in the order listed below.
    """
    short, (symbols, ts_raw, bid_raw, ask_raw) = _read_columns(Path(path), QUOTE_COLUMNS)
    ts, bad_ts = _parse_column(ts_raw, int, np.int64)
    bid, bad_bid = _parse_column(bid_raw, float, np.float64)
    ask, bad_ask = _parse_column(ask_raw, float, np.float64)
    codes: dict[str, int] = {}
    code = np.array([codes.setdefault(s.strip(), len(codes)) for s in symbols], dtype=np.int64)
    # by symbol, time and row: a row with the key of the one before it is a duplicate
    order = np.lexsort((np.arange(len(ts)), ts, code))
    dup = np.zeros(len(ts), dtype=bool)
    dup[order[1:]] = (np.diff(code[order]) == 0) & (np.diff(ts[order]) == 0)
    # a rejected entry is left 0, which can only fail checks listed after its own
    checks = [
        (short, lambda i, k: MalformedRow(i, "fewer fields than the header")),
        (bad_ts, lambda i, k: _bad_value(ts_raw[k], i, "ts_ms")),
        (bad_bid, lambda i, k: _bad_value(bid_raw[k], i, "bid")),
        (bad_ask, lambda i, k: _bad_value(ask_raw[k], i, "ask")),
        (bid <= 0, lambda i, k: MalformedRow(i, "bid must be > 0")),
        (ask < bid, lambda i, k: CrossedQuote(i)),
        (dup, lambda i, k: DuplicateTimestamp(symbols[k].strip(), int(ts[k]))),
    ]
    failing = np.vstack([mask for mask, _ in checks])
    if failing.any():
        k = int(np.argmax(failing.any(axis=0)))
        raise checks[int(np.argmax(failing[:, k]))][1](k + 1, k)
    bounds = np.searchsorted(code[order], np.arange(len(codes) + 1))
    return {
        symbol: tuple(a[order[bounds[c]:bounds[c + 1]]] for a in (ts, bid, ask))
        for symbol, c in codes.items()
    }


BLOCK_COLUMNS = [
    "block_number", "builder_label", "coinbase_delta_eth", "bid_eth",
    "used_bid_adjustment", "adjustment_delta_eth", "slot_time_ms",
]


def load_block_records(path: str | Path) -> dict[int, BlockRecord]:
    records: dict[int, BlockRecord] = {}
    for i, row in _iter_rows(path, BLOCK_COLUMNS):
        block = parse_cell(int, row["block_number"], i, "block_number")
        if block in records:
            raise DuplicateBlock(block)
        used = parse_cell(_bool, row["used_bid_adjustment"], i, "used_bid_adjustment")
        delta = parse_cell(float, row["adjustment_delta_eth"], i, "adjustment_delta_eth")
        bid = parse_cell(float, row["bid_eth"], i, "bid_eth")
        if bid < 0:
            raise MalformedRow(i, "bid_eth must be >= 0")
        if delta < 0:
            raise MalformedRow(i, "adjustment_delta_eth must be >= 0")
        if not used and delta != 0:
            raise MalformedRow(i, "adjustment_delta_eth > 0 without used_bid_adjustment")
        records[block] = BlockRecord(
            block_number=block,
            builder_label=row["builder_label"].strip(),
            coinbase_delta_eth=parse_cell(float, row["coinbase_delta_eth"], i, "coinbase_delta_eth"),
            bid_eth=bid,
            used_bid_adjustment=used,
            adjustment_delta_eth=delta,
            slot_time_ms=parse_cell(int, row["slot_time_ms"], i, "slot_time_ms"),
        )
    return records


def load_searchers(path: str | Path) -> SearcherLabelFile:
    with open(path) as f:
        raw = json.load(f)
    labels = {
        str(label): [str(a).lower() for a in addrs]
        for label, addrs in raw.get("labels", {}).items()
    }
    integrated = {str(k): str(v) for k, v in (raw.get("integrated_with") or {}).items()}
    for label in integrated:
        if label not in labels:
            raise InvalidConfig(f"integrated_with references unknown label {label!r}")
    out = SearcherLabelFile(labels=labels, integrated_with=integrated)
    out.address_to_label()  # raises on address under two labels
    return out
