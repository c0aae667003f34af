"""Domain types and file ingestion.

The four tabular inputs are CSV with a header row, read by ``read_csv``
(``quotes.csv`` by numpy's C tokenizer, to the same cells); an error names
the file and the 1-based data row, blank lines not counted. Searchers are JSON.
Token amounts are parsed as Decimal so that ERC-20 integer amounts beyond
2^64 survive the round trip; everything price-like stays float downstream.
"""

from __future__ import annotations

import csv
import decimal
import json
import warnings
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


def _read_header(reader, path: str | Path, required: list[str]) -> list[str]:
    """The first row of ``reader``, a csv.reader of the file at ``path``.
    Raises MissingColumn for a ``required`` column not in it."""
    header = next(reader, [])
    for col in required:
        if col not in header:
            raise MissingColumn(col, str(path))
    return header


def read_csv(path: str | Path, required: list[str]) -> tuple[list[str], list[list[str]]]:
    """(header, data rows) of a CSV file, blank lines skipped: list index k is
    data row k + 1. Raises MissingColumn for a ``required`` column not in the header."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = _read_header(reader, path, required)
        return header, [r for r in reader if r]


def _iter_rows(path: str | Path, required: list[str]):
    """Yield (1-based data row index, row as a dict); cells past the header are ignored."""
    header, rows = read_csv(path, required)
    for i, r in enumerate(rows, start=1):
        if len(r) < len(header):
            raise MalformedRow(i, "fewer fields than the header", Path(path).name)
        yield i, dict(zip(header, r))


def _bad_value(raw: str, row_index: int, col: str, file: str = "") -> MalformedRow:
    return MalformedRow(row_index, f"bad value {raw!r} in {col}", file)


def parse_cell(parse, raw: str, row_index: int, col: str, file: str = ""):
    """``parse(raw)``; a cell it rejects raises MalformedRow naming the row,
    ``col`` and ``file``."""
    try:
        return parse(raw)
    except (ValueError, ArithmeticError):  # decimal.InvalidOperation is an ArithmeticError
        raise _bad_value(raw, row_index, col, file) from None


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
    name = Path(path).name
    for i, row in _iter_rows(path, TOKEN_COLUMNS):
        addr = row["address"].strip().lower()
        if not addr:
            raise MalformedRow(i, "empty address", name)
        if addr in entries:
            raise MalformedRow(i, f"duplicate token address {addr}", name)
        symbol = row["symbol"].strip()
        quote_symbol = (row.get("quote_symbol") or "").strip()
        if not quote_symbol:
            quote_symbol = QUOTE_SYMBOL_ALIASES.get(symbol, symbol)
        parse_cell(int, row["decimals"], i, "decimals", name)  # checked, not kept
        entries[addr] = TokenInfo(
            symbol=symbol,
            cex_listed=parse_cell(_bool, row["cex_listed"], i, "cex_listed", name),
            is_major=parse_cell(_bool, row["is_major"], i, "is_major", name),
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
    name = Path(path).name
    for i, row in _iter_rows(path, TRANSACTION_COLUMNS):
        amount_in = parse_cell(_amount, row["amount_in"], i, "amount_in", name)
        amount_out = parse_cell(_amount, row["amount_out"], i, "amount_out", name)
        token_in = row["token_in"].strip().lower()
        token_out = row["token_out"].strip().lower()
        if amount_in <= 0:
            raise MalformedRow(i, "amount_in must be > 0", name)
        if amount_out <= 0:
            raise MalformedRow(i, "amount_out must be > 0", name)
        if token_in == token_out:
            raise MalformedRow(i, "token_in == token_out", name)
        swap = SwapEvent(
            pool_id=row["pool_id"].strip(),
            dex=row["dex"].strip(),
            token_in=token_in,
            amount_in=amount_in,
            token_out=token_out,
            amount_out=amount_out,
            log_index=parse_cell(int, row["log_index"], i, "log_index", name),
            first_in_direction=parse_cell(
                _bool, row["first_in_direction"], i, "first_in_direction", name),
        )
        erc721 = parse_cell(int, row["erc721_transfer_count"], i, "erc721_transfer_count", name)
        if erc721 < 0:
            raise MalformedRow(i, "erc721_transfer_count must be >= 0", name)
        fees = {}
        for col in ("base_fee_eth", "priority_fee_eth", "coinbase_transfer_eth", "volume_usd"):
            v = parse_cell(float, row[col], i, col, name)
            if v < 0:
                raise MalformedRow(i, f"{col} must be >= 0", name)
            fees[col] = v
        header = dict(
            tx_hash=row["tx_hash"].strip(),
            block_number=parse_cell(int, row["block_number"], i, "block_number", name),
            slot_time_ms=parse_cell(int, row["slot_time_ms"], i, "slot_time_ms", name),
            searcher_contract=row["searcher_contract"].strip().lower(),
            erc721_transfer_count=erc721,
            builder_label=row["builder_label"].strip(),
            **fees,
            **{c: parse_cell(_bool, row[c], i, c, name) for c in _TX_FLAGS},
        )
        if not header["tx_hash"]:
            raise MalformedRow(i, "empty tx_hash", name)
        entry = grouped.get(header["tx_hash"])
        if entry is None:
            grouped[header["tx_hash"]] = {"header": header, "swaps": [swap], "row": i}
        else:
            if entry["header"] != header:
                raise MalformedRow(i, "transaction-level fields differ across rows of one tx", name)
            if any(s.log_index == swap.log_index for s in entry["swaps"]):
                raise MalformedRow(i, f"duplicate log_index {swap.log_index}", name)
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
            raise NonMonotonicSlotTime(f"block {t.block_number} has two slot times in {name}")
        by_block[t.block_number] = t.slot_time_ms
    ordered = sorted(by_block.items())
    for (b1, s1), (b2, s2) in zip(ordered, ordered[1:]):
        if s2 <= s1:
            raise NonMonotonicSlotTime(f"slot time not increasing from block {b1} to {b2} in {name}")
    return txs


QUOTE_COLUMNS = ["symbol", "ts_ms", "bid", "ask"]

QuoteArrays = tuple[np.ndarray, np.ndarray, np.ndarray]  # ts_ms, bid, ask

_QUOTE_VALUES = np.dtype([("ts_ms", np.int64), ("bid", np.float64), ("ask", np.float64)])
# ASCII bytes that numpy's tokenizer reads otherwise than csv, int() and
# float(): numpy skips the separators \x1c-\x1f as blanks around a number,
# and csv refuses NUL.
_NOT_PLAIN = (b"\0", b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _plain_ascii(path: Path) -> bool:
    """Whether ``path`` is ASCII without the bytes in _NOT_PLAIN. numpy's int
    parser misreads some non-ASCII digits: the Devanagari two is 2360, where
    int() says 2."""
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            if not chunk.isascii() or any(b in chunk for b in _NOT_PLAIN):
                return False
    return True


def _symbol_codes(symbols: np.ndarray) -> tuple[list[str], np.ndarray]:
    """(the stripped symbols in first-seen order, each row's index into that
    list), with one dict lookup per run of equal symbols."""
    new_run = np.ones(len(symbols), dtype=bool)
    new_run[1:] = symbols[1:] != symbols[:-1]
    starts = np.flatnonzero(new_run)
    codes: dict[str, int] = {}
    run_codes = [codes.setdefault(s.strip(), len(codes)) for s in symbols[starts].tolist()]
    run_lengths = np.diff(starts, append=len(symbols))
    return list(codes), np.repeat(np.array(run_codes, dtype=np.int64), run_lengths)


def _tokenize_quotes(path: Path) -> tuple | None:
    """(symbols in first-seen order, each row's index into them, ts_ms, bid,
    ask), read by numpy's C tokenizer with no Python object per cell. None for
    a file it might read otherwise than csv, int() and float() do, and for
    one with a short row or a cell it does not parse."""
    if not _plain_ascii(path):
        return None
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = _read_header(reader, path, QUOTE_COLUMNS)
    cols = [header.index(c) for c in QUOTE_COLUMNS]
    last = len(header) - 1
    csv_format = dict(delimiter=",", quotechar='"', comments=None, skiprows=reader.line_num)
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            # The header's last column is read with the symbols unless it is a
            # quote column, so that a row shorter than the header fails. A
            # fresh StringDType each call: numpy 2.4 can raise SystemError
            # when one instance is reused after a failed loadtxt.
            names, code = _symbol_codes(np.loadtxt(
                path, dtype=np.dtypes.StringDType(), ndmin=2, **csv_format,
                usecols=cols[:1] if last in cols else [cols[0], last])[:, 0])
            # numpy reads with universal newlines, which turn a "\r" inside a
            # quoted symbol into "\n"
            if any("\n" in s for s in names):
                return None
            values = np.loadtxt(path, dtype=_QUOTE_VALUES, ndmin=1, usecols=cols[1:], **csv_format)
    except (ValueError, ArithmeticError):
        return None
    return names, code, values["ts_ms"], values["bid"], values["ask"]


def _parse_quotes_by_cell(path: Path) -> tuple:
    """As _tokenize_quotes, plus the parse checks, by csv, int() and float():
    one Python object per cell, but every short row and bad cell is masked,
    for ``load_quotes`` to name the first. A rejected cell is left 0."""
    header, rows = read_csv(path, QUOTE_COLUMNS)
    short = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows)) < len(header)
    if short.any():
        rows = [r + [""] * (len(header) - len(r)) for r in rows]
    symbols, ts_raw, bid_raw, ask_raw = (
        [r[j] for r in rows] for j in map(header.index, QUOTE_COLUMNS))
    ts, bad_ts = _parse_column(ts_raw, int, np.int64)
    bid, bad_bid = _parse_column(bid_raw, float, np.float64)
    ask, bad_ask = _parse_column(ask_raw, float, np.float64)
    name = path.name
    checks = [
        (short, lambda i, k: MalformedRow(i, "fewer fields than the header", name)),
        (bad_ts, lambda i, k: _bad_value(ts_raw[k], i, "ts_ms", name)),
        (bad_bid, lambda i, k: _bad_value(bid_raw[k], i, "bid", name)),
        (bad_ask, lambda i, k: _bad_value(ask_raw[k], i, "ask", name)),
    ]
    return *_symbol_codes(np.array(symbols, dtype=np.dtypes.StringDType())), ts, bid, ask, checks


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

    numpy's C tokenizer reads the file; one it cannot read is read again
    cell by cell. Raises for the first row that fails a check, with the
    first check it fails in the order listed below.
    """
    path = Path(path)
    checks = []
    quotes = _tokenize_quotes(path)
    if quotes is None:
        *quotes, checks = _parse_quotes_by_cell(path)
    names, code, ts, bid, ask = quotes
    # by symbol and time, rows in file order within a key (lexsort is stable):
    # a row with the key of the one before it is a duplicate
    order = np.lexsort((ts, code))
    code_sorted, ts_sorted = code[order], ts[order]
    dup = np.zeros(len(ts), dtype=bool)
    dup[order[1:]] = (np.diff(code_sorted) == 0) & (np.diff(ts_sorted) == 0)
    name = path.name
    # a rejected entry is left 0, which can only fail checks listed after its own
    checks += [
        (bid <= 0, lambda i, k: MalformedRow(i, "bid must be > 0", name)),
        (ask < bid, lambda i, k: CrossedQuote(i, name)),
        (dup, lambda i, k: DuplicateTimestamp(names[code[k]], int(ts[k]), name)),
    ]
    failing = np.vstack([mask for mask, _ in checks])
    if failing.any():
        k = int(np.argmax(failing.any(axis=0)))
        raise checks[int(np.argmax(failing[:, k]))][1](k + 1, k)
    del failing, dup, checks  # their memory goes to the sorted columns
    columns = (ts_sorted, bid[order], ask[order])
    bounds = np.searchsorted(code_sorted, np.arange(len(names) + 1))
    return {
        symbol: tuple(a[bounds[c]:bounds[c + 1]] for a in columns)
        for c, symbol in enumerate(names)
    }


BLOCK_COLUMNS = [
    "block_number", "builder_label", "coinbase_delta_eth", "bid_eth",
    "used_bid_adjustment", "adjustment_delta_eth", "slot_time_ms",
]


def load_block_records(path: str | Path) -> dict[int, BlockRecord]:
    records: dict[int, BlockRecord] = {}
    name = Path(path).name
    for i, row in _iter_rows(path, BLOCK_COLUMNS):
        block = parse_cell(int, row["block_number"], i, "block_number", name)
        if block in records:
            raise DuplicateBlock(block, name)
        used = parse_cell(_bool, row["used_bid_adjustment"], i, "used_bid_adjustment", name)
        delta = parse_cell(float, row["adjustment_delta_eth"], i, "adjustment_delta_eth", name)
        bid = parse_cell(float, row["bid_eth"], i, "bid_eth", name)
        if bid < 0:
            raise MalformedRow(i, "bid_eth must be >= 0", name)
        if delta < 0:
            raise MalformedRow(i, "adjustment_delta_eth must be >= 0", name)
        if not used and delta != 0:
            raise MalformedRow(i, "adjustment_delta_eth > 0 without used_bid_adjustment", name)
        records[block] = BlockRecord(
            block_number=block,
            builder_label=row["builder_label"].strip(),
            coinbase_delta_eth=parse_cell(
                float, row["coinbase_delta_eth"], i, "coinbase_delta_eth", name),
            bid_eth=bid,
            used_bid_adjustment=used,
            adjustment_delta_eth=delta,
            slot_time_ms=parse_cell(int, row["slot_time_ms"], i, "slot_time_ms", name),
        )
    return records


def load_searchers(path: str | Path) -> SearcherLabelFile:
    """searchers.json: {"labels": {label: [address, ...]}, "integrated_with":
    {label: builder}}, either key optional; any other shape is refused."""
    with open(path) as f:
        raw = json.load(f)
    name = Path(path).name
    if not isinstance(raw, dict):
        raise InvalidConfig(f"{name} must be a JSON object")
    labels, integrated = raw.get("labels") or {}, raw.get("integrated_with") or {}
    for key, section in (("labels", labels), ("integrated_with", integrated)):
        if not isinstance(section, dict):
            raise InvalidConfig(f"{key!r} in {name} must be an object keyed by searcher label")
    for label, addrs in labels.items():
        if not isinstance(addrs, list) or not all(isinstance(a, str) for a in addrs):
            raise InvalidConfig(f"'labels' of {label!r} in {name} must be a list of "
                                f"address strings, not {json.dumps(addrs)}")
    for label, builder in integrated.items():
        if not isinstance(builder, str):
            raise InvalidConfig(f"'integrated_with' of {label!r} in {name} must be one "
                                f"builder label, not {json.dumps(builder)}")
    labels = {label: [a.lower() for a in addrs] for label, addrs in labels.items()}
    for label in integrated:
        if label not in labels:
            raise InvalidConfig(f"integrated_with references unknown label {label!r}")
    out = SearcherLabelFile(labels=labels, integrated_with=integrated)
    out.address_to_label()  # raises on address under two labels
    return out
