"""Domain types and file ingestion.

The four tabular inputs are CSV with a header row, read by ``read_csv``
(``quotes.csv`` and ``transactions.csv`` by numpy's C tokenizer, to the same
cells, and checked a column at a time); an error names the file and the
1-based data row, blank lines not counted. A number that is not finite is
a cell that does not parse. Searchers are JSON.
Token amounts are kept as written and read as Decimal where they are
netted or handed on, so that ERC-20 integer amounts beyond 2^64 survive the
round trip; everything price-like stays float downstream.
"""

from __future__ import annotations

import csv
import decimal
import json
import math
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

# Multi-hop routing can leave sub-dust residue on intermediate tokens;
# anything at or below this is treated as zero.
DUST_THRESHOLD = Decimal("1e-12")

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


def parse_amount(raw: str) -> Decimal:
    """A token amount, finite, to AMOUNT_CONTEXT's 50 digits."""
    d = AMOUNT_CONTEXT.create_decimal(raw.strip())
    if not d.is_finite():
        raise ValueError(raw)
    return d


def _finite_float(raw: str) -> float:
    v = float(raw)
    if not math.isfinite(v):
        raise ValueError(raw)
    return v


def _raise_first(checks) -> None:
    """Raise for the first row that fails one of ``checks``, (mask, error(row,
    index)) pairs over the rows, with the first check it fails."""
    failing = [(int(np.argmax(mask)), i) for i, (mask, _) in enumerate(checks) if mask.any()]
    if failing:
        k, i = min(failing)
        raise checks[i][1](k + 1, k)


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
_TX_INTS = ["block_number", "slot_time_ms", "log_index", "erc721_transfer_count"]
_TX_FLOATS = ["base_fee_eth", "priority_fee_eth", "coinbase_transfer_eth", "volume_usd"]
_TX_AMOUNTS = ["amount_in", "amount_out"]
# read as text: pool_id and dex are neither checked nor kept
_TX_TEXT = ["tx_hash", "searcher_contract", "token_in", "token_out", "builder_label",
            *_TX_AMOUNTS, "first_in_direction", *_TX_FLAGS]
_TX_VALUES = np.dtype([(c, np.int64) for c in _TX_INTS]
                      + [(c, np.float64) for c in _TX_FLOATS + _TX_AMOUNTS])
# the fields every row of one transaction repeats
_TX_LEVEL = ["block_number", "slot_time_ms", "searcher_contract", "erc721_transfer_count",
             "builder_label", *_TX_FLOATS, *_TX_FLAGS]


@dataclass(frozen=True)
class TransactionTable:
    """transactions.csv as columns. Transactions are in (block_number,
    tx_hash) order; swaps are one row each, a transaction's swaps contiguous
    and in log_index order from ``starts[j]``. Text is StringDType, stripped,
    and lowercase for addresses; amounts are the cells as written."""
    starts: np.ndarray
    # one entry per transaction
    tx_hash: np.ndarray
    block_number: np.ndarray
    slot_time_ms: np.ndarray
    searcher_contract: np.ndarray
    builder_label: np.ndarray
    erc721_transfer_count: np.ndarray
    base_fee_eth: np.ndarray
    priority_fee_eth: np.ndarray
    coinbase_transfer_eth: np.ndarray
    volume_usd: np.ndarray
    seen_in_mempool: np.ndarray
    atomic_mev_flag: np.ndarray
    liquidation_flag: np.ndarray
    ofa_backrun_flag: np.ndarray
    router_or_bot_flag: np.ndarray
    # one entry per swap
    token_in: np.ndarray
    token_out: np.ndarray
    amount_in: np.ndarray
    amount_out: np.ndarray
    # amount <= DUST_THRESHOLD, decided in the pass that checks amount > 0
    in_is_dust: np.ndarray
    out_is_dust: np.ndarray
    first_in_direction: np.ndarray

    def __len__(self) -> int:
        return len(self.starts)


def _column_index(header: list[str]) -> dict[str, int]:
    """Each column's index; a name the header repeats is its last column, as
    for the dict per row that tokens.csv and blocks.csv are read into."""
    return {name: i for i, name in enumerate(header)}


def _flag_column(text: np.ndarray) -> np.ndarray:
    """_bool of every cell; raises ValueError for a cell that is neither true
    nor false. Only cells other than "true" and "false" are read one by one."""
    is_true = text == "true"
    other = np.flatnonzero(~is_true & (text != "false"))
    is_true[other] = [_bool(v) for v in text[other].tolist()]
    return is_true


def _tokenize_transactions(path: Path) -> tuple[dict, dict] | None:
    """As _parse_transactions_by_cell, read by numpy's C tokenizer with no
    Python object per cell; None for a file it might read otherwise than
    csv, int(), float() and Decimal do, and for one with a short row or a
    cell that does not parse."""
    plain, quoted = _scan_bytes(path)
    if not plain:
        return None
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = _read_header(reader, path, TRANSACTION_COLUMNS)
    column = _column_index(header)
    text_cols = [column[c] for c in _TX_TEXT]
    last = len(header) - 1  # read, so that a row shorter than the header fails
    csv_format = dict(delimiter=",", quotechar='"', comments=None, skiprows=reader.line_num)
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            text = np.loadtxt(path, dtype=np.dtypes.StringDType(), ndmin=2, **csv_format,
                              usecols=text_cols + ([] if last in text_cols else [last]))
            # numpy parses floats as float() does, less its "1_0", which
            # Decimal refuses too: an amount it reads is a Decimal
            values = np.loadtxt(path, dtype=_TX_VALUES, ndmin=1, **csv_format,
                                usecols=[column[c] for c in _TX_VALUES.names])
        # numpy reads with universal newlines, which turn a quoted "\r" into "\n"
        if quoted and (np.strings.find(text, "\n") >= 0).any():
            return None
        text = dict(zip(_TX_TEXT, text.T))
        cells = {c: _flag_column(text[c]) for c in ["first_in_direction", *_TX_FLAGS]}
    except (ValueError, ArithmeticError):
        return None
    # a non-finite number is refused, by the cell pass, which names it
    if not all(np.isfinite(values[c]).all() for c in _TX_FLOATS + _TX_AMOUNTS):
        return None
    cells |= {c: values[c] for c in _TX_INTS + _TX_FLOATS}
    cells |= {c: np.strings.strip(text[c]) for c in ("tx_hash", "builder_label")}
    cells |= {c: np.strings.lower(np.strings.strip(text[c]))
              for c in ("searcher_contract", "token_in", "token_out")}
    # copies, so that the file's other text is freed; a float above 1e-11 is
    # that of a Decimal above DUST_THRESHOLD
    cells |= {c: text[c].copy() for c in _TX_AMOUNTS}
    return cells, _check_amounts(cells, {c: ~(values[c] > 1e-11) for c in _TX_AMOUNTS}, path.name)


def _parse_transactions_by_cell(path: Path) -> tuple[dict, dict]:
    """(columns by name, the checks that cells parse, by column name), by
    csv, int(), float() and _bool: one Python object per cell, but every
    short row and bad cell is masked, for ``load_transactions`` to name the
    first. A rejected cell is left 0."""
    header, rows = read_csv(path, TRANSACTION_COLUMNS)
    name = path.name
    short = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows)) < len(header)
    if short.any():
        rows = [r + [""] * (len(header) - len(r)) for r in rows]
    column = _column_index(header)
    raw = {c: [r[column[c]] for r in rows] for c in _TX_TEXT + _TX_INTS + _TX_FLOATS}
    cells = {}
    parsed = {"short": (short, lambda i, k: MalformedRow(i, "fewer fields than the header", name))}
    for parse, dtype, cols in ((int, np.int64, _TX_INTS), (_finite_float, np.float64, _TX_FLOATS),
                               (_bool, bool, ["first_in_direction", *_TX_FLAGS])):
        for c in cols:
            cells[c], bad = _parse_column(raw[c], parse, dtype)
            parsed[c] = (bad, lambda i, k, c=c: _bad_value(raw[c][k], i, c, name))
    strings = {"tx_hash": str.strip, "builder_label": str.strip,
               **dict.fromkeys(_TX_AMOUNTS, str),
               **dict.fromkeys(["searcher_contract", "token_in", "token_out"],
                               lambda v: v.strip().lower())}
    for c, clean in strings.items():
        cells[c] = np.array(list(map(clean, raw[c])), dtype=np.dtypes.StringDType())
    return cells, parsed | _check_amounts(cells, {c: np.ones(len(rows), dtype=bool)
                                                  for c in _TX_AMOUNTS}, name)


def _check_amounts(cells: dict, near: dict, name: str) -> dict:
    """Add to ``cells`` the masks of the amounts not > 0 and at most
    DUST_THRESHOLD, as ``amount_in_not_positive``, ``amount_in_dust``, ...;
    return the checks that they parse, by column. Only the cells in
    ``near[column]`` are read as Decimal; the others are known to be above
    DUST_THRESHOLD."""
    parsed = {}
    for col in _TX_AMOUNTS:
        amounts = cells[col]
        bad, not_positive, dust = (np.zeros(len(amounts), dtype=bool) for _ in range(3))
        for k, raw in zip(np.flatnonzero(near[col]).tolist(), amounts[near[col]].tolist()):
            try:
                d = parse_amount(raw)
            except (ValueError, ArithmeticError):
                bad[k] = True
            else:
                not_positive[k], dust[k] = d <= 0, d <= DUST_THRESHOLD
        cells[f"{col}_not_positive"], cells[f"{col}_dust"] = not_positive, dust
        parsed[col] = (bad, lambda i, k, col=col: _bad_value(str(cells[col][k]), i, col, name))
    return parsed


def load_transactions(path: str | Path) -> TransactionTable:
    """transactions.csv, one row per swap, as a TransactionTable.

    numpy's C tokenizer reads the file; one it cannot read is read again
    cell by cell. Raises for the first row that fails a check, with the
    first check it fails in the order listed below; then for the slot times
    of the blocks.
    """
    path = Path(path)
    name = path.name
    c, parsed = _tokenize_transactions(path) or _parse_transactions_by_cell(path)
    hashes, first, code = np.unique(c["tx_hash"], return_index=True, return_inverse=True)
    head = first[code]  # the first row of each row's transaction
    differs = np.zeros(len(code), dtype=bool)
    for col in _TX_LEVEL:
        differs |= c[col] != c[col][head]
    log_index = c["log_index"]
    # by transaction and log_index, rows in file order within a key (lexsort
    # is stable): a row with the key of the one before it is a duplicate
    order = np.lexsort((log_index, code))
    dup = np.zeros(len(code), dtype=bool)
    dup[order[1:]] = (np.diff(code[order]) == 0) & (np.diff(log_index[order]) == 0)

    def fails(reason):
        return lambda i, k: MalformedRow(i, reason, name)

    # a rejected cell is left 0, which can only fail checks listed after its own
    checks = [parsed.get("short"), parsed["amount_in"], parsed["amount_out"],
              (c["amount_in_not_positive"], fails("amount_in must be > 0")),
              (c["amount_out_not_positive"], fails("amount_out must be > 0")),
              (c["token_in"] == c["token_out"], fails("token_in == token_out")),
              parsed.get("log_index"), parsed.get("first_in_direction"),
              parsed.get("erc721_transfer_count"),
              (c["erc721_transfer_count"] < 0, fails("erc721_transfer_count must be >= 0"))]
    for col in _TX_FLOATS:
        checks += [parsed.get(col), (c[col] < 0, fails(f"{col} must be >= 0"))]
    checks += [parsed.get(col) for col in ["block_number", "slot_time_ms", *_TX_FLAGS]]
    checks += [
        (c["tx_hash"] == "", fails("empty tx_hash")),
        (differs, fails("transaction-level fields differ across rows of one tx")),
        (dup, lambda i, k: MalformedRow(i, f"duplicate log_index {log_index[k]}", name)),
    ]
    _raise_first([check for check in checks if check is not None])

    # transactions by block, then tx_hash (np.unique sorted them); swaps by log_index
    tx_order = np.argsort(c["block_number"][first], kind="stable")
    rank = np.empty(len(hashes), dtype=np.int64)
    rank[tx_order] = np.arange(len(hashes))
    swaps = np.lexsort((log_index, rank[code]))
    heads = first[tx_order]
    blocks, slots = c["block_number"][heads], c["slot_time_ms"][heads]
    new_block = np.ones(len(blocks), dtype=bool)
    new_block[1:] = blocks[1:] != blocks[:-1]
    block_starts = np.flatnonzero(new_block)
    two_times = slots != slots[block_starts][np.cumsum(new_block) - 1]
    if two_times.any():
        block = blocks[np.argmax(two_times)]
        raise NonMonotonicSlotTime(f"block {block} has two slot times in {name}")
    b, t = blocks[block_starts], slots[block_starts]
    down = t[1:] <= t[:-1]
    if down.any():
        k = int(np.argmax(down))
        raise NonMonotonicSlotTime(
            f"slot time not increasing from block {b[k]} to {b[k + 1]} in {name}")

    counts = np.bincount(code, minlength=len(hashes))[tx_order]
    return TransactionTable(
        starts=np.cumsum(counts) - counts,
        **{col: c[col][heads] for col in ["tx_hash", *_TX_LEVEL]},
        token_in=c["token_in"][swaps], token_out=c["token_out"][swaps],
        amount_in=c["amount_in"][swaps], amount_out=c["amount_out"][swaps],
        in_is_dust=c["amount_in_dust"][swaps], out_is_dust=c["amount_out_dust"][swaps],
        first_in_direction=c["first_in_direction"][swaps],
    )


QUOTE_COLUMNS = ["symbol", "ts_ms", "bid", "ask"]

QuoteArrays = tuple[np.ndarray, np.ndarray, np.ndarray]  # ts_ms, bid, ask

_QUOTE_VALUES = np.dtype([("ts_ms", np.int64), ("bid", np.float64), ("ask", np.float64)])
# ASCII bytes that numpy's tokenizer reads otherwise than csv, int() and
# float(): numpy skips the separators \x1c-\x1f as blanks around a number,
# and csv refuses NUL.
_NOT_PLAIN = (b"\0", b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _scan_bytes(path: Path) -> tuple[bool, bool]:
    """(whether ``path`` is ASCII without the bytes in _NOT_PLAIN, whether it
    holds a '"'). numpy's int parser misreads some non-ASCII digits: the
    Devanagari two is 2360, where int() says 2."""
    plain, quoted = True, False
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            plain = plain and chunk.isascii() and not any(b in chunk for b in _NOT_PLAIN)
            quoted = quoted or b'"' in chunk
    return plain, quoted


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
    if not _scan_bytes(path)[0]:
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
    # a non-finite price is refused, by the cell pass, which names it
    if not (np.isfinite(values["bid"]).all() and np.isfinite(values["ask"]).all()):
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
    bid, bad_bid = _parse_column(bid_raw, _finite_float, np.float64)
    ask, bad_ask = _parse_column(ask_raw, _finite_float, np.float64)
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
    _raise_first(checks)
    del dup, checks  # their memory goes to the sorted columns
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
        delta = parse_cell(_finite_float, row["adjustment_delta_eth"], i,
                           "adjustment_delta_eth", name)
        bid = parse_cell(_finite_float, row["bid_eth"], i, "bid_eth", name)
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
                _finite_float, row["coinbase_delta_eth"], i, "coinbase_delta_eth", name),
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
