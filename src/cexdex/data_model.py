"""Domain types and file ingestion.

Every CSV, the four tabular inputs and the stage outputs alike, is read by
one reader, ``_read_columns``, to which a caller names its columns by kind
(text, int64, float, flag, amount, ...): numpy's C tokenizer reads a file,
and one it cannot read as csv, int(), float() and Decimal do is read again
cell by cell. An input's loader checks the columns it gets back; an error
names the file, the first failing 1-based data row, blank lines not
counted, and that row's first failing check. In an input, a number that is
not finite, or an integer past int64, is a cell that does not parse.
Searchers are JSON.
Token amounts are kept as written and read as Decimal where they are
netted or handed on, so that ERC-20 integer amounts beyond 2^64 survive the
round trip; everything price-like stays float downstream.
"""

from __future__ import annotations

import csv
import dataclasses
import decimal
import json
import math
import warnings
from dataclasses import dataclass, field
from decimal import Decimal
from pathlib import Path

import numpy as np

from .config import read_json
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


# ---------------------------------------------------------------------------
# tables: a file's rows held as one array per column

def strings(values) -> np.ndarray:
    """``values`` as a StringDType array, each as str() gives it."""
    return np.asarray(values, dtype=np.dtypes.StringDType())


def optional(values: np.ndarray, defined: np.ndarray) -> list:
    """A float | None column: each of ``values`` where ``defined``, else None."""
    return [v if d else None for v, d in zip(values.tolist(), defined.tolist())]


# the column of each field annotation
_COLUMN = {
    "str": strings, "Decimal": strings,  # an amount is held as the text str() gives it
    "int": lambda v: np.asarray(v, dtype=np.int64),
    "float": lambda v: np.asarray(v, dtype=np.float64),
    "bool": lambda v: np.asarray(v, dtype=bool),
    "float | None": list,
}


class Table:
    """Rows of the dataclass ``row`` held as columns, each the attribute named
    after its field: a numpy array for a field annotated str or Decimal
    (StringDType; a Decimal as the text str() gives it), int (int64), float
    (float64) or bool, and a list of floats and None for float | None. The
    row dataclass still declares its file's header and each cell's kind."""

    def __init__(self, row: type, columns):
        """``columns``: one sequence of cells per field of ``row``, in field order."""
        fields, columns = dataclasses.fields(row), list(columns)
        if len(columns) != len(fields) or len({len(c) for c in columns}) > 1:
            raise ValueError(f"{row.__name__}: {len(columns)} columns of "
                             f"{sorted({len(c) for c in columns})} rows for {len(fields)} fields")
        self.row = row
        for f, column in zip(fields, columns):
            if f.type not in _COLUMN or hasattr(Table, f.name):
                raise TypeError(f"{row.__name__}: no column for the field {f.name}: {f.type}")
            setattr(self, f.name, _COLUMN[f.type](column))

    @classmethod
    def of_rows(cls, row: type, rows: list) -> Table:
        """The table of ``rows``, instances of ``row``."""
        return cls(row, [[getattr(r, f.name) for r in rows] for f in dataclasses.fields(row)])

    @property
    def columns(self) -> list:
        """The columns in field order."""
        return [getattr(self, f.name) for f in dataclasses.fields(self.row)]

    def __len__(self) -> int:
        return len(getattr(self, dataclasses.fields(self.row)[0].name))

    def select(self, mask: np.ndarray) -> Table:
        """The rows where ``mask`` is true, in order. (A mask, not indices:
        numpy copies StringDType cells by a mask several times faster.)"""
        out = object.__new__(Table)
        out.row = self.row
        for f in dataclasses.fields(self.row):
            c = getattr(self, f.name)
            setattr(out, f.name, c[mask] if isinstance(c, np.ndarray) else
                    [v for v, keep in zip(c, mask.tolist()) if keep])
        return out

    def rows(self) -> list:
        """The rows as instances of ``row``, of Python values (a Decimal field's text)."""
        return [self.row(*r) for r in zip(*(c.tolist() if isinstance(c, np.ndarray) else c
                                            for c in self.columns))]


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


def _bad_value(raw: str, row_index: int, col: str, file: str = "") -> MalformedRow:
    return MalformedRow(row_index, f"bad value {raw!r} in {col}", file)


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


def _fails(reason: str, file: str):
    """The error of a row that fails a value check, as _raise_first makes it."""
    return lambda i, k: MalformedRow(i, reason, file)


def _raise_first(checks) -> None:
    """Raise for the first row that fails one of ``checks``, (mask, error(row,
    index)) pairs over the rows or None, with the first check it fails."""
    failing = [(int(np.argmax(check[0])), i) for i, check in enumerate(checks)
               if check is not None and check[0].any()]
    if failing:
        k, i = min(failing)
        raise checks[i][1](k + 1, k)


# ---------------------------------------------------------------------------
# the reader: a caller names its columns by kind, {column: kind}

TEXT = "text"  # stripped
OPTIONAL = "optional text"  # stripped; left out of the columns when the header lacks it
STR = "str"  # as written
AMOUNT = "amount"  # as written, and read as a Decimal by _check_amounts
INT = "int64"
FLOAT = "finite float"
ANY_FLOAT = "float"  # nan and ±inf too
FLOAT_OR_NONE = "float or None"  # any float; an empty cell is None
FLAG = "flag"  # as _bool reads it
# a column of kind None must be in the header, but is neither read nor checked

# each kind's parse of a cell, and the dtype of its column, in the cell pass
_CELL_PARSE = {
    TEXT: (str.strip, np.dtypes.StringDType), OPTIONAL: (str.strip, np.dtypes.StringDType),
    STR: (str, np.dtypes.StringDType), AMOUNT: (str, np.dtypes.StringDType),
    INT: (int, np.int64), FLOAT: (_finite_float, np.float64), ANY_FLOAT: (float, np.float64),
    FLOAT_OR_NONE: (lambda raw: float(raw) if raw else None, object), FLAG: (_bool, bool),
}

# ASCII bytes that numpy reads otherwise than csv, int(), float() and
# str.strip: numpy skips the separators \x1c-\x1f as blanks around a number,
# and np.strings.strip takes a trailing NUL for a blank.
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


def _column_index(header: list[str]) -> dict[str, int]:
    """Each column's index; a name the header repeats is its last column."""
    return {name: i for i, name in enumerate(header)}


def _flag_column(text: np.ndarray) -> np.ndarray:
    """_bool of every cell; raises ValueError for a cell that is neither true
    nor false. Only cells other than "true" and "false" are read one by one."""
    is_true = text == "true"
    other = np.flatnonzero(~is_true & (text != "false"))
    is_true[other] = [_bool(v) for v in text[other].tolist()]
    return is_true


def _float_or_none_column(text: np.ndarray) -> list:
    """float() of every cell, and None for an empty one; raises ValueError
    for a cell float() refuses. numpy's cast from text reads as float() does."""
    defined = text != ""
    values = np.zeros(len(text))
    values[defined] = text[defined].astype(np.float64)
    return optional(values, defined)


# each text kind's column from the tokenizer's text, a new array (or list)
# all, so that the file's text can be freed before its numbers are read
_FROM_TEXT = {TEXT: np.strings.strip, OPTIONAL: np.strings.strip, STR: np.copy, AMOUNT: np.copy,
              FLAG: _flag_column, FLOAT_OR_NONE: _float_or_none_column}
_NUMBERS = {INT: np.int64, FLOAT: np.float64, ANY_FLOAT: np.float64, AMOUNT: np.float64}


def _tokenize_columns(path: Path, kinds: dict) -> tuple[dict, dict] | None:
    """As _parse_columns_by_cell, read by numpy's C tokenizer with no Python
    object per cell; None for a file it might read otherwise than csv and
    the kinds' parses do, and for one with a short row or a cell that does
    not parse."""
    plain, quoted = _scan_bytes(path)
    if not plain:
        return None
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = _read_header(reader, path, [c for c, kind in kinds.items() if kind != OPTIONAL])
    column = _column_index(header)
    kinds = {c: kind for c, kind in kinds.items() if kind and c in column}
    texts = [c for c, kind in kinds.items() if kind in _FROM_TEXT]
    numbers = [c for c, kind in kinds.items() if kind in _NUMBERS]
    text_cols, number_cols = [column[c] for c in texts], [column[c] for c in numbers]
    last = len(header) - 1  # read, so that a row shorter than the header fails
    if last not in text_cols + number_cols:
        text_cols.append(last)
    csv_format = dict(delimiter=",", quotechar='"', comments=None, skiprows=reader.line_num)
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            # A fresh StringDType each call: numpy 2.4 can raise SystemError
            # when one instance is reused after a failed loadtxt.
            text = np.loadtxt(path, dtype=np.dtypes.StringDType(), ndmin=2, usecols=text_cols,
                              **csv_format)
            # numpy reads with universal newlines, which turn a quoted "\r" into "\n"
            if quoted and (np.strings.find(text, "\n") >= 0).any():
                return None
            cells = {c: _FROM_TEXT[kinds[c]](t) for c, t in zip(texts, text.T)}
            del text
            # numpy parses floats as float() does, less its "1_0", which
            # Decimal refuses too: an amount it reads is a Decimal
            values = np.loadtxt(path, ndmin=1, usecols=number_cols, **csv_format,
                                dtype=[(c, _NUMBERS[kinds[c]]) for c in numbers]) if numbers else {}
    except (ValueError, ArithmeticError):
        return None
    # a non-finite number where one is refused is refused by the cell pass, which names it
    if not all(np.isfinite(values[c]).all() for c in numbers if kinds[c] in (FLOAT, AMOUNT)):
        return None
    cells |= {c: values[c] for c in numbers if kinds[c] != AMOUNT}
    # a float above 1e-11 is that of a Decimal above DUST_THRESHOLD
    near = {c: ~(values[c] > 1e-11) for c in numbers if kinds[c] == AMOUNT}
    return cells, _check_amounts(cells, near, path.name)


def _parse_columns_by_cell(path: Path, kinds: dict) -> tuple[dict, dict]:
    """(columns by name, the checks that cells parse by column name, with
    "short" for the rows shorter than the header), by csv and each kind's
    parse: one Python object per cell, but every short row and bad cell is
    masked, for the loader to name the first. A rejected cell is left 0."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = _read_header(reader, path, [c for c, kind in kinds.items() if kind != OPTIONAL])
        rows = [r for r in reader if r]  # list index k is data row k + 1
    name = path.name
    short = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows)) < len(header)
    if short.any():
        rows = [r + [""] * (len(header) - len(r)) for r in rows]
    column = _column_index(header)
    cells, parsed = {}, {"short": (short, _fails("fewer fields than the header", name))}
    for c, kind in kinds.items():
        if kind and c in column:
            raw = [r[column[c]] for r in rows]
            cells[c], bad = _parse_column(raw, *_CELL_PARSE[kind])
            if bad.any():
                parsed[c] = (bad, lambda i, k, c=c, raw=raw: _bad_value(raw[k], i, c, name))
    near = {c: np.ones(len(rows), dtype=bool) for c, kind in kinds.items() if kind == AMOUNT}
    return cells, parsed | _check_amounts(cells, near, name)


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


def _check_amounts(cells: dict, near: dict, name: str) -> dict:
    """Add to ``cells`` the masks of the amounts not > 0 and at most
    DUST_THRESHOLD, as ``amount_in_not_positive``, ``amount_in_dust``, ...,
    for each amount column in ``near``; return the checks that they parse,
    by column. Only the cells in ``near[column]`` are read as Decimal; the
    others are known to be above DUST_THRESHOLD."""
    parsed = {}
    for col, rows in near.items():
        bad, not_positive, dust = (np.zeros(len(rows), dtype=bool) for _ in range(3))
        amounts, bad[rows] = _parse_column(cells[col][rows].tolist(), parse_amount, object)
        not_positive[rows], dust[rows] = amounts <= 0, amounts <= DUST_THRESHOLD
        cells[f"{col}_not_positive"], cells[f"{col}_dust"] = not_positive, dust
        parsed[col] = (bad, lambda i, k, col=col: _bad_value(str(cells[col][k]), i, col, name))
    return parsed


def _read_columns(path: str | Path, kinds: dict) -> tuple[dict, dict]:
    """The columns of the CSV file at ``path`` that ``kinds`` names, by name,
    and the checks that their cells parse, (mask over the rows, error) by
    column name, with "short" for the rows with fewer fields than the header.

    numpy's C tokenizer reads the file; one it cannot read is read again
    cell by cell, which masks every short row and bad cell. A name the
    header repeats is its last column; cells past the header are ignored,
    and so are blank lines. Raises MissingColumn for a column not in the
    header, unless it is OPTIONAL.
    """
    path = Path(path)
    return _tokenize_columns(path, kinds) or _parse_columns_by_cell(path, kinds)


# ---------------------------------------------------------------------------
# loaders

TOKEN_KINDS = {"address": TEXT, "symbol": TEXT, "cex_listed": FLAG, "is_major": FLAG,
               "decimals": INT, "quote_symbol": OPTIONAL}


def load_tokens(path: str | Path) -> TokenRegistry:
    """tokens.csv as a TokenRegistry. Raises for the first row that fails a
    check, with the first check it fails in the order listed below."""
    name = Path(path).name
    c, parsed = _read_columns(path, TOKEN_KINDS)
    address = np.strings.lower(c["address"])
    dup = np.ones(len(address), dtype=bool)
    dup[np.unique(address, return_index=True)[1]] = False
    _raise_first([
        parsed.get("short"), (address == "", _fails("empty address", name)),
        (dup, lambda i, k: MalformedRow(i, f"duplicate token address {address[k]}", name)),
        parsed.get("decimals"),  # checked, not kept
        parsed.get("cex_listed"), parsed.get("is_major"),
        (c["is_major"] & ~c["cex_listed"], _fails("is_major requires cex_listed", name)),
    ])
    symbol = c["symbol"].tolist()
    quote = c.get("quote_symbol", "")  # if empty, the symbol's alias or the symbol
    aliased = np.array(list(map(QUOTE_SYMBOL_ALIASES.get, symbol, symbol)),
                       dtype=np.dtypes.StringDType())
    quote = np.where(quote == "", aliased, quote)
    return TokenRegistry(dict(zip(address.tolist(), map(
        TokenInfo, symbol, c["cex_listed"].tolist(), c["is_major"].tolist(), quote.tolist()))))


_TX_FLAGS = [
    "seen_in_mempool", "atomic_mev_flag", "liquidation_flag",
    "ofa_backrun_flag", "router_or_bot_flag",
]
_TX_FLOATS = ["base_fee_eth", "priority_fee_eth", "coinbase_transfer_eth", "volume_usd"]
TRANSACTION_KINDS = {
    "tx_hash": TEXT, "block_number": INT, "slot_time_ms": INT, "searcher_contract": TEXT,
    "pool_id": None, "dex": None,  # neither checked nor kept
    "token_in": TEXT, "amount_in": AMOUNT, "token_out": TEXT, "amount_out": AMOUNT,
    "log_index": INT, "first_in_direction": FLAG, **dict.fromkeys(_TX_FLAGS, FLAG),
    "erc721_transfer_count": INT, "base_fee_eth": FLOAT, "priority_fee_eth": FLOAT,
    "coinbase_transfer_eth": FLOAT, "builder_label": TEXT, "volume_usd": FLOAT,
}
TRANSACTION_COLUMNS = list(TRANSACTION_KINDS)
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


def load_transactions(path: str | Path) -> TransactionTable:
    """transactions.csv, one row per swap, as a TransactionTable.

    Raises for the first row that fails a check, with the first check it
    fails in the order listed below; then for the slot times of the blocks.
    """
    name = Path(path).name
    c, parsed = _read_columns(path, TRANSACTION_KINDS)
    for col in ("searcher_contract", "token_in", "token_out"):
        c[col] = np.strings.lower(c[col])
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

    # a rejected cell is left 0, which can only fail checks listed after its own
    checks = [parsed.get("short"), parsed["amount_in"], parsed["amount_out"],
              (c["amount_in_not_positive"], _fails("amount_in must be > 0", name)),
              (c["amount_out_not_positive"], _fails("amount_out must be > 0", name)),
              (c["token_in"] == c["token_out"], _fails("token_in == token_out", name)),
              parsed.get("log_index"), parsed.get("first_in_direction"),
              parsed.get("erc721_transfer_count"),
              (c["erc721_transfer_count"] < 0, _fails("erc721_transfer_count must be >= 0", name))]
    for col in _TX_FLOATS:
        checks += [parsed.get(col), (c[col] < 0, _fails(f"{col} must be >= 0", name))]
    checks += [parsed.get(col) for col in ["block_number", "slot_time_ms", *_TX_FLAGS]]
    checks += [
        (c["tx_hash"] == "", _fails("empty tx_hash", name)),
        (differs, _fails("transaction-level fields differ across rows of one tx", name)),
        (dup, lambda i, k: MalformedRow(i, f"duplicate log_index {log_index[k]}", name)),
    ]
    _raise_first(checks)

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


QUOTE_KINDS = {"symbol": TEXT, "ts_ms": INT, "bid": FLOAT, "ask": FLOAT}

QuoteArrays = tuple[np.ndarray, np.ndarray, np.ndarray]  # ts_ms, bid, ask


def _symbol_codes(symbols: np.ndarray) -> tuple[list[str], np.ndarray]:
    """(the symbols in first-seen order, each row's index into that list),
    with one dict lookup per run of equal symbols."""
    new_run = np.ones(len(symbols), dtype=bool)
    new_run[1:] = symbols[1:] != symbols[:-1]
    starts = np.flatnonzero(new_run)
    codes: dict[str, int] = {}
    run_codes = [codes.setdefault(s, len(codes)) for s in symbols[starts].tolist()]
    run_lengths = np.diff(starts, append=len(symbols))
    return list(codes), np.repeat(np.array(run_codes, dtype=np.int64), run_lengths)


def load_quotes(path: str | Path) -> dict[str, QuoteArrays]:
    """Per-symbol (ts_ms, bid, ask) arrays sorted by timestamp ascending.

    Raises for the first row that fails a check, with the first check it
    fails in the order listed below.
    """
    name = Path(path).name
    c, parsed = _read_columns(path, QUOTE_KINDS)
    names, code = _symbol_codes(c.pop("symbol"))
    ts, bid, ask = c["ts_ms"], c["bid"], c["ask"]
    # by symbol and time, rows in file order within a key (lexsort is stable):
    # a row with the key of the one before it is a duplicate
    order = np.lexsort((ts, code))
    code_sorted, ts_sorted = code[order], ts[order]
    dup = np.zeros(len(ts), dtype=bool)
    dup[order[1:]] = (np.diff(code_sorted) == 0) & (np.diff(ts_sorted) == 0)
    # a rejected entry is left 0, which can only fail checks listed after its own
    checks = [parsed.get(col) for col in ("short", "ts_ms", "bid", "ask")] + [
        (bid <= 0, _fails("bid must be > 0", name)),
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


BLOCK_KINDS = {"block_number": INT, "builder_label": TEXT, "coinbase_delta_eth": FLOAT,
               "bid_eth": FLOAT, "used_bid_adjustment": FLAG, "adjustment_delta_eth": FLOAT,
               "slot_time_ms": INT}  # BlockRecord's fields, in order


def load_block_records(path: str | Path) -> Table:
    """blocks.csv as a Table of BlockRecord, in block number order. Raises for
    the first row that fails a check, with the first check it fails in the
    order listed below."""
    name = Path(path).name
    c, parsed = _read_columns(path, BLOCK_KINDS)
    block, bid, delta = c["block_number"], c["bid_eth"], c["adjustment_delta_eth"]
    dup = np.ones(len(block), dtype=bool)
    dup[np.unique(block, return_index=True)[1]] = False
    _raise_first([
        parsed.get("short"), parsed.get("block_number"),
        (dup, lambda i, k: DuplicateBlock(int(block[k]), name)),
        parsed.get("used_bid_adjustment"), parsed.get("adjustment_delta_eth"),
        parsed.get("bid_eth"), (bid < 0, _fails("bid_eth must be >= 0", name)),
        (delta < 0, _fails("adjustment_delta_eth must be >= 0", name)),
        (~c["used_bid_adjustment"] & (delta != 0),
         _fails("adjustment_delta_eth > 0 without used_bid_adjustment", name)),
        parsed.get("coinbase_delta_eth"), parsed.get("slot_time_ms"),
    ])
    order = np.argsort(block, kind="stable")
    return Table(BlockRecord, [c[col][order] for col in BLOCK_KINDS])


def load_searchers(path: str | Path) -> SearcherLabelFile:
    """searchers.json: {"labels": {label: [address, ...]}, "integrated_with":
    {label: builder}}, either key optional; any other shape is refused."""
    name = Path(path).name
    raw = read_json(path)
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
    # the outputs hold these as UTF-8 text, which a lone surrogate ("\ud800") cannot be
    for text in [*labels, *(a for addrs in labels.values() for a in addrs),
                 *integrated, *integrated.values()]:
        try:
            text.encode()
        except UnicodeEncodeError:
            raise InvalidConfig(f"{name} holds {text!r}, which is not UTF-8 text") from None
    labels = {label: [a.lower() for a in addrs] for label, addrs in labels.items()}
    for label in integrated:
        if label not in labels:
            raise InvalidConfig(f"integrated_with references unknown label {label!r}")
    out = SearcherLabelFile(labels=labels, integrated_with=integrated)
    out.address_to_label()  # raises on address under two labels
    return out
