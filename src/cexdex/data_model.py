"""Domain types and file ingestion.

A CSV is read by ``_read_columns``, to which a caller names its columns by
kind (text, short text, int64, float, flag, amount, ...); a stage output's
are kinds_of(row), of its row dataclass, the kinds pipeline writes it by.
numpy's C tokenizer reads a file, and one it cannot read as csv, int(),
float() and Decimal do is read again cell by cell. A short text column, such
as quotes.csv's symbols, is read beside the numbers as 16-byte fields, so
that quotes.csv takes one tokenizer pass. A loader checks the columns it
gets back; an error names the file, the first failing 1-based data row,
blank lines not counted, and that row's first failing check. In an input,
a number that is not finite, or an integer past int64, does not parse.
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
import os
import re
import warnings
import zipfile
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

# Wrapped tokens quote on Binance under the unwrapped symbol.
QUOTE_SYMBOL_ALIASES = {"WETH": "ETH", "WBTC": "BTC"}

_TRUE = {"true", "1", "t", "yes"}
_FALSE = {"false", "0", "f", "no", ""}


class TokenRegistry:
    """tokens.csv as columns, a row per token: its lowercase ``address``,
    whether it is CEX-``listed`` and ``major``, and the ``quote_symbol`` of
    its Binance USDT pair. The run's one token vocabulary."""

    _CHUNK = 1 << 16  # cells rows() holds as Python str at once, which bounds its memory

    def __init__(self, address, listed, major, quote_symbol):
        self.address = np.strings.lower(strings(address))
        self.listed, self.major = np.asarray(listed, dtype=bool), np.asarray(major, dtype=bool)
        self.quote_symbol = strings(quote_symbol)
        # a repeated address is its first row, which reversed order sets last
        self._row = {a: k for k, a in reversed(list(enumerate(self.address.tolist())))}

    def rows(self, tokens: np.ndarray) -> np.ndarray:
        """The row of each of ``tokens``, found by its lowercase address, or
        -1 for a token tokens.csv lacks: a dict lookup per cell, a bounded
        chunk of cells at a time. Never np.searchsorted, which on numpy
        2.4.6 misorders StringDType text over 15 bytes."""
        out = np.empty(len(tokens), dtype=np.int64)
        for start in range(0, len(tokens), self._CHUNK):
            chunk = tokens[start:start + self._CHUNK].tolist()
            out[start:start + len(chunk)] = [self._row.get(t.lower(), -1) for t in chunk]
        return out


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


def optional(values: np.ndarray, defined: np.ndarray) -> np.ndarray:
    """A float | None column: each of ``values`` where ``defined``, else None."""
    return np.where(defined, values, None)


class Table:
    """Rows of the dataclass ``row`` held as columns, each the attribute named
    after its field, of the dtype _CELL_PARSE gives its kind (kinds_of): text
    (StringDType; a Decimal as str() gives it), int64, float64, bool, or
    object for float | None (Python floats and None)."""

    def __init__(self, row: type, columns):
        """``columns``: one sequence of cells per field of ``row``, in field order."""
        fields, columns = dataclasses.fields(row), list(columns)
        if len(columns) != len(fields) or len({len(c) for c in columns}) > 1:
            raise ValueError(f"{row.__name__}: {len(columns)} columns of "
                             f"{sorted({len(c) for c in columns})} rows for {len(fields)} fields")
        self.row = row
        for f, kind, column in zip(fields, kinds_of(row).values(), columns):
            if hasattr(Table, f.name):
                raise TypeError(f"{row.__name__}: the field {f.name} hides Table.{f.name}")
            setattr(self, f.name, np.asarray(column, dtype=_CELL_PARSE[kind][1]))

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
            setattr(out, f.name, getattr(self, f.name)[mask])
        return out

    def rows(self) -> list:
        """The rows as instances of ``row``, of Python values (a Decimal field's text)."""
        return [self.row(*r) for r in zip(*(c.tolist() for c in self.columns))]


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
    """A token amount to AMOUNT_CONTEXT's 50 digits, whose float() is finite:
    the markout prices an amount as a float."""
    d = AMOUNT_CONTEXT.create_decimal(raw.strip())
    if not (d.is_finite() and math.isfinite(float(d))):
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
SHORT = "short text"  # stripped, at most 15 bytes: the tokenizer gives its bytes in 16, unstripped
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
    TEXT: (str.strip, np.dtypes.StringDType), SHORT: (str.strip, np.dtypes.StringDType),
    OPTIONAL: (str.strip, np.dtypes.StringDType),
    STR: (str, np.dtypes.StringDType), AMOUNT: (str, np.dtypes.StringDType),
    INT: (int, np.int64), FLOAT: (_finite_float, np.float64), ANY_FLOAT: (float, np.float64),
    FLOAT_OR_NONE: (lambda raw: float(raw) if raw else None, object), FLAG: (_bool, bool),
}

# the kind of each field annotation of a row dataclass: reads back what pipeline._write_csv wrote
_FIELD_KINDS = {"str": STR, "int": INT, "float": ANY_FLOAT, "Decimal": AMOUNT, "bool": FLAG,
                "float | None": FLOAT_OR_NONE}


def kinds_of(row: type) -> dict:
    """{column: kind} of the file of ``row``, a row dataclass: its field names
    in declaration order, less PEP 8's trailing underscore (the field
    ``class_`` is the column ``class``), each of its annotation's kind."""
    try:
        return {f.name.removesuffix("_"): _FIELD_KINDS[f.type] for f in dataclasses.fields(row)}
    except KeyError as e:
        raise TypeError(f"{row.__name__}: no CSV kind for a field annotated {e}") from None

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


def _float_or_none_column(text: np.ndarray) -> np.ndarray:
    """float() of every cell, and None for an empty one; raises ValueError
    for a cell float() refuses. numpy's cast from text reads as float() does."""
    defined = text != ""
    values = np.zeros(len(text))
    values[defined] = text[defined].astype(np.float64)
    return optional(values, defined)


# each text kind's column from the tokenizer's text, each a new array, so
# that the file's text can be freed before its numbers are read
_FROM_TEXT = {TEXT: np.strings.strip, OPTIONAL: np.strings.strip, STR: np.copy, AMOUNT: np.copy,
              FLAG: _flag_column, FLOAT_OR_NONE: _float_or_none_column}
# each other kind's field in the tokenizer's pass over numbers
_FIELDS = {INT: np.int64, FLOAT: np.float64, ANY_FLOAT: np.float64, AMOUNT: np.float64,
           SHORT: "S16"}
# a 16-byte cell as two integers, which numpy compares several times faster than its bytes
_HALVES = np.dtype([("lo", "<u8"), ("hi", "<u8")])


def _tokenize_columns(path: Path, kinds: dict) -> tuple[dict, dict] | None:
    """As _parse_columns_by_cell, read by numpy's C tokenizer with no Python
    object per cell; None for a file it might read otherwise than csv and
    the kinds' parses do, and for one with a short row or a cell that does
    not parse. Text is read in one pass, numbers and SHORT text in another;
    a SHORT cell that fills its 16 bytes, maybe cut, reads that column again
    as TEXT."""
    plain, quoted = _scan_bytes(path)
    if not plain:
        return None
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = _read_header(reader, path, [c for c, kind in kinds.items() if kind != OPTIONAL])
    column = _column_index(header)
    kinds = {c: kind for c, kind in kinds.items() if kind and c in column}
    texts = [c for c, kind in kinds.items() if kind in _FROM_TEXT]
    fields = [(c, _FIELDS[kind]) for c, kind in kinds.items() if kind in _FIELDS]
    text_cols, field_cols = [column[c] for c in texts], [column[c] for c, _ in fields]
    last = len(header) - 1  # read, so that a row shorter than the header fails
    if last not in text_cols + field_cols:
        if fields:  # under its own name, which no read column has
            fields, field_cols = [*fields, (header[last], "S1")], [*field_cols, last]
        else:
            text_cols.append(last)
    csv_format = dict(delimiter=",", quotechar='"', comments=None, skiprows=reader.line_num)
    cells, values = {}, {}
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            if text_cols:
                # A fresh StringDType each call: numpy 2.4 can raise SystemError
                # when one instance is reused after a failed loadtxt.
                text = np.loadtxt(path, dtype=np.dtypes.StringDType(), ndmin=2,
                                  usecols=text_cols, **csv_format)
                # numpy reads with universal newlines, which turn a quoted "\r" into "\n"
                if quoted and (np.strings.find(text, "\n") >= 0).any():
                    return None
                cells = {c: _FROM_TEXT[kinds[c]](t) for c, t in zip(texts, text.T)}
                del text
            # numpy parses floats as float() does, less its "1_0", which
            # Decimal refuses too: an amount it reads is a Decimal
            if field_cols:
                values = np.loadtxt(path, dtype=fields, ndmin=1, usecols=field_cols, **csv_format)
    except (ValueError, ArithmeticError):
        return None
    shorts = [c for c, kind in kinds.items() if kind == SHORT]
    # a short text's line break as a text's; a non-finite number where one is
    # refused is refused by the cell pass, which names it
    if (quoted and any((np.strings.find(values[c], b"\n") >= 0).any() for c in shorts)
            or not all(np.isfinite(values[c]).all() for c in kinds if kinds[c] in (FLOAT, AMOUNT))):
        return None
    # a cell whose 16th byte, the top one of its "hi" half, is not NUL
    if cut := [c for c in shorts if (values[c].view(_HALVES)["hi"] >= 1 << 56).any()]:
        return _tokenize_columns(path, kinds | dict.fromkeys(cut, TEXT))
    cells |= {c: values[c] for c, kind in kinds.items() if kind in _FIELDS and kind != AMOUNT}
    # a float above 1e-11 is that of a Decimal above DUST_THRESHOLD
    near = {c: ~(values[c] > 1e-11) for c, kind in kinds.items() if kind == AMOUNT}
    return cells, _check_amounts(cells, near, path.name)


def _parse_columns_by_cell(path: Path, kinds: dict) -> tuple[dict, dict]:
    """(columns by name, the checks that cells parse by column name, with
    "short" for the rows shorter than the header), by csv and each kind's
    parse: one Python object per cell, but every short row and bad cell is
    masked, for the loader to name the first. A rejected cell is left 0."""
    with open(path, newline="", encoding="utf-8") as f:
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
    header, unless it is OPTIONAL; MalformedRow at the data row (0: the
    header) of a file's first byte that is not UTF-8.
    """
    path = Path(path)
    try:  # the tokenizer reads only ASCII files
        return _tokenize_columns(path, kinds) or _parse_columns_by_cell(path, kinds)
    except UnicodeDecodeError:  # then surrogateescape reads each such byte as U+DC00 + byte
        with open(path, newline="", encoding="utf-8", errors="surrogateescape") as f:
            k, bad = next((k, m[0]) for k, row in enumerate(r for r in csv.reader(f) if r)
                          if (m := re.search("[\udc80-\udcff]", "".join(row))))
        raise MalformedRow(k, f"byte {ord(bad) - 0xdc00:#04x} is not UTF-8", path.name) from None


# ---------------------------------------------------------------------------
# copies: a file's arrays in an .npz keyed by its sha256 and layout (``kinds``)

def keep_arrays(path: Path, sha256: str, kinds: dict, arrays: dict[str, np.ndarray]) -> None:
    """Keep ``arrays`` in the .npz at ``path``, written whole before it
    replaces the file. np.save takes no StringDType or object array without
    pickle, and numpy's fixed-width text drops trailing NULs: so text is kept
    as UTF-8 and each cell's length, a float | None column as floats and a mask."""
    members = {"key": np.array(json.dumps([sha256, list(kinds.items())]))}
    for name, a in arrays.items():
        if a.dtype.kind == "T":
            cells = a.tolist()
            members[f"{name}.utf8"] = np.frombuffer("".join(cells).encode(), np.uint8)
            members[f"{name}.len"] = np.fromiter(map(len, cells), np.int64, len(cells))
        elif a.dtype == object:
            members[f"{name}.defined"] = defined = np.not_equal(a, None)
            members[f"{name}.float"] = np.where(defined, a, 0.0).astype(np.float64)
        else:
            members[name] = a
    with open(path.with_suffix(".tmp"), "wb") as f:
        np.savez(f, **members)
    os.replace(path.with_suffix(".tmp"), path)


def kept_arrays(path: Path, sha256: str, kinds: dict, names: list[str]) -> dict | None:
    """The arrays ``names`` kept in the .npz at ``path`` under this key; None
    for a file that is missing, unreadable, incomplete or of another key."""
    try:
        # opened here, so a truncated file is closed when np.load refuses it
        with open(path, "rb") as f, np.load(f, allow_pickle=False) as z:
            if z["key"].item() != json.dumps([sha256, list(kinds.items())]):
                return None
            arrays = {}
            for name in names:
                if f"{name}.utf8" in z.files:
                    text = z[f"{name}.utf8"].tobytes().decode()
                    ends = np.cumsum(z[f"{name}.len"]).tolist()
                    arrays[name] = strings([text[i:j] for i, j in zip([0, *ends], ends)])
                elif f"{name}.float" in z.files:
                    arrays[name] = optional(z[f"{name}.float"], z[f"{name}.defined"])
                else:
                    arrays[name] = z[name]
            return arrays
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile):
        return None


# ---------------------------------------------------------------------------
# loaders

TOKEN_KINDS = {"address": TEXT, "symbol": TEXT, "cex_listed": FLAG, "is_major": FLAG,
               "decimals": INT, "quote_symbol": OPTIONAL}


def load_tokens(path: str | Path) -> TokenRegistry:
    """tokens.csv as a TokenRegistry. Raises for the first row that fails a
    check, with the first check it fails in the order listed below."""
    name = Path(path).name
    c, parsed = _read_columns(path, TOKEN_KINDS)
    quote = c.get("quote_symbol", "")  # if empty, the symbol's alias or the symbol
    aliased = strings([QUOTE_SYMBOL_ALIASES.get(s, s) for s in c["symbol"].tolist()])
    registry = TokenRegistry(c["address"], c["cex_listed"], c["is_major"],
                             np.where(quote == "", aliased, quote))
    _raise_first([
        parsed.get("short"), (registry.address == "", _fails("empty address", name)),
        (registry.rows(registry.address) != np.arange(len(registry.address)),
         lambda i, k: MalformedRow(i, f"duplicate token address {registry.address[k]}", name)),
        parsed.get("decimals"),  # checked, not kept
        parsed.get("cex_listed"), parsed.get("is_major"),
        (registry.major & ~registry.listed, _fails("is_major requires cex_listed", name)),
    ])
    return registry


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


QUOTE_KINDS = {"symbol": SHORT, "ts_ms": INT, "bid": FLOAT, "ask": FLOAT}

QuoteArrays = tuple[np.ndarray, np.ndarray, np.ndarray]  # ts_ms, bid, ask
_SERIES = ("ts_ms", "bid", "ask")


def _symbol_codes(symbols: np.ndarray) -> tuple[list[str], np.ndarray]:
    """(the stripped symbols in first-seen order, each row's index into that
    list), with one dict lookup per run of equal cells (text, or bytes in 16)."""
    keys = symbols.view(_HALVES) if symbols.dtype.kind == "S" else symbols
    new_run = np.ones(len(symbols), dtype=bool)
    new_run[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(new_run)
    codes: dict[str, int] = {}
    run_codes = [codes.setdefault(s, len(codes))
                 for s in np.strings.strip(strings(symbols[starts])).tolist()]
    run_lengths = np.diff(starts, append=len(symbols))
    return list(codes), np.repeat(np.array(run_codes, dtype=np.int64), run_lengths)


def load_quotes(path: str | Path, spill: Path | None = None, sha256: str = "",
                symbols=None) -> dict[str, QuoteArrays]:
    """Per-symbol (ts_ms, bid, ask) arrays sorted by timestamp ascending, of
    every symbol, or only of those in ``symbols``.

    Raises for the first row that fails a check, with the first check it
    fails in the order listed below.

    With ``spill``, an .npz file, the series are kept there by keep_arrays
    under ``sha256``, the digest of the file's bytes, once every check has
    passed: a later call with that digest loads those it returns instead.
    """
    kept = kept_arrays(spill, sha256, QUOTE_KINDS, ["symbols"]) if spill is not None else None
    if kept is not None:
        names = kept["symbols"].tolist()
        wanted = [i for i, s in enumerate(names) if symbols is None or s in symbols]
        kept = kept_arrays(spill, sha256, QUOTE_KINDS, [f"{c}{i}" for i in wanted for c in _SERIES])
        if kept is not None:
            return {names[i]: tuple(kept[f"{c}{i}"] for c in _SERIES) for i in wanted}
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
    series = {symbol: tuple(a[bounds[c]:bounds[c + 1]] for a in columns)
              for c, symbol in enumerate(names)}
    if spill is not None:  # a member per array, so that a later call loads only its symbols
        keep_arrays(spill, sha256, QUOTE_KINDS, {"symbols": strings(names)} | {
            f"{col}{i}": a for i, arrays in enumerate(series.values())
            for col, a in zip(_SERIES, arrays)})
    return {s: v for s, v in series.items() if symbols is None or s in symbols}


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
    sections = {key: {} if raw.get(key) is None else raw[key]  # null is absent
                for key in ("labels", "integrated_with")}
    for key, section in sections.items():
        if not isinstance(section, dict):
            raise InvalidConfig(f"{key!r} in {name} must be an object keyed by searcher label")
    labels, integrated = sections.values()
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
