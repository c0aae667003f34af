"""Stage drivers: each stage reads input files and/or earlier stages' outputs
and writes its own CSVs, so every intermediate is auditable.

Stage outputs land in --out-dir: CSVs, and markout's MR matrix as
markouts_mr.npy beside the key columns of markouts.csv. A manifest.json with
the digests of inputs and outputs and the CSVs' row counts is refreshed after
every stage for reproducibility checks, each digest one pass over the file
on disk (Workspace.entry). The checked quote series are kept there too, in
quotes.npz, and a stage command keeps each output a later stage reads as
<name>.npz, so that the next process loads these copies instead of parsing
the CSVs again.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import sys
from functools import cached_property
from pathlib import Path

import numpy as np

from . import builder as builder_mod
from . import estimate as estimate_mod
from . import horizon as horizon_mod
from . import market as market_mod
from . import markout as markout_mod
from ._kernels import group_rows, group_sum, keyed_sums, lookup
from .config import MarkoutGrid, PipelineConfig, load_config
from .data_model import (
    AMOUNT,
    ANY_FLOAT,
    FLAG,
    FLOAT_OR_NONE,
    INT,
    STR,
    SearcherLabelFile,
    Table,
    TokenRegistry,
    _raise_first,
    _read_columns,
    keep_arrays,
    kept_arrays,
    load_block_records,
    load_quotes,
    load_searchers,
    load_tokens,
    load_transactions,
    optional,
    strings,
)
from .detect import ArbTrade, detect_all
from .errors import MalformedRow, PipelineError
from .estimate import DAY_MS, TradeEconomics
from .markout import EXCLUSION_INVENTORY
from .quotes import QuoteStore


class DependencyMissing(PipelineError):
    """A stage was invoked before the stage whose outputs it consumes."""


class OutdatedOutput(PipelineError):
    """A stage output is not in the layout this version writes."""


# Rows formatted and written at a time: only one chunk's cell strings exist at once.
_CHUNK_ROWS = 1024
_BOOL_TEXT = ("false", "true")


def _cell(v) -> str:
    """One cell as csv.writer writes it, a bool (numpy's too) written as
    true/false and a float (numpy's float64 too) as float's repr."""
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return _BOOL_TEXT[bool(v)]
    return float.__repr__(v) if isinstance(v, float) else str(v)


def _format(values) -> list[str]:
    """A column's cells, formatted by one rule when all are of one kind."""
    kinds = set(map(type, values))
    if kinds <= {int, float}:
        return list(map(repr, values))
    if kinds == {bool}:
        return list(map(_BOOL_TEXT.__getitem__, values))
    return values if kinds == {str} else list(map(_cell, values))


def _write_csv(path: Path, header: list[str], columns) -> None:
    """Write ``columns`` under ``header``, each a list, tuple or numpy array of
    one cell per row, or else one value for every row; another shape is refused.

    The bytes are csv.writer's for the same rows in UTF-8, bools written as
    true/false: each chunk of rows is formatted a column at a time and joined
    directly, or by csv.writer when a cell needs quotes or the file has one column."""
    columns = list(columns)
    lengths = {len(c) for c in columns if isinstance(c, (list, tuple, np.ndarray))}
    if len(columns) != len(header) or len(lengths) > 1:
        raise ValueError(f"{path.name}: {len(columns)} columns of {sorted(lengths)} rows "
                         f"for {len(header)} header names; pass one column per name")
    n = lengths.pop() if lengths else 0

    def chunks():  # the header, then _CHUNK_ROWS rows at a time, each as a list per column
        yield [[name] for name in header]
        for lo in range(0, n, _CHUNK_ROWS):
            hi = min(n, lo + _CHUNK_ROWS)
            yield [_format(c[lo:hi].tolist()) if isinstance(c, np.ndarray)
                   else _format(c[lo:hi]) if isinstance(c, (list, tuple))
                   else _format([c]) * (hi - lo) for c in columns]

    def utf8(cells: list) -> bytes:
        if len(cells) == 1 or any(ch in text for text in map("".join, cells) for ch in ',"\r\n'):
            buffer = io.StringIO(newline="")
            csv.writer(buffer).writerows(zip(*cells))
            return buffer.getvalue().encode()
        return ("\r\n".join(map(",".join, zip(*cells))) + "\r\n").encode()

    with open(path, "wb") as f:
        f.writelines(map(utf8, chunks()))


def _columns(cls: type) -> list[str]:
    """The header of ``cls``'s file: its field names in declaration order,
    less PEP 8's trailing underscore, so the field ``class_`` is the column ``class``."""
    return [f.name.removesuffix("_") for f in dataclasses.fields(cls)]


# the reader's kind of each field annotation: each reads back what _write_csv wrote
_KINDS = {"str": STR, "int": INT, "float": ANY_FLOAT, "Decimal": AMOUNT, "bool": FLAG,
          "float | None": FLOAT_OR_NONE}


def _read_csv(path: Path, kinds: dict, stage: str) -> dict:
    """The columns of the stage output at ``path`` by name, each read as its
    kind in ``kinds`` by data_model._read_columns. ``kinds`` names every
    column this version writes, in order.

    A file with another header (one not UTF-8 too), or with a row shorter
    than it, is refused as OutdatedOutput naming ``stage`` to rerun, so it is
    not read with its columns crossed; a byte not UTF-8 or the first cell
    that does not decode, as MalformedRow naming its row and file.
    """
    if not path.exists():
        raise DependencyMissing(f"{path.name} not found in {path.parent}; run the producing stage first")
    outdated = OutdatedOutput(f"{path} does not have the columns this version writes under "
                              f"this config (an older version's layout?); rerun the {stage} stage")
    # a header byte that is not UTF-8 reads as U+FFFD; _read_columns refuses one in a row
    with open(path, newline="", encoding="utf-8", errors="replace") as f:
        if next(csv.reader(f), []) != list(kinds):
            raise outdated
    cells, parsed = _read_columns(path, kinds)
    if "short" in parsed and parsed["short"][0].any():
        raise outdated
    try:
        _raise_first([parsed.get(c) for c in kinds])
    except MalformedRow as e:  # named as a cell of an output: "... in amount_bought of detections.csv"
        raise MalformedRow(e.row_index, f"{e.reason} of {e.file}") from None
    return cells


def _kinds(cls: type) -> dict:
    """The reader's kind of each column of ``cls``'s file, in order."""
    try:
        return {c: _KINDS[f.type] for c, f in zip(_columns(cls), dataclasses.fields(cls))}
    except KeyError as e:
        raise TypeError(f"{cls.__name__}: no CSV decoder for a field annotated {e}") from None


def _read_output(path: Path, cls: type, stage: str) -> Table:
    """The Table of ``cls`` that _write_output wrote to ``path``, parsed."""
    kinds = _kinds(cls)
    cells = _read_csv(path, kinds, stage)
    return Table(cls, [cells[c] for c in kinds])


def _require_input(input_dir: Path, name: str) -> Path:
    p = input_dir / name
    if not p.exists():
        raise FileNotFoundError(f"required input file missing: {p}")
    return p


class Workspace:
    """One run's config, and its inputs and stage outputs, each loaded on first use.

    A stage that writes an output also keeps what it wrote here, so a later
    stage in the same Workspace (as in ``cexdex all``) reads it from memory;
    a fresh Workspace loads it from its copy or parses its CSV (_read_kept).
    The detections, the economics and the blocks are Tables of their row
    dataclasses. Later stages treat them as read-only.
    """

    def __init__(self, input_dir: str | Path, out_dir: str | Path):
        self.input_dir = Path(input_dir)
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        # read now, so that a bad config.json is refused before any stage runs
        p = self.input_dir / "config.json"
        self.config: PipelineConfig = load_config(p) if p.exists() else PipelineConfig()
        self.entries: dict[Path, dict] = {}  # manifest entries by path; a write drops its own
        self.copies = False  # set by run_stage: _write_output keeps copies

    def entry(self, path: Path) -> dict:
        """The manifest entry of the file at ``path``: one pass over it the
        first time it is asked for after this Workspace last wrote it."""
        if path not in self.entries:
            self.entries[path] = _manifest_entry(path)
        return self.entries[path]

    @cached_property
    def grid(self) -> MarkoutGrid:
        return MarkoutGrid(self.config)

    @cached_property
    def registry(self) -> TokenRegistry:
        return load_tokens(_require_input(self.input_dir, "tokens.csv"))

    def _quotes(self, symbols=None) -> QuoteStore:
        path = _require_input(self.input_dir, "quotes.csv")
        return QuoteStore(load_quotes(path, self.out_dir / "quotes.npz",
                                      self.entry(path)["sha256"], symbols))

    quotes = cached_property(_quotes)

    @cached_property
    def eth_quotes(self) -> QuoteStore:
        """ETHUSDT's quotes, for estimate and builder: in ws.quotes once loaded."""
        return self.quotes if "quotes" in self.__dict__ else self._quotes({"ETHUSDT"})

    @cached_property
    def labels(self) -> SearcherLabelFile:
        return load_searchers(_require_input(self.input_dir, "searchers.json"))

    @cached_property
    def blocks(self) -> Table:
        return load_block_records(_require_input(self.input_dir, "blocks.csv"))

    @cached_property
    def detections(self) -> Table:
        return _load_detections(self)

    @cached_property
    def markouts(self) -> markout_mod.MarkoutTable:
        return _load_markout_curves(self)

    @cached_property
    def profiles(self) -> dict[str, horizon_mod.SearcherProfile]:
        return _load_profiles(self)

    @cached_property
    def searchers(self) -> tuple[np.ndarray, np.ndarray]:
        """(the sorted searcher labels of markouts.csv, each trade's index into
        them): the run's one searcher coding. A label is found by its code or
        by ``==``, never by np.searchsorted, which on numpy 2.4.6 gives wrong
        indices on StringDType text over 15 bytes."""
        return np.unique(self.markouts.searcher_label, return_inverse=True)

    @cached_property
    def priced(self) -> np.ndarray:
        """The mask of the trades estimate prices: included, of a searcher
        whose profile exists and is not P3."""
        labels, code = self.searchers
        peaked = np.array([p is not None and p.pattern != horizon_mod.PATTERN_FLAT
                           for p in map(self.profiles.get, labels.tolist())], dtype=bool)
        return self.markouts.included() & peaked[code]

    @cached_property
    def economics(self) -> Table:
        return _load_economics(self)


# ---------------------------------------------------------------------------
# detect

def _write_output(ws: Workspace, name: str, table, kinds: dict | None = None) -> None:
    """Write the output ``name``: ``table``, a Table, or else its columns
    under the header of ``kinds``. In a stage command, an output with
    ``kinds``, the layout a later stage reads, is also kept as <name>.npz."""
    path = ws.out_dir / name
    header, columns = ((_columns(table.row), table.columns) if isinstance(table, Table)
                       else (list(kinds), table))
    _write_csv(path, header, columns)
    ws.entries.pop(path, None)
    if kinds is not None and ws.copies:
        keep_arrays(path.with_suffix(".npz"), ws.entry(path)["sha256"], kinds,
                    {c: a for (c, kind), a in zip(kinds.items(), columns) if kind})


def _read_kept(ws: Workspace, name: str, kinds: dict, stage: str) -> dict:
    """The columns of the output ``name`` that _read_csv reads by ``kinds``,
    from its copy <name>.npz while that is kept under the key of the CSV's
    bytes and ``kinds``; else parsed, or refused, by _read_csv, and the copy
    replaced. So a CSV edited after its stage wrote it is read as edited."""
    path, names = ws.out_dir / name, [c for c, kind in kinds.items() if kind]
    sha256 = ws.entry(path)["sha256"] if path.exists() else ""
    cells = kept_arrays(path.with_suffix(".npz"), sha256, kinds, names)
    if cells is None:
        parsed = _read_csv(path, kinds, stage)
        cells = {c: parsed[c] for c in names}
        keep_arrays(path.with_suffix(".npz"), sha256, kinds, cells)
    return cells


def run_detect(ws: Workspace) -> None:
    table = load_transactions(_require_input(ws.input_dir, "transactions.csv"))
    trades, verdicts = detect_all(table, ws.registry, ws.labels)
    _write_output(ws, "detections.csv", trades, _kinds(ArbTrade))
    _write_output(ws, "verdicts.csv", verdicts)
    ws.detections = trades


def _load_detections(ws: Workspace) -> Table:
    return Table(ArbTrade, _read_kept(ws, "detections.csv", _kinds(ArbTrade), "detect").values())


# ---------------------------------------------------------------------------
# markout

# markouts.csv: a trade's keys. markouts_mr.npy, in the same row order: its MR at
# every grid offset, a float64 field mr_usd@<offset> each, so the file names its grid.
_MARKOUTS_KINDS = {"tx_hash": STR, "searcher_label": STR, "excluded": None,
                   "exclusion_reason": STR, "volume_usd": ANY_FLOAT}
MR_FILE = "markouts_mr.npy"


def _mr_dtype(grid: MarkoutGrid) -> np.dtype:
    return np.dtype([(f"mr_usd@{o!r}", "<f8") for o in grid.offsets_s])


def _curve_for_trade(trade: ArbTrade, ws: Workspace) -> markout_mod.MarkoutTable:
    """One trade's one-row table; kept for perfbench/spans.py until ROADMAP item 1."""
    return markout_mod.markout_curve(trade, ws.grid, ws.quotes, ws.registry, ws.config)


def run_markout(ws: Workspace) -> None:
    table = markout_mod.markout_table(ws.detections, ws.grid, ws.quotes, ws.registry, ws.config)
    _write_output(ws, "markouts.csv", [
        table.tx_hash, table.searcher_label, ~table.included(), table.exclusion_reason,
        table.volume_usd], _MARKOUTS_KINDS)
    mr = np.ascontiguousarray(table.mr_usd).view(_mr_dtype(ws.grid)).reshape(-1)
    np.save(ws.out_dir / MR_FILE, mr, allow_pickle=False)
    ws.entries.pop(ws.out_dir / MR_FILE, None)
    ws.markouts = table


def _load_markout_curves(ws: Workspace) -> markout_mod.MarkoutTable:
    """The table of markouts.csv and markouts_mr.npy, a .npy of another grid or row
    count refused; perfbench/spans.py times it by this name, until ROADMAP item 1."""
    c = _read_kept(ws, "markouts.csv", _MARKOUTS_KINDS, "markout")
    path, dtype, n = ws.out_dir / MR_FILE, _mr_dtype(ws.grid), len(c["tx_hash"])
    if not path.exists():
        raise DependencyMissing(f"{MR_FILE} not found in {ws.out_dir}; run the producing stage first")
    try:
        mr = np.load(path, allow_pickle=False)
    except (ValueError, EOFError):  # not a .npy, or cut short
        mr = None
    if not isinstance(mr, np.ndarray) or mr.dtype != dtype or mr.shape != (n,):
        raise OutdatedOutput(f"{path} does not hold the MR of markouts.csv's rows on this "
                             "config's grid (an older version's layout?); rerun the markout stage")
    return markout_mod.MarkoutTable(c["tx_hash"], c["searcher_label"], c["volume_usd"],
                                    mr.view("<f8").reshape(n, len(dtype)), c["exclusion_reason"])


def _markouts_of_detections(ws: Workspace) -> markout_mod.MarkoutTable:
    """ws.markouts, refused unless its rows are ws.detections' trades in
    order, each of the same searcher."""
    table, trades = ws.markouts, ws.detections
    if not (np.array_equal(table.tx_hash, trades.tx_hash)
            and np.array_equal(table.searcher_label, trades.searcher_label)):
        raise OutdatedOutput(
            f"markouts.csv in {ws.out_dir} does not hold the trades of detections.csv "
            "in order, with their searchers; rerun the markout stage"
        )
    return table


# ---------------------------------------------------------------------------
# horizon

def run_horizon(ws: Workspace) -> None:
    table, (labels, code) = _markouts_of_detections(ws), ws.searchers
    rows = np.flatnonzero(table.included())  # a profile per searcher with included trades
    profiles = [horizon_mod.build_profile(label, table.gr[rows[k]], ws.config, ws.grid)
                for label, k in zip(labels.tolist(), group_rows(code[rows], len(labels))) if len(k)]
    cls = horizon_mod.SearcherProfile
    _write_output(ws, "profiles.csv", Table.of_rows(cls, profiles), _kinds(cls))
    ws.profiles = {p.searcher_label: p for p in profiles}


def _load_profiles(ws: Workspace) -> dict[str, horizon_mod.SearcherProfile]:
    cls = horizon_mod.SearcherProfile
    profiles = Table(cls, _read_kept(ws, "profiles.csv", _kinds(cls), "horizon").values())
    return {p.searcher_label: p for p in profiles.rows()}


# ---------------------------------------------------------------------------
# estimate

def run_estimate(ws: Workspace) -> None:
    trades, table, (labels, code) = ws.detections, _markouts_of_detections(ws), ws.searchers
    rows, priced = np.flatnonzero(ws.priced), trades.select(ws.priced)
    eth, eth_ok = ws.eth_quotes.eth_usd(priced.slot_time_ms, ws.config.quote_staleness_ms)
    if not eth_ok.all():  # refused at the first trade without an ETH quote
        raise ws.eth_quotes.unpriced("ETHUSDT", int(priced.slot_time_ms[np.argmin(eth_ok)]))
    cols = np.zeros(len(labels), dtype=np.int64)  # MR at each searcher's t* column
    for k in np.flatnonzero(np.bincount(code[rows], minlength=len(labels))).tolist():
        cols[k] = estimate_mod.t_star_column(ws.profiles[labels[k]], ws.grid)
    economics = estimate_mod.trade_economics(priced, table.mr_usd[rows, cols[code[rows]]], eth)

    _write_output(ws, "economics.csv", economics, _kinds(TradeEconomics))
    ws.economics = economics

    inventory = table.exclusion_reason == EXCLUSION_INVENTORY
    summaries = estimate_mod.searcher_summaries(
        labels, code[rows], economics, np.bincount(code[inventory], minlength=len(labels)),
        np.bincount(code[~table.included() & ~inventory], minlength=len(labels)))
    _write_output(ws, "summary.csv", summaries)
    _write_output(ws, "cumulative_ev.csv",
                  estimate_mod.cumulative_ev_series(labels, code[rows], economics))


def _load_economics(ws: Workspace) -> Table:
    c = _read_kept(ws, "economics.csv", _kinds(TradeEconomics), "estimate")
    return Table(TradeEconomics, c.values())


# ---------------------------------------------------------------------------
# market

def _daily_shares(included: Table, economics: Table, labels: np.ndarray, dates: list[str],
                  trade_coding: tuple[np.ndarray, np.ndarray],
                  ev_coding: tuple[np.ndarray, np.ndarray]):
    """(market.csv as a Table of DailyShare, each day's total volume).
    ``dates`` are the UTC days with included trades, in order; the codings
    are (day index into ``dates``, searcher index into ``labels``) of each
    row of ``included`` and of ``economics``.

    Volume shares cover all patterns and EV shares exclude P3. Day totals
    add each day's searchers in the order they first trade that day, and a
    searcher's day adds its trades in row order."""
    n, n_days = max(len(labels), 1), len(dates)
    vol_keys, vol = keyed_sums(trade_coding[0] * n + trade_coding[1], included.volume_usd)
    ev_keys, ev = keyed_sums(ev_coding[0] * n + ev_coding[1], economics.ev_usd)
    vol_day = vol_keys // n
    total_v = group_sum(vol_day, vol, n_days)
    # EV shares over the positive EVs
    positive = ev > 0
    ev_day = ev_keys[positive] // n
    total_ev = group_sum(ev_day, ev[positive], n_days)
    hhi_v = np.array([market_mod.hhi(vol[rows] / t) if t > 0 else None
                      for rows, t in zip(group_rows(vol_day, n_days), total_v.tolist())], object)
    hhi_e = np.array([market_mod.hhi(ev[positive][rows] / t) if t > 0 else None
                      for rows, t in zip(group_rows(ev_day, n_days), total_ev.tolist())], object)

    # a row per day and searcher with included trades, by day then label
    keys = np.sort(vol_keys)
    day = keys // n
    volume = vol[np.argsort(vol_keys)]
    row_ev = np.zeros(len(keys))
    row_ev[lookup(ev_keys, keys)] = ev  # an economics row is an included trade
    v_ok, e_ok = total_v[day] > 0, total_ev[day] > 0
    v_share = np.divide(volume, total_v[day], out=np.zeros(len(keys)), where=v_ok)
    e_share = np.divide(row_ev, total_ev[day], out=np.zeros(len(keys)), where=e_ok)
    table = Table(market_mod.DailyShare, [
        strings(dates)[day], labels[keys % n], volume, optional(v_share, v_ok), row_ev,
        optional(e_share, e_ok), hhi_v[day], hhi_e[day],
    ])
    return table, total_v


def run_market(ws: Workspace) -> None:
    trades, table, profiles, economics = (
        ws.detections, _markouts_of_detections(ws), ws.profiles, ws.economics)
    if not np.array_equal(economics.tx_hash, trades.tx_hash[ws.priced]):
        raise OutdatedOutput(f"economics.csv in {ws.out_dir} does not hold the priced trades "
                             "of markouts.csv in order; rerun the estimate stage")
    # every per-searcher analysis below groups by the run's one coding, and
    # every daily one by the included trades' UTC days; an economics row,
    # a priced trade, has its trade's day
    (labels, code), is_included = ws.searchers, table.included()
    included, trade_code, n = trades.select(is_included), code[is_included], len(labels)
    days, trade_day = np.unique(included.slot_time_ms // DAY_MS, return_inverse=True)
    dates = [estimate_mod._utc_day(d * DAY_MS) for d in days.tolist()]
    shares, total_v = _daily_shares(included, economics, labels, dates, (trade_day, trade_code),
                                    (trade_day[ws.priced[is_included]], code[ws.priced]))
    _write_output(ws, "market.csv", shares)

    matrix = market_mod.integration_matrix(included, labels, trade_code)
    classes = market_mod.classify_exclusivity(matrix, ws.labels, ws.config.exclusivity_threshold)
    nb, ns = len(matrix.builders), len(matrix.searchers)
    searcher_classes = [classes[s] for s in matrix.searchers]
    _write_output(ws, "integration.csv", Table(market_mod.IntegrationCell, [
        np.repeat(strings(matrix.searchers), nb), np.tile(strings(matrix.builders), ns),
        matrix.cells.ravel(), np.repeat(strings([c for c, _ in searcher_classes]), nb),
        np.repeat(strings([b or "" for _, b in searcher_classes]), nb),
    ]))

    corr_rows = []
    # decline fraction vs Major-Major share across the searchers with a decline
    # and an included trade, in label order
    names, n_trades = labels.tolist(), np.bincount(trade_code, minlength=n).tolist()
    declining = [k for k, label in enumerate(names) if n_trades[k] and label in profiles
                 and profiles[label].decline_3s_fraction is not None]
    declines = [profiles[names[k]].decline_3s_fraction for k in declining]
    mine = lookup(trade_code, np.array(declining, dtype=np.int64)) >= 0
    count_shares, volume_shares = market_mod.major_major_shares(
        included.select(mine), trade_code[mine], n, ws.registry)
    r_count = market_mod.spearman(declines, [count_shares[k] for k in declining])
    r_vol = market_mod.spearman(declines, [volume_shares[k] for k in declining])
    if r_count is not None and r_vol is not None:
        corr_rows += [market_mod.Correlation(name, "", 0, "", r.rho, r.n, r.p_value) for name, r in
                      (("decline_vs_major_count", r_count), ("decline_vs_major_volume", r_vol))]

    # exclusive searcher daily volume share vs builder daily block share;
    # blocks.csv is needed by builder only
    blocks = ws.blocks if (ws.input_dir / "blocks.csv").exists() else None
    if blocks is not None and len(blocks):
        block_day = lookup(blocks.slot_time_ms // DAY_MS, days)
        known = block_day >= 0
        block_builder, block_day = blocks.builder_label[known], block_day[known]
        total_b = np.bincount(block_day, minlength=len(days))
        # a day counts where both totals are above 0
        kept = ~((total_v <= 0) | (total_b <= 0))
        x_dates = [date for date, k in zip(dates, kept.tolist()) if k]
        # a searcher has a class builder unless it is Neutral
        pairs = [(label, b) for label, (_, b) in zip(matrix.searchers, searcher_classes)
                 if b is not None]
        in_blocks = {b: np.bincount(block_day[block_builder == b], minlength=len(days))
                     for b in dict.fromkeys(b for _, b in pairs)}
        rows_of = dict(zip(labels.tolist(), group_rows(trade_code, n)))  # in row order
        for label, cls_builder in pairs:
            rows = rows_of[label]
            rows = rows[included.builder_label[rows] == cls_builder]
            in_builder = group_sum(trade_day[rows], included.volume_usd[rows], len(days))
            x = (in_builder[kept] / total_v[kept]).tolist()
            y = (in_blocks[cls_builder][kept] / total_b[kept]).tolist()
            # each analysis is written or skipped on its own: lag 7 needs 10
            # days, a window does not; the lagged rows are all or none
            now, lagged = market_mod.spearman(x, y), market_mod.lagged_correlation(x, y)
            results = [("pair_contemporaneous", "", now)] if now is not None else []
            if None not in lagged:
                results += [("pair_lagged", "", r) for r in lagged]
            results += [("pair_rolling", end, r) for end, r in market_mod.rolling_correlation(
                x, y, dates=x_dates, window_days=ws.config.rolling_window_days)]
            corr_rows += [market_mod.Correlation(analysis, f"{label}->{cls_builder}", r.lag_days,
                                                 end, r.rho, r.n, r.p_value)
                          for analysis, end, r in results]

    _write_output(ws, "correlations.csv", Table.of_rows(market_mod.Correlation, corr_rows))


# ---------------------------------------------------------------------------
# builder

def run_builder(ws: Workspace) -> None:
    blocks = ws.blocks
    mids, ok = ws.eth_quotes.eth_usd(blocks.slot_time_ms, ws.config.quote_staleness_ms)
    used, eth = blocks.select(ok), mids[ok]
    per_block = builder_mod.block_economics(used, ws.economics, ws.labels.integrated_with, eth)
    skipped_quotes = len(blocks) - len(used)
    if skipped_quotes:
        print(f"builder: skipped {skipped_quotes} blocks with no ETH quote", file=sys.stderr)

    _write_output(ws, "builder_blocks.csv", per_block)
    _write_output(ws, "builder_summary.csv", builder_mod.builder_summary(used, per_block, eth))


# ---------------------------------------------------------------------------
# manifest / orchestration

INPUT_FILES = ["transactions.csv", "quotes.csv", "tokens.csv", "blocks.csv",
               "searchers.json", "config.json"]


_BLOCK = 1 << 16  # bytes read at a time to hash a file: larger ones make larger temporaries


def _manifest_entry(path: Path) -> dict:
    """sha256 of the file at ``path`` and, for a CSV, its data rows, from one
    pass over its bytes.

    Rows are lines less the header, counted as text mode counts them: "\r\n",
    "\n" and a bare "\r" each end a line, as does the end of the file.
    """
    h = hashlib.sha256()
    ends = 0  # "\n", and "\r" followed by a byte other than "\n"
    tail = b""  # the last byte read: the next chunk decides whether it ends a line
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(_BLOCK), b""):
            h.update(chunk)
            b = np.frombuffer(tail + chunk, dtype=np.uint8)
            ends += np.count_nonzero(b[len(tail):] == 10)
            ends += np.count_nonzero((b[:-1] == 13) & (b[1:] != 10))
            tail = chunk[-1:]
    rows = None
    if path.suffix == ".csv":  # a last "\r", or a last line without a line end, ends one more
        rows = max(int(ends) + (tail not in (b"", b"\n")) - 1, 0)
    return {"sha256": h.hexdigest(), "rows": rows}


def write_manifest(ws: Workspace) -> None:
    manifest = {
        "config": json.loads(ws.config.to_json()),
        "config_hash": hashlib.sha256(ws.config.to_json().encode()).hexdigest(),
        "inputs": {name: ws.entry(p) for name in INPUT_FILES
                   if (p := ws.input_dir / name).exists()},
        "outputs": {p.name: ws.entry(p)
                    for p in sorted([*ws.out_dir.glob("*.csv"), *ws.out_dir.glob("*.npy")])},
    }
    with open(ws.out_dir / "manifest.json", "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)


STAGES = {  # in run order
    "detect": run_detect,
    "markout": run_markout,
    "horizon": run_horizon,
    "estimate": run_estimate,
    "market": run_market,
    "builder": run_builder,
}

STAGE_ORDER = list(STAGES)


def run_stage(name: str, ws: Workspace) -> None:
    """Run one stage as its own command: the outputs a later stage reads are
    kept as copies too (cexdex all hands them over in memory)."""
    ws.copies = True
    STAGES[name](ws)
    write_manifest(ws)


def run_all(ws: Workspace) -> None:
    for name in STAGE_ORDER:
        STAGES[name](ws)
    write_manifest(ws)
