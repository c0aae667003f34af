"""Stage drivers: each stage reads input files and/or earlier stages' outputs
and writes its own CSVs, so every intermediate is auditable.

Stage outputs land in --out-dir; a manifest.json with input digests and
row counts is refreshed after every stage for reproducibility checks.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
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
from ._kernels import group_rows, group_sum, keyed_sums
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
    """One cell as csv.writer writes it, a bool written as true/false."""
    if v is None:
        return ""
    if v.__class__ is bool:
        return _BOOL_TEXT[v]
    return repr(v) if isinstance(v, float) else str(v)


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

    The bytes are csv.writer's for the same rows, bools written as true/false:
    each chunk of rows is formatted a column at a time and joined directly, or
    by csv.writer when a cell needs quotes or the file has one column."""
    columns = list(columns)
    lengths = {len(c) for c in columns if isinstance(c, (list, tuple, np.ndarray))}
    if len(columns) != len(header) or len(lengths) > 1:
        raise ValueError(f"{path.name}: {len(columns)} columns of {sorted(lengths)} rows "
                         f"for {len(header)} header names; pass one column per name")
    n = lengths.pop() if lengths else 0
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for lo in range(0, n, _CHUNK_ROWS):
            hi = min(n, lo + _CHUNK_ROWS)
            cells = [_format(c[lo:hi].tolist()) if isinstance(c, np.ndarray)
                     else _format(c[lo:hi]) if isinstance(c, (list, tuple))
                     else _format([c]) * (hi - lo) for c in columns]
            if len(cells) == 1 or any(ch in text for text in map("".join, cells) for ch in ',"\r\n'):
                w.writerows(zip(*cells))
            else:
                f.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def _columns(cls: type) -> list[str]:
    """The header of ``cls``'s file: its field names in declaration order,
    less PEP 8's trailing underscore, so the field ``class_`` is the column ``class``."""
    return [f.name.removesuffix("_") for f in dataclasses.fields(cls)]


def _write_output(path: Path, table: Table) -> None:
    """Write ``table`` under its row type's header, one column per field."""
    _write_csv(path, _columns(table.row), table.columns)


# the reader's kind of each field annotation: each reads back what _write_csv wrote
_KINDS = {"str": STR, "int": INT, "float": ANY_FLOAT, "Decimal": AMOUNT, "bool": FLAG,
          "float | None": FLOAT_OR_NONE}


def _read_csv(path: Path, kinds: dict, stage: str) -> dict:
    """The columns of the stage output at ``path`` by name, each read as its
    kind in ``kinds`` by data_model._read_columns. ``kinds`` names every
    column this version writes, in order.

    A file with another header, or with a row shorter than it, is refused
    as OutdatedOutput naming ``stage`` to rerun, so it is not read with its
    columns crossed; the first cell that does not decode, as MalformedRow
    naming its row, column and file.
    """
    if not path.exists():
        raise DependencyMissing(f"{path.name} not found in {path.parent}; run the producing stage first")
    outdated = OutdatedOutput(f"{path} does not have the columns this version writes under "
                              f"this config (an older version's layout?); rerun the {stage} stage")
    with open(path, newline="") as f:
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


def _read_output(path: Path, cls: type, stage: str) -> Table:
    """The Table of ``cls`` that _write_output wrote to ``path``."""
    try:
        kinds = {c: _KINDS[f.type] for c, f in zip(_columns(cls), dataclasses.fields(cls))}
    except KeyError as e:
        raise TypeError(f"{cls.__name__}: no CSV decoder for a field annotated {e}") from None
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
    a fresh Workspace parses it from the stage's CSV. The detections, the
    economics and the blocks are Tables of their row dataclasses. Later
    stages treat them as read-only.
    """

    def __init__(self, input_dir: str | Path, out_dir: str | Path):
        self.input_dir = Path(input_dir)
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        # read now, so that a bad config.json is refused before any stage runs
        p = self.input_dir / "config.json"
        self.config: PipelineConfig = load_config(p) if p.exists() else PipelineConfig()

    @cached_property
    def grid(self) -> MarkoutGrid:
        return MarkoutGrid(self.config)

    @cached_property
    def registry(self) -> TokenRegistry:
        return load_tokens(_require_input(self.input_dir, "tokens.csv"))

    @cached_property
    def quotes(self) -> QuoteStore:
        return QuoteStore(load_quotes(_require_input(self.input_dir, "quotes.csv")))

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
    def economics(self) -> Table:
        return _load_economics(self)


# ---------------------------------------------------------------------------
# detect

def run_detect(ws: Workspace) -> None:
    table = load_transactions(_require_input(ws.input_dir, "transactions.csv"))
    trades, verdicts = detect_all(table, ws.registry, ws.labels)
    _write_output(ws.out_dir / "detections.csv", trades)
    _write_output(ws.out_dir / "verdicts.csv", verdicts)
    ws.detections = trades


def _load_detections(ws: Workspace) -> Table:
    return _read_output(ws.out_dir / "detections.csv", ArbTrade, "detect")


# ---------------------------------------------------------------------------
# markout

MARKOUTS_KEYS = ["tx_hash", "searcher_label", "excluded", "exclusion_reason", "volume_usd"]


def _markouts_header(offsets_s: list[float]) -> list[str]:
    """One row per trade: keys, then MR at every offset. GR is not written:
    it is MR / volume_usd, recomputed on load."""
    return MARKOUTS_KEYS + [f"mr_usd@{o!r}" for o in offsets_s]


def _curve_for_trade(trade: ArbTrade, ws: Workspace) -> markout_mod.MarkoutTable:
    """One trade's one-row table; kept for perfbench/spans.py until ROADMAP item 1."""
    return markout_mod.markout_curve(trade, ws.grid, ws.quotes, ws.registry, ws.config)


def run_markout(ws: Workspace) -> None:
    table = markout_mod.markout_table(ws.detections, ws.grid, ws.quotes, ws.registry, ws.config)
    reasons = table.exclusion_reason
    _write_csv(ws.out_dir / "markouts.csv", _markouts_header(ws.grid.offsets_s), [
        table.tx_hash, table.searcher_label, [r is not None for r in reasons], reasons,
        table.volume_usd, *table.mr_usd.T])
    ws.markouts = table


def _load_markout_curves(ws: Workspace) -> markout_mod.MarkoutTable:
    """The table markouts.csv holds; named for perfbench/spans.py, which
    times it as the parse, until ROADMAP item 1."""
    header = _markouts_header(ws.grid.offsets_s)
    kinds = dict.fromkeys(header, ANY_FLOAT) | {
        "tx_hash": STR, "searcher_label": STR, "excluded": None, "exclusion_reason": STR}
    c = _read_csv(ws.out_dir / "markouts.csv", kinds, "markout")
    mr = np.column_stack([c[h] for h in header[len(MARKOUTS_KEYS):]])
    return markout_mod.MarkoutTable(c["tx_hash"], c["searcher_label"], c["volume_usd"], mr,
                                    [r or None for r in c["exclusion_reason"].tolist()])


def _markouts_of_detections(ws: Workspace) -> markout_mod.MarkoutTable:
    """ws.markouts, refused unless its rows are ws.detections' trades in order."""
    table = ws.markouts
    if not np.array_equal(table.tx_hash, ws.detections.tx_hash):
        raise OutdatedOutput(
            f"markouts.csv in {ws.out_dir} does not hold the trades of detections.csv "
            "in order; rerun the markout stage"
        )
    return table


# ---------------------------------------------------------------------------
# horizon

def run_horizon(ws: Workspace) -> None:
    table = ws.markouts
    rows = table.included_rows()
    profiles = [horizon_mod.build_profile(label, table.gr[rows[label]], ws.config, ws.grid)
                for label in sorted(rows)]
    _write_output(ws.out_dir / "profiles.csv", Table.of_rows(horizon_mod.SearcherProfile, profiles))
    ws.profiles = {p.searcher_label: p for p in profiles}


def _load_profiles(ws: Workspace) -> dict[str, horizon_mod.SearcherProfile]:
    profiles = _read_output(ws.out_dir / "profiles.csv", horizon_mod.SearcherProfile, "horizon")
    return {p.searcher_label: p for p in profiles.rows()}


# ---------------------------------------------------------------------------
# estimate

def run_estimate(ws: Workspace) -> None:
    trades, table, profiles = ws.detections, _markouts_of_detections(ws), ws.profiles
    labels, code = np.unique(trades.searcher_label, return_inverse=True)
    included = table.included()
    # a searcher's included trades are priced unless its profile is missing or P3
    label_profiles = [profiles.get(label) for label in labels.tolist()]
    peaked = np.array([p is not None and p.pattern != horizon_mod.PATTERN_FLAT
                       for p in label_profiles], dtype=bool)
    is_priced = included & peaked[code]
    rows, priced = np.flatnonzero(is_priced), trades.select(is_priced)
    eth = np.zeros(0)
    if len(rows):  # one lookup; raises for the first trade without an ETH quote
        eth = ws.quotes.eth_usd(priced.slot_time_ms, ws.config.quote_staleness_ms)
    cols = np.zeros(len(labels), dtype=np.int64)  # MR at each searcher's t* column
    for k in np.unique(code[rows]).tolist():
        cols[k] = estimate_mod.t_star_column(label_profiles[k], ws.grid)
    economics = estimate_mod.trade_economics(priced, table.mr_usd[rows, cols[code[rows]]], eth)

    _write_output(ws.out_dir / "economics.csv", economics)
    ws.economics = economics

    inventory = np.array([r == EXCLUSION_INVENTORY for r in table.exclusion_reason], dtype=bool)
    summaries = estimate_mod.searcher_summaries(
        labels, economics, np.bincount(code[inventory], minlength=len(labels)),
        np.bincount(code[~included & ~inventory], minlength=len(labels)))
    _write_output(ws.out_dir / "summary.csv", summaries)

    _write_output(ws.out_dir / "cumulative_ev.csv", estimate_mod.cumulative_ev_series(economics))


def _load_economics(ws: Workspace) -> Table:
    return _read_output(ws.out_dir / "economics.csv", TradeEconomics, "estimate")


# ---------------------------------------------------------------------------
# market

def _daily_shares(included: Table, economics: Table):
    """(market.csv as a Table of DailyShare, the UTC day numbers with
    included trades, their dates, each day's total volume).

    Volume shares cover all patterns and EV shares exclude P3. Day totals
    add each day's searchers in the order they first trade that day, and a
    searcher's day adds its trades in row order."""
    labels, code = np.unique(np.concatenate([included.searcher_label, economics.searcher_label]),
                             return_inverse=True)
    n = max(len(labels), 1)
    vol_keys, vol = keyed_sums(included.slot_time_ms // DAY_MS * n + code[:len(included)],
                               included.volume_usd)
    ev_keys, ev = keyed_sums(economics.slot_time_ms // DAY_MS * n + code[len(included):],
                             economics.ev_usd)
    days = np.unique(vol_keys // n)
    dates = [estimate_mod._utc_day(d * DAY_MS) for d in days.tolist()]
    vol_day = np.searchsorted(days, vol_keys // n)
    total_v = group_sum(vol_day, vol, len(days))
    # EV shares over the positive EVs of the days with included trades
    positive = np.isin(ev_keys // n, days) & (ev > 0)
    ev_day = np.searchsorted(days, ev_keys[positive] // n)
    total_ev = group_sum(ev_day, ev[positive], len(days))
    hhi_v = [market_mod.hhi(vol[rows] / t) if t > 0 else None
             for rows, t in zip(group_rows(vol_day, len(days)), total_v.tolist())]
    hhi_e = [market_mod.hhi(ev[positive][rows] / t) if t > 0 else None
             for rows, t in zip(group_rows(ev_day, len(days)), total_ev.tolist())]

    # a row per day and searcher with included trades, by day then label
    keys = np.sort(vol_keys)
    day = np.searchsorted(days, keys // n)
    volume = vol[np.argsort(vol_keys)]
    ev_of = dict(zip(ev_keys.tolist(), ev.tolist()))
    row_ev = np.array([ev_of.get(k, 0.0) for k in keys.tolist()], dtype=np.float64)
    v_ok, e_ok = total_v[day] > 0, total_ev[day] > 0
    v_share = np.divide(volume, total_v[day], out=np.zeros(len(keys)), where=v_ok)
    e_share = np.divide(row_ev, total_ev[day], out=np.zeros(len(keys)), where=e_ok)
    table = Table(market_mod.DailyShare, [
        [dates[d] for d in day.tolist()], labels[keys % n], volume, optional(v_share, v_ok),
        row_ev, optional(e_share, e_ok), [hhi_v[d] for d in day.tolist()],
        [hhi_e[d] for d in day.tolist()],
    ])
    return table, days, dates, total_v


def run_market(ws: Workspace) -> None:
    trades, table, profiles, economics = (
        ws.detections, _markouts_of_detections(ws), ws.profiles, ws.economics)
    included = trades.select(table.included())
    shares, days, dates, total_v = _daily_shares(included, economics)
    _write_output(ws.out_dir / "market.csv", shares)

    matrix = market_mod.integration_matrix(included)
    classes = market_mod.classify_exclusivity(matrix, ws.labels, ws.config.exclusivity_threshold)
    nb, ns = len(matrix.builders), len(matrix.searchers)
    searcher_classes = [classes[s] for s in matrix.searchers]
    _write_output(ws.out_dir / "integration.csv", Table(market_mod.IntegrationCell, [
        np.repeat(strings(matrix.searchers), nb), np.tile(strings(matrix.builders), ns),
        matrix.cells.ravel(), np.repeat(strings([c for c, _ in searcher_classes]), nb),
        np.repeat(strings([b or "" for _, b in searcher_classes]), nb),
    ]))

    corr_rows = []
    # decline fraction vs Major-Major share across searchers
    decline_points = []
    for label in sorted(profiles):
        p = profiles[label]
        mine = included.searcher_label == label
        if p.decline_3s_fraction is None or not mine.any():
            continue
        cs, vs, _ = market_mod.major_major_share(included.select(mine), ws.registry)
        decline_points.append((p.decline_3s_fraction, cs, vs))
    declines = [d for d, _, _ in decline_points]
    try:
        r_count = market_mod.spearman(declines, [c for _, c, _ in decline_points])
        r_vol = market_mod.spearman(declines, [v for _, _, v in decline_points])
        corr_rows += [market_mod.Correlation(name, "", 0, "", r.rho, r.n, r.p_value) for name, r in
                      (("decline_vs_major_count", r_count), ("decline_vs_major_volume", r_vol))]
    except (market_mod.DegenerateRanks, market_mod.TooShort):
        pass

    # exclusive searcher daily volume share vs builder daily block share
    try:
        blocks = ws.blocks
    except FileNotFoundError:
        blocks = None
    if blocks is not None and len(blocks):
        block_day = blocks.slot_time_ms // DAY_MS
        known = np.isin(block_day, days)
        block_builder = blocks.builder_label[known]
        block_day = np.searchsorted(days, block_day[known])
        total_b = np.bincount(block_day, minlength=len(days))
        trade_day = np.searchsorted(days, included.slot_time_ms // DAY_MS)
        # a day counts where both totals are above 0
        kept = ~((total_v <= 0) | (total_b <= 0))
        x_dates = [date for date, k in zip(dates, kept.tolist()) if k]
        for label in sorted(matrix.searchers):
            cls, cls_builder = classes[label]
            if cls == market_mod.EXCL_NEUTRAL or cls_builder is None:
                continue
            mine = (included.searcher_label == label) & (included.builder_label == cls_builder)
            in_builder = group_sum(trade_day[mine], included.volume_usd[mine], len(days))
            in_blocks = np.bincount(block_day[block_builder == cls_builder], minlength=len(days))
            x = (in_builder[kept] / total_v[kept]).tolist()
            y = (in_blocks[kept] / total_b[kept]).tolist()
            # each analysis fails on its own: lag 7 needs 10 days, a window does not
            analyses = {
                "pair_contemporaneous": lambda: [(0, "", market_mod.spearman(x, y))],
                "pair_lagged": lambda: [(r.lag_days, "", r) for r in market_mod.lagged_correlation(x, y)],
                "pair_rolling": lambda: [(0, end, r) for end, r in market_mod.rolling_correlation(
                    x, y, dates=x_dates, window_days=ws.config.rolling_window_days)],
            }
            for analysis, results in analyses.items():
                try:
                    corr_rows += [market_mod.Correlation(analysis, f"{label}->{cls_builder}",
                                                         lag, end, r.rho, r.n, r.p_value)
                                  for lag, end, r in results()]
                except (market_mod.TooShort, market_mod.DegenerateRanks, market_mod.LengthMismatch):
                    pass

    _write_output(ws.out_dir / "correlations.csv",
                  Table.of_rows(market_mod.Correlation, corr_rows))


# ---------------------------------------------------------------------------
# builder

def run_builder(ws: Workspace) -> None:
    blocks = ws.blocks
    mids, ok = ws.quotes.eth_usd_many(blocks.slot_time_ms, ws.config.quote_staleness_ms)
    used, eth = blocks.select(ok), mids[ok]
    per_block = builder_mod.block_economics(used, ws.economics, ws.labels.builder_to_searcher(),
                                            eth)
    skipped_quotes = len(blocks) - len(used)
    if skipped_quotes:
        print(f"builder: skipped {skipped_quotes} blocks with no ETH quote", file=sys.stderr)

    _write_output(ws.out_dir / "builder_blocks.csv", per_block)
    summaries = builder_mod.builder_summary(used, per_block, eth)
    _write_output(ws.out_dir / "builder_summary.csv", summaries)


# ---------------------------------------------------------------------------
# manifest / orchestration

INPUT_FILES = ["transactions.csv", "quotes.csv", "tokens.csv", "blocks.csv",
               "searchers.json", "config.json"]


def _manifest_entry(path: Path) -> dict:
    """sha256 of the file and, for a CSV, its data rows, from one binary pass.

    Rows are lines less the header, counted as text mode counts them: "\r\n",
    "\n" and a bare "\r" each end a line, as does the end of the file.
    """
    h = hashlib.sha256()
    ends = 0  # "\n", and "\r" followed by a byte other than "\n"
    tail = b""  # the last byte read: the next chunk decides whether it ends a line
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
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
        "inputs": {},
        "outputs": {},
    }
    for name in INPUT_FILES:
        p = ws.input_dir / name
        if p.exists():
            manifest["inputs"][name] = _manifest_entry(p)
    for p in sorted(ws.out_dir.glob("*.csv")):
        manifest["outputs"][p.name] = _manifest_entry(p)
    with open(ws.out_dir / "manifest.json", "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)


STAGES = {
    "detect": run_detect,
    "markout": run_markout,
    "horizon": run_horizon,
    "estimate": run_estimate,
    "market": run_market,
    "builder": run_builder,
}

STAGE_ORDER = ["detect", "markout", "horizon", "estimate", "market", "builder"]


def run_stage(name: str, ws: Workspace) -> None:
    STAGES[name](ws)
    write_manifest(ws)


def run_all(ws: Workspace) -> None:
    for name in STAGE_ORDER:
        STAGES[name](ws)
    write_manifest(ws)
