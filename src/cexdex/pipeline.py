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
import operator
import sys
from decimal import Decimal
from functools import cached_property
from pathlib import Path

import numpy as np

from . import builder as builder_mod
from . import estimate as estimate_mod
from . import horizon as horizon_mod
from . import market as market_mod
from . import markout as markout_mod
from .config import MarkoutGrid, PipelineConfig, load_config
from .data_model import (
    BlockRecord,
    SearcherLabelFile,
    TokenRegistry,
    load_block_records,
    load_quotes,
    load_searchers,
    load_tokens,
    load_transactions,
    parse_cell,
    read_csv,
)
from .detect import ArbTrade, DetectionVerdict, detect_all
from .errors import PipelineError
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


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    """(header, data rows) of a stage output."""
    if not path.exists():
        raise DependencyMissing(f"{path.name} not found in {path.parent}; run the producing stage first")
    return read_csv(path, [])


def _columns(cls: type) -> list[str]:
    """The header of ``cls``'s file: its field names in declaration order,
    less PEP 8's trailing underscore, so the field ``class_`` is the column ``class``."""
    return [f.name.removesuffix("_") for f in dataclasses.fields(cls)]


def _write_output(path: Path, cls: type, rows: list) -> None:
    """Write dataclass instances of ``cls``, one column per field."""
    _write_csv(path, _columns(cls), [list(map(operator.attrgetter(f.name), rows))
                                     for f in dataclasses.fields(cls)])


# Decoders by field annotation: each reads back what _write_csv wrote.
_DECODERS = {
    "str": str,
    "int": int,
    "float": float,
    "Decimal": Decimal,
    "bool": "true".__eq__,
    "float | None": lambda v: float(v) if v else None,
}


def _read_output(path: Path, cls: type, stage: str) -> list:
    """Instances of ``cls`` from a file _write_output wrote.

    The header and every row's width are checked once against the fields of
    ``cls``, so a file in another layout is refused, not read with its
    columns crossed.
    """
    fields = dataclasses.fields(cls)
    try:
        decoders = [_DECODERS[f.type] for f in fields]
    except KeyError as e:
        raise TypeError(f"{cls.__name__}: no CSV decoder for a field annotated {e}") from None
    found, rows = _read_csv(path)
    if found != _columns(cls) or any(len(r) != len(fields) for r in rows):
        raise OutdatedOutput(
            f"{path} does not have the columns this version writes (an older "
            f"version's layout?); rerun the {stage} stage"
        )
    columns = [map(decode, column) for decode, column in zip(decoders, zip(*rows))]
    try:
        return [cls(*values) for values in zip(*columns)]
    except (ValueError, ArithmeticError):  # again cell by cell, to name the first bad one
        names = [f"{f.name} of {path.name}" for f in fields]
        return [cls(*(parse_cell(d, v, i, n) for d, v, n in zip(decoders, r, names)))
                for i, r in enumerate(rows, start=1)]


def _require_input(input_dir: Path, name: str) -> Path:
    p = input_dir / name
    if not p.exists():
        raise FileNotFoundError(f"required input file missing: {p}")
    return p


class Workspace:
    """One run's config, and its inputs and stage outputs, each loaded on first use.

    A stage that writes an output also keeps the objects it wrote here, so a
    later stage in the same Workspace (as in ``cexdex all``) reads them from
    memory; a fresh Workspace parses them from the stage's CSV. Later stages
    treat them as read-only.
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
    def blocks(self) -> dict[int, BlockRecord]:
        return load_block_records(_require_input(self.input_dir, "blocks.csv"))

    @cached_property
    def detections(self) -> list[ArbTrade]:
        return _load_detections(self)

    @cached_property
    def markouts(self) -> markout_mod.MarkoutTable:
        return _load_markout_curves(self)

    @cached_property
    def profiles(self) -> dict[str, horizon_mod.SearcherProfile]:
        return _load_profiles(self)

    @cached_property
    def economics(self) -> list[TradeEconomics]:
        return _load_economics(self)


# ---------------------------------------------------------------------------
# detect

def run_detect(ws: Workspace) -> None:
    table = load_transactions(_require_input(ws.input_dir, "transactions.csv"))
    trades, verdicts = detect_all(table, ws.registry, ws.labels)
    _write_output(ws.out_dir / "detections.csv", ArbTrade, trades)
    _write_csv(ws.out_dir / "verdicts.csv", _columns(DetectionVerdict), verdicts.columns())
    ws.detections = trades


def _load_detections(ws: Workspace) -> list[ArbTrade]:
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
    return markout_mod.markout_table([trade], ws.grid, ws.quotes, ws.registry, ws.config)


def run_markout(ws: Workspace) -> None:
    table = markout_mod.markout_table(ws.detections, ws.grid, ws.quotes, ws.registry, ws.config)
    reasons = table.exclusion_reason
    _write_csv(ws.out_dir / "markouts.csv", _markouts_header(ws.grid.offsets_s), [
        table.tx_hash, table.searcher_label, [r is not None for r in reasons], reasons,
        table.volume_usd, *table.mr_usd.T])
    ws.markouts = table


def _load_markout_curves(ws: Workspace) -> markout_mod.MarkoutTable:
    """The table markouts.csv holds, MR parsed in one pass; named for
    perfbench/spans.py, which times it as the parse, until ROADMAP item 1."""
    path = ws.out_dir / "markouts.csv"
    header, rows = _read_csv(path)
    if header != _markouts_header(ws.grid.offsets_s) or any(len(r) != len(header) for r in rows):
        raise OutdatedOutput(
            f"{path} is not one row per trade with an MR column per offset of this "
            "config's grid (an older version's layout, or another grid?); rerun the markout stage"
        )
    width = len(MARKOUTS_KEYS)
    try:
        values = np.array([float(v) for r in rows for v in r[width - 1:]])
    except ValueError:  # again cell by cell, to name the first bad one
        names = [f"{h} of {path.name}" for h in header[width - 1:]]
        values = np.array([parse_cell(float, v, i, n) for i, r in enumerate(rows, start=1)
                           for n, v in zip(names, r[width - 1:])])
    values = values.reshape(len(rows), len(header) - width + 1)
    return markout_mod.MarkoutTable([r[0] for r in rows], [r[1] for r in rows],
                                    values[:, 0], values[:, 1:], [r[3] or None for r in rows])


def _markouts_of_detections(ws: Workspace) -> markout_mod.MarkoutTable:
    """ws.markouts, refused unless its rows are ws.detections' trades in order."""
    table = ws.markouts
    if table.tx_hash != [t.tx_hash for t in ws.detections]:
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
    _write_output(ws.out_dir / "profiles.csv", horizon_mod.SearcherProfile, profiles)
    ws.profiles = {p.searcher_label: p for p in profiles}


def _load_profiles(ws: Workspace) -> dict[str, horizon_mod.SearcherProfile]:
    profiles = _read_output(ws.out_dir / "profiles.csv", horizon_mod.SearcherProfile, "horizon")
    return {p.searcher_label: p for p in profiles}


# ---------------------------------------------------------------------------
# estimate

def run_estimate(ws: Workspace) -> None:
    trades, table, profiles = ws.detections, _markouts_of_detections(ws), ws.profiles

    priced, rows = [], []
    excl_counts: dict[str, dict[str, int]] = {}
    for i, (trade, reason) in enumerate(zip(trades, table.exclusion_reason)):
        counts = excl_counts.setdefault(trade.searcher_label, {"inv": 0, "gap": 0})
        if reason is not None:
            counts["inv" if reason == EXCLUSION_INVENTORY else "gap"] += 1
            continue
        profile = profiles.get(trade.searcher_label)
        if profile is None or profile.pattern == horizon_mod.PATTERN_FLAT:
            continue
        priced.append((trade, profile))
        rows.append(i)
    eth: list[float] = []
    if priced:  # one lookup; raises for the first trade without an ETH quote
        slot_ms = np.array([t.slot_time_ms for t, _ in priced], dtype=np.int64)
        eth = ws.quotes.eth_usd(slot_ms, ws.config.quote_staleness_ms).tolist()
    # MR at each trade's t* column; a profile without t* is refused by trade_economics
    cols = [ws.grid.index_of(p.t_star_s or 0.0) for _, p in priced]
    mr = table.mr_usd[rows, cols].tolist()
    economics = [
        estimate_mod.trade_economics(trade, mr_usd, profile, eth_usd)
        for (trade, profile), mr_usd, eth_usd in zip(priced, mr, eth)
    ]

    _write_output(ws.out_dir / "economics.csv", TradeEconomics, economics)
    ws.economics = economics

    by_searcher: dict[str, list[TradeEconomics]] = {}
    for e in economics:
        by_searcher.setdefault(e.searcher_label, []).append(e)
    all_labels = sorted(set(by_searcher) | set(excl_counts))
    summaries = [
        estimate_mod.searcher_summary(
            label,
            by_searcher.get(label, []),
            n_inventory_adj=excl_counts.get(label, {}).get("inv", 0),
            n_quote_gap=excl_counts.get(label, {}).get("gap", 0),
        )
        for label in all_labels
    ]
    _write_output(ws.out_dir / "summary.csv", estimate_mod.SearcherSummary, summaries)

    _write_output(ws.out_dir / "cumulative_ev.csv", estimate_mod.CumulativeEv,
                  estimate_mod.cumulative_ev_series(economics))


def _load_economics(ws: Workspace) -> list[TradeEconomics]:
    return _read_output(ws.out_dir / "economics.csv", TradeEconomics, "estimate")


# ---------------------------------------------------------------------------
# market

def run_market(ws: Workspace) -> None:
    trades, table, profiles, economics = (
        ws.detections, _markouts_of_detections(ws), ws.profiles, ws.economics)

    included = [t for t, reason in zip(trades, table.exclusion_reason) if reason is None]

    # daily volume shares (all patterns) and EV shares (P3 excluded), keyed
    # by UTC day number; pair_volume keeps each (searcher, day, builder)'s
    # volumes in trade order
    day_volume: dict[int, dict[str, float]] = {}
    pair_volume: dict[tuple[str, int, str], list[float]] = {}
    for t in included:
        d = t.slot_time_ms // DAY_MS
        day_volume.setdefault(d, {}).setdefault(t.searcher_label, 0.0)
        day_volume[d][t.searcher_label] += t.volume_usd
        pair_volume.setdefault((t.searcher_label, d, t.builder_label), []).append(t.volume_usd)
    day_ev: dict[int, dict[str, float]] = {}
    for e in economics:
        d = e.slot_time_ms // DAY_MS
        day_ev.setdefault(d, {}).setdefault(e.searcher_label, 0.0)
        day_ev[d][e.searcher_label] += e.ev_usd
    days = sorted(day_volume)
    dates = [estimate_mod._utc_day(d * DAY_MS) for d in days]

    market_rows = []
    for d, date in zip(days, dates):
        vols = day_volume[d]
        total_v = sum(vols.values())
        evs = day_ev.get(d, {})
        pos_ev = {k: v for k, v in evs.items() if v > 0}
        total_ev = sum(pos_ev.values())
        hhi_v = market_mod.hhi([v / total_v for v in vols.values()]) if total_v > 0 else None
        hhi_e = (
            market_mod.hhi([v / total_ev for v in pos_ev.values()])
            if total_ev > 0 else None
        )
        for label in sorted(vols):
            market_rows.append(market_mod.DailyShare(
                date, label, vols[label],
                vols[label] / total_v if total_v > 0 else None,
                evs.get(label, 0.0),
                (evs.get(label, 0.0) / total_ev) if total_ev > 0 else None,
                hhi_v, hhi_e,
            ))
    _write_output(ws.out_dir / "market.csv", market_mod.DailyShare, market_rows)

    matrix = market_mod.integration_matrix(included)
    classes = market_mod.classify_exclusivity(matrix, ws.labels, ws.config.exclusivity_threshold)
    integration_rows = []
    for i, s in enumerate(matrix.searchers):
        cls, cls_builder = classes[s]
        for j, b in enumerate(matrix.builders):
            integration_rows.append(market_mod.IntegrationCell(
                s, b, float(matrix.cells[i, j]), cls, cls_builder or ""))
    _write_output(ws.out_dir / "integration.csv", market_mod.IntegrationCell, integration_rows)

    corr_rows = []
    # decline fraction vs Major-Major share across searchers
    decline_points = []
    by_searcher: dict[str, list[ArbTrade]] = {}
    for t in included:
        by_searcher.setdefault(t.searcher_label, []).append(t)
    for label in sorted(profiles):
        p = profiles[label]
        if p.decline_3s_fraction is None or label not in by_searcher:
            continue
        cs, vs, _ = market_mod.major_major_share(by_searcher[label], ws.registry)
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
        blocks = {}
    if blocks:
        day_blocks: dict[int, dict[str, int]] = {}
        for b in blocks.values():
            d = b.slot_time_ms // DAY_MS
            day_blocks.setdefault(d, {}).setdefault(b.builder_label, 0)
            day_blocks[d][b.builder_label] += 1
        for label in sorted(matrix.searchers):
            cls, cls_builder = classes[label]
            if cls == market_mod.EXCL_NEUTRAL or cls_builder is None:
                continue
            x, y, x_dates = [], [], []
            for d, date in zip(days, dates):
                total_v = sum(day_volume[d].values())
                in_builder = sum(pair_volume.get((label, d, cls_builder), []))
                blk = day_blocks.get(d, {})
                total_b = sum(blk.values())
                if total_v <= 0 or total_b <= 0:
                    continue
                x.append(in_builder / total_v)
                y.append(blk.get(cls_builder, 0) / total_b)
                x_dates.append(date)
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

    _write_output(ws.out_dir / "correlations.csv", market_mod.Correlation, corr_rows)


# ---------------------------------------------------------------------------
# builder

def run_builder(ws: Workspace) -> None:
    pnl_by_block = builder_mod.index_pnl(ws.economics)
    searcher_of_builder = ws.labels.builder_to_searcher()
    blocks = [ws.blocks[bn] for bn in sorted(ws.blocks)]
    slot_ms = np.array([b.slot_time_ms for b in blocks], dtype=np.int64)
    mids, ok = ws.quotes.eth_usd_many(slot_ms, ws.config.quote_staleness_ms)
    used_blocks = [b for b, priced in zip(blocks, ok.tolist()) if priced]
    eth_by_block = dict(zip([b.block_number for b in used_blocks], mids[ok].tolist()))
    per_block = [
        builder_mod.block_economics(
            b, pnl_by_block, searcher_of_builder, eth_by_block[b.block_number])
        for b in used_blocks
    ]
    skipped_quotes = len(blocks) - len(used_blocks)
    if skipped_quotes:
        print(f"builder: skipped {skipped_quotes} blocks with no ETH quote", file=sys.stderr)

    _write_output(ws.out_dir / "builder_blocks.csv", builder_mod.BuilderBlockEconomics, per_block)
    summaries = builder_mod.builder_summary(used_blocks, per_block, eth_by_block)
    _write_output(ws.out_dir / "builder_summary.csv", builder_mod.BuilderSummary, summaries)


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
