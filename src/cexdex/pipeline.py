"""Stage drivers: each stage reads input files and/or earlier stage CSVs
from disk and writes its own CSVs, so every intermediate is auditable.

Stage outputs land in --out-dir; a manifest.json with input digests and
row counts is refreshed after every stage for reproducibility checks.
"""

from __future__ import annotations

import csv
import hashlib
import json
import sys
from decimal import Decimal
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
    TokenRegistry,
    load_block_records,
    load_quotes,
    load_searchers,
    load_tokens,
    load_transactions,
)
from .detect import ArbTrade, detect_all
from .errors import NoQuoteBefore, PipelineError, StaleQuote
from .estimate import TradeEconomics
from .markout import EXCLUSION_INVENTORY, EXCLUSION_QUOTE_GAP, MarkoutCurve
from .quotes import QuoteStore


class DependencyMissing(PipelineError):
    """A stage was invoked before the stage whose outputs it consumes."""


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def _read_csv(path: Path) -> list[dict]:
    if not path.exists():
        raise DependencyMissing(f"{path.name} not found in {path.parent}; run the producing stage first")
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _require_input(input_dir: Path, name: str) -> Path:
    p = input_dir / name
    if not p.exists():
        raise FileNotFoundError(f"required input file missing: {p}")
    return p


class Workspace:
    """Shared lazy loading of the raw input files for one run."""

    def __init__(self, input_dir: str | Path, out_dir: str | Path):
        self.input_dir = Path(input_dir)
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self._cache: dict[str, object] = {}

    @property
    def config(self) -> PipelineConfig:
        if "config" not in self._cache:
            p = self.input_dir / "config.json"
            self._cache["config"] = load_config(p) if p.exists() else PipelineConfig()
        return self._cache["config"]  # type: ignore[return-value]

    @property
    def grid(self) -> MarkoutGrid:
        return MarkoutGrid.from_config(self.config)

    @property
    def registry(self) -> TokenRegistry:
        if "registry" not in self._cache:
            self._cache["registry"] = load_tokens(_require_input(self.input_dir, "tokens.csv"))
        return self._cache["registry"]  # type: ignore[return-value]

    @property
    def quotes(self) -> QuoteStore:
        if "quotes" not in self._cache:
            self._cache["quotes"] = QuoteStore(
                load_quotes(_require_input(self.input_dir, "quotes.csv"))
            )
        return self._cache["quotes"]  # type: ignore[return-value]

    @property
    def labels(self):
        if "labels" not in self._cache:
            self._cache["labels"] = load_searchers(_require_input(self.input_dir, "searchers.json"))
        return self._cache["labels"]

    @property
    def blocks(self) -> dict[int, BlockRecord]:
        if "blocks" not in self._cache:
            self._cache["blocks"] = load_block_records(_require_input(self.input_dir, "blocks.csv"))
        return self._cache["blocks"]  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# detect

DETECTIONS_HEADER = [
    "tx_hash", "block_number", "searcher_label", "builder_label", "slot_time_ms",
    "token_bought", "amount_bought", "token_sold", "amount_sold",
    "volume_usd", "base_fee_eth", "builder_tip_eth",
]


def run_detect(ws: Workspace) -> None:
    txs = load_transactions(_require_input(ws.input_dir, "transactions.csv"), ws.registry)
    trades, verdicts = detect_all(txs, ws.registry, ws.labels)
    _write_csv(
        ws.out_dir / "detections.csv",
        DETECTIONS_HEADER,
        (
            [
                t.tx_hash, t.block_number, t.searcher_label, t.builder_label,
                t.slot_time_ms, t.token_bought, str(t.amount_bought),
                t.token_sold, str(t.amount_sold), t.volume_usd,
                t.base_fee_eth, t.builder_tip_eth,
            ]
            for t in trades
        ),
    )
    _write_csv(
        ws.out_dir / "verdicts.csv",
        ["tx_hash", "passed", "h1", "h2", "h3", "h4", "h5", "h6", "failure_reasons"],
        (
            [v.tx_hash, v.passed]
            + [v.per_heuristic[h] for h in ("H1", "H2", "H3", "H4", "H5", "H6")]
            + ["; ".join(v.failure_reasons)]
            for v in verdicts
        ),
    )


def _load_detections(ws: Workspace) -> list[ArbTrade]:
    rows = _read_csv(ws.out_dir / "detections.csv")
    return [
        ArbTrade(
            tx_hash=r["tx_hash"],
            block_number=int(r["block_number"]),
            searcher_label=r["searcher_label"],
            builder_label=r["builder_label"],
            slot_time_ms=int(r["slot_time_ms"]),
            token_bought=r["token_bought"],
            amount_bought=Decimal(r["amount_bought"]),
            token_sold=r["token_sold"],
            amount_sold=Decimal(r["amount_sold"]),
            volume_usd=float(r["volume_usd"]),
            base_fee_eth=float(r["base_fee_eth"]),
            builder_tip_eth=float(r["builder_tip_eth"]),
        )
        for r in rows
    ]


# ---------------------------------------------------------------------------
# markout

MARKOUTS_HEADER = [
    "tx_hash", "searcher_label", "offset_s", "mr_usd", "gr",
    "excluded", "exclusion_reason",
]


def _curve_for_trade(trade: ArbTrade, ws: Workspace) -> MarkoutCurve:
    curve = markout_mod.markout_curve(trade, ws.grid, ws.quotes, ws.registry, ws.config)
    if not curve.excluded:
        try:
            eth = ws.quotes.eth_usd(trade.slot_time_ms, ws.config.quote_staleness_ms)
        except (NoQuoteBefore, StaleQuote):
            curve.excluded = True
            curve.exclusion_reason = EXCLUSION_QUOTE_GAP
            return curve
        if markout_mod.flag_inventory_adjustment(curve, trade, eth):
            curve.excluded = True
            curve.exclusion_reason = EXCLUSION_INVENTORY
    return curve


def run_markout(ws: Workspace) -> None:
    trades = _load_detections(ws)
    curves = [_curve_for_trade(t, ws) for t in trades]

    def rows():
        for trade, curve in zip(trades, curves):
            for k, off in enumerate(curve.offsets_s):
                yield [
                    trade.tx_hash, trade.searcher_label, off,
                    float(curve.mr_usd[k]), float(curve.gr[k]),
                    curve.excluded, curve.exclusion_reason or "",
                ]

    _write_csv(ws.out_dir / "markouts.csv", MARKOUTS_HEADER, rows())


def _load_markout_curves(ws: Workspace) -> dict[str, MarkoutCurve]:
    """tx_hash -> curve, with searcher label stashed on the side."""
    rows = _read_csv(ws.out_dir / "markouts.csv")
    grouped: dict[str, list[dict]] = {}
    for r in rows:
        grouped.setdefault(r["tx_hash"], []).append(r)
    curves: dict[str, MarkoutCurve] = {}
    for tx, rws in grouped.items():
        rws.sort(key=lambda r: float(r["offset_s"]))
        curve = MarkoutCurve(
            tx_hash=tx,
            offsets_s=[float(r["offset_s"]) for r in rws],
            mr_usd=np.array([float(r["mr_usd"]) for r in rws]),
            gr=np.array([float(r["gr"]) for r in rws]),
            excluded=rws[0]["excluded"] == "true",
            exclusion_reason=rws[0]["exclusion_reason"] or None,
        )
        curve.searcher_label = rws[0]["searcher_label"]  # type: ignore[attr-defined]
        curves[tx] = curve
    return curves


# ---------------------------------------------------------------------------
# horizon

PROFILES_HEADER = [
    "searcher_label", "t_star_s", "pattern", "decline_3s_fraction",
    "n_arb_trades", "low_confidence",
]


def run_horizon(ws: Workspace) -> None:
    curves = _load_markout_curves(ws)
    by_searcher: dict[str, list[MarkoutCurve]] = {}
    for c in curves.values():
        by_searcher.setdefault(c.searcher_label, []).append(c)  # type: ignore[attr-defined]
    profiles = []
    for label in sorted(by_searcher):
        usable = [c for c in by_searcher[label] if not c.excluded]
        if not usable:
            continue
        profiles.append(horizon_mod.build_profile(label, usable, ws.config, ws.grid))
    _write_csv(
        ws.out_dir / "profiles.csv",
        PROFILES_HEADER,
        (
            [p.searcher_label, p.t_star_s, p.pattern, p.decline_3s_fraction,
             p.n_arb_trades, p.low_confidence]
            for p in profiles
        ),
    )


def _load_profiles(ws: Workspace) -> dict[str, horizon_mod.SearcherProfile]:
    rows = _read_csv(ws.out_dir / "profiles.csv")
    out = {}
    for r in rows:
        out[r["searcher_label"]] = horizon_mod.SearcherProfile(
            searcher_label=r["searcher_label"],
            t_star_s=float(r["t_star_s"]) if r["t_star_s"] else None,
            pattern=r["pattern"],
            decline_3s_fraction=float(r["decline_3s_fraction"]) if r["decline_3s_fraction"] else None,
            n_arb_trades=int(r["n_arb_trades"]),
            low_confidence=r["low_confidence"] == "true",
        )
    return out


# ---------------------------------------------------------------------------
# estimate

ECONOMICS_HEADER = [
    "tx_hash", "searcher_label", "builder_label", "block_number", "slot_time_ms",
    "volume_usd", "ev_usd", "pnl_usd", "margin", "builder_tip_usd", "base_fee_usd",
]

SUMMARY_HEADER = [
    "searcher_label", "total_volume_usd", "total_ev_usd", "total_tips_usd",
    "total_pnl_usd", "median_trade_ev", "median_trade_pnl", "median_margin",
    "count_total", "count_inventory_adj", "count_quote_gap", "count_arbitrage",
    "count_profitable", "count_unprofitable",
]


def run_estimate(ws: Workspace) -> None:
    trades = _load_detections(ws)
    curves = _load_markout_curves(ws)
    profiles = _load_profiles(ws)

    economics: list[TradeEconomics] = []
    excl_counts: dict[str, dict[str, int]] = {}
    for trade in trades:
        curve = curves[trade.tx_hash]
        counts = excl_counts.setdefault(trade.searcher_label, {"inv": 0, "gap": 0})
        if curve.excluded:
            if curve.exclusion_reason == EXCLUSION_INVENTORY:
                counts["inv"] += 1
            else:
                counts["gap"] += 1
            continue
        profile = profiles.get(trade.searcher_label)
        if profile is None or profile.pattern == horizon_mod.PATTERN_FLAT:
            continue
        eth = ws.quotes.eth_usd(trade.slot_time_ms, ws.config.quote_staleness_ms)
        economics.append(estimate_mod.trade_economics(trade, curve, profile, eth))

    _write_csv(
        ws.out_dir / "economics.csv",
        ECONOMICS_HEADER,
        (
            [e.tx_hash, e.searcher_label, e.builder_label, e.block_number,
             e.slot_time_ms, e.volume_usd, e.ev_usd, e.pnl_usd, e.margin,
             e.builder_tip_usd, e.base_fee_usd]
            for e in economics
        ),
    )

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
    _write_csv(
        ws.out_dir / "summary.csv",
        SUMMARY_HEADER,
        (
            [s.label, s.total_volume_usd, s.total_ev_usd, s.total_tips_usd,
             s.total_pnl_usd, s.median_trade_ev, s.median_trade_pnl, s.median_margin,
             s.count_total, s.count_inventory_adj, s.count_quote_gap,
             s.count_arbitrage, s.count_profitable, s.count_unprofitable]
            for s in summaries
        ),
    )

    series = estimate_mod.cumulative_ev_series(economics)
    _write_csv(
        ws.out_dir / "cumulative_ev.csv",
        ["searcher_label", "date", "ev_usd", "cumulative_ev_usd"],
        (
            [label, date, ev, cum]
            for label in sorted(series)
            for date, ev, cum in series[label]
        ),
    )


def _load_economics(ws: Workspace) -> list[TradeEconomics]:
    rows = _read_csv(ws.out_dir / "economics.csv")
    return [
        TradeEconomics(
            tx_hash=r["tx_hash"],
            searcher_label=r["searcher_label"],
            builder_label=r["builder_label"],
            block_number=int(r["block_number"]),
            slot_time_ms=int(r["slot_time_ms"]),
            volume_usd=float(r["volume_usd"]),
            ev_usd=float(r["ev_usd"]),
            pnl_usd=float(r["pnl_usd"]),
            margin=float(r["margin"]) if r["margin"] else None,
            builder_tip_usd=float(r["builder_tip_usd"]),
            base_fee_usd=float(r["base_fee_usd"]),
        )
        for r in rows
    ]


# ---------------------------------------------------------------------------
# market

def run_market(ws: Workspace) -> None:
    trades = _load_detections(ws)
    curves = _load_markout_curves(ws)
    profiles = _load_profiles(ws)
    economics = _load_economics(ws)

    included = [t for t in trades if not curves[t.tx_hash].excluded]

    # daily volume shares (all patterns) and EV shares (P3 excluded)
    day_volume: dict[str, dict[str, float]] = {}
    for t in included:
        d = estimate_mod._utc_day(t.slot_time_ms)
        day_volume.setdefault(d, {}).setdefault(t.searcher_label, 0.0)
        day_volume[d][t.searcher_label] += t.volume_usd
    day_ev: dict[str, dict[str, float]] = {}
    for e in economics:
        d = estimate_mod._utc_day(e.slot_time_ms)
        day_ev.setdefault(d, {}).setdefault(e.searcher_label, 0.0)
        day_ev[d][e.searcher_label] += e.ev_usd

    market_rows = []
    for d in sorted(day_volume):
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
            market_rows.append([
                d, label, vols[label],
                vols[label] / total_v if total_v > 0 else None,
                evs.get(label, 0.0),
                (evs.get(label, 0.0) / total_ev) if total_ev > 0 else None,
                hhi_v, hhi_e,
            ])
    _write_csv(
        ws.out_dir / "market.csv",
        ["date", "searcher_label", "volume_usd", "volume_share",
         "ev_usd", "ev_share", "hhi_volume", "hhi_ev"],
        market_rows,
    )

    matrix = market_mod.integration_matrix(included)
    classes = market_mod.classify_exclusivity(matrix, ws.labels, ws.config.exclusivity_threshold)
    integration_rows = []
    for i, s in enumerate(matrix.searchers):
        cls, cls_builder = classes[s]
        for j, b in enumerate(matrix.builders):
            integration_rows.append([s, b, float(matrix.cells[i, j]), cls, cls_builder or ""])
    _write_csv(
        ws.out_dir / "integration.csv",
        ["searcher_label", "builder_label", "volume_fraction", "class", "class_builder"],
        integration_rows,
    )

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
        cs, vs, empty = market_mod.major_major_share(by_searcher[label], ws.registry)
        if not empty:
            decline_points.append((p.decline_3s_fraction, cs, vs))
    if len(decline_points) >= 3:
        declines = [d for d, _, _ in decline_points]
        try:
            r_count, r_vol = market_mod.decline_vs_major_correlation(
                declines, [c for _, c, _ in decline_points], [v for _, _, v in decline_points]
            )
            corr_rows.append(["decline_vs_major_count", "", 0, "", r_count.rho, r_count.n, r_count.p_value])
            corr_rows.append(["decline_vs_major_volume", "", 0, "", r_vol.rho, r_vol.n, r_vol.p_value])
        except (market_mod.DegenerateRanks, market_mod.TooShort):
            pass

    # exclusive searcher daily volume share vs builder daily block share
    try:
        blocks = ws.blocks
    except FileNotFoundError:
        blocks = {}
    if blocks:
        day_blocks: dict[str, dict[str, int]] = {}
        for b in blocks.values():
            d = estimate_mod._utc_day(b.slot_time_ms)
            day_blocks.setdefault(d, {}).setdefault(b.builder_label, 0)
            day_blocks[d][b.builder_label] += 1
        dates = sorted(day_volume)
        for label in sorted(matrix.searchers):
            cls, cls_builder = classes[label]
            if cls == market_mod.EXCL_NEUTRAL or cls_builder is None:
                continue
            x, y = [], []
            for d in dates:
                total_v = sum(day_volume[d].values())
                in_builder = sum(
                    t.volume_usd
                    for t in by_searcher.get(label, [])
                    if estimate_mod._utc_day(t.slot_time_ms) == d
                    and t.builder_label == cls_builder
                )
                blk = day_blocks.get(d, {})
                total_b = sum(blk.values())
                if total_v <= 0 or total_b <= 0:
                    continue
                x.append(in_builder / total_v)
                y.append(blk.get(cls_builder, 0) / total_b)
            name = f"{label}->{cls_builder}"
            try:
                res = market_mod.spearman(x, y)
                corr_rows.append(["pair_contemporaneous", name, 0, "", res.rho, res.n, res.p_value])
                for res in market_mod.lagged_correlation(x, y):
                    corr_rows.append(["pair_lagged", name, res.lag_days, "", res.rho, res.n, res.p_value])
                for end, res in market_mod.rolling_correlation(
                    x, y, dates=dates[-len(x):], window_days=ws.config.rolling_window_days
                ):
                    corr_rows.append(["pair_rolling", name, 0, end, res.rho, res.n, res.p_value])
            except (market_mod.TooShort, market_mod.DegenerateRanks, market_mod.LengthMismatch):
                continue

    _write_csv(
        ws.out_dir / "correlations.csv",
        ["analysis", "pair", "lag_days", "window_end", "rho", "n", "p_value"],
        corr_rows,
    )


# ---------------------------------------------------------------------------
# builder

BUILDER_BLOCKS_HEADER = [
    "block_number", "builder_label", "bp_usd", "sp_usd", "p_usd", "margin",
    "sp_applicable", "subsidized_before", "subsidized_after",
]

BUILDER_SUMMARY_HEADER = [
    "builder_label", "n_blocks", "total_bid_eth", "total_bp_usd", "total_sp_usd",
    "total_p_usd", "builder_margin", "aggregated_profit_margin", "sp_applicable",
    "subsidized_blocks_before", "subsidized_blocks_after",
    "subsidy_bp_before_usd", "subsidy_bp_after_usd", "subsidy_p_after_usd",
    "margin_skipped_blocks",
]


def run_builder(ws: Workspace) -> None:
    economics = _load_economics(ws)
    schedule = builder_mod.RefundSchedule()
    per_block = []
    eth_by_block = {}
    used_blocks = []
    skipped_quotes = 0
    for bn in sorted(ws.blocks):
        block = ws.blocks[bn]
        try:
            eth = ws.quotes.eth_usd(block.slot_time_ms, ws.config.quote_staleness_ms)
        except (NoQuoteBefore, StaleQuote):
            skipped_quotes += 1
            continue
        eth_by_block[bn] = eth
        used_blocks.append(block)
        per_block.append(
            builder_mod.block_economics(block, economics, ws.labels, schedule, eth)
        )
    if skipped_quotes:
        print(f"builder: skipped {skipped_quotes} blocks with no ETH quote", file=sys.stderr)

    _write_csv(
        ws.out_dir / "builder_blocks.csv",
        BUILDER_BLOCKS_HEADER,
        (
            [e.block_number, e.builder_label, e.bp_usd, e.sp_usd, e.p_usd,
             e.margin, e.sp_applicable, e.subsidized_before, e.subsidized_after]
            for e in per_block
        ),
    )
    summaries = builder_mod.builder_summary(used_blocks, per_block, schedule, eth_by_block)
    _write_csv(
        ws.out_dir / "builder_summary.csv",
        BUILDER_SUMMARY_HEADER,
        (
            [s.builder_label, s.n_blocks, s.total_bid_eth, s.total_bp_usd,
             s.total_sp_usd, s.total_p_usd, s.builder_margin, s.aggregated_margin,
             s.sp_applicable, s.subsidized_blocks_before, s.subsidized_blocks_after,
             s.subsidy_bp_before_usd, s.subsidy_bp_after_usd, s.subsidy_p_after_usd,
             s.margin_skipped_blocks]
            for s in summaries
        ),
    )


# ---------------------------------------------------------------------------
# manifest / orchestration

INPUT_FILES = ["transactions.csv", "quotes.csv", "tokens.csv", "blocks.csv",
               "searchers.json", "config.json"]


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _row_count(path: Path) -> int | None:
    if path.suffix != ".csv":
        return None
    with open(path) as f:
        return max(sum(1 for _ in f) - 1, 0)


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
            manifest["inputs"][name] = {"sha256": _sha256(p), "rows": _row_count(p)}
    for p in sorted(ws.out_dir.glob("*.csv")):
        manifest["outputs"][p.name] = {"sha256": _sha256(p), "rows": _row_count(p)}
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
