"""Deterministic synthetic-scenario generator and recovery scorer.

Generates the five input files plus a ground-truth ledger. Each synthetic
trade occupies its own 12 s slot; the traded token's quote series inside
the trade's markout window carries a spread shape that rises linearly to
its peak at the configured hedge delay and then decays per the impact
model, so the estimation pipeline should recover the configured delay as
the searcher's horizon. Randomness comes from a counter-based splitmix64
stream so identical seeds reproduce byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._kernels import uniform01
from .builder import BuilderBlockEconomics, refund_rate
from .config import MarkoutGrid, PipelineConfig
from .errors import InvalidConfig, MissingOutputs
from .estimate import TradeEconomics
from .horizon import SearcherProfile
from .pipeline import _read_output, _write_csv

DECAY_GENTLE = "gentle"
DECAY_ABRUPT = "abrupt"
DECAY_NONE = "none"

# 2024-06-01T00:00:00Z; synthetic slots advance 12 s from here
_T0_MS = 1717200000000
_BLOCK0 = 20_000_000
_SLOT_MS = 12_000
_SLOTS_PER_DAY = 86_400_000 // _SLOT_MS

GENTLE_DECAY_PER_S = 0.10  # fraction of peak spread lost per second
# post-drop spread retained after an abrupt hedge; low enough that the
# gross-return decline over 3 s clears one half even after fees
ABRUPT_KEEP_FRACTION = 0.3


@dataclass(frozen=True)
class SearcherSpec:
    label: str
    impact_decay: str  # gentle | abrupt | none
    trades_per_day: int
    true_hedge_delay_s: float | None = None
    major_share: float = 0.0
    tip_fraction: float = 0.5


@dataclass(frozen=True)
class SynthConfig:
    seed: int
    n_days: int
    searchers: tuple[SearcherSpec, ...]
    builders: tuple[str, ...] = ("builderA", "builderB")
    integrated_with: dict = field(default_factory=dict)  # label -> builder
    base_volatility: float = 0.0  # per-tick relative price noise amplitude
    taker_fee_rate: float = 0.0001725
    base_fee_eth: float = 1e-6
    dex_edge: float = 0.001  # baseline DEX mispricing captured by the trade
    peak_amplitude: float = 0.005  # extra spread at the hedge-delay peak
    alt_price: float = 10.0
    btc_price: float = 60000.0
    eth_price: float = 2000.0
    base_notional_usd: float = 5000.0

    def validate(self, grid: MarkoutGrid) -> None:
        grid_ms = set(grid.offsets_ms)
        for s in self.searchers:
            if s.impact_decay not in (DECAY_GENTLE, DECAY_ABRUPT, DECAY_NONE):
                raise InvalidConfig(f"{s.label}: unknown impact_decay {s.impact_decay!r}")
            if s.impact_decay == DECAY_NONE:
                if s.true_hedge_delay_s is not None:
                    raise InvalidConfig(f"{s.label}: delay given with decay 'none'")
            else:
                if s.true_hedge_delay_s is None:
                    raise InvalidConfig(f"{s.label}: missing true_hedge_delay_s")
                if round(s.true_hedge_delay_s * 1000) not in grid_ms:
                    raise InvalidConfig(f"{s.label}: delay not grid-aligned")
            if not (0.0 <= s.major_share <= 1.0):
                raise InvalidConfig(f"{s.label}: major_share outside [0, 1]")
            if not (0.0 <= s.tip_fraction <= 1.0):
                raise InvalidConfig(f"{s.label}: tip_fraction outside [0, 1]")
            if s.trades_per_day <= 0:
                raise InvalidConfig(f"{s.label}: trades_per_day must be > 0")
        per_day = sum(s.trades_per_day for s in self.searchers)
        if per_day > _SLOTS_PER_DAY:
            raise InvalidConfig(f"{per_day} trades/day exceeds {_SLOTS_PER_DAY} slots")
        for label, builder in self.integrated_with.items():
            if label not in {s.label for s in self.searchers}:
                raise InvalidConfig(f"integrated_with references unknown searcher {label}")
            if builder not in self.builders:
                raise InvalidConfig(f"integrated_with references unknown builder {builder}")

    @classmethod
    def from_json(cls, path: str | Path) -> "SynthConfig":
        with open(path) as f:
            raw = json.load(f)
        raw["searchers"] = tuple(SearcherSpec(**s) for s in raw["searchers"])
        if "builders" in raw:
            raw["builders"] = tuple(raw["builders"])
        return cls(**raw)


class _Stream:
    """Sequential view over the counter-based splitmix64 uniform stream."""

    def __init__(self, seed: int):
        self.seed = seed
        self.pos = 0

    def take(self, n: int) -> np.ndarray:
        out = uniform01(self.seed, self.pos, n)
        self.pos += n
        return out

    def one(self) -> float:
        return float(self.take(1)[0])


def _spread_at(offset_s: float, delay_s: float | None, decay: str,
               edge: float, peak: float, grid_start_s: float) -> float:
    """Pre-fee spread (edge + injected bump) at one markout offset."""
    if decay == DECAY_NONE:
        return edge
    full = edge + peak
    if offset_s <= delay_s:
        rise = (offset_s - grid_start_s) / (delay_s - grid_start_s)
        return edge + peak * rise
    if decay == DECAY_ABRUPT:
        return full * ABRUPT_KEEP_FRACTION
    return full * (1.0 - GENTLE_DECAY_PER_S * (offset_s - delay_s))


def generate(cfg: SynthConfig, out_dir: str | Path) -> dict:
    """Write the five input files plus ground_truth.json; returns the ledger."""
    grid = MarkoutGrid(PipelineConfig())
    cfg.validate(grid)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = _Stream(cfg.seed)

    alt_addr = {s.label: f"0xa17{j:037x}" for j, s in enumerate(cfg.searchers)}
    contract = {s.label: f"0x5ea{j:037x}" for j, s in enumerate(cfg.searchers)}
    wbtc = "0x2260fac5e5542a773aa44fbcfedf7c193bc2c599"
    usdt = "0xdac17f958d2ee523a2206206994597c13d831ec7"

    token_rows = [
        (wbtc, "WBTC", "true", "true", 8),
        (usdt, "USDT", "true", "true", 6),
    ]
    for j, s in enumerate(cfg.searchers):
        token_rows.append((alt_addr[s.label], f"TOK{j:02d}", "true", "false", 18))

    tx_rows = []
    quote_rows = []  # (symbol, ts_ms, px)
    block_rows = []
    truth = {"searchers": {}, "trades": {}, "blocks": {}}
    for s in cfg.searchers:
        truth["searchers"][s.label] = {
            "true_hedge_delay_s": s.true_hedge_delay_s,
            "true_pattern": {DECAY_GENTLE: "P1", DECAY_ABRUPT: "P2", DECAY_NONE: "P3"}[s.impact_decay],
        }

    for day in range(cfg.n_days):
        intraday = 0
        for s in cfg.searchers:
            for _ in range(s.trades_per_day):
                # one trade per slot; slots never collide because the daily
                # budget was validated against _SLOTS_PER_DAY
                block = _BLOCK0 + day * _SLOTS_PER_DAY + intraday
                intraday += 1
                slot_ms = _T0_MS + (block - _BLOCK0) * _SLOT_MS
                tx_hash = f"0xtx{block:010d}"

                u_major, u_size = rng.take(2)
                is_major = u_major < s.major_share
                token_a = wbtc if is_major else alt_addr[s.label]
                symbol_a = "BTCUSDT" if is_major else f"TOK{list(alt_addr).index(s.label):02d}USDT"
                p0 = cfg.btc_price if is_major else cfg.alt_price
                notional = cfg.base_notional_usd * (0.75 + 0.5 * u_size)
                x = notional / p0
                y = notional * (1.0 - cfg.dex_edge)

                # quote ticks at every grid offset; bid == ask keeps the
                # midpoint exactly the injected price
                noise = 2.0 * rng.take(len(grid)) - 1.0
                ticks = []
                for k, off_s in enumerate(grid.offsets_s):
                    spread = _spread_at(
                        off_s, s.true_hedge_delay_s, s.impact_decay,
                        cfg.dex_edge, cfg.peak_amplitude, grid.offsets_s[0],
                    )
                    px = p0 * (1.0 + spread) * (1.0 + cfg.base_volatility * noise[k])
                    ticks.append(px)
                    quote_rows.append((symbol_a, slot_ms + grid.offsets_ms[k], px))
                quote_rows.append(("ETHUSDT", slot_ms - 1000, cfg.eth_price))

                # ground-truth economics at the configured delay, from the
                # ticks actually emitted
                if s.impact_decay != DECAY_NONE:
                    k_star = grid.index_of(s.true_hedge_delay_s)
                    leg_a = x * ticks[k_star]
                    mr = leg_a - y - cfg.taker_fee_rate * (leg_a + y)
                    base_fee_usd = cfg.base_fee_eth * cfg.eth_price
                    ev = mr - base_fee_usd
                    tip_usd = s.tip_fraction * ev if ev > 0 else 0.0
                    truth["trades"][tx_hash] = {
                        "searcher_label": s.label,
                        "true_ev_usd": ev,
                        "true_pnl_usd": ev - tip_usd,
                    }
                else:
                    tip_usd = 0.0
                tip_eth = tip_usd / cfg.eth_price

                builder = cfg.integrated_with.get(
                    s.label, cfg.builders[(block - _BLOCK0) % len(cfg.builders)]
                )
                tx_rows.append(dict(
                    tx_hash=tx_hash,
                    block_number=block,
                    slot_time_ms=slot_ms,
                    searcher_contract=contract[s.label],
                    pool_id=f"pool-{symbol_a}",
                    dex="synthswap",
                    token_in=usdt,
                    amount_in=repr(float(y)),
                    token_out=token_a,
                    amount_out=repr(float(x)),
                    log_index=0,
                    first_in_direction="true",
                    seen_in_mempool="false",
                    atomic_mev_flag="false",
                    liquidation_flag="false",
                    ofa_backrun_flag="false",
                    router_or_bot_flag="false",
                    erc721_transfer_count=0,
                    base_fee_eth=repr(cfg.base_fee_eth),
                    priority_fee_eth=repr(float(tip_eth)),
                    coinbase_transfer_eth="0.0",
                    builder_label=builder,
                    volume_usd=repr(float(notional)),
                ))

                u_extra, u_bid, u_delta = rng.take(3)
                delta_c = tip_eth + (u_extra - 0.3) * 0.01
                used_adj = (block % 3) == 0
                bid = 0.05 + 0.1 * u_bid if used_adj else 0.0
                delta = 0.01 * u_delta if used_adj else 0.0
                block_rows.append(dict(
                    block_number=block,
                    builder_label=builder,
                    coinbase_delta_eth=repr(float(delta_c)),
                    bid_eth=repr(float(bid)),
                    used_bid_adjustment="true" if used_adj else "false",
                    adjustment_delta_eth=repr(float(delta)),
                    slot_time_ms=slot_ms,
                ))
                if used_adj:
                    bp_eth = delta_c - bid + refund_rate(slot_ms) * delta
                else:
                    bp_eth = delta_c
                truth["blocks"][str(block)] = {"true_bp_usd": bp_eth * cfg.eth_price}

    _write_csv(out / "tokens.csv",
               ["address", "symbol", "cex_listed", "is_major", "decimals"],
               [list(r) for r in token_rows])
    _write_csv(out / "transactions.csv", list(tx_rows[0].keys()),
               [list(r.values()) for r in tx_rows])
    quote_rows.sort(key=lambda r: (r[0], r[1]))
    _write_csv(out / "quotes.csv", ["symbol", "ts_ms", "bid", "ask"],
               [[sym, ts, repr(float(px)), repr(float(px))] for sym, ts, px in quote_rows])
    _write_csv(out / "blocks.csv", list(block_rows[0].keys()),
               [list(r.values()) for r in block_rows])
    with open(out / "searchers.json", "w") as f:
        json.dump({
            "labels": {s.label: [contract[s.label]] for s in cfg.searchers},
            "integrated_with": cfg.integrated_with,
        }, f, indent=2, sort_keys=True)
    with open(out / "config.json", "w") as f:
        json.dump({"taker_fee_rate": cfg.taker_fee_rate}, f, indent=2, sort_keys=True)
    with open(out / "ground_truth.json", "w") as f:
        json.dump(truth, f, indent=2, sort_keys=True)
    return truth


def score(ground_truth: dict, out_dir: str | Path) -> dict:
    """Compare pipeline outputs against the generator's ledger."""
    out = Path(out_dir)
    report: dict = {"searchers": {}, "trades": {}, "blocks": {}, "pattern_confusion": {}}
    for name in ("profiles.csv", "economics.csv", "builder_blocks.csv"):
        if not (out / name).exists():
            raise MissingOutputs(name)

    profiles = _read_output(out / "profiles.csv", SearcherProfile, "horizon")
    est_profiles = {p.searcher_label: p for p in profiles}
    confusion: dict[str, int] = {}
    horizon_errors = {}
    for label, truth in ground_truth["searchers"].items():
        est = est_profiles.get(label)
        if est is None:
            continue
        key = f"{truth['true_pattern']}->{est.pattern}"
        confusion[key] = confusion.get(key, 0) + 1
        entry: dict = {"true_pattern": truth["true_pattern"], "est_pattern": est.pattern}
        if truth["true_hedge_delay_s"] is not None and est.t_star_s is not None:
            err = abs(est.t_star_s - truth["true_hedge_delay_s"])
            entry["t_star_error_s"] = err
            horizon_errors[label] = err
        report["searchers"][label] = entry
    report["pattern_confusion"] = confusion
    report["max_t_star_error_s"] = max(horizon_errors.values()) if horizon_errors else None

    economics = _read_output(out / "economics.csv", TradeEconomics, "estimate")
    est_by_tx = {e.tx_hash: e for e in economics}
    ev_errs, pnl_errs = [], []
    for tx, truth in ground_truth["trades"].items():
        est = est_by_tx.get(tx)
        if est is None:
            continue
        ev_errs.append(_rel_err(est.ev_usd, truth["true_ev_usd"]))
        pnl_errs.append(_rel_err(est.pnl_usd, truth["true_pnl_usd"]))
    report["trades"] = {
        "n_compared": len(ev_errs),
        "n_truth": len(ground_truth["trades"]),
        "max_ev_rel_error": max(ev_errs) if ev_errs else None,
        "max_pnl_rel_error": max(pnl_errs) if pnl_errs else None,
    }

    blocks = _read_output(out / "builder_blocks.csv", BuilderBlockEconomics, "builder")
    est_bp = {str(b.block_number): b.bp_usd for b in blocks}
    matches = sum(
        1
        for b, truth in ground_truth["blocks"].items()
        if b in est_bp and _rel_err(est_bp[b], truth["true_bp_usd"]) < 1e-12
    )
    report["blocks"] = {"n_truth": len(ground_truth["blocks"]), "bp_exact_matches": matches}
    return report


def _rel_err(est: float, true: float) -> float:
    return abs(est - true) / max(abs(true), 1e-12)
