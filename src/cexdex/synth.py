"""Deterministic synthetic-scenario generator and recovery scorer.

Generates the six input files plus a ground-truth ledger. Each synthetic
trade occupies its own 12 s slot; the traded token's quote series inside
the trade's markout window carries a spread shape that rises linearly to
its peak at the configured hedge delay and then decays per the impact
model, so the estimation pipeline should recover the configured delay as
the searcher's horizon.

Trades are in day order, then searcher order. Trade i owns values i*(G+5)
to i*(G+5)+G+4 of a counter-based splitmix64 stream, G the markout offsets:
u_major, u_size, G price-noise draws, u_extra, u_bid, u_delta. So identical
seeds give byte-identical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .builder import BuilderBlockEconomics, refund_rate
from .config import PipelineConfig, checked_fields, read_json
from .data_model import BLOCK_KINDS, QUOTE_KINDS, TOKEN_KINDS, TRANSACTION_KINDS, strings
from .errors import InvalidConfig, MissingOutputs
from .estimate import TradeEconomics
from .horizon import SearcherProfile
from .pipeline import _read_output, _write_csv

DECAY_GENTLE = "gentle"
DECAY_ABRUPT = "abrupt"
DECAY_NONE = "none"
_PATTERN = {DECAY_GENTLE: "P1", DECAY_ABRUPT: "P2", DECAY_NONE: "P3"}

# 2024-06-01T00:00:00Z; synthetic slots advance 12 s from here
_T0_MS = 1717200000000
_BLOCK0 = 20_000_000
_SLOT_MS = 12_000
_SLOTS_PER_DAY = 86_400_000 // _SLOT_MS

GENTLE_DECAY_PER_S = 0.10  # fraction of peak spread lost per second
# post-drop spread retained after an abrupt hedge; low enough that the
# gross-return decline over 3 s clears one half even after fees
ABRUPT_KEEP_FRACTION = 0.3
DEX_EDGE = 0.001  # baseline DEX mispricing captured by the trade
PEAK_AMPLITUDE = 0.005  # extra spread at the hedge-delay peak
ALT_PRICE = 10.0  # USD, every alt token
BTC_PRICE = 60000.0
ETH_PRICE = 2000.0
BASE_NOTIONAL_USD = 5000.0  # a trade's notional is 0.75-1.25 times this
BASE_FEE_ETH = 1e-6  # every trade's base fee

_WBTC = "0x2260fac5e5542a773aa44fbcfedf7c193bc2c599"
_USDT = "0xdac17f958d2ee523a2206206994597c13d831ec7"

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def splitmix64(seed, start, count):
    """Counter-based splitmix64 stream: value i = mix(seed + (start+i+1)*golden)."""
    i = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z = np.uint64(seed) + i * _GOLDEN
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def uniform01(seed: int, start: int, count: int) -> np.ndarray:
    """Uniform [0, 1) doubles from the splitmix64 stream."""
    return (splitmix64(np.uint64(seed), start, count) >> np.uint64(11)) * 2.0**-53


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
    integrated_with: dict[str, str] = field(default_factory=dict)  # label -> builder
    base_volatility: float = 0.0  # per-tick relative price noise amplitude
    taker_fee_rate: float = 0.0001725

    def validate(self, config: PipelineConfig) -> None:
        labels = [s.label for s in self.searchers]
        for bad, message in [
            (not 0 <= self.seed < 2**64, "seed must be in [0, 2**64)"),
            (self.n_days <= 0, "n_days must be > 0"),
            (not (self.searchers and self.builders), "searchers and builders must not be empty"),
            (len(set(labels)) < len(labels), "searcher labels must be distinct"),
            *((not math.isfinite(getattr(self, f.name)), f"{f.name} must be finite")
              for f in fields(self) if f.type == "float"),
        ]:
            if bad:
                raise InvalidConfig(message)
        for s in self.searchers:
            flat, delay = s.impact_decay == DECAY_NONE, s.true_hedge_delay_s
            for bad, message in [
                (s.impact_decay not in _PATTERN, f"unknown impact_decay {s.impact_decay!r}"),
                (flat and delay is not None, "delay given with decay 'none'"),
                (not flat and delay is None, "missing true_hedge_delay_s"),
                # the spread rises from the grid's first offset to the delay
                (delay is not None and not (math.isfinite(delay)
                                            and round(delay * 1000) in config.offsets_ms[1:]),
                 "delay not a grid offset after the first"),
                (not 0.0 <= s.major_share <= 1.0, "major_share outside [0, 1]"),
                (not 0.0 <= s.tip_fraction <= 1.0, "tip_fraction outside [0, 1]"),
                (s.trades_per_day <= 0, "trades_per_day must be > 0"),
            ]:
                if bad:
                    raise InvalidConfig(f"{s.label}: {message}")
        per_day = sum(s.trades_per_day for s in self.searchers)
        if per_day > _SLOTS_PER_DAY:
            raise InvalidConfig(f"{per_day} trades/day exceeds {_SLOTS_PER_DAY} slots")
        for label, builder in self.integrated_with.items():
            if label not in labels:
                raise InvalidConfig(f"integrated_with references unknown searcher {label}")
            if builder not in self.builders:
                raise InvalidConfig(f"integrated_with references unknown builder {builder}")

    @classmethod
    def from_json(cls, path: str | Path) -> "SynthConfig":
        """A scenario file: an object of SynthConfig fields, each of its field's
        JSON type, "searchers" a list of SearcherSpec objects; validate checks values."""
        name = Path(path).name
        raw = checked_fields(read_json(path), cls, name)
        raw["searchers"] = tuple(
            SearcherSpec(**checked_fields(s, SearcherSpec, f"searcher {i} of {name}"))
            for i, s in enumerate(raw["searchers"])
        )
        if "builders" in raw:
            raw["builders"] = tuple(raw["builders"])
        return cls(**raw)


def _spread_at(offset_s: float, delay_s: float | None, decay: str, grid_start_s: float) -> float:
    """Pre-fee spread (DEX edge + injected bump) at one markout offset."""
    if decay == DECAY_NONE:
        return DEX_EDGE
    full = DEX_EDGE + PEAK_AMPLITUDE
    if offset_s <= delay_s:
        rise = (offset_s - grid_start_s) / (delay_s - grid_start_s)
        return DEX_EDGE + PEAK_AMPLITUDE * rise
    if decay == DECAY_ABRUPT:
        return full * ABRUPT_KEEP_FRACTION
    return full * (1.0 - GENTLE_DECAY_PER_S * (offset_s - delay_s))


def generate(cfg: SynthConfig, out_dir: str | Path) -> dict:
    """Write the six input files plus ground_truth.json; returns the ledger.
    Each per-trade column repeats one trade's operations in their order, so
    every float has the bits a trade-by-trade loop gives it. The CSVs are
    written as columns under their loaders' kinds by pipeline._write_csv, a
    scalar standing for one value in every row; an amount is text, numpy's
    cast of the float, which is its repr."""
    run_cfg = PipelineConfig()  # the default markout grid
    cfg.validate(run_cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    specs, n_grid = cfg.searchers, len(run_cfg.offsets_ms)

    # per searcher, in config order
    contract = np.array([f"0x5ea{j:037x}" for j in range(len(specs))], dtype=object)
    alt_addr = [f"0xa17{j:037x}" for j in range(len(specs))]
    alt_symbol = [f"TOK{j:02d}USDT" for j in range(len(specs))]
    major_share, tip_fraction, per_day = (np.array([getattr(s, name) for s in specs]) for name in (
        "major_share", "tip_fraction", "trades_per_day"))
    priced = np.array([s.impact_decay != DECAY_NONE for s in specs])
    k_star = np.array([run_cfg.index_of(s.true_hedge_delay_s or 0.0) for s in specs])
    # 1 + the spread at each offset
    lift = np.array([[1.0 + _spread_at(off_s, s.true_hedge_delay_s, s.impact_decay,
                                       run_cfg.offsets_s[0])
                      for off_s in run_cfg.offsets_s] for s in specs])
    # quote symbols by code, the codes in the symbols' sort order
    symbols = sorted({"BTCUSDT", "ETHUSDT", *alt_symbol})
    code = {sym: c for c, sym in enumerate(symbols)}
    token = {"BTCUSDT": _WBTC, **dict(zip(alt_symbol, alt_addr))}
    symbol_token = np.array([token.get(sym) for sym in symbols], dtype=object)
    pools = np.array([f"pool-{sym}" for sym in symbols], dtype=object)

    # per trade: days, then searchers in config order, then their trades
    searcher = np.tile(np.repeat(np.arange(len(specs)), per_day), cfg.n_days)
    n = len(searcher)
    day, intraday = np.divmod(np.arange(n), per_day.sum())
    slot = day * _SLOTS_PER_DAY + intraday  # since _BLOCK0's; one trade each
    block, slot_ms = _BLOCK0 + slot, _T0_MS + slot * _SLOT_MS
    tx_hash = np.array(list(map("0xtx{:010d}".format, block.tolist())), dtype=object)

    u = uniform01(cfg.seed, 0, n * (n_grid + 5)).reshape(n, n_grid + 5)
    is_major = u[:, 0] < major_share[searcher]
    sym = np.where(is_major, code["BTCUSDT"], np.array([code[a] for a in alt_symbol])[searcher])
    p0 = np.where(is_major, BTC_PRICE, ALT_PRICE)
    notional = BASE_NOTIONAL_USD * (0.75 + 0.5 * u[:, 1])
    x = notional / p0
    y = notional * (1.0 - DEX_EDGE)
    # bid == ask, so the midpoint is exactly the injected price
    ticks = p0[:, None] * lift[searcher] * (1.0 + cfg.base_volatility * (2.0 * u[:, 2:-3] - 1.0))

    # ground-truth economics at the configured delay, from the ticks emitted
    leg_a = x * ticks[np.arange(n), k_star[searcher]]
    mr = leg_a - y - cfg.taker_fee_rate * (leg_a + y)
    ev = mr - BASE_FEE_ETH * ETH_PRICE
    tip_usd = np.where(priced[searcher] & (ev > 0), tip_fraction[searcher] * ev, 0.0)
    tip_eth = tip_usd / ETH_PRICE
    integrated = np.array([cfg.integrated_with.get(s.label) for s in specs], dtype=object)[searcher]
    builder = np.where(np.equal(integrated, None),
                       np.array(cfg.builders, dtype=object)[slot % len(cfg.builders)], integrated)
    delta_c = tip_eth + (u[:, -3] - 0.3) * 0.01
    used_adj = block % 3 == 0
    bid = np.where(used_adj, 0.05 + 0.1 * u[:, -2], 0.0)
    delta = np.where(used_adj, 0.01 * u[:, -1], 0.0)
    refund = refund_rate(slot_ms)
    bp_eth = np.where(used_adj, delta_c - bid + refund * delta, delta_c)

    k = len(specs)
    _write_csv(out / "tokens.csv", dict(list(TOKEN_KINDS.items())[:5]), [
        [_WBTC, _USDT, *alt_addr], ["WBTC", "USDT", *(f"TOK{j:02d}" for j in range(k))], True,
        np.array([True] * 2 + [False] * k), [8, 6] + [18] * k,
    ])
    txs = {
        "tx_hash": tx_hash, "block_number": block, "slot_time_ms": slot_ms,
        "searcher_contract": contract[searcher], "pool_id": pools[sym], "dex": "synthswap",
        "token_in": _USDT, "amount_in": strings(y), "token_out": symbol_token[sym],
        "amount_out": strings(x), "log_index": 0, "first_in_direction": True,
        "seen_in_mempool": False, "atomic_mev_flag": False, "liquidation_flag": False,
        "ofa_backrun_flag": False, "router_or_bot_flag": False, "erc721_transfer_count": 0,
        "base_fee_eth": BASE_FEE_ETH, "priority_fee_eth": tip_eth,
        "coinbase_transfer_eth": 0.0, "builder_label": builder, "volume_usd": notional,
    }
    _write_csv(out / "transactions.csv", TRANSACTION_KINDS, [txs[c] for c in TRANSACTION_KINDS])
    # per trade, a tick at each offset, then ETHUSDT a second before the
    # slot; sorted by symbol and time (lexsort is stable)
    q_symbol = np.column_stack([np.tile(sym, (n_grid, 1)).T, np.full(n, code["ETHUSDT"])]).ravel()
    q_ts = np.column_stack([slot_ms[:, None] + np.array(run_cfg.offsets_ms), slot_ms - 1000]).ravel()
    order = np.lexsort((q_ts, q_symbol))
    q_px = np.column_stack([ticks, np.full(n, ETH_PRICE)]).ravel()[order]
    _write_csv(out / "quotes.csv", QUOTE_KINDS, [
        np.array(symbols, dtype=object)[q_symbol[order]], q_ts[order], q_px, q_px])
    _write_csv(out / "blocks.csv", BLOCK_KINDS, [
        block, builder, delta_c, bid, used_adj, delta, slot_ms])
    with open(out / "searchers.json", "w") as f:
        json.dump({"labels": {s.label: [c] for s, c in zip(specs, contract)},
                   "integrated_with": cfg.integrated_with}, f, indent=2, sort_keys=True)
    with open(out / "config.json", "w") as f:
        json.dump({"taker_fee_rate": cfg.taker_fee_rate}, f, indent=2, sort_keys=True)

    rows = np.flatnonzero(priced[searcher])
    truth = {
        "searchers": {s.label: {"true_hedge_delay_s": s.true_hedge_delay_s,
                                "true_pattern": _PATTERN[s.impact_decay]} for s in specs},
        "trades": dict(zip(tx_hash[rows].tolist(), map(
            lambda label, ev, pnl: {"searcher_label": label, "true_ev_usd": ev, "true_pnl_usd": pnl},
            np.array([s.label for s in specs])[searcher[rows]].tolist(), ev[rows].tolist(),
            (ev - tip_usd)[rows].tolist()))),
        "blocks": dict(zip(map(str, block.tolist()), map(
            lambda bp: {"true_bp_usd": bp}, (bp_eth * ETH_PRICE).tolist()))),
    }
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

    est_profiles = {p.searcher_label: p
                    for p in _read_output(out / "profiles.csv", SearcherProfile, "horizon").rows()}
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

    est_by_tx = {e.tx_hash: e
                 for e in _read_output(out / "economics.csv", TradeEconomics, "estimate").rows()}
    pairs = [(est_by_tx[tx], truth) for tx, truth in ground_truth["trades"].items() if tx in est_by_tx]
    ev_errs = [_rel_err(est.ev_usd, truth["true_ev_usd"]) for est, truth in pairs]
    pnl_errs = [_rel_err(est.pnl_usd, truth["true_pnl_usd"]) for est, truth in pairs]
    report["trades"] = {
        "n_compared": len(ev_errs),
        "n_truth": len(ground_truth["trades"]),
        "max_ev_rel_error": max(ev_errs) if ev_errs else None,
        "max_pnl_rel_error": max(pnl_errs) if pnl_errs else None,
    }

    blocks = _read_output(out / "builder_blocks.csv", BuilderBlockEconomics, "builder")
    est_bp = dict(zip(map(str, blocks.block_number.tolist()), blocks.bp_usd.tolist()))
    matches = sum(b in est_bp and _rel_err(est_bp[b], truth["true_bp_usd"]) < 1e-12
                  for b, truth in ground_truth["blocks"].items())
    report["blocks"] = {"n_truth": len(ground_truth["blocks"]), "bp_exact_matches": matches}
    return report


def _rel_err(est: float, true: float) -> float:
    return abs(est - true) / max(abs(true), 1e-12)
