"""Per-block builder profit with bid-adjustment correction and subsidies.

Without bid adjustment, the builder's on-chain profit is the coinbase
balance delta. With it, the original bid is paid from an EOA and part of
the adjustment delta is refunded, so BP = dC - b + r*delta with the refund
rate r set by the slot time: 1 until Ultra Sound relay halved it at
REFUND_CUTOFF_MS, 0.5 from then on. Aggregated profit adds the integrated
searcher's PnL earned inside the same block.
"""

from __future__ import annotations

from dataclasses import dataclass

from .data_model import BlockRecord
from .errors import ZeroDenominator
from .estimate import TradeEconomics

# Ultra Sound relay halved the refund rate at 2024-03-05 05:00 UTC.
REFUND_CUTOFF_MS = 1709614800000


def refund_rate(slot_time_ms: int) -> float:
    """Share of the adjustment delta refunded to a block at this slot time."""
    return 1.0 if slot_time_ms < REFUND_CUTOFF_MS else 0.5


@dataclass
class BuilderBlockEconomics:
    block_number: int
    builder_label: str
    bp_usd: float
    sp_usd: float
    p_usd: float
    margin: float | None
    sp_applicable: bool  # False when the builder has no integrated searcher
    subsidized_before: bool
    subsidized_after: bool


def builder_onchain_profit(block: BlockRecord, eth_usd: float) -> float:
    """BP in USD at the slot-time ETH price."""
    if not block.used_bid_adjustment:
        bp_eth = block.coinbase_delta_eth
    else:
        r = refund_rate(block.slot_time_ms)
        bp_eth = block.coinbase_delta_eth - block.bid_eth + r * block.adjustment_delta_eth
    return bp_eth * eth_usd


def index_pnl(economics: list[TradeEconomics]) -> dict[tuple[int, str], list[float]]:
    """Trade PnLs by (block_number, searcher_label), in economics-row order."""
    out: dict[tuple[int, str], list[float]] = {}
    for e in economics:
        out.setdefault((e.block_number, e.searcher_label), []).append(e.pnl_usd)
    return out


def integrated_searcher_pnl(
    block: BlockRecord,
    pnl_by_block: dict[tuple[int, str], list[float]],
    searcher_of_builder: dict[str, str],
) -> tuple[float, bool]:
    """(SP, applicable) for this block.

    Only the integrated searcher's trades landing in this exact block
    count, summed in economics-row order; builders without an integrated
    searcher get SP = 0 marked N/A.
    """
    searcher = searcher_of_builder.get(block.builder_label)
    if searcher is None:
        return 0.0, False
    return sum(pnl_by_block.get((block.block_number, searcher), [])), True


def aggregated_margin(block: BlockRecord, p_usd: float, eth_usd: float) -> float:
    """PM = P / (P + b - r*delta), all USD."""
    r = refund_rate(block.slot_time_ms) if block.used_bid_adjustment else 0.0
    denom = p_usd + (block.bid_eth - r * block.adjustment_delta_eth) * eth_usd
    if denom == 0:
        raise ZeroDenominator(f"block {block.block_number}")
    return p_usd / denom


def subsidy_flags(bp_usd: float, p_usd: float) -> tuple[bool, bool]:
    """(before, after). A block is never subsidized when BP is positive."""
    before = bp_usd < 0
    return before, before and p_usd < 0


def block_economics(
    block: BlockRecord,
    pnl_by_block: dict[tuple[int, str], list[float]],
    searcher_of_builder: dict[str, str],
    eth_usd: float,
) -> BuilderBlockEconomics:
    """``pnl_by_block`` from ``index_pnl``; ``searcher_of_builder`` from
    ``SearcherLabelFile.builder_to_searcher``."""
    bp = builder_onchain_profit(block, eth_usd)
    sp, applicable = integrated_searcher_pnl(block, pnl_by_block, searcher_of_builder)
    p = bp + sp
    try:
        margin = aggregated_margin(block, p, eth_usd)
    except ZeroDenominator:
        margin = None
    before, after = subsidy_flags(bp, p)
    return BuilderBlockEconomics(
        block_number=block.block_number,
        builder_label=block.builder_label,
        bp_usd=bp,
        sp_usd=sp,
        p_usd=p,
        margin=margin,
        sp_applicable=applicable,
        subsidized_before=before,
        subsidized_after=after,
    )


@dataclass
class BuilderSummary:
    builder_label: str
    n_blocks: int
    total_bid_eth: float
    total_bp_usd: float
    total_sp_usd: float
    total_p_usd: float
    builder_margin: float | None  # cumulative mean over BP-only margins
    aggregated_profit_margin: float | None  # cumulative mean over P margins
    sp_applicable: bool
    subsidized_blocks_before: int
    subsidized_blocks_after: int
    subsidy_bp_before_usd: float  # sum of BP over before-flagged blocks
    subsidy_bp_after_usd: float  # sum of BP over after-flagged blocks
    subsidy_p_after_usd: float  # sum of P over after-flagged blocks
    margin_skipped_blocks: int


def builder_summary(
    blocks: list[BlockRecord],
    per_block: list[BuilderBlockEconomics],
    eth_usd_by_block: dict[int, float],
) -> list[BuilderSummary]:
    """One Table-2/3 style row per builder, deterministic label order."""
    by_builder: dict[str, list[tuple[BlockRecord, BuilderBlockEconomics]]] = {}
    econ_by_block = {e.block_number: e for e in per_block}
    for b in blocks:
        by_builder.setdefault(b.builder_label, []).append((b, econ_by_block[b.block_number]))

    out = []
    for label in sorted(by_builder):
        rows = by_builder[label]
        builder_margins = []
        agg_margins = []
        skipped = 0
        for block, econ in rows:
            eth = eth_usd_by_block[block.block_number]
            try:
                builder_margins.append(aggregated_margin(block, econ.bp_usd, eth))
            except ZeroDenominator:
                skipped += 1
            if econ.margin is not None:
                agg_margins.append(econ.margin)
        before = [e for _, e in rows if e.subsidized_before]
        after = [e for _, e in rows if e.subsidized_after]
        out.append(
            BuilderSummary(
                builder_label=label,
                n_blocks=len(rows),
                total_bid_eth=sum(b.bid_eth for b, _ in rows),
                total_bp_usd=sum(e.bp_usd for _, e in rows),
                total_sp_usd=sum(e.sp_usd for _, e in rows),
                total_p_usd=sum(e.p_usd for _, e in rows),
                builder_margin=(sum(builder_margins) / len(builder_margins))
                if builder_margins else None,
                aggregated_profit_margin=(sum(agg_margins) / len(agg_margins))
                if agg_margins else None,
                sp_applicable=any(e.sp_applicable for _, e in rows),
                subsidized_blocks_before=len(before),
                subsidized_blocks_after=len(after),
                subsidy_bp_before_usd=sum(e.bp_usd for e in before),
                subsidy_bp_after_usd=sum(e.bp_usd for e in after),
                subsidy_p_after_usd=sum(e.p_usd for e in after),
                margin_skipped_blocks=skipped,
            )
        )
    return out
