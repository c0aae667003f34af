"""Per-block builder profit with bid-adjustment correction and subsidies.

Without bid adjustment, the builder's on-chain profit is the coinbase
balance delta. With it, the original bid is paid from an EOA and part of
the adjustment delta is refunded, so BP = dC - b + r*delta with the refund
rate r set by the slot time: 1 until Ultra Sound relay halved it at
REFUND_CUTOFF_MS, 0.5 from then on. Aggregated profit adds the PnL that the
builder's integrated searchers earned inside the same block.

Blocks are a Table of BlockRecord in block number order, and every function
here works on all of them at once, elementwise; a builder's totals are
group sums that add its blocks in that order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import group_sum, lookup
from .data_model import Table, optional

# Ultra Sound relay halved the refund rate at 2024-03-05 05:00 UTC.
REFUND_CUTOFF_MS = 1709614800000


def refund_rate(slot_time_ms: np.ndarray) -> np.ndarray:
    """Share of the adjustment delta refunded to a block at each slot time."""
    return np.where(slot_time_ms < REFUND_CUTOFF_MS, 1.0, 0.5)


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


def builder_onchain_profit(blocks: Table, eth_usd: np.ndarray) -> np.ndarray:
    """BP of each block in USD at its slot-time ETH price."""
    corrected = (blocks.coinbase_delta_eth - blocks.bid_eth
                 + refund_rate(blocks.slot_time_ms) * blocks.adjustment_delta_eth)
    return np.where(blocks.used_bid_adjustment, corrected, blocks.coinbase_delta_eth) * eth_usd


def integrated_searcher_pnl(
    blocks: Table,
    economics: Table,
    integrated_with: dict[str, str],
) -> tuple[np.ndarray, np.ndarray]:
    """(SP, applicable) of each block.

    Only the trades (rows of ``economics``, a Table of TradeEconomics) that
    land in this exact block, by a searcher that ``integrated_with``
    (searcher -> builder) maps to the block's builder, count, summed in
    economics-row order; builders without an integrated searcher get SP = 0
    marked N/A.
    """
    k = lookup(economics.block_number, blocks.block_number)  # each row's block, or -1
    rows = np.flatnonzero(k >= 0)
    searcher, builder = economics.searcher_label[rows], blocks.builder_label[k[rows]]
    mine, applicable = np.zeros(len(rows), dtype=bool), np.zeros(len(blocks), dtype=bool)
    for s, b in integrated_with.items():
        mine |= (searcher == s) & (builder == b)
        applicable |= blocks.builder_label == b
    return group_sum(k[rows[mine]], economics.pnl_usd[rows[mine]], len(blocks)), applicable


def aggregated_margin(blocks: Table, p_usd: np.ndarray, eth_usd: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """(PM = P / (P + b - r*delta), all USD, of each block; the mask of the
    blocks whose denominator is not 0, the only ones where PM is defined)."""
    r = np.where(blocks.used_bid_adjustment, refund_rate(blocks.slot_time_ms), 0.0)
    denom = p_usd + (blocks.bid_eth - r * blocks.adjustment_delta_eth) * eth_usd
    defined = denom != 0
    return np.divide(p_usd, denom, out=np.zeros_like(p_usd), where=defined), defined


def subsidy_flags(bp_usd, p_usd):
    """(before, after). A block is never subsidized when BP is positive."""
    before = bp_usd < 0
    return before, before & (p_usd < 0)


def block_economics(
    blocks: Table,
    economics: Table,
    integrated_with: dict[str, str],
    eth_usd: np.ndarray,
) -> Table:
    """A Table of BuilderBlockEconomics, a row per block of ``blocks`` priced
    at ``eth_usd``. ``economics`` is a Table of TradeEconomics;
    ``integrated_with`` is ``SearcherLabelFile.integrated_with``."""
    bp = builder_onchain_profit(blocks, eth_usd)
    sp, applicable = integrated_searcher_pnl(blocks, economics, integrated_with)
    p = bp + sp
    margin, defined = aggregated_margin(blocks, p, eth_usd)
    before, after = subsidy_flags(bp, p)
    return Table(BuilderBlockEconomics, [blocks.block_number, blocks.builder_label, bp, sp, p,
                                         optional(margin, defined), applicable, before, after])


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


def builder_summary(blocks: Table, per_block: Table, eth_usd: np.ndarray) -> Table:
    """One Table-2/3 style row per builder, by label, as a Table of
    BuilderSummary; ``per_block`` is ``block_economics`` of ``blocks`` at
    ``eth_usd``."""
    labels, code = np.unique(blocks.builder_label, return_inverse=True)
    n = len(labels)

    def total(values, rows=slice(None)):
        return group_sum(code[rows], values[rows], n)

    def mean(values, defined):
        count = np.bincount(code[defined], minlength=n).tolist()
        return [s / c if c else None for s, c in zip(total(values, defined).tolist(), count)]

    bp, p = per_block.bp_usd, per_block.p_usd
    before, after = per_block.subsidized_before, per_block.subsidized_after
    bp_margin, bp_defined = aggregated_margin(blocks, bp, eth_usd)
    p_defined = np.not_equal(per_block.margin, None)
    p_margin = np.where(p_defined, per_block.margin, 0.0).astype(np.float64)
    n_blocks = np.bincount(code, minlength=n)
    return Table(BuilderSummary, [
        labels, n_blocks, total(blocks.bid_eth), total(bp), total(per_block.sp_usd), total(p),
        mean(bp_margin, bp_defined), mean(p_margin, p_defined),
        np.bincount(code[per_block.sp_applicable], minlength=n) > 0,
        np.bincount(code[before], minlength=n), np.bincount(code[after], minlength=n),
        total(bp, before), total(bp, after), total(p, after),
        n_blocks - np.bincount(code[bp_defined], minlength=n),
    ])
