"""CEX-DEX arbitrage detection: six heuristics plus multi-swap netting.

External-knowledge heuristics (mempool privacy, atomic-MEV classification,
OFA backruns, router/bot labels) arrive as precomputed boolean flags on the
transaction; this module only combines them and reconstructs the effective
traded pair from per-swap net flows.

DetectionVerdict declares the rows of verdicts.csv, one per transaction, and
ArbTrade those of detections.csv, one per transaction that passed.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal

from .data_model import AMOUNT_CONTEXT, RawTransaction, SearcherLabelFile, TokenRegistry
from .errors import NotTwoSided

HEURISTICS = ("H1", "H2", "H3", "H4", "H5", "H6")

# Multi-hop routing can leave sub-dust residue on intermediate tokens;
# anything at or below this is treated as zero.
DUST_THRESHOLD = Decimal("1e-12")


@dataclass(frozen=True)
class DetectionVerdict:
    """One row of verdicts.csv: h1..h6 in HEURISTICS order, and the reasons
    for failing, "; "-joined with H6's first ("" when the transaction passed)."""
    tx_hash: str
    passed: bool
    h1: bool
    h2: bool
    h3: bool
    h4: bool
    h5: bool
    h6: bool
    failure_reasons: str


@dataclass(frozen=True)
class ArbTrade:
    tx_hash: str
    block_number: int
    searcher_label: str
    builder_label: str
    slot_time_ms: int
    token_bought: str
    amount_bought: Decimal
    token_sold: str
    amount_sold: Decimal
    volume_usd: float
    base_fee_eth: float
    builder_tip_eth: float  # priority fee + coinbase transfer


def aggregate_swaps(tx: RawTransaction) -> dict[str, Decimal]:
    """Net signed flow per token: received minus spent, dust dropped."""
    net: dict[str, Decimal] = {}
    for s in tx.swaps:
        net[s.token_in] = AMOUNT_CONTEXT.subtract(net.get(s.token_in, Decimal(0)), s.amount_in)
        net[s.token_out] = AMOUNT_CONTEXT.add(net.get(s.token_out, Decimal(0)), s.amount_out)
    return {t: v for t, v in net.items() if abs(v) > DUST_THRESHOLD}


def effective_pair(net_flows: dict[str, Decimal]) -> tuple[str, Decimal, str, Decimal]:
    """Reduce net flows to (token_bought, x, token_sold, y).

    Raises NotTwoSided unless exactly one token was netted in and exactly
    one netted out (atomic loops and 3+-legged residuals are rejected).
    """
    bought = [(t, v) for t, v in net_flows.items() if v > 0]
    sold = [(t, v) for t, v in net_flows.items() if v < 0]
    if len(bought) != 1 or len(sold) != 1 or len(net_flows) != 2:
        raise NotTwoSided(f"net flows over {len(net_flows)} tokens")
    (token_bought, x), (token_sold, y) = bought[0], sold[0]
    return token_bought, x, token_sold, -y


def apply_heuristics(tx: RawTransaction, registry: TokenRegistry) -> DetectionVerdict:
    reasons: list[str] = []

    h6 = tx.erc721_transfer_count == 0
    if not h6:
        reasons.append("H6: contains ERC-721 transfer")
    else:
        try:
            token_bought, _, token_sold, _ = effective_pair(aggregate_swaps(tx))
        except NotTwoSided as e:
            h6 = False
            reasons.append(f"H6: {e}")
        else:
            for t in (token_bought, token_sold):
                if not registry.is_listed(t):
                    h6 = False
                    reasons.append(f"H6: token {t} not CEX-listed")

    h1_to_h5 = (
        (not tx.seen_in_mempool, "seen in public mempool"),
        (any(s.first_in_direction for s in tx.swaps), "no swap is first in its direction"),
        (not tx.atomic_mev_flag and not tx.liquidation_flag, "atomic MEV or liquidation"),
        (not tx.ofa_backrun_flag, "OFA backrun"),
        (not tx.router_or_bot_flag, "router or labeled bot"),
    )
    reasons += [f"{h}: {why}" for h, (ok, why) in zip(HEURISTICS, h1_to_h5) if not ok]
    per_heuristic = [ok for ok, _ in h1_to_h5] + [h6]
    return DetectionVerdict(tx.tx_hash, all(per_heuristic), *per_heuristic, "; ".join(reasons))


def detect_all(
    txs: list[RawTransaction],
    registry: TokenRegistry,
    labels: SearcherLabelFile,
) -> tuple[list[ArbTrade], list[DetectionVerdict]]:
    """Run every transaction through the heuristics.

    Every input gets a verdict; passing transactions become ArbTrades.
    Contracts without a label are kept under "other:<address>" so landscape
    totals stay complete.
    """
    addr_to_label = labels.address_to_label()
    trades: list[ArbTrade] = []
    verdicts: list[DetectionVerdict] = []
    for tx in sorted(txs, key=lambda t: (t.block_number, t.tx_hash)):
        verdict = apply_heuristics(tx, registry)
        verdicts.append(verdict)
        if not verdict.passed:
            continue
        token_bought, x, token_sold, y = effective_pair(aggregate_swaps(tx))
        label = addr_to_label.get(tx.searcher_contract, f"other:{tx.searcher_contract}")
        trades.append(
            ArbTrade(
                tx_hash=tx.tx_hash,
                block_number=tx.block_number,
                searcher_label=label,
                builder_label=tx.builder_label,
                slot_time_ms=tx.slot_time_ms,
                token_bought=token_bought,
                amount_bought=x,
                token_sold=token_sold,
                amount_sold=y,
                volume_usd=tx.volume_usd,
                base_fee_eth=tx.base_fee_eth,
                builder_tip_eth=tx.priority_fee_eth + tx.coinbase_transfer_eth,
            )
        )
    return trades, verdicts
