"""CEX-DEX arbitrage detection: six heuristics plus multi-swap netting.

External-knowledge heuristics (mempool privacy, atomic-MEV classification,
OFA backruns, router/bot labels) arrive as precomputed boolean flags on the
transaction; this module only combines them and reconstructs the effective
traded pair from per-swap net flows.
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
    tx_hash: str
    passed: bool
    per_heuristic: dict[str, bool]
    failure_reasons: tuple[str, ...]


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
    per: dict[str, bool] = {}
    reasons: list[str] = []

    per["H1"] = not tx.seen_in_mempool
    per["H2"] = any(s.first_in_direction for s in tx.swaps)
    per["H3"] = not tx.atomic_mev_flag and not tx.liquidation_flag
    per["H4"] = not tx.ofa_backrun_flag
    per["H5"] = not tx.router_or_bot_flag

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
    per["H6"] = h6

    if not per["H1"]:
        reasons.append("H1: seen in public mempool")
    if not per["H2"]:
        reasons.append("H2: no swap is first in its direction")
    if not per["H3"]:
        reasons.append("H3: atomic MEV or liquidation")
    if not per["H4"]:
        reasons.append("H4: OFA backrun")
    if not per["H5"]:
        reasons.append("H5: router or labeled bot")

    return DetectionVerdict(
        tx_hash=tx.tx_hash,
        passed=all(per.values()),
        per_heuristic=per,
        failure_reasons=tuple(reasons),
    )


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
