"""CEX-DEX arbitrage detection: six heuristics plus multi-swap netting.

External-knowledge heuristics (mempool privacy, atomic-MEV classification,
OFA backruns, router/bot labels) arrive as precomputed boolean flags on the
transaction; this module only combines them and reconstructs the effective
traded pair from per-swap net flows.

``detect_all`` judges a TransactionTable column by column: H1-H5 and H6's
ERC-721 test are boolean columns, and a one-swap transaction's pair is its
swap, less a dust leg. Only a transaction with two or more swaps is netted
token by token in Decimal.

DetectionVerdict declares the rows of verdicts.csv, one per transaction,
and ArbTrade those of detections.csv, one per transaction that passed;
``detect_all`` returns each as a Table.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from .data_model import (
    AMOUNT_CONTEXT, DUST_THRESHOLD, SearcherLabelFile, Table, TokenRegistry, TransactionTable,
    parse_amount, strings,
)

HEURISTICS = ("H1", "H2", "H3", "H4", "H5", "H6")
# why a transaction fails each of H1-H5
_FAILS = ("seen in public mempool", "no swap is first in its direction",
          "atomic MEV or liquidation", "OFA backrun", "router or labeled bot")
_ZERO = Decimal(0)


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


def aggregate_swaps(tokens_in, amounts_in, tokens_out, amounts_out) -> dict[str, Decimal]:
    """Net signed flow per token of one transaction's swaps: received minus
    spent, dust dropped."""
    net: dict[str, Decimal] = {}
    for t_in, a_in, t_out, a_out in zip(tokens_in, amounts_in, tokens_out, amounts_out):
        net[t_in] = AMOUNT_CONTEXT.subtract(net.get(t_in, _ZERO), parse_amount(a_in))
        net[t_out] = AMOUNT_CONTEXT.add(net.get(t_out, _ZERO), parse_amount(a_out))
    return {t: v for t, v in net.items() if abs(v) > DUST_THRESHOLD}


def effective_pair(net_flows: dict[str, Decimal]) -> tuple[str, Decimal, str, Decimal] | None:
    """Reduce net flows to (token_bought, x, token_sold, y), or None unless
    exactly one token was netted in and exactly one netted out (atomic loops
    and 3+-legged residuals are rejected).
    """
    bought = [(t, v) for t, v in net_flows.items() if v > 0]
    sold = [(t, v) for t, v in net_flows.items() if v < 0]
    if len(bought) != 1 or len(sold) != 1 or len(net_flows) != 2:
        return None
    (token_bought, x), (token_sold, y) = bought[0], sold[0]
    return token_bought, x, token_sold, AMOUNT_CONTEXT.minus(y)


def _one_swap_amounts(amounts: list[str]) -> list[str]:
    """Amounts of one-swap transactions as netting leaves them, 0 + amount, as
    text, so that 1E+2 is 100; load_transactions has checked that they parse."""
    create, add = AMOUNT_CONTEXT.create_decimal, AMOUNT_CONTEXT.add
    return [str(add(_ZERO, create(a.strip()))) for a in amounts]


def detect_all(
    table: TransactionTable,
    registry: TokenRegistry,
    labels: SearcherLabelFile,
) -> tuple[Table, Table]:
    """Run every transaction through the heuristics.

    (a Table of ArbTrade, a Table of DetectionVerdict): every input gets a
    verdict, and passing transactions become ArbTrade rows, both in table
    order. Contracts without a label are kept under "other:<address>" so
    landscape totals stay complete.
    """
    starts = table.starts
    n_swaps = np.diff(starts, append=len(table.token_in))
    h1_to_h5 = (
        ~table.seen_in_mempool,
        np.logical_or.reduceat(table.first_in_direction, starts),
        ~(table.atomic_mev_flag | table.liquidation_flag),
        ~table.ofa_backrun_flag,
        ~table.router_or_bot_flag,
    )

    # H6: no ERC-721 transfer, and net flows of one token bought and one sold,
    # both CEX-listed. A one-swap transaction's tokens are its swap's two.
    no_erc721 = table.erc721_transfer_count == 0
    bought, sold = table.token_out[starts], table.token_in[starts]
    n_tokens = 2 - (table.in_is_dust[starts].astype(np.int64) + table.out_is_dust[starts])
    two_sided = n_tokens == 2
    netted: dict[int, tuple[Decimal, Decimal]] = {}
    past_max: set[int] = set()  # netted to an amount no double holds
    for j in np.flatnonzero((n_swaps > 1) & no_erc721).tolist():
        swaps = slice(starts[j], starts[j] + n_swaps[j])
        net = aggregate_swaps(table.token_in[swaps].tolist(), table.amount_in[swaps].tolist(),
                              table.token_out[swaps].tolist(), table.amount_out[swaps].tolist())
        n_tokens[j] = len(net)
        pair = effective_pair(net)
        if pair is not None and not np.isfinite([float(pair[1]), float(pair[3])]).all():
            pair = None
            past_max.add(j)
        if pair is not None:
            bought[j], x, sold[j], y = pair
            netted[j] = (x, y)
        two_sided[j] = pair is not None
    has_pair = no_erc721 & two_sided
    listed = np.append(registry.listed, False)  # row -1: a token tokens.csv lacks is not listed
    bought_listed, sold_listed = listed[registry.rows(bought)], listed[registry.rows(sold)]
    h6 = has_pair & bought_listed & sold_listed
    passed = np.logical_and.reduce([*h1_to_h5, h6])

    reasons = [""] * len(table)
    failed = np.flatnonzero(~passed)
    h_failed = [h[failed].tolist() for h in h1_to_h5]
    for k, j in enumerate(failed.tolist()):
        if not no_erc721[j]:
            why = ["H6: contains ERC-721 transfer"]
        elif j in past_max:
            why = ["H6: net flow past the largest double"]
        elif not two_sided[j]:
            why = [f"H6: net flows over {n_tokens[j]} tokens"]
        else:
            legs = ((bought[j], bought_listed[j]), (sold[j], sold_listed[j]))
            why = [f"H6: token {t} not CEX-listed" for t, ok in legs if not ok]
        why += [f"{h}: {w}" for h, w, ok in zip(HEURISTICS, _FAILS, (c[k] for c in h_failed))
                if not ok]
        reasons[j] = "; ".join(why)
    verdicts = Table(DetectionVerdict, [table.tx_hash, passed, *h1_to_h5, h6, reasons])

    rows = np.flatnonzero(passed)
    first = starts[rows]
    amount_bought = _one_swap_amounts(table.amount_out[first].tolist())
    amount_sold = _one_swap_amounts(table.amount_in[first].tolist())
    for k, j in enumerate(rows.tolist()):
        if j in netted:
            amount_bought[k], amount_sold[k] = map(str, netted[j])
    addr_to_label = labels.address_to_label()
    contracts, code = np.unique(table.searcher_contract[passed], return_inverse=True)
    searcher = [addr_to_label.get(a, f"other:{a}") for a in contracts.tolist()]
    return Table(ArbTrade, [  # in ArbTrade's field order; StringDType is copied fastest by a mask
        table.tx_hash[passed], table.block_number[passed], strings(searcher)[code],
        table.builder_label[passed], table.slot_time_ms[passed], bought[passed], amount_bought,
        sold[passed], amount_sold, table.volume_usd[passed], table.base_fee_eth[passed],
        table.priority_fee_eth[passed] + table.coinbase_transfer_eth[passed],
    ]), verdicts
