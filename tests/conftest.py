import csv
import dataclasses
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from cexdex.config import MarkoutGrid, PipelineConfig
from cexdex.data_model import (
    TRANSACTION_COLUMNS, SearcherLabelFile, Table, TokenRegistry, load_transactions,
)
from cexdex.detect import ArbTrade, DetectionVerdict, detect_all
from cexdex.market import integration_matrix
from cexdex.markout import markout_table
from cexdex.quotes import QuoteStore

# fixed addresses reused across tests
WETH = "0x" + "1" * 40
WBTC = "0x" + "2" * 40
USDT = "0x" + "3" * 40
TOKA = "0x" + "4" * 40  # listed alt
TOKB = "0x" + "5" * 40  # unlisted alt
TOKC = "0x" + "6" * 40  # second listed alt


def make_registry() -> TokenRegistry:
    """Columns: address, listed, major, quote symbol."""
    return TokenRegistry(*zip(
        (WETH, True, True, "ETH"),
        (WBTC, True, True, "BTC"),
        (USDT, True, True, "USDT"),
        (TOKA, True, False, "TOKA"),
        (TOKB, False, False, "TOKB"),
        (TOKC, True, False, "TOKC"),
    ))


@pytest.fixture
def registry():
    return make_registry()


@pytest.fixture
def config():
    return PipelineConfig()


@pytest.fixture
def grid():
    return MarkoutGrid(PipelineConfig())


def make_store(series: dict[str, list[tuple[int, float, float]]]) -> QuoteStore:
    return QuoteStore({
        sym: (np.array([q[0] for q in quotes], dtype=np.int64),
              np.array([q[1] for q in quotes], dtype=np.float64),
              np.array([q[2] for q in quotes], dtype=np.float64))
        for sym, quotes in series.items()
    })


def make_swap(token_in, amount_in, token_out, amount_out, log_index=0,
              first_in_direction=True, pool_id="p0", dex="d0") -> dict:
    """One swap's cells of a transactions.csv row."""
    return dict(pool_id=pool_id, dex=dex, token_in=token_in, amount_in=amount_in,
                token_out=token_out, amount_out=amount_out, log_index=log_index,
                first_in_direction=first_in_direction)


def make_tx(tx_hash="0xabc", swaps=None, *, block_number=100, slot_time_ms=1_000_000,
            searcher_contract="0x" + "9" * 40, seen_in_mempool=False,
            atomic_mev_flag=False, liquidation_flag=False, ofa_backrun_flag=False,
            router_or_bot_flag=False, erc721_transfer_count=0, base_fee_eth=0.001,
            priority_fee_eth=0.01, coinbase_transfer_eth=0.0,
            builder_label="builderX", volume_usd=1000.0) -> list[dict]:
    """One transaction's rows of transactions.csv, one per swap."""
    if swaps is None:
        swaps = (make_swap(USDT, 1000, TOKA, 100),)
    fields = dict(
        tx_hash=tx_hash, block_number=block_number, slot_time_ms=slot_time_ms,
        searcher_contract=searcher_contract, seen_in_mempool=seen_in_mempool,
        atomic_mev_flag=atomic_mev_flag, liquidation_flag=liquidation_flag,
        ofa_backrun_flag=ofa_backrun_flag, router_or_bot_flag=router_or_bot_flag,
        erc721_transfer_count=erc721_transfer_count, base_fee_eth=base_fee_eth,
        priority_fee_eth=priority_fee_eth, coinbase_transfer_eth=coinbase_transfer_eth,
        builder_label=builder_label, volume_usd=volume_usd,
    )
    return [{**fields, **swap} for swap in swaps]


def write_transactions(directory: Path, txs) -> Path:
    """transactions.csv in ``directory`` holding the rows of ``txs``, in order."""
    path = directory / "transactions.csv"
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(TRANSACTION_COLUMNS)
        w.writerows([("true" if r[c] else "false") if isinstance(r[c], bool) else r[c]
                     for c in TRANSACTION_COLUMNS] for tx in txs for r in tx)
    return path


def detect(directory: Path, txs, registry: TokenRegistry, labels: SearcherLabelFile | None = None
           ) -> tuple[list[ArbTrade], dict[str, DetectionVerdict]]:
    """detect_all of ``txs`` written to transactions.csv in ``directory`` and
    loaded back: the trades, and the verdicts by tx_hash."""
    table = load_transactions(write_transactions(directory, txs))
    trades, verdicts = detect_all(table, registry, labels or SearcherLabelFile(labels={}))
    return trade_rows(trades), {v.tx_hash: v for v in verdicts.rows()}


def trade_rows(trades: Table) -> list[ArbTrade]:
    """The rows of a Table of ArbTrade, each amount read as a Decimal from its text."""
    return [dataclasses.replace(t, amount_bought=Decimal(t.amount_bought),
                                amount_sold=Decimal(t.amount_sold)) for t in trades.rows()]


def trade_table(*trades: ArbTrade) -> Table:
    return Table.of_rows(ArbTrade, list(trades))


def searcher_coding(table: Table) -> tuple[np.ndarray, np.ndarray]:
    """(the sorted searcher labels of ``table``, each row's index into them),
    the coding the estimate and market stages hand on."""
    return np.unique(table.searcher_label, return_inverse=True)


def integration_of(*trades: ArbTrade):
    """market.integration_matrix of ``trades``, their searchers coded by label."""
    table = trade_table(*trades)
    return integration_matrix(table, *searcher_coding(table))


def make_trade(tx_hash="0xt1", *, block_number=100, searcher_label="s1",
               builder_label="b1", slot_time_ms=1_000_000, token_bought=TOKA,
               amount_bought="100", token_sold=USDT, amount_sold="1000",
               volume_usd=1000.0, base_fee_eth=0.001, builder_tip_eth=0.01) -> ArbTrade:
    return ArbTrade(
        tx_hash=tx_hash, block_number=block_number, searcher_label=searcher_label,
        builder_label=builder_label, slot_time_ms=slot_time_ms,
        token_bought=token_bought, amount_bought=Decimal(amount_bought),
        token_sold=token_sold, amount_sold=Decimal(amount_sold),
        volume_usd=volume_usd, base_fee_eth=base_fee_eth,
        builder_tip_eth=builder_tip_eth,
    )


def mr_at_zero(trade: ArbTrade, store: QuoteStore, registry: TokenRegistry,
               cfg: PipelineConfig) -> float:
    """The trade's MR at offset 0 from ``markout_table``, at ``cfg``'s fee.

    The grid is {0, 0.5 s}: markout_table zeroes the MR of a trade not priced
    at every offset, and on this grid a quote from 4.5 s before the slot
    prices both offsets.
    """
    cfg = dataclasses.replace(cfg, grid_start_s=0.0, grid_end_s=0.5, grid_step_s=0.5)
    grid = MarkoutGrid(cfg)
    table = markout_table(trade_table(trade), grid, store, registry, cfg)
    return float(table.mr_usd[0, grid.index_of(0.0)])
