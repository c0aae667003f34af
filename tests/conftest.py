from decimal import Decimal

import pytest

from cexdex.config import MarkoutGrid, PipelineConfig
from cexdex.data_model import Quote, RawTransaction, SwapEvent, TokenInfo, TokenRegistry
from cexdex.detect import ArbTrade
from cexdex.quotes import QuoteStore

# fixed addresses reused across tests
WETH = "0x" + "1" * 40
WBTC = "0x" + "2" * 40
USDT = "0x" + "3" * 40
TOKA = "0x" + "4" * 40  # listed alt
TOKB = "0x" + "5" * 40  # unlisted alt
TOKC = "0x" + "6" * 40  # second listed alt


def make_registry() -> TokenRegistry:
    return TokenRegistry({
        WETH: TokenInfo("WETH", True, True, 18, "ETH"),
        WBTC: TokenInfo("WBTC", True, True, 8, "BTC"),
        USDT: TokenInfo("USDT", True, True, 6, "USDT"),
        TOKA: TokenInfo("TOKA", True, False, 18, "TOKA"),
        TOKB: TokenInfo("TOKB", False, False, 18, "TOKB"),
        TOKC: TokenInfo("TOKC", True, False, 18, "TOKC"),
    })


@pytest.fixture
def registry():
    return make_registry()


@pytest.fixture
def config():
    return PipelineConfig()


@pytest.fixture
def grid():
    return MarkoutGrid()


def make_store(series: dict[str, list[tuple[int, float, float]]]) -> QuoteStore:
    return QuoteStore({
        sym: [Quote(sym, ts, bid, ask) for ts, bid, ask in quotes]
        for sym, quotes in series.items()
    })


def make_swap(token_in, amount_in, token_out, amount_out, log_index=0,
              first_in_direction=True, pool_id="p0", dex="d0") -> SwapEvent:
    return SwapEvent(
        pool_id=pool_id, dex=dex,
        token_in=token_in, amount_in=Decimal(str(amount_in)),
        token_out=token_out, amount_out=Decimal(str(amount_out)),
        log_index=log_index, first_in_direction=first_in_direction,
    )


def make_tx(tx_hash="0xabc", swaps=None, *, block_number=100, slot_time_ms=1_000_000,
            searcher_contract="0x" + "9" * 40, seen_in_mempool=False,
            atomic_mev_flag=False, liquidation_flag=False, ofa_backrun_flag=False,
            router_or_bot_flag=False, erc721_transfer_count=0, base_fee_eth=0.001,
            priority_fee_eth=0.01, coinbase_transfer_eth=0.0,
            builder_label="builderX", volume_usd=1000.0) -> RawTransaction:
    if swaps is None:
        swaps = (make_swap(USDT, 1000, TOKA, 100),)
    return RawTransaction(
        tx_hash=tx_hash, block_number=block_number, slot_time_ms=slot_time_ms,
        searcher_contract=searcher_contract, swaps=tuple(swaps),
        seen_in_mempool=seen_in_mempool, atomic_mev_flag=atomic_mev_flag,
        liquidation_flag=liquidation_flag, ofa_backrun_flag=ofa_backrun_flag,
        router_or_bot_flag=router_or_bot_flag,
        erc721_transfer_count=erc721_transfer_count, base_fee_eth=base_fee_eth,
        priority_fee_eth=priority_fee_eth, coinbase_transfer_eth=coinbase_transfer_eth,
        builder_label=builder_label, volume_usd=volume_usd,
    )


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
