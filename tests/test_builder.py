import numpy as np
import pytest

from cexdex.builder import (
    REFUND_CUTOFF_MS,
    aggregated_margin,
    block_economics,
    builder_onchain_profit,
    builder_summary,
    integrated_searcher_pnl,
    subsidy_flags,
)
from cexdex.data_model import BlockRecord, SearcherLabelFile, Table
from cexdex.estimate import TradeEconomics

BEFORE = REFUND_CUTOFF_MS - 1
AFTER = REFUND_CUTOFF_MS


def block(block_number=1, *, builder="b1", delta_c=1.0, bid=0.0, used=False,
          delta=0.0, slot=AFTER):
    return BlockRecord(block_number=block_number, builder_label=builder,
                       coinbase_delta_eth=delta_c, bid_eth=bid,
                       used_bid_adjustment=used, adjustment_delta_eth=delta,
                       slot_time_ms=slot)


def econ(pnl, *, block_number=1, label="s1"):
    return TradeEconomics(tx_hash="0x", searcher_label=label, builder_label="b1",
                          block_number=block_number, slot_time_ms=AFTER,
                          volume_usd=100.0, ev_usd=pnl + 1, pnl_usd=pnl,
                          margin=None, builder_tip_usd=1.0, base_fee_usd=0.0)


def blocks(*rows: BlockRecord) -> Table:
    return Table.of_rows(BlockRecord, list(rows))


def economics(*rows: TradeEconomics) -> Table:
    return Table.of_rows(TradeEconomics, list(rows))


def eth(value: float, n: int = 1) -> np.ndarray:
    return np.full(n, value)


def bp_of(b: BlockRecord, eth_usd: float) -> float:
    return float(builder_onchain_profit(blocks(b), eth(eth_usd))[0])


def sp_of(b: BlockRecord, rows, labels: SearcherLabelFile) -> tuple[float, bool]:
    sp, applicable = integrated_searcher_pnl(blocks(b), economics(*rows), labels.integrated_with)
    return float(sp[0]), bool(applicable[0])


def margin_of(b: BlockRecord, p_usd: float, eth_usd: float) -> float | None:
    """PM of one block, None where its denominator is 0."""
    margin, defined = aggregated_margin(blocks(b), np.array([p_usd]), eth(eth_usd))
    return float(margin[0]) if defined[0] else None


def test_bp_no_adjustment_identity():
    assert bp_of(block(delta_c=1.0), 1.0) == 1.0


def test_bp_after_cutoff():
    b = block(delta_c=5.0, bid=10.0, used=True, delta=4.0, slot=AFTER)
    assert bp_of(b, 1.0) == pytest.approx(-3.0)


def test_bp_before_cutoff():
    b = block(delta_c=5.0, bid=10.0, used=True, delta=4.0, slot=BEFORE)
    assert bp_of(b, 1.0) == pytest.approx(-1.0)


def test_bp_cutoff_boundary():
    # at the cutoff instant the lower refund rate already applies
    assert bp_of(block(delta_c=0.0, bid=1.0, used=True, delta=1.0, slot=AFTER),
                 1.0) == pytest.approx(-0.5)
    assert bp_of(block(delta_c=0.0, bid=1.0, used=True, delta=1.0, slot=BEFORE),
                 1.0) == pytest.approx(0.0)


def test_bp_eth_conversion():
    b = block(delta_c=2.0)
    assert bp_of(b, 2000.0) == 4000.0


def test_schedule_continuity_with_zero_delta():
    b1 = block(delta_c=3.0, bid=1.0, used=True, delta=0.0, slot=BEFORE)
    b2 = block(delta_c=3.0, bid=1.0, used=True, delta=0.0, slot=AFTER)
    assert bp_of(b1, 1.0) == bp_of(b2, 1.0)


def test_sp_sums_integrated_only():
    labels = SearcherLabelFile(labels={}, integrated_with={"s1": "b1"})
    rows = [econ(3.0), econ(-1.0), econ(100.0, label="s2"),
            econ(50.0, block_number=2)]
    sp, applicable = sp_of(block(1), rows, labels)
    assert sp == pytest.approx(2.0)  # other searchers and other blocks excluded
    assert applicable


def test_sp_sums_every_searcher_integrated_with_the_builder():
    """Two searchers integrated with one builder both count, in row order;
    a third integrated elsewhere does not."""
    labels = SearcherLabelFile(labels={}, integrated_with={"s1": "b1", "s2": "b1", "s3": "b2"})
    rows = [econ(1e16), econ(2.0, label="s2"), econ(50.0, label="s3"), econ(-1e16), econ(3.0)]
    sp, applicable = sp_of(block(1), rows, labels)
    assert sp == 5.0 and applicable
    b2, b3 = block(2, builder="b2"), block(3, builder="b3")
    assert sp_of(b2, [econ(4.0, block_number=2, label="s3")], labels) == (4.0, True)
    assert sp_of(b3, [econ(4.0, block_number=3, label="s1")], labels) == (0.0, False)


def test_sp_not_applicable():
    labels = SearcherLabelFile(labels={}, integrated_with={})
    sp, applicable = sp_of(block(1), [econ(3.0)], labels)
    assert sp == 0.0 and not applicable


def test_sp_without_trades_in_the_block_is_a_float_zero():
    labels = SearcherLabelFile(labels={}, integrated_with={"s1": "b1"})
    sp, applicable = sp_of(block(1), [econ(3.0, block_number=2)], labels)
    assert repr(sp) == "0.0" and applicable


def test_aggregated_margin_hand_value():
    # P=2, b=10, r*delta=2 -> 2 / (2 + 10 - 2) = 0.2
    b = block(bid=10.0, used=True, delta=4.0, slot=AFTER)
    assert margin_of(b, 2.0, 1.0) == pytest.approx(0.2)


def test_aggregated_margin_zero_numerator():
    b = block(bid=10.0, used=True, delta=4.0, slot=AFTER)
    assert margin_of(b, 0.0, 1.0) == 0.0


def test_aggregated_margin_zero_denominator():
    b = block(bid=2.0, used=True, delta=4.0, slot=AFTER)  # b - r*delta = 0
    assert margin_of(b, 0.0, 1.0) is None


def test_subsidy_flags():
    assert subsidy_flags(-1.0, 1.0) == (True, False)
    assert subsidy_flags(-1.0, -2.0) == (True, True)
    assert subsidy_flags(1.0, -5.0) == (False, False)
    assert subsidy_flags(0.0, -1.0) == (False, False)


def test_block_economics_composition():
    labels = SearcherLabelFile(labels={}, integrated_with={"s1": "b1"})
    b = block(delta_c=5.0, bid=10.0, used=True, delta=4.0, slot=AFTER)
    (e,) = block_economics(blocks(b), economics(econ(2.0)), labels.integrated_with,
                           eth(1.0)).rows()
    assert e.bp_usd == pytest.approx(-3.0)
    assert e.sp_usd == pytest.approx(2.0)
    assert e.p_usd == pytest.approx(e.bp_usd + e.sp_usd)
    assert e.subsidized_before and e.subsidized_after


def summary_of(block_rows, econ_rows, labels: SearcherLabelFile):
    """builder_summary of the blocks, each priced at 1 USD per ETH."""
    table = blocks(*block_rows)
    per = block_economics(table, economics(*econ_rows), labels.integrated_with,
                          eth(1.0, len(block_rows)))
    return builder_summary(table, per, eth(1.0, len(block_rows))).rows()


def test_summary_single_subsidized_block():
    labels = SearcherLabelFile(labels={}, integrated_with={"s1": "b1"})
    b = block(delta_c=5.0, bid=10.0, used=True, delta=4.0, slot=AFTER)
    rows = [econ(2.0)]  # BP=-3, SP=+2, P=-1... before: yes, after: yes
    (s,) = summary_of([b], rows, labels)
    assert s.subsidized_blocks_before == 1
    assert s.subsidy_bp_before_usd == pytest.approx(-3.0)
    assert s.total_p_usd == pytest.approx(-1.0)
    assert s.subsidized_blocks_after == 1
    assert s.subsidy_p_after_usd == pytest.approx(-1.0)


def test_summary_sp_lifts_subsidy():
    # SP large enough to flip P positive: before-subsidized, not after
    labels = SearcherLabelFile(labels={}, integrated_with={"s1": "b1"})
    b = block(delta_c=5.0, bid=10.0, used=True, delta=4.0, slot=AFTER)
    rows = [econ(7.0)]  # BP=-3, SP=+7, P=+4
    (s,) = summary_of([b], rows, labels)
    assert s.subsidized_blocks_before == 1 and s.subsidized_blocks_after == 0
    assert s.subsidy_p_after_usd == 0.0


def test_summary_all_positive_no_subsidy():
    labels = SearcherLabelFile(labels={})
    (s,) = summary_of([block(i, delta_c=1.0, slot=AFTER) for i in range(1, 4)], [], labels)
    assert s.subsidized_blocks_before == 0 and s.subsidized_blocks_after == 0
    assert s.total_bp_usd == pytest.approx(3.0)
