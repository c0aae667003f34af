from decimal import Decimal

import pytest

from cexdex.data_model import SearcherLabelFile
from cexdex.detect import aggregate_swaps, apply_heuristics, detect_all, effective_pair
from cexdex.errors import NotTwoSided

from conftest import TOKA, TOKC, USDT, make_swap, make_tx
from heuristic_corpus import build_corpus


def test_aggregate_multi_hop():
    tx = make_tx(swaps=(
        make_swap("0xA", 1, "0xB", 2, log_index=0),
        make_swap("0xB", 2, "0xC", 5, log_index=1),
    ))
    assert aggregate_swaps(tx) == {"0xA": Decimal(-1), "0xC": Decimal(5)}


def test_aggregate_single_swap():
    tx = make_tx(swaps=(make_swap(USDT, 1000, TOKA, 100),))
    assert aggregate_swaps(tx) == {USDT: Decimal(-1000), TOKA: Decimal(100)}


def test_aggregate_circular_cancels():
    tx = make_tx(swaps=(
        make_swap("0xA", 1, "0xB", 2, log_index=0),
        make_swap("0xB", 2, "0xA", 1, log_index=1),
    ))
    assert aggregate_swaps(tx) == {}


def test_aggregate_exact_decimal_no_drift():
    # amounts near 18-decimals token scale survive exactly
    big = "123456789012345678.123456789012345678"
    tx = make_tx(swaps=(
        make_swap(USDT, big, TOKA, 1, log_index=0),
        make_swap(USDT, "0.000000000000000001", TOKA, 1, log_index=1),
    ))
    net = aggregate_swaps(tx)
    assert net[USDT] == Decimal("-123456789012345678.123456789012345679")


def test_effective_pair():
    bought, x, sold, y = effective_pair({"0xA": Decimal(-1), "0xC": Decimal(5)})
    assert (bought, x, sold, y) == ("0xC", Decimal(5), "0xA", Decimal(1))


def test_effective_pair_three_sided():
    with pytest.raises(NotTwoSided):
        effective_pair({"0xA": Decimal(-1), "0xB": Decimal(2), "0xC": Decimal(3)})


def test_effective_pair_empty():
    with pytest.raises(NotTwoSided):
        effective_pair({})


def test_effective_pair_one_sided():
    with pytest.raises(NotTwoSided):
        effective_pair({"0xA": Decimal(5)})


def test_corpus_verdicts(registry):
    txs, manifest = build_corpus()
    for tx in txs:
        verdict = apply_heuristics(tx, registry)
        expected_pass, expected_failed = manifest[tx.tx_hash]
        assert verdict.passed == expected_pass, tx.tx_hash
        failed = {h for h, ok in verdict.per_heuristic.items() if not ok}
        assert failed == set(expected_failed), tx.tx_hash
        if not expected_pass:
            assert verdict.failure_reasons


def test_detect_all_counts_and_labels(registry):
    labels = SearcherLabelFile(labels={"Wintermute": ["0x" + "9" * 40]})
    txs = [
        make_tx("0x1", block_number=1, slot_time_ms=12000),
        make_tx("0x2", block_number=2, slot_time_ms=24000, seen_in_mempool=True),
        make_tx("0x3", block_number=3, slot_time_ms=36000,
                searcher_contract="0x" + "8" * 40),
    ]
    trades, verdicts = detect_all(txs, registry, labels)
    assert len(verdicts) == 3
    assert len(trades) == 2
    assert trades[0].searcher_label == "Wintermute"
    assert trades[1].searcher_label == "other:0x" + "8" * 40


def test_detect_all_empty(registry):
    trades, verdicts = detect_all([], registry, SearcherLabelFile(labels={}))
    assert trades == [] and verdicts == []


def test_arb_trade_amounts_positive(registry):
    labels = SearcherLabelFile(labels={})
    trades, _ = detect_all(
        [make_tx("0x1", swaps=(make_swap(TOKA, 100, TOKC, 5),))], registry, labels
    )
    t = trades[0]
    assert t.token_bought == TOKC and t.amount_bought == Decimal(5)
    assert t.token_sold == TOKA and t.amount_sold == Decimal(100)
