from decimal import Decimal

from cexdex import pipeline
from cexdex.data_model import SearcherLabelFile, load_transactions
from cexdex.detect import HEURISTICS, DetectionVerdict, detect_all, effective_pair

from conftest import (
    TOKA, TOKB, TOKC, USDT, detect, make_swap, make_tx, write_transactions,
)
from heuristic_corpus import build_corpus


def one_tx(tmp_path, registry, *swaps):
    """(the trade, or None, and the verdict) of one transaction of ``swaps``."""
    trades, verdicts = detect(tmp_path, [make_tx(swaps=swaps)], registry)
    return (trades or [None])[0], verdicts["0xabc"]


def test_aggregate_multi_hop(tmp_path, registry):
    trade, _ = one_tx(tmp_path, registry, make_swap(USDT, 1, TOKA, 2, log_index=0),
                      make_swap(TOKA, 2, TOKC, 5, log_index=1))
    assert (trade.token_bought, trade.amount_bought) == (TOKC, Decimal(5))
    assert (trade.token_sold, trade.amount_sold) == (USDT, Decimal(1))


def test_aggregate_single_swap(tmp_path, registry):
    trade, _ = one_tx(tmp_path, registry, make_swap(USDT, 1000, TOKA, 100))
    assert (trade.token_bought, trade.amount_bought) == (TOKA, Decimal(100))
    assert (trade.token_sold, trade.amount_sold) == (USDT, Decimal(1000))


def test_aggregate_circular_cancels(tmp_path, registry):
    _, verdict = one_tx(tmp_path, registry, make_swap(USDT, 1, TOKA, 2, log_index=0),
                        make_swap(TOKA, 2, USDT, 1, log_index=1))
    assert verdict.failure_reasons == "H6: net flows over 0 tokens"


def test_aggregate_exact_decimal_no_drift(tmp_path, registry):
    # amounts near 18-decimals token scale survive exactly, into both sides
    big = "123456789012345678.123456789012345678"
    trade, _ = one_tx(tmp_path, registry, make_swap(USDT, big, TOKA, 1, log_index=0),
                      make_swap(USDT, "0.000000000000000001", TOKA, 1, log_index=1))
    assert trade.amount_sold == Decimal("123456789012345678.123456789012345679")
    assert trade.amount_bought == Decimal(2)


def test_effective_pair():
    bought, x, sold, y = effective_pair({"0xA": Decimal(-1), "0xC": Decimal(5)})
    assert (bought, x, sold, y) == ("0xC", Decimal(5), "0xA", Decimal(1))
    assert effective_pair({"0xA": Decimal(-1), "0xB": Decimal(-2), "0xC": Decimal(5)}) is None
    assert effective_pair({"0xA": Decimal(1), "0xC": Decimal(5)}) is None
    assert effective_pair({}) is None


def h6_reason(tmp_path, registry, *swaps) -> str:
    trade, verdict = one_tx(tmp_path, registry, *swaps)
    assert trade is None and not verdict.h6
    return verdict.failure_reasons


def test_effective_pair_three_sided(tmp_path, registry):
    assert h6_reason(tmp_path, registry, make_swap(USDT, 1000, TOKA, 100, log_index=0),
                     make_swap(USDT, 500, TOKC, 50, log_index=1)) == "H6: net flows over 3 tokens"


def test_effective_pair_empty(tmp_path, registry):
    # a one-swap transaction whose legs are both dust
    assert h6_reason(tmp_path, registry, make_swap(USDT, "0.000000000001", TOKA, "1E-13")
                     ) == "H6: net flows over 0 tokens"


def test_effective_pair_one_sided(tmp_path, registry):
    # a one-swap transaction with a dust leg, and two tokens both netted in
    assert h6_reason(tmp_path, registry, make_swap(USDT, 1000, TOKA, "1e-12")
                     ) == "H6: net flows over 1 tokens"
    assert h6_reason(tmp_path, registry, make_swap(USDT, 1, TOKA, 2, log_index=0),
                     make_swap(TOKA, 1, USDT, 3, log_index=1)) == "H6: net flows over 2 tokens"


def test_netted_amount_past_the_largest_double_fails_h6(tmp_path, registry):
    """Two swaps of 1e308 each net to 2E+308, which no double holds; the
    transaction fails H6 under its own reason and no other is affected."""
    txs = [make_tx("0xbig", swaps=(make_swap(USDT, 1000, TOKA, "1e308", log_index=0),
                                    make_swap(USDT, 1000, TOKA, "1e308", log_index=1))),
           make_tx("0xok")]
    trades, verdicts = detect(tmp_path, txs, registry)
    assert verdicts["0xbig"].failure_reasons == "H6: net flow past the largest double"
    assert not verdicts["0xbig"].h6 and verdicts["0xok"].passed
    assert [t.tx_hash for t in trades] == ["0xok"]


def test_one_swap_leg_just_above_dust_is_kept(tmp_path, registry):
    # the float of either amount is 1e-12 or 0: the Decimal decides
    trade, verdict = one_tx(tmp_path, registry,
                            make_swap(USDT, "1.0000000000000000000001e-12", TOKA, 5))
    assert verdict.passed and trade.amount_sold == Decimal("1.0000000000000000000001e-12")
    _, verdict = one_tx(tmp_path, registry, make_swap(USDT, 5, TOKA, "1e-400"))
    assert verdict.failure_reasons == "H6: net flows over 1 tokens"


def test_corpus_verdicts(tmp_path, registry):
    txs, manifest = build_corpus()
    _, verdicts = detect(tmp_path, txs, registry)
    assert set(verdicts) == set(manifest)
    for tx_hash, (expected_pass, expected_failed) in manifest.items():
        verdict = verdicts[tx_hash]
        assert verdict.passed == expected_pass, tx_hash
        failed = {h for h in HEURISTICS if not getattr(verdict, h.lower())}
        assert failed == set(expected_failed), tx_hash
        assert bool(verdict.failure_reasons) != expected_pass, tx_hash


UNLISTED = "0x" + "5" * 40

# verdicts.csv lines of the corpus: one failure per heuristic, several
# reasons (H6's first) and a pass, whose reasons field is empty
VERDICT_LINES = {
    "0xcase0001": "0xcase0001,true,true,true,true,true,true,true,",
    "0xcase0002": "0xcase0002,false,false,true,true,true,true,true,H1: seen in public mempool",
    "0xcase0003": "0xcase0003,false,true,false,true,true,true,true,"
                  "H2: no swap is first in its direction",
    "0xcase0004": "0xcase0004,false,true,true,false,true,true,true,H3: atomic MEV or liquidation",
    "0xcase0007": "0xcase0007,false,true,true,true,false,true,true,H4: OFA backrun",
    "0xcase0008": "0xcase0008,false,true,true,true,true,false,true,H5: router or labeled bot",
    "0xcase0009": "0xcase0009,false,true,true,true,true,true,false,H6: contains ERC-721 transfer",
    "0xcase0012": "0xcase0012,false,true,true,true,true,true,false,H6: net flows over 0 tokens",
    "0xcase0014": f"0xcase0014,false,true,true,true,true,true,false,H6: token {UNLISTED} not CEX-listed",
    "0xcase0024": f"0xcase0024,false,true,false,true,true,true,false,H6: token {UNLISTED} "
                  "not CEX-listed; H2: no swap is first in its direction",
    "0xcase0025": "0xcase0025,false,false,false,false,false,false,false,"
                  "H6: contains ERC-721 transfer; H1: seen in public mempool; "
                  "H2: no swap is first in its direction; H3: atomic MEV or liquidation; "
                  "H4: OFA backrun; H5: router or labeled bot",
}


def test_corpus_verdicts_csv_lines(registry, tmp_path):
    """The corpus's verdicts, written as run_detect writes verdicts.csv."""
    txs, _ = build_corpus()
    table = load_transactions(write_transactions(tmp_path, txs))
    _, verdicts = detect_all(table, registry, SearcherLabelFile(labels={}))
    path = tmp_path / "verdicts.csv"
    pipeline._write_csv(path, pipeline._columns(DetectionVerdict), verdicts.columns)
    header, *lines = path.read_text().splitlines()
    assert header == "tx_hash,passed,h1,h2,h3,h4,h5,h6,failure_reasons"
    by_hash = {line.split(",")[0]: line for line in lines}
    assert len(lines) == len(by_hash) == 40
    assert {h: by_hash[h] for h in VERDICT_LINES} == VERDICT_LINES
    assert pipeline._read_output(path, DetectionVerdict, "detect").rows() == verdicts.rows()


def test_detect_all_counts_and_labels(tmp_path, registry):
    labels = SearcherLabelFile(labels={"Wintermute": ["0x" + "9" * 40]})
    txs = [
        make_tx("0x1", block_number=1, slot_time_ms=12000),
        make_tx("0x2", block_number=2, slot_time_ms=24000, seen_in_mempool=True),
        make_tx("0x3", block_number=3, slot_time_ms=36000,
                searcher_contract="0x" + "8" * 40),
    ]
    trades, verdicts = detect(tmp_path, txs, registry, labels)
    assert len(verdicts) == 3
    assert len(trades) == 2
    assert trades[0].searcher_label == "Wintermute"
    assert trades[1].searcher_label == "other:0x" + "8" * 40


def test_detect_all_empty(tmp_path, registry):
    trades, verdicts = detect(tmp_path, [], registry)
    assert trades == [] and verdicts == {}


def test_arb_trade_amounts_positive(tmp_path, registry):
    trade, _ = one_tx(tmp_path, registry, make_swap(TOKA, 100, TOKC, 5))
    assert trade.token_bought == TOKC and trade.amount_bought == Decimal(5)
    assert trade.token_sold == TOKA and trade.amount_sold == Decimal(100)


def test_trades_and_verdicts_in_block_then_hash_order(tmp_path, registry):
    # rows in no order, a transaction's swaps apart and out of log_index order
    txs = [make_tx("0xc", block_number=2, slot_time_ms=24000),
           make_tx("0xb", [make_swap(TOKA, 100, TOKC, 50, log_index=3)],
                   block_number=2, slot_time_ms=24000),
           make_tx("0xa", block_number=3, slot_time_ms=36000),
           make_tx("0xb", [make_swap(USDT, 1000, TOKA, 100, log_index=1)],
                   block_number=2, slot_time_ms=24000)]
    trades, verdicts = detect(tmp_path, txs, registry)
    assert list(verdicts) == ["0xb", "0xc", "0xa"]
    assert [t.tx_hash for t in trades] == ["0xb", "0xc", "0xa"]
    assert (trades[0].token_sold, trades[0].token_bought) == (USDT, TOKC)


def test_unlisted_tokens_are_named_bought_first(tmp_path, registry):
    unlisted = "0x" + "7" * 40
    _, verdict = one_tx(tmp_path, registry, make_swap(unlisted, 1, TOKB, 2))
    assert verdict.failure_reasons == (f"H6: token {TOKB} not CEX-listed; "
                                       f"H6: token {unlisted} not CEX-listed")


def test_h2_needs_one_swap_first_in_its_direction(tmp_path, registry):
    swaps = [make_swap(USDT, 500, TOKA, 50, log_index=k, first_in_direction=False)
             for k in range(3)]
    _, verdict = one_tx(tmp_path, registry, *swaps)
    assert not verdict.h2 and verdict.h6
    swaps[2]["first_in_direction"] = True
    _, verdict = one_tx(tmp_path, registry, *swaps)
    assert verdict.passed
