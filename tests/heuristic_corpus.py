"""Hand-built detection corpus: 40 transactions with expected verdicts.

Each entry pins the exact pass/fail outcome and the set of failing
heuristics, so any behavioral drift in load_transactions or detect_all shows
up as a manifest mismatch rather than a silent change in counts. Each
transaction is a list of transactions.csv rows (conftest.make_tx).
"""

from conftest import TOKA, TOKB, TOKC, USDT, WBTC, WETH, make_swap, make_tx


def build_corpus():
    """Returns (txs, manifest) where manifest[tx_hash] = (passed, failed_set);
    the transactions are in block order."""
    txs = []
    manifest = {}
    counter = [0]

    def add(expected_pass, failed, **kwargs):
        counter[0] += 1
        h = f"0xcase{counter[0]:04d}"
        kwargs.setdefault("block_number", 100 + counter[0])
        kwargs.setdefault("slot_time_ms", 1_000_000 + counter[0] * 12_000)
        txs.append(make_tx(tx_hash=h, **kwargs))
        manifest[h] = (expected_pass, frozenset(failed))

    clean = lambda **kw: dict(swaps=(make_swap(USDT, 1000, TOKA, 100),), **kw)

    # single-heuristic failures
    add(True, [], **clean())
    add(False, ["H1"], **clean(seen_in_mempool=True))
    add(False, ["H2"], swaps=(make_swap(USDT, 1000, TOKA, 100, first_in_direction=False),))
    add(False, ["H3"], **clean(atomic_mev_flag=True))
    add(False, ["H3"], **clean(liquidation_flag=True))
    add(False, ["H3"], **clean(atomic_mev_flag=True, liquidation_flag=True))
    add(False, ["H4"], **clean(ofa_backrun_flag=True))
    add(False, ["H5"], **clean(router_or_bot_flag=True))
    add(False, ["H6"], **clean(erc721_transfer_count=1))
    add(False, ["H6"], **clean(erc721_transfer_count=3))

    # H6 structure: netting, loops, unlisted tokens
    add(True, [], swaps=(  # multi-hop A->B->C nets to a two-sided pair
        make_swap(USDT, 1000, TOKA, 100, log_index=0),
        make_swap(TOKA, 100, TOKC, 500, log_index=1),
    ))
    add(False, ["H6"], swaps=(  # circular: everything nets to zero
        make_swap(USDT, 1000, TOKA, 100, log_index=0),
        make_swap(TOKA, 100, USDT, 1000, log_index=1),
    ))
    add(False, ["H6"], swaps=(  # three-sided residual
        make_swap(USDT, 1000, TOKA, 100, log_index=0),
        make_swap(USDT, 500, TOKC, 50, log_index=1),
    ))
    add(False, ["H6"], swaps=(make_swap(USDT, 1000, TOKB, 100),))  # unlisted out
    add(False, ["H6"], swaps=(make_swap(TOKB, 100, USDT, 1000),))  # unlisted in
    add(True, [], swaps=(  # sub-dust residue on the intermediate is dropped
        make_swap(USDT, 1000, TOKA, 100, log_index=0),
        make_swap(TOKA, "99.9999999999999", TOKC, 500, log_index=1),
    ))
    add(True, [], swaps=(  # same-pair aggregation across two pools
        make_swap(USDT, 600, TOKA, 60, log_index=0, pool_id="p1"),
        make_swap(USDT, 400, TOKA, 40, log_index=1, pool_id="p2"),
    ))
    add(True, [], swaps=(  # H2 satisfied by the second swap only
        make_swap(USDT, 500, TOKA, 50, log_index=0, first_in_direction=False),
        make_swap(USDT, 500, TOKA, 50, log_index=1, first_in_direction=True),
    ))
    add(True, [], swaps=(make_swap(USDT, 50000, WBTC, 1),))  # major-major
    add(True, [], swaps=(make_swap(WETH, 10, WBTC, "0.5"),))  # major-major, no stable

    # combined failures
    add(False, ["H1", "H4"], **clean(seen_in_mempool=True, ofa_backrun_flag=True))
    add(False, ["H1", "H5"], **clean(seen_in_mempool=True, router_or_bot_flag=True))
    add(False, ["H3", "H6"], **clean(atomic_mev_flag=True, erc721_transfer_count=2))
    add(False, ["H2", "H6"], swaps=(
        make_swap(USDT, 1000, TOKB, 100, first_in_direction=False),
    ))
    add(False, ["H1", "H2", "H3", "H4", "H5", "H6"],
        swaps=(make_swap(USDT, 1000, TOKB, 100, first_in_direction=False),),
        seen_in_mempool=True, atomic_mev_flag=True, ofa_backrun_flag=True,
        router_or_bot_flag=True, erc721_transfer_count=1)
    add(False, ["H4", "H5"], **clean(ofa_backrun_flag=True, router_or_bot_flag=True))
    add(False, ["H1", "H3"], **clean(seen_in_mempool=True, liquidation_flag=True))

    # passing variety: different sizes, directions, and token pairs
    add(True, [], swaps=(make_swap(TOKA, 100, USDT, 980),))
    add(True, [], swaps=(make_swap(TOKC, 500, USDT, 1020),))
    add(True, [], swaps=(make_swap(USDT, "0.000001", TOKA, "0.0000001"),))
    add(True, [], swaps=(make_swap(USDT, "123456789.123456789", TOKA, "9876543.21"),))
    add(True, [], swaps=(make_swap(WETH, 1, USDT, 2000),))
    add(True, [], swaps=(
        make_swap(WBTC, 1, WETH, 30, log_index=0),
        make_swap(WETH, 30, USDT, 60000, log_index=1),
    ))
    add(True, [], swaps=(make_swap(TOKA, 10, TOKC, 20),))  # listed alt-alt

    # more rejects to balance the corpus
    add(False, ["H6"], swaps=(
        make_swap(USDT, 100, TOKA, 10, log_index=0),
        make_swap(TOKA, 10, USDT, 100, log_index=1),
        make_swap(USDT, 100, TOKC, 5, log_index=2),
        make_swap(TOKC, 5, USDT, 100, log_index=3),
    ))  # double loop nets to zero
    add(False, ["H5", "H6"], swaps=(make_swap(TOKB, 1, TOKA, 2),),
        router_or_bot_flag=True)
    add(False, ["H1"], swaps=(
        make_swap(USDT, 1000, TOKA, 100, log_index=0),
        make_swap(TOKA, 100, TOKC, 500, log_index=1),
    ), seen_in_mempool=True)
    add(False, ["H6"], **clean(erc721_transfer_count=7))
    add(True, [], swaps=(
        make_swap(USDT, 250, TOKC, 25, log_index=0, first_in_direction=True),
        make_swap(USDT, 250, TOKC, 24, log_index=1, first_in_direction=False),
    ))
    add(False, ["H2"], swaps=(make_swap(WBTC, 1, USDT, 60000, first_in_direction=False),))

    assert len(txs) == 40, len(txs)
    return txs, manifest
