"""Hypothesis property tests for the algebraic invariants."""

import functools
import operator
from decimal import Decimal

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cexdex.config import PipelineConfig
from cexdex.data_model import TokenRegistry
from cexdex.market import hhi, spearman
from cexdex import _kernels as k
from cexdex import synth

from conftest import (
    TOKC, detect, make_registry, make_store, make_swap, make_trade, make_tx, mr_at_zero,
)

REGISTRY = make_registry()

amounts = st.decimals(min_value="0.000001", max_value="1000000",
                      allow_nan=False, allow_infinity=False, places=6)
tokens = st.sampled_from(["0xa", "0xb", "0xc", "0xd"])
ABCD = TokenRegistry(["0xa", "0xb", "0xc", "0xd"], [True] * 4, [False] * 4,
                     ["0xa", "0xb", "0xc", "0xd"])


@st.composite
def swap_lists(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    swaps = []
    for i in range(n):
        t_in = draw(tokens)
        t_out = draw(tokens.filter(lambda t: t != t_in))
        swaps.append(make_swap(t_in, draw(amounts), t_out, draw(amounts), log_index=i))
    return swaps


def detect_swaps(directory, *swap_lists):
    """(trade or None, verdict) of each list of swaps as one transaction,
    through transactions.csv, load_transactions and detect_all."""
    txs = [make_tx(f"0x{k}", swaps, block_number=k, slot_time_ms=12_000 * k)
           for k, swaps in enumerate(swap_lists, start=1)]
    trades, verdicts = detect(directory, txs, ABCD)
    by_hash = {t.tx_hash: t for t in trades}
    return [(by_hash.get(h), v) for h, v in verdicts.items()]


@given(swap_lists(), st.randoms())
@settings(max_examples=200, deadline=None)
def test_aggregate_swaps_permutation_invariant(tmp_path_factory, swaps, rnd):
    shuffled = list(swaps)
    rnd.shuffle(shuffled)
    in_order, permuted = detect_swaps(tmp_path_factory.mktemp("txs"), swaps, [
        make_swap(s["token_in"], s["amount_in"], s["token_out"], s["amount_out"], log_index=i)
        for i, s in enumerate(shuffled)
    ])
    assert in_order[1].failure_reasons == permuted[1].failure_reasons
    pair = lambda t: t and (t.token_bought, t.amount_bought, t.token_sold, t.amount_sold)
    assert pair(in_order[0]) == pair(permuted[0])


@given(swap_lists())
@settings(max_examples=200, deadline=None)
def test_aggregate_swaps_conserves_sign_sum(tmp_path_factory, swaps):
    # the netted pair, or the count of netted tokens, is that of each token's
    # receipts minus spends computed independently
    [(trade, verdict)] = detect_swaps(tmp_path_factory.mktemp("txs"), swaps)
    net = {}
    for token in {s["token_in"] for s in swaps} | {s["token_out"] for s in swaps}:
        v = sum((s["amount_out"] for s in swaps if s["token_out"] == token), Decimal(0))
        v -= sum((s["amount_in"] for s in swaps if s["token_in"] == token), Decimal(0))
        if abs(v) > Decimal("1e-12"):
            net[token] = v
    bought = [(t, v) for t, v in net.items() if v > 0]
    sold = [(t, -v) for t, v in net.items() if v < 0]
    if len(bought) == len(sold) == 1:
        assert verdict.passed
        assert (trade.token_bought, trade.amount_bought) == bought[0]
        assert (trade.token_sold, trade.amount_sold) == sold[0]
    else:
        assert trade is None and verdict.failure_reasons == f"H6: net flows over {len(net)} tokens"


@given(
    st.lists(st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
             min_size=1, max_size=50)
)
@settings(max_examples=300, deadline=None)
def test_hhi_bounds(weights):
    total = sum(weights)
    shares = [w / total for w in weights]
    value = hhi(shares)
    n = len(shares)
    assert 1.0 / n - 1e-9 <= value <= 1.0 + 1e-12


@given(st.integers(min_value=2, max_value=100))
@settings(max_examples=50, deadline=None)
def test_hhi_equal_shares_attain_lower_bound(n):
    np.testing.assert_allclose(hhi([1.0 / n] * n), 1.0 / n, rtol=1e-9)


@given(
    st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
             min_size=3, max_size=30),
    st.sampled_from(["exp", "cube", "affine"]),
)
@settings(max_examples=200, deadline=None)
def test_spearman_monotone_transform_invariance(xs, transform):
    x = np.asarray(xs)
    y = np.linspace(0, 1, len(x)) ** 2
    base = spearman(x, y)
    if base is None:  # a constant x
        return
    fx = {"exp": lambda v: np.exp(v / 1e6), "cube": lambda v: v ** 3,
          "affine": lambda v: 3.5 * v + 2.0}[transform](x)
    # exp can round distinct inputs to the same float; ranks must survive
    assume(len(np.unique(fx)) == len(np.unique(x)))
    assert abs(spearman(fx, y).rho - base.rho) < 1e-9


@given(st.integers(min_value=0, max_value=2 ** 32), st.integers(min_value=0, max_value=1000),
       st.integers(min_value=1, max_value=500))
@settings(max_examples=100, deadline=None)
def test_splitmix_slice_composition(seed, start, count):
    whole = synth.splitmix64(np.uint64(seed), np.uint64(0), start + count)
    tail = synth.splitmix64(np.uint64(seed), np.uint64(start), count)
    assert np.array_equal(whole[start:], tail)


def one_quote_mr(pa, pb, x, y):
    """MR at offset 0 with TOKA at pa and TOKC at pb, one quote each."""
    store = make_store({"TOKAUSDT": [(1_000_000, pa, pa)], "TOKCUSDT": [(1_000_000, pb, pb)]})
    trade = make_trade(amount_bought=repr(x), token_sold=TOKC, amount_sold=repr(y))
    return mr_at_zero(trade, store, REGISTRY, PipelineConfig())


@given(
    st.floats(min_value=0.1, max_value=1e4), st.floats(min_value=0.1, max_value=1e4),
    st.floats(min_value=0.1, max_value=1e4), st.floats(min_value=0.1, max_value=1e4),
    st.floats(min_value=1.0001, max_value=100.0),
)
@settings(max_examples=300, deadline=None)
def test_markout_matrix_scale_homogeneous(pa, pb, x, y, c):
    one = one_quote_mr(pa, pb, x, y)
    scaled = one_quote_mr(pa, pb, x * c, y * c)
    assert abs(scaled - one * c) <= 1e-9 * max(1.0, abs(one * c))


@given(st.floats(min_value=1.0, max_value=1e6), st.floats(min_value=1.0, max_value=1e6))
@settings(max_examples=200, deadline=None)
def test_markout_matrix_monotone_in_pa(pa, bump):
    assert one_quote_mr(pa + bump, 1.0, 2.0, 100.0) > one_quote_mr(pa, 1.0, 2.0, 100.0)


# ---------------------------------------------------------------------------
# group sums: the bits of a left-to-right fold from 0.0, which every stage
# total keeps (builtin sum() up to Python 3.11; from 3.12 sum() compensates)

def fold(values) -> float:
    """``values`` added one by one, left to right, from 0.0."""
    return functools.reduce(operator.add, values, 0.0)


def float_bits(x: float):
    """The bits of ``x``; a NaN only as NaN. Where two NaNs of opposite sign
    meet, np.bincount keeps the first one's sign and CPython's float add the
    second's; both are written "nan"."""
    return "nan" if x != x else int(np.float64(x).view(np.int64))


sum_values = st.floats() | st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e16, -1e16, 1.0, 0.1,
    float("inf"), float("-inf"), float("nan"), -float("nan"),
])


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=4), sum_values), max_size=40),
       st.integers(min_value=0, max_value=3))
@example([(0, 0.1), (0, 0.2), (0, 0.3)], 0)  # 0.6000000000000001; sum() on 3.12+ gives 0.6
@settings(max_examples=400, deadline=None)
def test_group_sum_adds_left_to_right(rows, empty):
    """Interleaved groups, and ``empty`` groups past the last code, each the
    bits of the fold of its values (0.0 for none); infinities by their bits too."""
    n = max((c for c, _ in rows), default=-1) + 1 + empty
    codes = np.array([c for c, _ in rows], dtype=np.int64)
    got = k.group_sum(codes, np.array([v for _, v in rows], dtype=np.float64), n)
    want = [fold(v for c, v in rows if c == g) for g in range(n)]
    assert got.dtype == np.float64
    assert [float_bits(x) for x in got.tolist()] == [float_bits(x) for x in want]


small_codes = st.integers(min_value=0, max_value=3)


@given(st.lists(st.tuples(small_codes, small_codes, sum_values), max_size=40))
@settings(max_examples=300, deadline=None)
def test_keyed_sums_are_a_dict_filled_in_order(rows):
    """keyed_sums gives a dict of dicts filled row by row, and group_sum of its
    values per outer key gives the fold of each inner dict's values in order."""
    nested: dict[int, dict[int, float]] = {}
    for outer, inner, v in rows:
        nested.setdefault(outer, {}).setdefault(inner, 0.0)
        nested[outer][inner] += v
    keys, sums = k.keyed_sums(np.array([o * 4 + i for o, i, _ in rows], dtype=np.int64),
                              np.array([v for _, _, v in rows], dtype=np.float64))
    flat = [(o * 4 + i, v) for o, inner in nested.items() for i, v in inner.items()]
    assert sorted(keys.tolist()) == sorted(key for key, _ in flat)
    assert {key: float_bits(v) for key, v in zip(keys.tolist(), sums.tolist())} == {
        key: float_bits(v) for key, v in flat}
    totals = k.group_sum(keys // 4, sums, 4)
    assert [float_bits(x) for x in totals.tolist()] == [
        float_bits(fold(nested.get(o, {}).values())) for o in range(4)]
