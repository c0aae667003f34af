"""Hypothesis property tests for the algebraic invariants."""

from decimal import Decimal

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cexdex.config import PipelineConfig
from cexdex.detect import aggregate_swaps
from cexdex.errors import DegenerateRanks, SharesDontSumToOne
from cexdex.market import hhi, spearman
from cexdex.markout import markout_revenue
from cexdex import _kernels as k

from conftest import TOKC, make_registry, make_store, make_swap, make_trade, make_tx

REGISTRY = make_registry()

amounts = st.decimals(min_value="0.000001", max_value="1000000",
                      allow_nan=False, allow_infinity=False, places=6)
tokens = st.sampled_from(["0xA", "0xB", "0xC", "0xD"])


@st.composite
def swap_lists(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    swaps = []
    for i in range(n):
        t_in = draw(tokens)
        t_out = draw(tokens.filter(lambda t: t != t_in))
        swaps.append(make_swap(t_in, draw(amounts), t_out, draw(amounts), log_index=i))
    return swaps


@given(swap_lists(), st.randoms())
@settings(max_examples=200, deadline=None)
def test_aggregate_swaps_permutation_invariant(swaps, rnd):
    shuffled = list(swaps)
    rnd.shuffle(shuffled)
    tx_a = make_tx(swaps=tuple(swaps))
    tx_b = make_tx(swaps=tuple(
        make_swap(s.token_in, s.amount_in, s.token_out, s.amount_out, log_index=i)
        for i, s in enumerate(shuffled)
    ))
    assert aggregate_swaps(tx_a) == aggregate_swaps(tx_b)


@given(swap_lists())
@settings(max_examples=200, deadline=None)
def test_aggregate_swaps_conserves_sign_sum(swaps):
    # every token's net equals receipts minus spends computed independently
    tx = make_tx(swaps=tuple(swaps))
    net = aggregate_swaps(tx)
    for token in {s.token_in for s in swaps} | {s.token_out for s in swaps}:
        expected = sum((s.amount_out for s in swaps if s.token_out == token),
                       Decimal(0))
        expected -= sum((s.amount_in for s in swaps if s.token_in == token),
                        Decimal(0))
        if abs(expected) <= Decimal("1e-12"):
            assert token not in net
        else:
            assert net[token] == expected


@given(
    st.lists(st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
             min_size=1, max_size=50)
)
@settings(max_examples=300, deadline=None)
def test_hhi_bounds(weights):
    total = sum(weights)
    shares = [w / total for w in weights]
    try:
        value = hhi(shares)
    except SharesDontSumToOne:  # extreme cancellation can push the sum out
        return
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
    try:
        base = spearman(x, y).rho
    except DegenerateRanks:
        return
    fx = {"exp": lambda v: np.exp(v / 1e6), "cube": lambda v: v ** 3,
          "affine": lambda v: 3.5 * v + 2.0}[transform](x)
    # exp can round distinct inputs to the same float; ranks must survive
    assume(len(np.unique(fx)) == len(np.unique(x)))
    assert abs(spearman(fx, y).rho - base) < 1e-9


@given(st.integers(min_value=0, max_value=2 ** 32), st.integers(min_value=0, max_value=1000),
       st.integers(min_value=1, max_value=500))
@settings(max_examples=100, deadline=None)
def test_splitmix_slice_composition(seed, start, count):
    whole = k.splitmix64(np.uint64(seed), np.uint64(0), start + count)
    tail = k.splitmix64(np.uint64(seed), np.uint64(start), count)
    assert np.array_equal(whole[start:], tail)


def one_quote_mr(pa, pb, x, y):
    """markout_revenue at offset 0 with TOKA at pa and TOKC at pb, one quote each."""
    store = make_store({"TOKAUSDT": [(1_000_000, pa, pa)], "TOKCUSDT": [(1_000_000, pb, pb)]})
    trade = make_trade(amount_bought=repr(x), token_sold=TOKC, amount_sold=repr(y))
    return markout_revenue(trade, 0.0, store, REGISTRY, PipelineConfig())


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
