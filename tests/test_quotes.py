import numpy as np
import pytest

from cexdex.errors import NoQuoteBefore, StaleQuote
from cexdex.markout import _usd_prices

from conftest import TOKA, TOKB, TOKC, USDT, WETH, make_store


@pytest.fixture
def store():
    return make_store({
        "BTCUSDT": [(0, 99.0, 101.0), (1000, 100.0, 102.0), (5000, 103.0, 105.0)],
        "ETHUSDT": [(0, 1999.0, 2001.0)],
        "TOKAUSDT": [(0, 9.0, 11.0)],
    })


def mids(store, symbol, *t_ms, staleness_ms=5000):
    values, ok = store.mids(symbol, np.array(t_ms, dtype=np.int64), staleness_ms)
    assert ok.dtype == bool
    return values.tolist(), ok.tolist()


def test_mid_is_last_at_or_before(store):
    # 1000 is an exact-timestamp hit
    assert mids(store, "BTCUSDT", 200, 999, 1000) == ([100.0, 100.0, 101.0], [True] * 3)


def test_no_quote_before(store):
    assert mids(store, "BTCUSDT", 200, -1) == ([100.0, 0.0], [True, False])
    e = store.unpriced("BTCUSDT", -1)
    assert isinstance(e, NoQuoteBefore) and e.t_ms == -1


def test_symbol_without_quotes(store):
    assert mids(store, "XYZUSDT", 0, 5) == ([0.0, 0.0], [False] * 2)
    assert str(store.unpriced("XYZUSDT", 7)) == "no quote at or before t=7"


def test_stale_quote(store):
    assert mids(store, "BTCUSDT", 200, 11001) == ([100.0, 0.0], [True, False])
    # the gap is measured from the last quote at or before the time
    e = store.unpriced("BTCUSDT", 11001)
    assert isinstance(e, StaleQuote) and e.gap_ms == 6001


def test_staleness_boundary_inclusive(store):
    # a gap of exactly staleness_ms is still acceptable
    assert mids(store, "BTCUSDT", 10000) == ([104.0], [True])
    assert mids(store, "BTCUSDT", 10001) == ([0.0], [False])


def test_eth_usd(store):
    values, ok = store.eth_usd(np.array([100, -1, 6000], dtype=np.int64), 5000)
    assert values.tolist() == [2000.0, 0.0, 0.0] and ok.tolist() == [True, False, False]
    values, ok = make_store({}).eth_usd(np.array([100], dtype=np.int64), 5000)
    assert ok.tolist() == [False]


def test_timestamps_must_increase():
    with pytest.raises(ValueError, match="BTCUSDT: timestamps not strictly increasing"):
        make_store({"BTCUSDT": [(0, 1.0, 1.0), (0, 2.0, 2.0)]})


def usd_prices(store, registry, *tokens, t_ms=100):
    queries = np.full((len(tokens), 1), t_ms, dtype=np.int64)
    prices, ok = _usd_prices(registry.rows(np.array(tokens)), queries, store, registry, 5000)
    return prices[:, 0].tolist(), ok.tolist()


def test_usd_price_paths(store, registry):
    # USDT is pegged at 1; WETH is priced from ETHUSDT
    assert usd_prices(store, registry, USDT, WETH, TOKA) == ([1.0, 2000.0, 10.0], [True] * 3)


def test_usd_price_unlisted(store, registry):
    assert usd_prices(store, registry, TOKB)[1] == [False]


def test_usd_price_unknown(store, registry):
    assert usd_prices(store, registry, "0x" + "f" * 40)[1] == [False]


def test_usd_price_without_fresh_quote(store, registry):
    # TOKC is listed but has no series; TOKA's only quote is stale at 6000
    assert usd_prices(store, registry, TOKC)[1] == [False]
    assert usd_prices(store, registry, TOKA, t_ms=6000) == ([0.0], [False])


def test_mid_many_matches_mid_at(store):
    # a lookup of many times gives each time's lookup alone
    ts = [0, 200, 999, 1000, 4999, 5000, 10000, 10001, -1]
    alone = [mids(store, "BTCUSDT", t) for t in ts]
    assert mids(store, "BTCUSDT", *ts) == ([v for (v,), _ in alone], [st for _, (st,) in alone])


def test_mid_many_flags_failures(store):
    # no quote before, fresh, stale: unpriced tells the two failures apart
    assert mids(store, "BTCUSDT", -5, 100, 50000)[1] == [False, True, False]
    assert [type(store.unpriced("BTCUSDT", t)) for t in (-5, 50000)] == [NoQuoteBefore, StaleQuote]
