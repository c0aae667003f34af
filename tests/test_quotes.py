import numpy as np
import pytest

from cexdex.errors import NoQuoteBefore, StaleQuote, UnknownToken, UnlistedToken

from conftest import TOKA, TOKB, USDT, WETH, make_store


@pytest.fixture
def store():
    return make_store({
        "BTCUSDT": [(0, 99.0, 101.0), (1000, 100.0, 102.0), (5000, 103.0, 105.0)],
        "ETHUSDT": [(0, 1999.0, 2001.0)],
        "TOKAUSDT": [(0, 9.0, 11.0)],
    })


def test_mid_is_last_at_or_before(store):
    assert store.mid("BTCUSDT", 200, 5000) == 100.0
    assert store.mid("BTCUSDT", 999, 5000) == 100.0
    assert store.mid("BTCUSDT", 1000, 5000) == 101.0  # exact-timestamp hit


def test_no_quote_before(store):
    with pytest.raises(NoQuoteBefore):
        store.mid("BTCUSDT", -1, 5000)
    with pytest.raises(NoQuoteBefore) as e:
        store.mid("BTCUSDT", np.array([200, -1], dtype=np.int64), 5000)
    assert e.value.t_ms == -1


def test_stale_quote(store):
    with pytest.raises(StaleQuote) as e:
        store.mid("BTCUSDT", 11001, 5000)
    assert e.value.gap_ms == 6001
    # the array form measures the gap from the last quote at or before, too
    with pytest.raises(StaleQuote) as e:
        store.mid("BTCUSDT", np.array([200, 11001], dtype=np.int64), 5000)
    assert e.value.gap_ms == 6001


def test_staleness_boundary_inclusive(store):
    # a gap of exactly staleness_ms is still acceptable
    assert store.mid("BTCUSDT", 10000, 5000) == 104.0


def test_eth_usd(store):
    assert store.eth_usd(100, 5000) == 2000.0


def test_usd_price_paths(store, registry):
    assert store.usd_series(USDT, registry) is None  # pegged at 1
    assert store.usd_series(WETH, registry).mid_at(100, 5000) == 2000.0  # WETH -> ETHUSDT
    assert store.usd_series(TOKA, registry).mid_at(100, 5000) == 10.0


def test_usd_price_unlisted(store, registry):
    with pytest.raises(UnlistedToken):
        store.usd_series(TOKB, registry)


def test_usd_price_unknown(store, registry):
    with pytest.raises(UnknownToken):
        store.usd_series("0x" + "f" * 40, registry)


def test_mid_many_matches_mid_at(store):
    series = store.get("BTCUSDT")
    ts = np.array([0, 200, 999, 1000, 4999, 5000, 10000], dtype=np.int64)
    mids, status = series.mid_many(ts, 5000)
    assert (status == 0).all()
    for t, m in zip(ts, mids):
        assert series.mid_at(int(t), 5000) == m


def test_mid_many_flags_failures(store):
    series = store.get("BTCUSDT")
    mids, status = series.mid_many(np.array([-5, 100, 50000], dtype=np.int64), 5000)
    assert list(status) == [1, 0, 2]  # no-quote, ok, stale
