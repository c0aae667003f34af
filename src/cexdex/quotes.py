"""Time-indexed CEX quote store.

Lookups are last-quote-at-or-before (step function, right-continuous); no
interpolation, since markouts need executable prices rather than smoothed
ones. A lookup older than the staleness bound raises StaleQuote, which the
markout stage turns into trade exclusion.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from .data_model import QuoteArrays, TokenRegistry
from .errors import NoQuoteBefore, StaleQuote, UnknownToken, UnlistedToken


class QuoteSeries:
    """One symbol's quotes as sorted parallel arrays."""

    def __init__(self, symbol: str, ts_ms: np.ndarray, bid: np.ndarray, ask: np.ndarray):
        self.symbol = symbol
        self.ts_ms = np.asarray(ts_ms, dtype=np.int64)
        self.bid = np.asarray(bid, dtype=np.float64)
        self.ask = np.asarray(ask, dtype=np.float64)
        if np.any(np.diff(self.ts_ms) <= 0):
            raise ValueError(f"{symbol}: timestamps not strictly increasing")

    def mid_many(self, ts: np.ndarray, staleness_ms: int) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized lookup; returns (mids, status codes) without raising."""
        return _kernels.step_mid_lookup(
            self.ts_ms, self.bid, self.ask, np.asarray(ts, dtype=np.int64), staleness_ms
        )

    def mid_at(self, t_ms, staleness_ms: int):
        """Mid at one time (a float) or at an ndarray of times (an array).

        Raises NoQuoteBefore or StaleQuote for the first time that fails;
        the stale gap is measured from the last quote at or before it.
        """
        scalar = not isinstance(t_ms, np.ndarray)
        queries = np.array([t_ms], dtype=np.int64) if scalar else t_ms
        mids, status = self.mid_many(queries, staleness_ms)
        if np.count_nonzero(status):
            bad = int(np.argmax(status != _kernels.LOOKUP_OK))
            t = int(queries[bad])
            if status[bad] == _kernels.LOOKUP_NO_QUOTE:
                raise NoQuoteBefore(t)
            idx = int(np.searchsorted(self.ts_ms, t, side="right")) - 1
            raise StaleQuote(t - int(self.ts_ms[idx]))
        return float(mids[0]) if scalar else mids


class QuoteStore:
    def __init__(self, series_by_symbol: dict[str, QuoteArrays]):
        self.series = {
            sym: QuoteSeries(sym, *arrays) for sym, arrays in series_by_symbol.items()
        }

    def get(self, symbol: str) -> QuoteSeries:
        s = self.series.get(symbol)
        if s is None:
            raise NoQuoteBefore(0)
        return s

    def mid(self, symbol: str, t_ms, staleness_ms: int):
        return self.get(symbol).mid_at(t_ms, staleness_ms)

    def eth_usd(self, t_ms, staleness_ms: int):
        """ETHUSDT mid at one time (a float) or an ndarray of times (an array)."""
        return self.mid("ETHUSDT", t_ms, staleness_ms)

    def eth_usd_many(self, t_ms: np.ndarray, staleness_ms: int) -> tuple[np.ndarray, np.ndarray]:
        """ETHUSDT mids at ``t_ms`` and the mask of those priced (none without the series)."""
        series = self.series.get("ETHUSDT")
        if series is None:
            return np.zeros(len(t_ms)), np.zeros(len(t_ms), dtype=bool)
        mids, status = series.mid_many(t_ms, staleness_ms)
        return mids, status == _kernels.LOOKUP_OK

    def usd_series(self, token: str, registry: TokenRegistry) -> QuoteSeries | None:
        """The series that values ``token`` in USD: its Binance USDT pair, or
        None for USDT, which is pegged at 1.

        Raises UnknownToken, UnlistedToken, or NoQuoteBefore when there is no
        <SYM>USDT series.
        """
        info = registry.get(token)
        if info is None:
            raise UnknownToken(token)
        if not info.cex_listed:
            raise UnlistedToken(token)
        return None if info.quote_symbol == "USDT" else self.get(f"{info.quote_symbol}USDT")

    def usd_price(self, token: str, t_ms: int, registry: TokenRegistry, staleness_ms: int) -> float:
        """Token USD valuation at one time."""
        series = self.usd_series(token, registry)
        return 1.0 if series is None else series.mid_at(t_ms, staleness_ms)
