"""Time-indexed CEX quote store.

Lookups are last-quote-at-or-before (step function, right-continuous); no
interpolation, since markouts need executable prices rather than smoothed
ones. A lookup returns every time's mid and a mask of the times with a
fresh quote instead of raising: the markout stage turns a time without a
fresh quote into trade exclusion, and the builder stage skips the block.
Only the estimate stage refuses such a time, with the error ``unpriced``
builds, which tells a missing quote from a stale one.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from .data_model import QuoteArrays
from .errors import NoQuoteBefore, StaleQuote


class QuoteStore:
    """Each symbol's quotes as (ts_ms, bid, ask) arrays sorted by time."""

    def __init__(self, series_by_symbol: dict[str, QuoteArrays]):
        self.series: dict[str, QuoteArrays] = {}
        for symbol, (ts, bid, ask) in series_by_symbol.items():
            ts = np.asarray(ts, dtype=np.int64)
            if np.any(np.diff(ts) <= 0):
                raise ValueError(f"{symbol}: timestamps not strictly increasing")
            self.series[symbol] = (ts, np.asarray(bid, dtype=np.float64),
                                   np.asarray(ask, dtype=np.float64))

    def mids(self, symbol: str, t_ms: np.ndarray, staleness_ms: int
             ) -> tuple[np.ndarray, np.ndarray]:
        """(the mids of ``symbol`` at the times ``t_ms``, the mask of the
        times with a fresh quote); a mid outside the mask is 0, and a symbol
        without quotes has none."""
        t_ms = np.asarray(t_ms, dtype=np.int64)
        series = self.series.get(symbol)
        if series is None:
            return np.zeros(t_ms.shape), np.zeros(t_ms.shape, dtype=bool)
        return _kernels.step_mid_lookup(*series, t_ms, staleness_ms)

    def eth_usd(self, t_ms: np.ndarray, staleness_ms: int) -> tuple[np.ndarray, np.ndarray]:
        """(ETHUSDT mids at ``t_ms``, the mask of those priced)."""
        return self.mids("ETHUSDT", t_ms, staleness_ms)

    def unpriced(self, symbol: str, t_ms: int) -> NoQuoteBefore | StaleQuote:
        """Why a lookup of ``symbol`` at ``t_ms`` found no fresh quote:
        NoQuoteBefore, or StaleQuote with the gap from the last quote at or
        before ``t_ms``."""
        ts = self.series[symbol][0] if symbol in self.series else np.zeros(0, np.int64)
        idx = int(np.searchsorted(ts, t_ms, side="right")) - 1
        return NoQuoteBefore(t_ms) if idx < 0 else StaleQuote(t_ms - int(ts[idx]))
