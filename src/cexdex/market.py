"""Market-structure analytics: shares, HHI, integration, correlations.

DailyShare, IntegrationCell and Correlation declare the rows of market.csv,
integration.csv and correlations.csv.

Spearman uses midranks for ties; its p-value is the exact two-sided
permutation probability for n < 10 and the t-approximation otherwise.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from ._kernels import group_sum, keyed_sums
from .data_model import SearcherLabelFile, Table, TokenRegistry
from .errors import UnknownToken

PAIR_MAJOR_MAJOR = "MajorMajor"
PAIR_MAJOR_ALT = "MajorAlt"
PAIR_ALT_ALT = "AltAlt"

EXCL_NEUTRAL = "Neutral"
EXCL_EXCLUSIVE = "Exclusive"
EXCL_INTEGRATED = "Integrated"


def hhi(shares: list[float]) -> float:
    """Herfindahl-Hirschman index: sum of squared shares."""
    arr = np.asarray(shares, dtype=np.float64)
    return float(np.sum(arr * arr))


@dataclass(frozen=True)
class DailyShare:
    """One row of market.csv; a share or HHI is None where the day's total is 0."""
    date: str
    searcher_label: str
    volume_usd: float
    volume_share: float | None
    ev_usd: float
    ev_share: float | None
    hhi_volume: float | None
    hhi_ev: float | None


@dataclass
class IntegrationMatrix:
    searchers: list[str]  # row order
    builders: list[str]  # column order
    cells: np.ndarray  # row-normalized volume fractions


def integration_matrix(trades: Table) -> IntegrationMatrix:
    """Volume-weighted, row-normalized searcher x builder matrix of
    ``trades``, a Table of ArbTrade.

    Zero-volume searchers are omitted; builder columns are sorted by label
    for determinism. A searcher's total adds its builders' volumes in the
    order it first trades with each, and each volume adds its trades in
    row order.
    """
    searchers, s_code = np.unique(trades.searcher_label, return_inverse=True)
    builders, b_code = np.unique(trades.builder_label, return_inverse=True)
    nb = len(builders)
    pairs, volume = keyed_sums(s_code * nb + b_code, trades.volume_usd)
    total = group_sum(pairs // nb, volume, len(searchers))
    cells = np.zeros((len(searchers), nb))
    keep = total > 0
    cells.flat[pairs] = np.divide(volume, total[pairs // nb], out=np.zeros_like(volume),
                                  where=keep[pairs // nb])
    return IntegrationMatrix(searchers[keep].tolist(), builders.tolist(), cells[keep])


@dataclass(frozen=True)
class IntegrationCell:
    """One row of integration.csv; class_builder is "" for a Neutral searcher."""
    searcher_label: str
    builder_label: str
    volume_fraction: float
    class_: str
    class_builder: str


def classify_exclusivity(
    matrix: IntegrationMatrix,
    labels: SearcherLabelFile,
    threshold: float,
) -> dict[str, tuple[str, str | None]]:
    """Per searcher: (class, builder). Integration comes from config only;
    Exclusive requires a single builder cell strictly above the threshold."""
    out: dict[str, tuple[str, str | None]] = {}
    for i, s in enumerate(matrix.searchers):
        if s in labels.integrated_with:
            out[s] = (EXCL_INTEGRATED, labels.integrated_with[s])
            continue
        j = int(np.argmax(matrix.cells[i]))
        if matrix.cells[i, j] > threshold:
            out[s] = (EXCL_EXCLUSIVE, matrix.builders[j])
        else:
            out[s] = (EXCL_NEUTRAL, None)
    return out


def pair_class(token_a: str, token_b: str, registry: TokenRegistry) -> str:
    infos = []
    for t in (token_a, token_b):
        info = registry.get(t)
        if info is None:
            raise UnknownToken(t)
        infos.append(info)
    majors = sum(1 for i in infos if i.is_major)
    return (PAIR_ALT_ALT, PAIR_MAJOR_ALT, PAIR_MAJOR_MAJOR)[majors]


def major_major_share(trades: Table, registry: TokenRegistry) -> tuple[float, float, bool]:
    """(count fraction, volume fraction, empty flag) of the Major-Major trades
    of ``trades``, a Table of ArbTrade. Raises UnknownToken for the first
    token the registry does not hold, a trade's bought token before its sold.
    """
    n = len(trades)
    if not n:
        return 0.0, 0.0, True
    bought, b_code = np.unique(trades.token_bought, return_inverse=True)
    sold, s_code = np.unique(trades.token_sold, return_inverse=True)
    pairs, first, code = np.unique(b_code * len(sold) + s_code, return_index=True,
                                   return_inverse=True)
    # each distinct pair classed in the order pairs first appear, so that the
    # first unknown token raises as it would trade by trade
    is_mm = np.zeros(len(pairs), dtype=bool)
    for k in np.argsort(first).tolist():
        b, s = divmod(int(pairs[k]), len(sold))
        is_mm[k] = pair_class(bought[b], sold[s], registry) == PAIR_MAJOR_MAJOR
    mm = is_mm[code]
    one_group = np.zeros(n, dtype=np.int64)
    total_vol = group_sum(one_group, trades.volume_usd, 1)[0]
    mm_vol = group_sum(one_group[mm], trades.volume_usd[mm], 1)[0]
    vol_frac = float(mm_vol / total_vol) if total_vol > 0 else 0.0
    return int(mm.sum()) / n, vol_frac, False


# ---------------------------------------------------------------------------
# rank correlation


@dataclass(frozen=True)
class CorrelationResult:
    rho: float
    n: int
    p_value: float
    lag_days: int = 0


@dataclass(frozen=True)
class Correlation:
    """One row of correlations.csv; pair and window_end are "" where unused."""
    analysis: str
    pair: str
    lag_days: int
    window_end: str
    rho: float
    n: int
    p_value: float


def _midranks(values: np.ndarray) -> np.ndarray:
    """Average ranks (1-based); ties share the mean of their positions."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    i = 0
    sorted_vals = values[order]
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2 + 1.0
        i = j + 1
    return ranks


_EXACT_P_MAX_N = 9


def spearman(x, y, lag_days: int = 0) -> CorrelationResult | None:
    """Spearman's rho of x and y, or None where it is undefined: fewer than
    3 points, or a constant series."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(x)
    if n < 3:
        return None
    rx, ry = _midranks(x), _midranks(y)
    sx, sy = rx - rx.mean(), ry - ry.mean()
    denom = np.sqrt(np.sum(sx * sx) * np.sum(sy * sy))
    if denom == 0:
        return None
    rho = float(np.sum(sx * sy) / denom)
    if n <= _EXACT_P_MAX_N:
        p = _exact_permutation_p(sx, sy, denom, rho)
    else:
        p = _t_approx_p(rho, n)
    return CorrelationResult(rho=rho, n=n, p_value=p, lag_days=lag_days)


@functools.lru_cache(maxsize=None)
def _perm_table(n: int) -> np.ndarray:
    return np.array(list(itertools.permutations(range(n))), dtype=np.intp)


def _exact_permutation_p(sx: np.ndarray, sy: np.ndarray, denom: float, rho_obs: float) -> float:
    """Share of the orderings of ``sy``, centred ranks like ``sx``, whose rho
    is at least as far from 0 as ``rho_obs``."""
    perms = _perm_table(len(sx))
    rhos = sy[perms] @ sx / denom
    tol = 1e-12  # absorb FP noise so ties count as at-least-as-extreme
    hits = int(np.count_nonzero(np.abs(rhos) >= abs(rho_obs) - tol))
    return hits / len(perms)


def _t_approx_p(rho: float, n: int) -> float:
    if abs(rho) >= 1.0:
        return 0.0
    # scipy.special is imported here, not at start-up: it costs a fraction
    # of a second and only this path needs it. stdtr(df, -|t|) is what
    # scipy.stats.t.sf(|t|, df) evaluates, so the p-values are the same bits.
    from scipy.special import stdtr

    t = rho * np.sqrt((n - 2) / (1.0 - rho * rho))
    return float(2.0 * stdtr(n - 2, -abs(t)))


def lagged_correlation(
    x, y, lags: tuple[int, ...] = (1, 3, 7)
) -> list[CorrelationResult | None]:
    """Spearman between x(t) and y(t+lag), both directions per lag, in lag
    order; an entry is None where its lag leaves fewer than 3 pairs or a
    constant series.

    Positive lag means x leads y; the negative entry is the reverse. Lag 0
    is the plain contemporaneous correlation.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(x)
    results: list[CorrelationResult | None] = []
    for lag in sorted({sign * lag for lag in lags for sign in (-1, 1)}):
        k = abs(lag)
        xs, ys = (x[: n - k], y[k:]) if lag >= 0 else (x[k:], y[: n - k])
        results.append(spearman(xs, ys, lag_days=lag) if n - k >= 3 else None)
    return results


def rolling_correlation(
    x, y, dates: list[str], window_days: int
) -> list[tuple[str, CorrelationResult]]:
    """One Spearman per trailing window end-date, where it is defined; empty
    below the window."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    results = ((dates[end - 1], spearman(x[end - window_days : end], y[end - window_days : end]))
               for end in range(window_days, len(x) + 1))
    return [(end, r) for end, r in results if r is not None]
