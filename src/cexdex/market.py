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


def integration_matrix(trades: Table, searchers: np.ndarray, s_code: np.ndarray
                       ) -> IntegrationMatrix:
    """Volume-weighted, row-normalized searcher x builder matrix of
    ``trades``, a Table of ArbTrade, whose searchers ``s_code`` codes as
    ``searchers``, sorted.

    Zero-volume searchers are omitted; builder columns are sorted by label
    for determinism. A searcher's total adds its builders' volumes in the
    order it first trades with each, and each volume adds its trades in
    row order.
    """
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


def major_major_shares(trades: Table, code: np.ndarray, n: int, registry: TokenRegistry
                       ) -> tuple[list[float], list[float]]:
    """Per searcher 0..n-1, coded by ``code`` over the rows of ``trades``, a
    Table of ArbTrade: the count and the volume fractions of its Major-Major
    trades, 0.0 where it has no trades or no volume above 0. A volume adds
    its trades in row order.

    Raises UnknownToken for the first token the registry does not hold: in
    the lowest-coded searcher holding one, its first such trade by row, the
    bought token before the sold.
    """
    tokens = (trades.token_bought, trades.token_sold)
    legs = np.stack([registry.rows(t) for t in tokens])  # not concatenated: that copies the text
    unknown = legs < 0
    if unknown.any():
        rows = np.flatnonzero(unknown.any(axis=0))
        first = rows[np.argmin(code[rows])]  # argmin takes the first row of that searcher
        raise UnknownToken(tokens[np.argmax(unknown[:, first])][first])
    mm = registry.major[legs].all(axis=0)
    count, mm_count = (np.bincount(c, minlength=n).tolist() for c in (code, code[mm]))
    volume, mm_volume = (group_sum(code[keep], trades.volume_usd[keep], n).tolist()
                         for keep in (slice(None), mm))
    return ([c / t if t else 0.0 for c, t in zip(mm_count, count)],
            [v / t if t > 0 else 0.0 for v, t in zip(mm_volume, volume)])


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
    """Average ranks (1-based); ties share the mean of their positions, and
    each NaN, equal to nothing, is ranked alone."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    first = np.flatnonzero(np.concatenate([[True], ordered[1:] != ordered[:-1]]))
    last = np.append(first[1:], len(values)) - 1  # each run of ties, first to last
    ranks = np.empty(len(values))
    ranks[order] = np.repeat((first + last) / 2 + 1.0, last - first + 1)
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
