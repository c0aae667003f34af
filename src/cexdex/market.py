"""Market-structure analytics: shares, HHI, integration, correlations.

Spearman uses midranks for ties; its p-value is the exact two-sided
permutation probability for n < 10 and the t-approximation otherwise.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np
from scipy import stats as _scipy_stats

from .data_model import SearcherLabelFile, TokenRegistry
from .detect import ArbTrade
from .errors import (
    DegenerateRanks,
    LengthMismatch,
    SharesDontSumToOne,
    TooShort,
    UnknownToken,
)

PAIR_MAJOR_MAJOR = "MajorMajor"
PAIR_MAJOR_ALT = "MajorAlt"
PAIR_ALT_ALT = "AltAlt"

EXCL_NEUTRAL = "Neutral"
EXCL_EXCLUSIVE = "Exclusive"
EXCL_INTEGRATED = "Integrated"

_SUM_TOLERANCE = 1e-9


def hhi(shares: list[float]) -> float:
    """Herfindahl-Hirschman index: sum of squared shares."""
    arr = np.asarray(shares, dtype=np.float64)
    if np.any(arr < 0) or abs(arr.sum() - 1.0) > _SUM_TOLERANCE:
        raise SharesDontSumToOne(f"shares sum to {arr.sum()}")
    return float(np.sum(arr * arr))


@dataclass
class IntegrationMatrix:
    searchers: list[str]  # row order
    builders: list[str]  # column order
    cells: np.ndarray  # row-normalized volume fractions


def integration_matrix(trades: list[ArbTrade]) -> IntegrationMatrix:
    """Volume-weighted, row-normalized searcher x builder matrix.

    Zero-volume searchers are omitted; builder columns are sorted by label
    for determinism.
    """
    volume: dict[str, dict[str, float]] = {}
    for t in trades:
        row = volume.setdefault(t.searcher_label, {})
        row[t.builder_label] = row.get(t.builder_label, 0.0) + t.volume_usd
    searchers = sorted(s for s, row in volume.items() if sum(row.values()) > 0)
    builders = sorted({b for row in volume.values() for b in row})
    cells = np.zeros((len(searchers), len(builders)))
    for i, s in enumerate(searchers):
        total = sum(volume[s].values())
        for j, b in enumerate(builders):
            cells[i, j] = volume[s].get(b, 0.0) / total
    return IntegrationMatrix(searchers, builders, cells)


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


def major_major_share(
    trades: list[ArbTrade], registry: TokenRegistry
) -> tuple[float, float, bool]:
    """(count fraction, volume fraction, empty flag) of Major-Major trades."""
    if not trades:
        return 0.0, 0.0, True
    mm = [t for t in trades if pair_class(t.token_bought, t.token_sold, registry) == PAIR_MAJOR_MAJOR]
    total_vol = sum(t.volume_usd for t in trades)
    vol_frac = (sum(t.volume_usd for t in mm) / total_vol) if total_vol > 0 else 0.0
    return len(mm) / len(trades), vol_frac, False


# ---------------------------------------------------------------------------
# rank correlation


@dataclass(frozen=True)
class CorrelationResult:
    rho: float
    n: int
    p_value: float
    lag_days: int = 0


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


def _rank_corr(rx: np.ndarray, ry: np.ndarray) -> float:
    sx = rx - rx.mean()
    sy = ry - ry.mean()
    denom = np.sqrt(np.sum(sx * sx) * np.sum(sy * sy))
    if denom == 0:
        raise DegenerateRanks("constant series")
    return float(np.sum(sx * sy) / denom)


_EXACT_P_MAX_N = 9


def spearman(x, y, lag_days: int = 0) -> CorrelationResult:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise LengthMismatch(f"{x.shape} vs {y.shape}")
    n = len(x)
    if n < 3:
        raise TooShort(f"n={n}")
    rx, ry = _midranks(x), _midranks(y)
    rho = _rank_corr(rx, ry)
    if n <= _EXACT_P_MAX_N:
        p = _exact_permutation_p(rx, ry, rho)
    else:
        p = _t_approx_p(rho, n)
    return CorrelationResult(rho=rho, n=n, p_value=p, lag_days=lag_days)


@functools.lru_cache(maxsize=None)
def _perm_table(n: int) -> np.ndarray:
    return np.array(list(itertools.permutations(range(n))), dtype=np.intp)


def _exact_permutation_p(rx: np.ndarray, ry: np.ndarray, rho_obs: float) -> float:
    n = len(rx)
    perms = _perm_table(n)
    sx = rx - rx.mean()
    sy = ry - ry.mean()
    denom = np.sqrt(np.sum(sx * sx) * np.sum(sy * sy))
    rhos = sy[perms] @ sx / denom
    tol = 1e-12  # absorb FP noise so ties count as at-least-as-extreme
    hits = int(np.count_nonzero(np.abs(rhos) >= abs(rho_obs) - tol))
    return hits / len(perms)


def _t_approx_p(rho: float, n: int) -> float:
    if abs(rho) >= 1.0:
        return 0.0
    t = rho * np.sqrt((n - 2) / (1.0 - rho * rho))
    return float(2.0 * _scipy_stats.t.sf(abs(t), df=n - 2))


def lagged_correlation(
    x, y, lags: tuple[int, ...] = (1, 3, 7)
) -> list[CorrelationResult]:
    """Spearman between x(t) and y(t+lag), both directions per lag.

    Positive lag means x leads y; the negative entry is the reverse. Lag 0
    is the plain contemporaneous correlation.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise LengthMismatch(f"{x.shape} vs {y.shape}")
    results = []
    all_lags: list[int] = []
    for lag in lags:
        all_lags.extend([lag] if lag == 0 else [-lag, lag])
    for lag in sorted(set(all_lags)):
        k = abs(lag)
        if len(x) - k < 3:
            raise TooShort(f"lag {lag} leaves n={len(x) - k}")
        if lag >= 0:
            xs, ys = x[: len(x) - k or None], y[k:]
        else:
            xs, ys = x[k:], y[: len(y) - k]
        results.append(spearman(xs, ys, lag_days=lag))
    return results


def rolling_correlation(
    x, y, dates: list[str] | None = None, window_days: int = 30
) -> list[tuple[str, CorrelationResult]]:
    """One Spearman per trailing window end-date; empty below the window."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise LengthMismatch(f"{x.shape} vs {y.shape}")
    if dates is None:
        dates = [str(i) for i in range(len(x))]
    out = []
    for end in range(window_days, len(x) + 1):
        sl = slice(end - window_days, end)
        try:
            res = spearman(x[sl], y[sl])
        except DegenerateRanks:
            continue
        out.append((dates[end - 1], res))
    return out


def decline_vs_major_correlation(
    declines: list[float],
    count_shares: list[float],
    volume_shares: list[float],
) -> tuple[CorrelationResult, CorrelationResult]:
    """Spearman of post-peak decline vs Major-Major count and volume share."""
    if len(declines) < 3:
        raise TooShort(f"n={len(declines)}")
    return (
        spearman(declines, count_shares),
        spearman(declines, volume_shares),
    )
