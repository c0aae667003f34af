"""Per-searcher optimal execution horizon and curve-shape classification.

A searcher's input is the GR rows of its included trades, one column per
grid offset (``MarkoutTable.gr`` at ``MarkoutTable.included_rows()``). The
horizon t* is the grid offset maximizing the cross-trade median gross
return; tied maxima on the leading plateau (before the first strict
decrease) resolve to the largest offset. Searchers with no discernible
peak (flat curve) are classified Pattern 3 and carry no horizon.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DECLINE_HORIZON_S, MarkoutGrid, PipelineConfig
from .errors import NoTrades, OutOfGrid, PeakNonPositive

PATTERN_GENTLE = "P1"
PATTERN_ABRUPT = "P2"
PATTERN_FLAT = "P3"


@dataclass
class MedianCurve:
    searcher_label: str
    offsets_s: list[float]
    median_gr: np.ndarray
    q25_gr: np.ndarray
    q75_gr: np.ndarray
    n_trades: int


@dataclass
class SearcherProfile:
    searcher_label: str
    t_star_s: float | None
    pattern: str
    decline_3s_fraction: float | None
    n_arb_trades: int
    low_confidence: bool = False


def median_curve(searcher_label: str, grs: np.ndarray, offsets_s: list[float]) -> MedianCurve:
    """Per-offset median and quartiles over the GR rows of one searcher's trades.

    Even-cardinality medians are the mean of the two central order
    statistics (numpy's default).
    """
    if len(grs) == 0:
        raise NoTrades(searcher_label)
    return MedianCurve(
        searcher_label=searcher_label,
        offsets_s=list(offsets_s),
        median_gr=np.median(grs, axis=0),
        q25_gr=np.quantile(grs, 0.25, axis=0),
        q75_gr=np.quantile(grs, 0.75, axis=0),
        n_trades=len(grs),
    )


def optimal_horizon(curve: MedianCurve) -> float:
    """Largest offset on the leading plateau of tied maxima."""
    med = curve.median_gr
    if med.size == 0:
        raise NoTrades(curve.searcher_label)
    best = np.max(med)
    peak = int(np.argmax(med))  # first index attaining the max
    # extend over consecutive ties until the first strict decrease
    while peak + 1 < med.size and med[peak + 1] == best:
        peak += 1
    return curve.offsets_s[peak]


def decline_after_peak(
    curve: MedianCurve, t_star_s: float, horizon_s: float = DECLINE_HORIZON_S
) -> float:
    """Fractional drop of the median between t* and t* + horizon."""
    target_ms = round((t_star_s + horizon_s) * 1000)
    offsets_ms = [round(o * 1000) for o in curve.offsets_s]
    if target_ms > offsets_ms[-1]:
        raise OutOfGrid(f"t*+{horizon_s}s = {target_ms / 1000}s beyond grid")
    at_peak = float(curve.median_gr[offsets_ms.index(round(t_star_s * 1000))])
    at_target = float(curve.median_gr[offsets_ms.index(target_ms)])
    if at_peak <= 0:
        raise PeakNonPositive(f"median at t* is {at_peak}")
    return (at_peak - at_target) / at_peak


def classify_pattern(curve: MedianCurve, cfg: PipelineConfig) -> str:
    """P3 when flat within epsilon; else P2 on abrupt post-peak drop, else P1."""
    med = curve.median_gr
    if (np.max(med) - np.min(med)) * 1e4 <= cfg.pattern_flat_epsilon_bps:
        return PATTERN_FLAT
    t_star = optimal_horizon(curve)
    try:
        decline = decline_after_peak(curve, t_star)
    except OutOfGrid:
        # peak too close to the grid end for the 3 s window: measure to the end
        decline = _decline_to_grid_end(curve, t_star)
    except PeakNonPositive:
        return PATTERN_GENTLE
    if decline >= cfg.pattern_abrupt_drop_fraction:
        return PATTERN_ABRUPT
    return PATTERN_GENTLE


def _decline_to_grid_end(curve: MedianCurve, t_star_s: float) -> float:
    offsets_ms = [round(o * 1000) for o in curve.offsets_s]
    at_peak = float(curve.median_gr[offsets_ms.index(round(t_star_s * 1000))])
    if at_peak <= 0:
        return 0.0
    return (at_peak - float(curve.median_gr[-1])) / at_peak


def build_profile(
    searcher_label: str,
    grs: np.ndarray,
    cfg: PipelineConfig,
    grid: MarkoutGrid,
) -> SearcherProfile:
    """Median curve -> pattern -> horizon for one searcher from its GR rows on ``grid``."""
    med = median_curve(searcher_label, grs, grid.offsets_s)
    pattern = classify_pattern(med, cfg)
    t_star = None if pattern == PATTERN_FLAT else optimal_horizon(med)
    decline = None
    if t_star is not None:
        try:
            decline = decline_after_peak(med, t_star)
        except (OutOfGrid, PeakNonPositive):
            decline = None
    return SearcherProfile(
        searcher_label=searcher_label,
        t_star_s=t_star,
        pattern=pattern,
        decline_3s_fraction=decline,
        n_arb_trades=med.n_trades,
        low_confidence=med.n_trades < cfg.min_trades_low_confidence,
    )
