"""Per-searcher optimal execution horizon and curve-shape classification.

A searcher's input is the GR rows of its included trades, one column per
offset of the run's MarkoutGrid (``MarkoutTable.gr``, grouped by the
run's one searcher coding, ``pipeline.Workspace.searchers``).
``build_profile`` takes their median once and reads everything off it. The horizon t* is the grid offset
maximizing the cross-trade median gross return; tied maxima on the leading
plateau (before the first strict decrease) resolve to the largest offset.
Searchers with no discernible peak (flat curve) are classified Pattern 3
and carry no horizon.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import median
from .config import DECLINE_HORIZON_S, MarkoutGrid, PipelineConfig

PATTERN_GENTLE = "P1"
PATTERN_ABRUPT = "P2"
PATTERN_FLAT = "P3"


@dataclass
class SearcherProfile:
    searcher_label: str
    t_star_s: float | None
    pattern: str
    decline_3s_fraction: float | None
    n_arb_trades: int
    low_confidence: bool = False


def _plateau_end(med: np.ndarray) -> int:
    """Index of the largest offset on the leading plateau of tied maxima:
    the first maximum, extended over equal values."""
    peak = int(np.argmax(med))
    while peak + 1 < med.size and med[peak + 1] == med[peak]:
        peak += 1
    return peak


def build_profile(
    searcher_label: str,
    grs: np.ndarray,
    cfg: PipelineConfig,
    grid: MarkoutGrid,
) -> SearcherProfile:
    """One searcher's profile from its GR rows on ``grid``.

    The median is per offset; an even count takes the mean of the two
    central values (numpy's default). A curve within
    ``pattern_flat_epsilon_bps`` is P3, with no t* or decline. Otherwise the
    decline is the fractional drop of the median from t* to t* +
    DECLINE_HORIZON_S, and a drop of ``pattern_abrupt_drop_fraction`` or more
    is P2, else P1. When that window leaves the grid, the drop to the grid's
    end classifies (0.0 for a peak at or below 0) and no decline is written;
    inside the grid, a peak at or below 0 is P1 with no decline.
    """
    med = median(grs)
    t_star = decline = None
    if (np.max(med) - np.min(med)) * 1e4 <= cfg.pattern_flat_epsilon_bps:
        pattern = PATTERN_FLAT
    else:
        peak = _plateau_end(med)
        t_star, at_peak = grid.offsets_s[peak], float(med[peak])
        end_ms = grid.offsets_ms[peak] + round(DECLINE_HORIZON_S * 1000)
        if end_ms > grid.offsets_ms[-1]:
            drop = 0.0 if at_peak <= 0 else (at_peak - float(med[-1])) / at_peak
        elif at_peak <= 0:
            drop = None
        else:  # a NaN peak too: its decline is NaN
            decline = drop = (at_peak - float(med[grid.offsets_ms.index(end_ms)])) / at_peak
        abrupt = drop is not None and drop >= cfg.pattern_abrupt_drop_fraction
        pattern = PATTERN_ABRUPT if abrupt else PATTERN_GENTLE
    return SearcherProfile(
        searcher_label=searcher_label,
        t_star_s=t_star,
        pattern=pattern,
        decline_3s_fraction=decline,
        n_arb_trades=len(grs),
        low_confidence=len(grs) < cfg.min_trades_low_confidence,
    )
