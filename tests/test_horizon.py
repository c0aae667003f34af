import numpy as np
import pytest

from cexdex.config import PipelineConfig
from cexdex.errors import NoTrades, OutOfGrid, PeakNonPositive
from cexdex.horizon import (
    MedianCurve,
    classify_pattern,
    decline_after_peak,
    median_curve,
    optimal_horizon,
)

OFFSETS = [-1.0 + 0.5 * k for k in range(23)]


def grs(*rows):
    """A searcher's GR rows, one per trade, over the 23 default offsets."""
    return np.array(rows, dtype=np.float64).reshape(len(rows), 23)


def med(values, offsets=None):
    values = np.asarray(values, dtype=np.float64)
    if offsets is None:
        offsets = [-1.0 + 0.5 * k for k in range(len(values))]
    return MedianCurve(searcher_label="s", offsets_s=list(offsets),
                       median_gr=values, q25_gr=values, q75_gr=values, n_trades=1)


def test_median_odd():
    assert median_curve("s", grs([1.0] * 23, [2.0] * 23, [3.0] * 23), OFFSETS).median_gr[0] == 2.0


def test_median_even_is_midpoint():
    rows = grs(*([float(v)] * 23 for v in (1, 2, 3, 4)))
    assert median_curve("s", rows, OFFSETS).median_gr[0] == 2.5


def test_median_single_trade_identity():
    gr = np.linspace(0.0, 1.0, 23)
    m = median_curve("s", grs(gr), OFFSETS)
    assert np.array_equal(m.median_gr, gr)
    assert m.offsets_s == OFFSETS and m.n_trades == 1


def test_median_no_trades():
    with pytest.raises(NoTrades):
        median_curve("s", grs(), OFFSETS)


def test_optimal_horizon_unique_max():
    assert optimal_horizon(med([1, 2, 3, 2, 1], [-1, -0.5, 0, 0.5, 1])) == 0


def test_optimal_horizon_leading_plateau():
    assert optimal_horizon(med([1, 3, 3, 2], [0, 0.5, 1.0, 1.5])) == 1.0


def test_optimal_horizon_ignores_later_equal_peak():
    # second peak after a strict decrease is not part of the leading plateau
    assert optimal_horizon(med([1, 3, 2, 3], [0, 0.5, 1.0, 1.5])) == 0.5


def test_optimal_horizon_scale_invariant():
    values = [1, 5, 4, 2, 1]
    offs = [0, 0.5, 1.0, 1.5, 2.0]
    assert optimal_horizon(med(values, offs)) == optimal_horizon(
        med([7.3 * v for v in values], offs)
    )


def test_decline_after_peak():
    # 23-point grid, peak 10 bps at t*=0, 4 bps at +3s
    values = np.full(23, 4e-4)
    values[2] = 1e-3  # offset 0
    curve = med(values)
    assert decline_after_peak(curve, 0.0) == pytest.approx(0.6)


def test_decline_flat_is_zero():
    assert decline_after_peak(med(np.ones(23)), 0.0) == 0.0


def test_decline_out_of_grid():
    with pytest.raises(OutOfGrid):
        decline_after_peak(med(np.ones(23)), 8.0)


def test_decline_peak_nonpositive():
    with pytest.raises(PeakNonPositive):
        decline_after_peak(med(np.zeros(23)), 0.0)


def test_classify_flat(config):
    values = np.linspace(0, 0.5e-4, 23)  # 0.5 bps range, epsilon 1 bps
    assert classify_pattern(med(values), config) == "P3"


def test_classify_abrupt(config):
    values = np.full(23, 4e-4)
    values[2] = 1e-3  # 60% drop over 3 s
    assert classify_pattern(med(values), config) == "P2"


def test_classify_gentle(config):
    values = np.full(23, 8e-4)
    values[2] = 1e-3  # 20% drop
    assert classify_pattern(med(values), config) == "P1"


def test_classify_threshold_boundary():
    cfg = PipelineConfig(pattern_abrupt_drop_fraction=0.5)
    values = np.full(23, 5e-4)
    values[2] = 1e-3  # exactly 50% decline -> P2 (>= threshold)
    assert classify_pattern(med(values), cfg) == "P2"


def test_classify_peak_near_grid_end(config):
    # peak at +8.5s: the 3 s window leaves the grid, decline measured to end
    values = np.full(23, 2e-4)
    values[21] = 1e-3
    values[22] = 1e-4
    assert classify_pattern(med(values), config) == "P2"


def test_median_is_argmax_consistent():
    values = np.random.default_rng(3).uniform(0, 1, 23)
    curve = med(values)
    t_star = optimal_horizon(curve)
    idx = curve.offsets_s.index(t_star)
    assert np.all(values[idx] >= values)
