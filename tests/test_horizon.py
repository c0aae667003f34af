import math

import numpy as np
import pytest

from cexdex.config import MarkoutGrid, PipelineConfig
from cexdex.horizon import build_profile

CFG = PipelineConfig()  # flat within 1 bps, abrupt from a 50% decline
GRID = MarkoutGrid(CFG)  # the 23 offsets -1.0 .. 10.0 s; offset 0 is column 2, +3 s column 8


def profile(*rows, offsets=None, cfg=CFG):
    """build_profile of GR rows, one per trade, over ``offsets`` (the 23
    default offsets when None)."""
    grid = GRID
    if offsets is not None:
        grid = MarkoutGrid(PipelineConfig(grid_start_s=offsets[0], grid_end_s=offsets[-1],
                                          grid_step_s=offsets[1] - offsets[0]))
        assert grid.offsets_s == list(offsets)
    return build_profile("s", np.array(rows, dtype=np.float64), cfg, grid)


def peak_at_zero(at_peak, at_3s, rest=0.0):
    """A 23-offset row: ``at_peak`` at offset 0, ``at_3s`` at +3 s, ``rest`` elsewhere."""
    row = np.full(23, rest)
    row[2], row[8] = at_peak, at_3s
    return row


def test_median_odd():
    # medians 2 at t* and 1 at +3 s; the mean at t* would be 3
    p = profile(peak_at_zero(1.0, 1.0), peak_at_zero(2.0, 1.0), peak_at_zero(6.0, 1.0))
    assert p.t_star_s == 0.0 and p.decline_3s_fraction == 0.5 and p.n_arb_trades == 3


def test_median_even_is_midpoint():
    # the median at t* is 2.5, the mean of the two central values, so the decline is 0.6
    p = profile(*(peak_at_zero(v, 1.0) for v in (1.0, 2.0, 3.0, 4.0)))
    assert p.decline_3s_fraction == pytest.approx(0.6) and p.n_arb_trades == 4


def test_median_single_trade_identity():
    gr = np.linspace(0.0, 1.0, 23)
    p = profile(gr)
    assert p.t_star_s == 10.0 and p.n_arb_trades == 1 and p.low_confidence


def test_optimal_horizon_unique_max():
    assert profile([1, 2, 3, 2, 1], offsets=[-1, -0.5, 0, 0.5, 1]).t_star_s == 0


def test_optimal_horizon_leading_plateau():
    assert profile([1, 3, 3, 2], offsets=[0, 0.5, 1.0, 1.5]).t_star_s == 1.0


def test_optimal_horizon_ignores_later_equal_peak():
    # second peak after a strict decrease is not part of the leading plateau
    assert profile([1, 3, 2, 3], offsets=[0, 0.5, 1.0, 1.5]).t_star_s == 0.5


def test_optimal_horizon_scale_invariant():
    values = np.array([1, 5, 4, 2, 1, 3, 2, 1], dtype=np.float64) * 1e-3
    offs = [0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5]
    p, scaled = profile(values, offsets=offs), profile(7.3 * values, offsets=offs)
    assert (p.t_star_s, p.pattern) == (scaled.t_star_s, scaled.pattern) == (0.5, "P2")
    assert p.decline_3s_fraction == pytest.approx(scaled.decline_3s_fraction)


def test_decline_after_peak():
    # peak 10 bps at t*=0, 4 bps at +3s
    p = profile(np.where(np.arange(23) == 2, 1e-3, 4e-4))
    assert (p.t_star_s, p.pattern) == (0.0, "P2")
    assert p.decline_3s_fraction == pytest.approx(0.6)


def test_classify_abrupt():
    p = profile(peak_at_zero(1e-3, 4e-4, rest=4e-4))  # 60% drop over 3 s
    assert p.pattern == "P2"


def test_decline_out_of_grid():
    # t* = 8.0 s: the window ends at 11.0 s, past the grid; no decline is written
    p = profile(np.where(np.arange(23) == 18, 1e-3, 1e-4))
    assert (p.t_star_s, p.decline_3s_fraction) == (8.0, None)


def test_decline_flat_is_zero():
    # the median dips after t* and is back at the peak's level 3 s later
    p = profile(peak_at_zero(1e-3, 1e-3, rest=5e-4))
    assert (p.t_star_s, p.pattern, p.decline_3s_fraction) == (0.0, "P1", 0.0)


def test_classify_peak_near_grid_end():
    # peak at +9.5s: the 3 s window leaves the grid, the drop to the end is 90%
    values = np.full(23, 2e-4)
    values[21], values[22] = 1e-3, 1e-4
    p = profile(values)
    assert (p.t_star_s, p.pattern, p.decline_3s_fraction) == (9.5, "P2", None)


def test_decline_peak_nonpositive():
    p = profile(peak_at_zero(-1e-4, -5e-4, rest=-5e-4))
    assert (p.t_star_s, p.pattern, p.decline_3s_fraction) == (0.0, "P1", None)


def test_nan_peak_keeps_nan_decline():
    p = profile(peak_at_zero(np.nan, 4e-4, rest=4e-4))
    assert (p.t_star_s, p.pattern) == (0.0, "P1")
    assert type(p.decline_3s_fraction) is float and math.isnan(p.decline_3s_fraction)


def test_classify_flat():
    p = profile(np.linspace(0, 0.5e-4, 23))  # 0.5 bps range, epsilon 1 bps
    assert (p.t_star_s, p.pattern, p.decline_3s_fraction) == (None, "P3", None)


def test_classify_gentle():
    p = profile(peak_at_zero(1e-3, 8e-4, rest=8e-4))  # 20% drop
    assert p.pattern == "P1" and p.decline_3s_fraction == pytest.approx(0.2)


def test_classify_threshold_boundary():
    # exactly 50% decline -> P2 (>= threshold)
    p = profile(peak_at_zero(1e-3, 5e-4, rest=5e-4),
                cfg=PipelineConfig(pattern_abrupt_drop_fraction=0.5))
    assert (p.pattern, p.decline_3s_fraction) == ("P2", 0.5)


def test_profile_values_are_python_floats():
    p = profile(np.where(np.arange(23) == 2, 1e-3, 4e-4))
    assert type(p.t_star_s) is float and type(p.decline_3s_fraction) is float


def test_median_is_argmax_consistent():
    values = np.random.default_rng(3).uniform(0, 1, 23)
    idx = GRID.index_of(profile(values).t_star_s)
    assert np.all(values[idx] >= values)
