"""Parameter grids and deterministic tie-breaking."""

import numpy as np
import pytest

from isingbp.grids import Grid, argmax_tiebreak, tiebreak_order


def test_grid_values_symmetric():
    g = Grid(step=0.5, half_count=2)
    assert np.allclose(g.values, [-1.0, -0.5, 0.0, 0.5, 1.0])
    assert g.size == 5


def test_grid_cap_truncates():
    g = Grid(step=0.5, half_count=4, cap=1.0)
    assert np.allclose(g.values, [-1.0, -0.5, 0.0, 0.5, 1.0])


def test_grid_snap():
    g = Grid(step=0.5, half_count=2)
    assert g.snap(0.2) == 0.0
    assert g.snap(0.3) == 0.5
    assert g.snap(100.0) == 1.0
    assert g.snap(-100.0) == -1.0
    assert np.allclose(g.snap([0.2, -0.7]), [0.0, -0.5])


@pytest.mark.parametrize("grid", [
    Grid(step=0.05, half_count=40),
    Grid(step=0.05, half_count=40, cap=1.5),
    Grid(step=0.3, half_count=5, cap=0.0),
])
def test_grid_values_cached_and_snap_unchanged(grid):
    v = grid.values
    assert grid.values is v
    assert not v.flags.writeable
    with pytest.raises(ValueError):
        v[0] = 1.0
    # the values and the nearest-value formula as computed before caching
    ref = grid.step * np.arange(-grid.half_count, grid.half_count + 1)
    if grid.cap is not None:
        ref = ref[np.abs(ref) <= grid.cap + 1e-12]
    assert np.array_equal(v, ref)
    assert grid.size == ref.size
    x = np.random.default_rng(0).uniform(-4.0, 4.0, 200)
    idx = np.clip(np.rint((x - ref[0]) / grid.step), 0, ref.size - 1)
    assert np.array_equal(grid.snap(x), ref[idx.astype(np.int64)])
    for xi in x[:20]:
        assert grid.snap(float(xi)) == ref[int(np.clip(np.rint((xi - ref[0]) / grid.step),
                                                       0, ref.size - 1))]


@pytest.mark.parametrize("kwargs", [
    dict(step=0.0, half_count=2),
    dict(step=-0.1, half_count=2),
    dict(step=0.1, half_count=-1),
    dict(step=0.1, half_count=2, cap=-1.0),
    dict(step=float("nan"), half_count=2),
    dict(step=float("inf"), half_count=2),
    dict(step=0.1, half_count=2.5),
    dict(step=0.1, half_count=2, cap=float("nan")),
])
def test_grid_validation(kwargs):
    with pytest.raises(ValueError):
        Grid(**kwargs)


def test_tiebreak_order_prefers_small_then_negative():
    vals = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    order = tiebreak_order(vals)
    assert np.allclose(vals[order], [0.0, -0.5, 0.5, -1.0, 1.0])


def test_argmax_tiebreak():
    vals = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    flat = np.zeros(5)
    assert vals[argmax_tiebreak(flat, vals)] == 0.0
    two_peaks = np.array([0.0, 3.0, 0.0, 3.0, 0.0])
    assert vals[argmax_tiebreak(two_peaks, vals)] == -0.5
    single = np.array([0.0, 0.0, 0.0, 7.0, 0.0])
    assert vals[argmax_tiebreak(single, vals)] == 0.5
