"""Share-curve and parity-gap tests."""

import numpy as np
import pytest

import oracles
from oracles import parity_gap
from fairank.fairness import (
    FairnessCurve,
    average_curves,
    curve_compare,
    log_grid,
    minority_share_curve,
)
from fairank.graph import Color
from fairank.rankers import rank_order

R, B = int(Color.R), int(Color.B)


def test_hand_enumerated_curve():
    curve = minority_share_curve(
        [0, 1, 2, 3], [R, B, B, R], grid=[0.25, 0.5, 0.75, 1.0]
    )
    assert curve.share.tolist() == [1.0, 0.5, 1 / 3, 0.5]
    assert curve.baseline == 0.5
    assert parity_gap(curve, 0.25) == pytest.approx(0.5)
    assert parity_gap(curve, 1.0) == 0.0


def test_share_matches_direct_slicing_on_random_rankings():
    rng = np.random.default_rng(2)
    n = 137
    colors = (rng.random(n) < 0.3).astype(np.uint8)
    order = rng.permutation(n)
    grid = log_grid(n)
    curve = minority_share_curve(order, colors, grid)
    expected = oracles.leading_share_curve(order.tolist(), colors == R, grid)
    assert np.array_equal(curve.share, expected)


def test_full_prefix_share_equals_baseline_exactly():
    rng = np.random.default_rng(7)
    for trial in range(5):
        n = int(rng.integers(10, 400))
        colors = (rng.random(n) < 0.37).astype(np.uint8)
        if not colors.any():
            colors[0] = R
        curve = minority_share_curve(rng.permutation(n), colors)
        assert curve.share[-1] == curve.baseline  # bitwise, not approx


def test_worst_case_ranking_closed_form():
    # all majority nodes first: share(x) = max(0, 1 - (1 - baseline)/x)
    n, n_red = 100, 30
    colors = np.array([B] * (n - n_red) + [R] * n_red, dtype=np.uint8)
    order = np.arange(n)
    grid = np.linspace(0.05, 1.0, 20)
    curve = minority_share_curve(order, colors, grid)
    tops = np.ceil(grid * n - 1e-9)
    expected = np.maximum(0.0, (tops - (n - n_red)) / tops)
    assert np.allclose(curve.share, expected)
    assert curve.share[-1] == curve.baseline == 0.3


def test_all_minority_population():
    curve = minority_share_curve([1, 0, 2], [R, R, R], grid=[0.5, 1.0])
    assert np.all(curve.share == 1.0) and curve.baseline == 1.0


def test_grid_validation():
    order, colors = [0, 1], [R, B]
    with pytest.raises(ValueError, match=r"in \(0, 1\]"):
        minority_share_curve(order, colors, grid=[0.0, 0.5])
    with pytest.raises(ValueError, match=r"in \(0, 1\]"):
        minority_share_curve(order, colors, grid=[0.5, 1.5])
    with pytest.raises(ValueError, match="ascending"):
        minority_share_curve(order, colors, grid=[0.9, 0.5])
    with pytest.raises(ValueError, match="non-empty"):
        minority_share_curve(order, colors, grid=[])
    with pytest.raises(ValueError, match="disagree"):
        minority_share_curve([0, 1, 2], colors)
    with pytest.raises(ValueError, match="empty ranking"):
        minority_share_curve([], [])


def test_log_grid_shape():
    grid = log_grid(1000)
    assert grid.shape == (40,)
    assert grid[0] == 1 / 1000 and grid[-1] == 1.0
    assert np.all(np.diff(grid) > 0)
    assert log_grid(50, points=7).shape == (7,)
    with pytest.raises(ValueError):
        log_grid(0)
    with pytest.raises(ValueError):
        log_grid(10, points=1)


def test_parity_gap_requires_grid_point():
    curve = minority_share_curve([0, 1], [R, B], grid=[0.5, 1.0])
    assert parity_gap(curve, 0.5) == pytest.approx(0.5)
    with pytest.raises(ValueError, match="not on the curve grid"):
        parity_gap(curve, 0.75)


def test_curve_compare_csv_round_trip():
    grid = [0.25, 0.5, 1.0]
    a = minority_share_curve([0, 1, 2, 3], [R, B, B, R], grid=grid)
    b = minority_share_curve([3, 2, 1, 0], [R, B, B, R], grid=grid)
    text = curve_compare({"alpha": a, "beta": b})
    lines = text.strip().split("\n")
    assert lines[0] == "algo,x,share,baseline"
    assert len(lines) == 1 + 2 * len(grid)
    first = lines[1].split(",")
    assert first[0] == "alpha"
    assert float(first[1]) == 0.25 and float(first[2]) == 1.0
    # values survive the text round trip exactly
    for row, (x, s) in zip(lines[1:4], zip(a.grid, a.share)):
        _, xs, ss, bs = row.split(",")
        assert float(xs) == x and float(ss) == s and float(bs) == a.baseline


def test_curve_compare_rejects_bad_input():
    a = minority_share_curve([0, 1], [R, B], grid=[0.5, 1.0])
    b = minority_share_curve([0, 1], [R, B], grid=[0.25, 1.0])
    with pytest.raises(ValueError, match="different grid"):
        curve_compare({"a": a, "b": b})
    with pytest.raises(ValueError, match="no curves"):
        curve_compare({})


def test_average_curves():
    grid = np.array([0.5, 1.0])
    a = FairnessCurve(grid, np.array([0.2, 0.4]), 0.4)
    b = FairnessCurve(grid, np.array([0.4, 0.2]), 0.2)
    avg = average_curves([a, b])
    assert avg.share == pytest.approx([0.3, 0.3])
    assert avg.baseline == pytest.approx(0.3)
    with pytest.raises(ValueError, match="different grids"):
        average_curves([a, FairnessCurve(np.array([0.4, 1.0]), np.array([0, 0]), 0.0)])
    with pytest.raises(ValueError, match="no curves"):
        average_curves([])


def test_tie_shuffle_shifts_share_by_at_most_boundary_ties():
    # ranking with a large tied block straddling several cut points
    scores = np.array([9.0, 7.0, 5.0, 5.0, 5.0, 5.0, 5.0, 2.0, 1.0, 0.0])
    colors = np.array([B, R, R, B, R, B, B, R, B, R], dtype=np.uint8)
    n = scores.size
    grid = np.array([0.2, 0.4, 0.5, 0.7, 1.0])
    shares = []
    for seed in range(40):
        order = rank_order(scores, tie_shuffle_seed=seed)
        shares.append(minority_share_curve(order, colors, grid).share)
    shares = np.array(shares)
    spread = shares.max(axis=0) - shares.min(axis=0)
    sorted_desc = np.sort(scores)[::-1]
    for j, x in enumerate(grid):
        m = int(np.ceil(x * n - 1e-9))
        ties_at_boundary = int(np.count_nonzero(scores == sorted_desc[m - 1]))
        assert spread[j] <= ties_at_boundary / m + 1e-12
