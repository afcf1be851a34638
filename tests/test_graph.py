"""Graph container, degree statistics, and tail-fit tests."""

import os
import subprocess
import sys

import numpy as np
import pytest

import fairank.graph
import oracles
from oracles import powerlaw_mle, tail_exponent_fit
from fairank.graph import (
    Color,
    GraphError,
    ccdf_by_color,
    degree_ccdf,
    from_edge_list,
    hri,
    minority_fraction,
)

EDGES = [(0, 1), (0, 2), (2, 1), (3, 0), (3, 1), (0, 1)]  # one parallel edge
COLORS = [Color.R, Color.B, Color.B, Color.R]


def test_importing_the_graph_module_loads_no_other_fairank_module():
    # the package root re-exports nothing, so it imports no module of its own
    code = ("import sys, fairank.graph; print(*sorted(name for name in sys.modules "
            "if name.partition('.')[0] == 'fairank'))")
    src = os.path.dirname(os.path.dirname(fairank.graph.__file__))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src}, check=True)
    assert result.stdout.split() == ["fairank", "fairank.graph"]


def test_color_parse():
    assert Color.parse("R") is Color.R
    assert Color.parse(" b ") is Color.B
    with pytest.raises(GraphError, match="expected R or B"):
        Color.parse("X")


def test_degrees_match_brute_force():
    g = from_edge_list(EDGES, COLORS)
    indeg, outdeg, total = oracles.brute_degrees(EDGES, 4)
    assert np.array_equal(g.indeg, indeg)
    assert np.array_equal(g.outdeg, outdeg)
    assert np.array_equal(g.degrees("total"), total)
    assert g.n_edges == len(EDGES)


def test_degrees_match_brute_force_random():
    rng = np.random.default_rng(5)
    n, edges = oracles.random_digraph(rng)
    g = from_edge_list(edges, rng.integers(0, 2, n).astype(np.uint8))
    indeg, outdeg, total = oracles.brute_degrees(edges, n)
    assert np.array_equal(g.indeg, indeg)
    assert np.array_equal(g.outdeg, outdeg)


def test_neighbor_lists_cover_edge_list():
    g = from_edge_list(EDGES, COLORS)
    assert sorted(g.dst[g.src == 0].tolist()) == [1, 1, 2]
    assert sorted(g.src[g.dst == 1].tolist()) == [0, 0, 2, 3]
    assert not np.any(g.src == 1)
    assert sorted(zip(g.src.tolist(), g.dst.tolist())) == sorted(EDGES)


def test_arrays_are_immutable():
    g = from_edge_list(EDGES, COLORS)
    with pytest.raises(ValueError):
        g.colors[0] = 0
    with pytest.raises(ValueError):
        g.src[0] = 3


def test_from_edge_list_validation():
    with pytest.raises(GraphError, match="empty"):
        from_edge_list([], COLORS)
    with pytest.raises(GraphError, match="pairs"):
        from_edge_list([(0, 1, 2)], COLORS)
    with pytest.raises(GraphError, match="outside node range"):
        from_edge_list([(0, 5)], COLORS)
    with pytest.raises(GraphError, match="outside node range"):
        from_edge_list([(-1, 1)], COLORS)
    with pytest.raises(GraphError, match="Color.R or Color.B"):
        from_edge_list([(0, 1)], [0, 7])


def test_minority_fraction():
    g = from_edge_list(EDGES, COLORS)
    assert minority_fraction(g) == 0.5


def test_hri_hand_value():
    # 3 of 4 edges cross colors; expected cross share 2*.5*.5 = .5
    g = from_edge_list([(0, 1), (2, 3), (1, 2), (0, 2)], COLORS)
    assert hri(g) == pytest.approx(3 / (0.5 * 4))


def test_hri_extremes():
    colors = [Color.R, Color.B]
    assert hri(from_edge_list([(0, 1), (1, 0)], colors)) == pytest.approx(2.0)
    with pytest.raises(GraphError, match="single color"):
        hri(from_edge_list([(0, 1)], [Color.B, Color.B]))


def test_degree_ccdf_matches_exhaustive():
    degrees = np.array([0, 1, 1, 3, 5, 5, 5, 2])
    ks, ccdf = degree_ccdf(degrees)
    oks, occdf = oracles.exhaustive_ccdf(degrees)
    assert np.array_equal(ks, oks)
    assert np.allclose(ccdf, occdf)
    assert ccdf[0] == 1.0
    assert np.all(np.diff(ccdf) <= 0)


def test_ccdf_by_color_splits_degrees():
    g = from_edge_list(EDGES, COLORS)
    per_color = ccdf_by_color(g, "total")
    for color in (Color.B, Color.R):
        degs = g.degrees("total")[g.colors == int(color)]
        oks, occdf = oracles.exhaustive_ccdf(degs)
        ks, ccdf = per_color[color]
        assert np.array_equal(ks, oks)
        assert np.allclose(ccdf, occdf)


def test_ccdf_by_color_single_color():
    per_color = ccdf_by_color(from_edge_list([(0, 1)], [Color.B, Color.B]))
    assert Color.R not in per_color and Color.B in per_color


def test_tail_fit_recovers_exact_power_law():
    ks = np.arange(0, 101)
    ccdf = np.ones(101)
    ccdf[1:] = ks[1:].astype(float) ** -2.0  # beta - 1 = 2
    assert tail_exponent_fit((ks, ccdf)) == pytest.approx(3.0, abs=1e-9)
    assert tail_exponent_fit((ks, ccdf), k_min=10) == pytest.approx(3.0, abs=1e-9)


def test_tail_fit_k_min_skips_bent_head():
    ks = np.arange(0, 201)
    ccdf = np.ones(201)
    ccdf[1:] = ks[1:].astype(float) ** -1.5
    ccdf[1:10] = 0.9  # flat head that would bias the whole-range fit
    assert tail_exponent_fit((ks, ccdf), k_min=10) == pytest.approx(2.5, abs=1e-9)
    assert tail_exponent_fit((ks, ccdf)) != pytest.approx(2.5, abs=0.05)


def test_tail_fit_errors():
    ks = np.arange(0, 4)
    with pytest.raises(GraphError, match="at least three points"):
        tail_exponent_fit((ks, np.array([1.0, 0.5, 0.0, 0.0])))
    rising = np.array([1.0, 0.1, 0.2, 0.4])
    with pytest.raises(GraphError, match="does not decay"):
        tail_exponent_fit((ks, rising))
    with pytest.raises(GraphError, match="mismatched"):
        tail_exponent_fit((ks, np.ones(3)))


@pytest.mark.parametrize("alpha", [2.5, 3.5])
def test_tail_mle_recovers_a_rounded_power_law(alpha):
    # a continuous power law above k_min - 1/2, rounded to the nearest
    # integer (Clauset, Shalizi & Newman 2009, App. D), with k_min = 6
    u = np.random.default_rng(3).random(100_000)
    ks = np.floor(5.5 * (1.0 - u) ** (-1.0 / (alpha - 1.0)) + 0.5).astype(np.int64)
    assert powerlaw_mle(ks, [6])[0] == pytest.approx(alpha, abs=0.1)
    estimate, k_min = powerlaw_mle(ks, range(1, 30))
    assert estimate == pytest.approx(alpha, abs=0.1)
    assert k_min >= 6  # below the law's own k_min the rounded model misfits


def test_degrees_unknown_kind():
    g = from_edge_list(EDGES, COLORS)
    with pytest.raises(ValueError, match="unknown degree kind"):
        g.degrees("middle")
