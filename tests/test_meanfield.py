"""Closed-form analytics tests: fixed point, attachment matrices, exponents,
two-step ratio, and their empirical estimators."""

import numpy as np
import pytest

import oracles
from oracles import empirical_mf_ratio, size_biased_moment
from fairank.bpam import BpamParams, generate
from fairank.graph import Color, from_edge_list
from fairank.meanfield import (
    attachment_probs,
    exponents,
    mean_field_report,
    mf_ratio,
    q_matrix,
    solve_alpha,
    verify_propositions,
    _exponent_checks,
)

from conftest import BASE_SEED

B, R = int(Color.B), int(Color.R)

INTERIOR = [(r, rho) for r in (0.1, 0.2, 0.3, 0.4, 0.45) for rho in (0.05, 0.3, 0.6, 0.9)]


# -- fixed point ----------------------------------------------------------------

def test_alpha_matches_bracketing_solver():
    for r, rho in INTERIOR:
        assert solve_alpha(r, rho) == pytest.approx(
            oracles.alpha_root(r, rho), abs=1e-9
        )


def test_alpha_boundary_collapses():
    for r in (0.0, 0.25, 0.5, 1.0):
        assert solve_alpha(r, 0.0) == r
        assert solve_alpha(r, 1.0) == r
    for rho in (0.2, 0.7):
        assert solve_alpha(0.0, rho) == 0.0
        assert solve_alpha(0.5, rho) == 0.5
        assert solve_alpha(1.0, rho) == 1.0


def test_alpha_never_exceeds_arrival_rate():
    for r, rho in INTERIOR:
        assert solve_alpha(r, rho) < r


def test_alpha_parameter_validation():
    with pytest.raises(ValueError):
        solve_alpha(-0.1, 0.5)
    with pytest.raises(ValueError):
        solve_alpha(0.3, 1.0001)


# -- attachment matrices ----------------------------------------------------------

def test_attachment_matches_acceptance_process():
    for r, rho in INTERIOR:
        alpha = solve_alpha(r, rho)
        p_out, p_in = attachment_probs(alpha, rho, r)
        o_out, o_in = oracles.acceptance_attachment(alpha, rho, r)
        assert p_out == pytest.approx(o_out, abs=1e-12)
        assert p_in == pytest.approx(o_in, abs=1e-12)
        assert p_out.sum(axis=1) == pytest.approx([1.0, 1.0], abs=1e-12)
        assert p_in.sum(axis=1) == pytest.approx([1.0, 1.0], abs=1e-12)


def test_attachment_monte_carlo_spot_check():
    # simulate the propose/accept loop at one interior point
    alpha, rho = 0.35, 0.4
    rng = np.random.default_rng(99)
    n_draws = 200_000
    hits_red = 0
    for _ in range(n_draws):
        while True:
            red_target = rng.random() < alpha  # degree-share proposal
            # red source: same-color targets stick, cross-color needs luck
            if red_target or rng.random() < rho:
                break
        hits_red += red_target
    p_out, _ = attachment_probs(alpha, rho, 0.3)
    observed = hits_red / n_draws
    sigma = np.sqrt(p_out[R, R] * (1 - p_out[R, R]) / n_draws)
    assert observed == pytest.approx(p_out[R, R], abs=4 * sigma)


def test_attachment_degenerate_corners_raise():
    with pytest.raises(ValueError, match="undefined probability"):
        attachment_probs(0.0, 0.0, 0.3)  # no mass a red source can accept
    with pytest.raises(ValueError, match="undefined probability"):
        attachment_probs(1.0, 0.0, 0.3)  # mirrored for a blue source
    with pytest.raises(ValueError, match="must lie in"):
        attachment_probs(1.2, 0.5, 0.3)


# -- exponents --------------------------------------------------------------------

def test_growth_rates_straddle_half():
    k_b, k_r, beta_b, beta_r = exponents(0.3, 0.3)
    assert k_r < 0.5 < k_b
    assert beta_r > 3.0 > beta_b > 2.0
    assert beta_b == pytest.approx(1 + 1 / k_b)
    assert k_r > 2 * k_b - 1  # growth shares cannot both be extreme


def test_exponents_collapse_at_homophily_boundaries():
    for r in (0.1, 0.3, 0.5):
        for rho in (0.0, 1.0):
            assert exponents(r, rho) == (0.5, 0.5, 3.0, 3.0)


def test_exponents_reject_a_growth_rate_that_rounds_to_zero():
    # at r = 0, K_R = rho / 2 exactly, which rounds to 0.0 at the smallest
    # subnormal rho: the exponent 1 + 1/K_R is then undefined, not inf
    with pytest.raises(ArithmeticError, match="degenerate growth rate"):
        exponents(0.0, 5e-324)


def test_exponent_symmetry_at_equal_arrivals():
    k_b, k_r, beta_b, beta_r = exponents(0.5, 0.4)
    assert k_b == pytest.approx(k_r, abs=1e-12)
    assert beta_b == pytest.approx(beta_r, abs=1e-12)


# -- two-step matrix and ratio -----------------------------------------------------

def test_q_matrix_hand_product():
    p_in = np.array([[0.8, 0.2], [0.4, 0.6]])
    p_out = np.array([[0.7, 0.3], [0.1, 0.9]])
    q = q_matrix(p_out, p_in)
    assert q == pytest.approx(np.array([[0.58, 0.42], [0.34, 0.66]]))


def test_q_rows_sum_to_one_on_grid():
    for r, rho in INTERIOR:
        alpha = solve_alpha(r, rho)
        q = q_matrix(*attachment_probs(alpha, rho, r))
        assert q.sum(axis=1) == pytest.approx([1.0, 1.0], abs=1e-12)
        assert q[B, B] > q[R, B]  # blue neighborhoods recycle more blue mass


def test_ratio_increases_with_acceptance():
    values = [mf_ratio(0.3, rho) for rho in (0.1, 0.3, 0.5, 0.9)]
    assert values == sorted(values)
    assert 0.0 < values[0] and values[-1] < 1.0
    assert mf_ratio(0.3, 1.0) == 1.0


def test_ratio_symmetric_arrivals_closed_form():
    # at r = 0.5 the ratio reduces to 2 rho / (1 + rho^2)
    for rho in (0.2, 0.5, 0.8):
        assert mf_ratio(0.5, rho) == pytest.approx(2 * rho / (1 + rho**2), abs=1e-12)


def test_ratio_undefined_at_zero_acceptance():
    with pytest.raises(ValueError, match="undefined at rho = 0"):
        mf_ratio(0.3, 0.0)


def test_report_bundles_consistent_values():
    rep = mean_field_report(0.3, 0.4)
    assert rep.alpha == solve_alpha(0.3, 0.4)
    p_out, p_in = attachment_probs(rep.alpha, 0.4, 0.3)
    assert rep.q == pytest.approx(q_matrix(p_out, p_in))
    assert rep.f_ratio == mf_ratio(0.3, 0.4)
    assert rep.beta_blue < 3.0 < rep.beta_red
    assert np.isnan(mean_field_report(0.3, 0.0).f_ratio)


def test_report_gives_nan_where_blue_picks_up_no_blue_mass():
    # at r = 1 every node is red, so q_BB = 0 and mf_ratio raises
    with pytest.raises(ValueError, match="no blue mass"):
        mf_ratio(1.0, 0.5)
    rep = mean_field_report(1.0, 0.5)
    assert rep.q[B, B] == 0.0
    assert np.isnan(rep.f_ratio)


# -- empirical estimators -----------------------------------------------------------

def test_size_biased_moment_basics():
    g = from_edge_list([(0, 1), (2, 1), (2, 3), (1, 3), (3, 1)], [R, R, B, B])
    # red indegrees (0, 3); blue (0, 2)
    assert size_biased_moment(g, 1, Color.R) == 1.0
    assert size_biased_moment(g, 2, Color.R) == pytest.approx(9 / 3)
    assert size_biased_moment(g, 3, Color.B) == pytest.approx(8 / 2)
    with pytest.raises(ValueError, match="t must be at least 1"):
        size_biased_moment(g, 0, Color.R)


def test_size_biased_moment_needs_indegree_mass():
    g = from_edge_list([(0, 1)], [R, B])  # the red node receives nothing
    with pytest.raises(ValueError, match="zero total indegree"):
        size_biased_moment(g, 2, Color.R)


def test_moment_growth_tracks_predicted_exponent():
    # the blue t = 3 moment grows like N to the power (t + 1 - beta)/(beta - 1)
    sizes = (500, 1000, 2000)
    med2, med3 = [], []
    for n in sizes:
        m2, m3 = [], []
        for i in range(60):
            g, _ = generate(BpamParams(n, 6, 0.3, 0.3), seed=BASE_SEED + i)
            m2.append(size_biased_moment(g, 2, Color.B))
            m3.append(size_biased_moment(g, 3, Color.B))
        med2.append(float(np.median(m2)))
        med3.append(float(np.median(m3)))
    _, _, beta_b, _ = exponents(0.3, 0.3)
    predicted = (3 + 1 - beta_b) / (beta_b - 1)
    slope = np.polyfit(np.log(sizes), np.log(med3), 1)[0]
    assert slope == pytest.approx(predicted, rel=0.3)
    # the t = 2 moment diverges too slowly to fit at these sizes; require
    # only that it grows with N
    assert med2[0] < med2[1] < med2[2]


def test_empirical_ratio_matches_walk_count_arithmetic():
    g, _ = generate(BpamParams(60, 2, 0.4, 0.5), seed=5)
    edges = list(zip(g.src.tolist(), g.dst.tolist()))
    counts = oracles.alternating_walk_counts(edges, g.n, 3)
    eligible = (g.indeg >= 1) & (g.indeg <= 10)
    means = {}
    for color in (R, B):
        sel = eligible & (g.colors == color)
        means[color] = np.mean(counts[sel] / g.indeg[sel])
    assert empirical_mf_ratio(g, 3) == pytest.approx(means[R] / means[B], rel=1e-12)


def test_empirical_ratio_validation():
    g, _ = generate(BpamParams(50, 2, 0.4, 0.5), seed=5)
    with pytest.raises(ValueError, match="t must be at least 2"):
        empirical_mf_ratio(g, 1)
    with pytest.raises(ValueError, match="indeg_cap"):
        empirical_mf_ratio(g, 3, indeg_cap=0)
    lonely = from_edge_list([(0, 1)], [B, B, R])  # red node isolated
    with pytest.raises(ValueError, match="no R nodes"):
        empirical_mf_ratio(lonely, 2)


def test_empirical_ratio_rises_with_acceptance(batch_cache):
    means = []
    for rho in (0.1, 0.5):
        batch = batch_cache(r=0.3, rho=rho, reps=10)
        means.append(np.mean([empirical_mf_ratio(g, 3) for g in batch.graphs]))
    assert means[1] - means[0] > 0.1


# -- proposition checks ---------------------------------------------------------------

ALWAYS = {
    "power_inequality",
    "p_out_rows_sum_to_1",
    "p_in_rows_sum_to_1",
    "q_rows_sum_to_1",
    "q_blue_dominates",
    "k_blue_above_half",
    "k_red_below_half",
    "beta_red_above_3",
    "beta_blue_below_3",
    "beta_blue_above_2",
    "k_relation",
}


def test_all_checks_pass_at_interior_point():
    checks = verify_propositions(0.3, 0.3)
    assert ALWAYS | {"f_in_unit_interval", "f_locally_increasing"} == set(checks)
    assert all(c.passed for c in checks.values())
    strict = [c for c in checks.values() if c.mode == "strict"]
    assert strict and all(c.margin > 0 for c in strict)


def test_checks_at_full_acceptance_hit_boundaries_exactly():
    checks = verify_propositions(0.3, 1.0)
    assert all(c.passed for c in checks.values())
    for name in ("power_inequality", "k_blue_above_half", "f_at_1_equals_1",
                 "q_blue_dominates"):
        assert checks[name].mode == "equality"
        assert checks[name].margin == 0.0
    assert "f_in_unit_interval" not in checks


def test_checks_at_zero_acceptance_skip_the_ratio():
    checks = verify_propositions(0.3, 0.0)
    assert all(c.passed for c in checks.values())
    assert not any(name.startswith("f_") for name in checks)


def test_checks_skip_the_attachment_matrices_where_they_are_undefined():
    # at r = rho = 0 no red source can accept any mass (attachment_probs
    # raises), so only the alpha and growth-rate checks remain
    checks = verify_propositions(0.0, 0.0)
    assert set(checks) == {"power_inequality", "k_blue_above_half", "k_red_below_half",
                           "beta_red_above_3", "beta_blue_below_3", "beta_blue_above_2",
                           "k_relation"}
    assert all(c.passed for c in checks.values())


def test_checks_at_symmetric_arrivals():
    checks = verify_propositions(0.5, 0.4)
    assert all(c.passed for c in checks.values())
    # growth collapses to the neutral law, but the ratio stays interior
    assert checks["k_blue_above_half"].mode == "equality"
    assert checks["f_in_unit_interval"].mode == "strict"
    assert checks["q_blue_dominates"].mode == "strict"


def test_perturbed_growth_rates_fail_the_ordering():
    bad = {c.name: c for c in _exponent_checks(0.45, 0.55, collapsed=False)}
    assert not bad["k_blue_above_half"].passed
    assert not bad["k_red_below_half"].passed
    assert not bad["beta_red_above_3"].passed
    assert bad["beta_blue_above_2"].passed
    good = {c.name: c for c in _exponent_checks(0.55, 0.45, collapsed=False)}
    assert all(c.passed for c in good.values())


def test_check_margins_report_distance():
    checks = verify_propositions(0.2, 0.5)
    k_b, k_r, _, _ = exponents(0.2, 0.5)
    assert checks["k_blue_above_half"].margin == pytest.approx(k_b - 0.5)
    assert checks["k_red_below_half"].margin == pytest.approx(0.5 - k_r)
