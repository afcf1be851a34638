"""Closed-form bias analytics for the two-community attachment model.

Everything here is driven by two parameters: the minority arrival ratio
``r`` and the cross-color acceptance probability ``rho``. From those we
solve the red edge-endpoint share ``alpha``, build the color-to-color
attachment probability matrices, derive per-color power-law exponents,
form the two-step color transition matrix ``q``, and compute the ratio
``F = q_RB / q_BB`` that measures how much an authority-style iteration
discounts red nodes relative to blue nodes of the same indegree. Empirical
estimators (size-biased moments, trace-based ratio) bridge the formulas to
generated graphs.

Matrix convention: rows and columns are indexed ``[B, R]`` matching the
integer values of :class:`fairank.graph.Color`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graph import Color, ColoredDigraph
from .rankers import hits_trace

__all__ = [
    "MeanFieldReport",
    "PropositionCheck",
    "solve_alpha",
    "attachment_probs",
    "exponents",
    "q_matrix",
    "mf_ratio",
    "mean_field_report",
    "size_biased_moment",
    "empirical_mf_ratio",
    "verify_propositions",
]

ALPHA_TOL = 1e-12
ALPHA_MAX_ITER = 100_000
_DAMPING = 0.5

# proposition checks: slack tolerance for equality-edge (boundary) cases
_EQ_TOL = 1e-9
_ROWSUM_TOL = 1e-12
_FD_STEP = 1e-3

DEFAULT_INDEG_CAP = 10

_B, _R = int(Color.B), int(Color.R)


def _validate_params(r: float, rho: float) -> None:
    if not 0.0 <= r <= 1.0:
        raise ValueError("r must lie in [0, 1]")
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")


def _alpha_map(a: float, r: float, rho: float) -> float:
    """One application of the edge-share self-consistency map."""
    return 0.5 * (
        r
        + r * a / (a + rho - a * rho)
        + a * rho * (1.0 - r) / (a * rho + 1.0 - a)
    )


def solve_alpha(r: float, rho: float) -> float:
    """Red share of edge endpoints: fixed point of the self-consistency map.

    Solved by damped fixed-point iteration (damping 0.5) from the arrival
    ratio ``r`` until the map moves ``alpha`` by less than ``ALPHA_TOL``,
    or ArithmeticError after ``ALPHA_MAX_ITER`` steps. The boundary cases
    ``rho in {0, 1}`` and ``r in {0, 0.5, 1}`` collapse analytically to
    ``alpha = r`` and are short-circuited (the raw map can divide 0/0 there).

    The returned value satisfies the power inequality ``alpha <= r``.
    """
    _validate_params(r, rho)
    if rho in (0.0, 1.0) or r in (0.0, 0.5, 1.0):
        return float(r)
    a = r
    for _ in range(ALPHA_MAX_ITER):
        fa = _alpha_map(a, r, rho)
        if abs(fa - a) < ALPHA_TOL:
            return a
        a += _DAMPING * (fa - a)
    raise ArithmeticError("edge-share fixed point did not converge")


def attachment_probs(alpha: float, rho: float, r: float) -> tuple[np.ndarray, np.ndarray]:
    """Color-to-color attachment probability matrices at a given alpha.

    Returns ``(p_out, p_in)``, both 2x2 with rows indexed by the node's own
    color [B, R]. ``p_out[c, c']`` is the probability that a new edge from
    a color-c node lands on color c'; ``p_in[c, c']`` is the probability
    that an edge received by a color-c node comes from color c'. Every row
    sums to 1.

    Raises
    ------
    ValueError
        "undefined probability" when a normalizing denominator vanishes
        (degenerate corners such as rho = 0 with alpha in {0, 1}).
    """
    for name, value in (("alpha", alpha), ("rho", rho), ("r", r)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1]")
    w = alpha + rho * (1.0 - alpha)  # normalizer seen from a red source
    u = alpha * rho + 1.0 - alpha    # normalizer seen from a blue source
    if w == 0.0 or u == 0.0:
        raise ValueError("undefined probability: zero attachment mass")
    p_out = np.empty((2, 2))
    p_out[_B, _B] = (1.0 - alpha) / u
    p_out[_B, _R] = rho * alpha / u
    p_out[_R, _B] = rho * (1.0 - alpha) / w
    p_out[_R, _R] = alpha / w

    den_b = r * rho / w + (1.0 - r) / u
    den_r = r / w + rho * (1.0 - r) / u
    if den_b == 0.0 or den_r == 0.0:
        raise ValueError("undefined probability: zero incoming mass")
    p_in = np.empty((2, 2))
    p_in[_B, _B] = ((1.0 - r) / u) / den_b
    p_in[_B, _R] = (r * rho / w) / den_b
    p_in[_R, _B] = (rho * (1.0 - r) / u) / den_r
    p_in[_R, _R] = (r / w) / den_r
    return p_out, p_in


def exponents(r: float, rho: float) -> tuple[float, float, float, float]:
    """Per-color degree growth rates and power-law exponents.

    Returns ``(K_B, K_R, beta_B, beta_R)`` with ``beta = 1 + 1/K``.
    Interior parameters give ``K_B > 1/2 > K_R`` and hence
    ``beta_R > 3 > beta_B > 2``; at ``rho in {0, 1}`` both collapse to
    ``K = 1/2``, ``beta = 3`` (returned analytically).
    """
    _validate_params(r, rho)
    if rho in (0.0, 1.0):
        return 0.5, 0.5, 3.0, 3.0
    alpha = solve_alpha(r, rho)
    w = alpha + rho * (1.0 - alpha)
    u = alpha * rho + 1.0 - alpha
    k_b = 0.5 * (r * rho / w + (1.0 - r) / u)
    k_r = 0.5 * (r / w + rho * (1.0 - r) / u)
    if k_b <= 0.0 or k_r <= 0.0:
        raise ArithmeticError("degenerate growth rate")
    return k_b, k_r, 1.0 + 1.0 / k_b, 1.0 + 1.0 / k_r


def q_matrix(p_out: np.ndarray, p_in: np.ndarray) -> np.ndarray:
    """Two-step color transition: q[c, c'] = sum_m p_in[c, m] * p_out[m, c'].

    Row c is the color distribution of the node reached from a color-c node
    by stepping backward along an incoming edge and then forward along one
    of that neighbor's outgoing edges. Rows sum to 1.
    """
    return np.asarray(p_in) @ np.asarray(p_out)


def mf_ratio(r: float, rho: float) -> float:
    """q_RB / q_BB: red-vs-blue discount factor of authority iteration.

    Under the mean-field approximation both colors' authority scores are
    proportional to ``q_CB`` times a shared blue indegree moment, so this
    ratio compares the authority ranking to the pure indegree ranking for
    every iteration depth >= 2. It increases with rho, reaching exactly 1
    at rho = 1 (color-blind), and is undefined at rho = 0.
    """
    _validate_params(r, rho)
    if rho == 0.0:
        raise ValueError("ratio undefined at rho = 0")
    if rho == 1.0:
        return 1.0
    alpha = solve_alpha(r, rho)
    p_out, p_in = attachment_probs(alpha, rho, r)
    q = q_matrix(p_out, p_in)
    if q[_B, _B] == 0.0:
        raise ValueError("ratio undefined: blue picks up no blue mass")
    return float(q[_R, _B] / q[_B, _B])


@dataclass(frozen=True)
class MeanFieldReport:
    """All closed-form quantities at one (r, rho) point.

    ``f_ratio`` is NaN wherever the ratio is undefined: at rho = 0, and
    where blue picks up no blue mass (q_BB = 0, as at r = 1).
    """

    r: float
    rho: float
    alpha: float
    p_out: np.ndarray
    p_in: np.ndarray
    k_blue: float
    k_red: float
    beta_blue: float
    beta_red: float
    q: np.ndarray
    f_ratio: float


def mean_field_report(r: float, rho: float) -> MeanFieldReport:
    """Evaluate every closed-form quantity at one parameter point."""
    _validate_params(r, rho)
    alpha = solve_alpha(r, rho)
    p_out, p_in = attachment_probs(alpha, rho, r)
    k_b, k_r, beta_b, beta_r = exponents(r, rho)
    q = q_matrix(p_out, p_in)
    try:
        f_ratio = mf_ratio(r, rho)
    except ValueError:  # the point is valid, so the ratio is undefined there
        f_ratio = float("nan")
    return MeanFieldReport(
        r=r, rho=rho, alpha=alpha, p_out=p_out, p_in=p_in,
        k_blue=k_b, k_red=k_r, beta_blue=beta_b, beta_red=beta_r,
        q=q, f_ratio=f_ratio,
    )


def size_biased_moment(g: ColoredDigraph, t: int, color: Color) -> float:
    """Within-color indegree moment sum(d^t) / sum(d).

    Grows with the graph size when t - 1 exceeds the color's tail exponent
    minus 2; t = 1 gives exactly 1. Raises when the color class has zero
    total indegree.
    """
    if t < 1:
        raise ValueError("t must be at least 1")
    deg = g.indeg[g.colors == int(color)].astype(float)
    total = deg.sum()
    if total == 0.0:
        raise ValueError(f"zero total indegree in color {Color(color).name}")
    return float((deg**t).sum() / total)


def empirical_mf_ratio(
    g: ColoredDigraph, t: int, indeg_cap: int = DEFAULT_INDEG_CAP
) -> float:
    """Red-to-blue ratio of mean authority-per-indegree among low-indegree nodes.

    Runs the unnormalized authority trace to step ``t`` and averages
    ``a^(t)(v) / d_in(v)`` over nodes with ``1 <= d_in(v) <= indeg_cap``,
    separately per color; returns red mean over blue mean. The restriction
    to low indegrees isolates the per-color multiplicative factor from the
    degree itself. Requires ``t >= 2`` (the ratio is identically 1 at
    t = 1) and at least one qualifying node of each color.
    """
    if t < 2:
        raise ValueError("t must be at least 2")
    if indeg_cap < 1:
        raise ValueError("indeg_cap must be at least 1")
    vec, _ = hits_trace(g, t)
    eligible = (g.indeg >= 1) & (g.indeg <= indeg_cap)
    means = {}
    for color in (Color.R, Color.B):
        sel = eligible & (g.colors == int(color))
        if not np.any(sel):
            raise ValueError(
                f"no {color.name} nodes with indegree in 1..{indeg_cap}"
            )
        means[color] = float(np.mean(vec[sel] / g.indeg[sel]))
    if means[Color.B] == 0.0:
        raise ValueError("blue mean authority is zero; ratio undefined")
    return means[Color.R] / means[Color.B]


@dataclass(frozen=True)
class PropositionCheck:
    """Outcome of one named analytic check.

    ``mode`` is "strict" for open-domain inequalities (margin = slack,
    positive passes) or "equality" for boundary collapses (margin =
    -|deviation|, passing when within tolerance). ``margin`` is 0.0 at an
    exact boundary hit.
    """

    name: str
    passed: bool
    margin: float
    mode: str


def _strict(name: str, slack: float) -> PropositionCheck:
    return PropositionCheck(name, bool(slack > 0.0), float(slack), "strict")


def _equality(name: str, deviation: float, tol: float = _EQ_TOL) -> PropositionCheck:
    dev = abs(float(deviation))
    return PropositionCheck(name, bool(dev <= tol), -dev, "equality")


def _ordering_check(name: str, slack: float, collapsed: bool) -> PropositionCheck:
    return _equality(name, slack) if collapsed else _strict(name, slack)


def _exponent_checks(
    k_b: float, k_r: float, collapsed: bool
) -> list[PropositionCheck]:
    """Ordering checks on the growth rates; factored out so perturbed
    values can be fed in directly. ``collapsed`` marks the parameter
    boundaries where K_B = K_R = 1/2 exactly."""
    beta_b = 1.0 + 1.0 / k_b
    beta_r = 1.0 + 1.0 / k_r
    return [
        _ordering_check("k_blue_above_half", k_b - 0.5, collapsed),
        _ordering_check("k_red_below_half", 0.5 - k_r, collapsed),
        _ordering_check("beta_red_above_3", beta_r - 3.0, collapsed),
        _ordering_check("beta_blue_below_3", 3.0 - beta_b, collapsed),
        _strict("beta_blue_above_2", beta_b - 2.0),
        _strict("k_relation", k_r - (2.0 * k_b - 1.0)),
    ]


def verify_propositions(r: float, rho: float) -> dict[str, PropositionCheck]:
    """Numerically check every analytic claim at one (r, rho) point.

    Returns a name -> check mapping; failures are reported, not raised.
    The claims describe a red minority, so they hold on r in (0, 0.5];
    outside that regime reported failures are expected data. Interior
    points use strict inequalities; where a claim provably collapses to
    an equality (alpha = r and K = 1/2 at rho in {0, 1} or r = 0.5;
    q_BB = q_RB and F = 1 at rho = 1) it is checked as one. Checks
    involving the F ratio are skipped at rho = 0, where F is undefined.
    """
    _validate_params(r, rho)
    # boundaries where the two colors' growth collapses to the same law
    collapsed = rho in (0.0, 1.0) or r in (0.0, 0.5, 1.0)
    alpha = solve_alpha(r, rho)
    checks: list[PropositionCheck] = []

    checks.append(_ordering_check("power_inequality", r - alpha, collapsed))

    try:
        p_out, p_in = attachment_probs(alpha, rho, r)
    except ValueError:
        p_out = p_in = None
    if p_out is not None:
        q = q_matrix(p_out, p_in)
        for name, mat in (("p_out", p_out), ("p_in", p_in), ("q", q)):
            dev = float(np.abs(mat.sum(axis=1) - 1.0).max())
            checks.append(_equality(f"{name}_rows_sum_to_1", dev, _ROWSUM_TOL))
        # blue picks up at least as much blue mass as red does; ties only
        # in the color-blind limit
        checks.append(
            _ordering_check("q_blue_dominates", q[_B, _B] - q[_R, _B], rho == 1.0)
        )

    k_b, k_r, _, _ = exponents(r, rho)
    checks.extend(_exponent_checks(k_b, k_r, collapsed))

    # F checks need both colors present in the limit graph: at r = 0 the
    # ratio degenerates to 1 and at r = 1 its denominator vanishes
    if rho > 0.0 and 0.0 < r < 1.0:
        f_here = mf_ratio(r, rho)
        if rho == 1.0:
            checks.append(_equality("f_at_1_equals_1", f_here - 1.0))
        else:
            checks.append(_strict("f_in_unit_interval", min(f_here, 1.0 - f_here)))
        lo = max(rho - _FD_STEP, 1e-6)
        hi = min(rho + _FD_STEP, 1.0)
        if lo < hi:
            checks.append(
                _strict("f_locally_increasing", mf_ratio(r, hi) - mf_ratio(r, lo))
            )

    return {c.name: c for c in checks}
