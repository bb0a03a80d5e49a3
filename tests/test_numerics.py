"""Numeric kernel checks against closed forms and 40-digit reference values."""

import math

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from kfwer import (
    BracketingError,
    ConvergenceError,
    DomainError,
    factor_normal,
    find_roots,
    gk_evaluate,
    gk_factor_subset,
    independent,
)

# the package takes the normal CDF and quantile from scipy.special


def test_normal_cdf_reference_points():
    assert ndtr(0.0) == pytest.approx(0.5, abs=1e-15)
    # frozen via 40-digit erfc
    assert ndtr(1.9599639845400542) == pytest.approx(0.975, abs=1e-14)
    assert ndtri(0.975) == pytest.approx(1.9599639845400542, abs=1e-12)


def test_normal_roundtrip():
    for p in (1e-8, 0.01, 0.3, 0.5, 0.77, 0.999999):
        assert ndtr(ndtri(p)) == pytest.approx(p, rel=1e-12, abs=0.0)


def test_normal_domain_errors():
    # scipy's edges: the quantile of 0 and 1 is infinite, NaN stays NaN;
    # the package's own entry points refuse a NaN level instead
    assert ndtri(0.0) == -math.inf and ndtri(1.0) == math.inf
    assert math.isnan(ndtr(float("nan")))
    with pytest.raises(DomainError):
        gk_evaluate(independent(), 2, float("nan"))


@pytest.mark.parametrize("a", [-2.0, 0.0, 2.0])
@pytest.mark.parametrize("b", [0.5, 1.0, 2.0])
def test_integrate_gaussian_convolution_identity(a, b):
    # E[Phi(a + bY)] = Phi(a / sqrt(1 + b^2)) for Y standard normal, through
    # the one-factor kernel: one p-value with loading lam = b / sqrt(1 + b^2)
    # has t = -a / sqrt(1 + b^2), so Pr{p <= u} at u = Phi(-t) is the left side
    lam = b / math.hypot(1.0, b)
    u = float(ndtr(a / math.hypot(1.0, b)))
    got = gk_factor_subset(factor_normal((lam,)), (1,), u)
    assert got == pytest.approx(u, rel=1e-12)


def _roots(f, lo, hi, tol=1e-12):
    # one scalar function through the batched solver
    return float(find_roots(lambda x, j: f(x), [lo], [hi], tol)[0])


def test_find_root_monotone_cubic():
    root = _roots(lambda u: u**3 - 0.2, 0.0, 1.0)
    assert root == pytest.approx(0.2 ** (1.0 / 3.0), abs=1e-10)


def test_find_root_endpoint_roots():
    assert _roots(lambda u: u, 0.0, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert _roots(lambda u: u - 1.0, 0.0, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_find_root_requires_bracket():
    with pytest.raises(BracketingError):
        _roots(lambda u: u + 1.0, 0.0, 1.0)


def test_find_roots_respects_tolerance():
    root = _roots(lambda u: u**2 - 0.5, 0.0, 1.0, tol=1e-13)
    assert abs(root - math.sqrt(0.5)) < 1e-12


def test_find_roots_solves_each_bracket_on_its_own():
    # the roots of u^3 = c_j, with the brackets of later entries closing
    # at different steps; entries are independent of their neighbours
    targets = np.array([1e-6, 0.008, 0.2, 0.9])
    roots = find_roots(lambda x, j: x**3 - targets[j], np.zeros(4), np.ones(4), 1e-14)
    assert roots == pytest.approx(np.cbrt(targets), rel=1e-9)
    alone = [find_roots(lambda x, j: x**3 - c, [0.0], [1.0], 1e-14)[0] for c in targets]
    assert np.array_equal(roots, alone)


def test_find_roots_raises_when_steps_run_out():
    # a step function is never within tol of 0, so every step leaves it open
    with pytest.raises(ConvergenceError, match="still open"):
        find_roots(lambda x, j: np.where(x < 0.5, -1.0, 1.0), [0.0], [1.0], 1e-12)


def test_find_roots_never_accepts_a_nan_value():
    with pytest.raises(ConvergenceError):
        find_roots(lambda x, j: np.where(x > 0.5, np.nan, x - 0.75), [0.0], [1.0], 1e-12)


def test_monotone_cubic_interpolates_and_stays_increasing():
    from kfwer.numerics import monotone_cubic

    # a near-step: the mean of the neighbouring secants alone would overshoot
    x = np.array([0.0, 1.0, 2.0, 2.5, 4.0, 5.0, 7.0])
    y = np.array([0.0, 0.01, 0.02, 5.0, 5.01, 5.02, 5.03])
    cubic = monotone_cubic(x, y)
    assert np.allclose(cubic(x), y, rtol=1e-15, atol=1e-15)
    dense = cubic(np.linspace(-0.5, 7.5, 4001))
    inside = dense[250:-250]
    assert np.all(np.diff(inside) >= 0.0)
    assert inside.min() >= 0.0 and inside.max() <= 5.03
    # straight data stay straight, beyond the ends too
    line = monotone_cubic(x, 3.0 * x - 1.0)
    q = np.linspace(-1.0, 8.0, 91)
    assert np.allclose(line(q), 3.0 * q - 1.0, rtol=0.0, atol=1e-13)
    assert np.isnan(line(np.array([np.nan]))[0])


def test_chebyshev_interpolant_matches_a_smooth_function():
    from scipy.special import log_ndtr

    from kfwer.numerics import chebyshev_interpolant

    a, b, m = -16.0, -1.5, 32
    nodes = 0.5 * (a + b) - 0.5 * (b - a) * np.cos(np.pi * (np.arange(m) + 0.5) / m)
    poly = chebyshev_interpolant(nodes, log_ndtr(nodes))
    assert np.array_equal(poly(nodes[::-1]), log_ndtr(nodes[::-1]))
    q = np.linspace(a, b, 1001)
    assert np.max(np.abs(poly(q) - log_ndtr(q))) <= 1e-12
    assert np.isnan(poly(np.array([np.nan]))[0])


def _logsumexp_cases():
    rng = np.random.default_rng(7)
    rows = rng.normal(size=(30, 48))
    wide = rng.normal(scale=40.0, size=(30, 48))
    tied = rng.normal(size=(6, 5))
    tied[:, 1] = tied[:, 3] = tied.max(axis=1) + 1.0
    edges = rng.normal(size=(5, 4))
    edges[0] = -np.inf  # an all-(-inf) row
    edges[1, 2] = -np.inf
    edges[2, 0] = np.nan
    edges[3, 1] = np.inf
    return {"random": rows, "wide": wide, "tied": tied, "one element": rows[:, :1], "edges": edges,
            "one row": rows[:1]}


@pytest.mark.parametrize("name", sorted(_logsumexp_cases()))
@pytest.mark.parametrize("axis", [0, 1])
def test_logsumexp_is_within_2_eps_of_scipy(name, axis):
    from scipy.special import logsumexp as scipy_logsumexp

    from kfwer.numerics import logsumexp

    a = _logsumexp_cases()[name]
    with np.errstate(all="ignore"):
        want = scipy_logsumexp(a, axis=axis)
    got = logsumexp(a, axis)
    finite = np.isfinite(want)
    # -inf, +inf and NaN rows give exactly scipy's value, finite rows its
    # value to 2 eps relative, or absolute below 1
    assert np.array_equal(got[~finite], want[~finite], equal_nan=True)
    tol = 2.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(want[finite]))
    assert np.all(np.abs(got[finite] - want[finite]) <= tol)
