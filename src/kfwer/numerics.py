"""Numerical kernels.

A monotone piecewise cubic interpolant, the barycentric polynomial
interpolant at Chebyshev points and a row-maximum log-sum-exp; the
normal CDF and quantile come from scipy.special (ndtr, ndtri).
"""

import numpy as np

__all__ = [
    "monotone_cubic",
    "chebyshev_interpolant",
    "logsumexp",
]


def monotone_cubic(x, y):
    """The increasing piecewise cubic through (x_i, y_i), both strictly
    increasing, as a function of an array of points.

    Each piece is the cubic Hermite interpolant with the slopes of Fritsch
    and Carlson (SIAM J. Numer. Anal. 17, 1980): the mean of the two
    neighbouring secants, then on every interval both end slopes scaled by
    one factor onto the circle alpha^2 + beta^2 <= 9 in units of its
    secant, which keeps the piece increasing. Points beyond the ends take
    the end pieces.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    h, rise = np.diff(x), np.diff(y)
    secant = rise / h
    m = np.concatenate((secant[:1], 0.5 * (secant[:-1] + secant[1:]), secant[-1:]))
    scale = np.minimum(1.0, 3.0 / np.hypot(m[:-1], m[1:]) * secant)
    m *= np.minimum(np.append(scale, 1.0), np.insert(scale, 0, 1.0))
    hm0, hm1 = h * m[:-1], h * m[1:]

    def cubic(q):
        i = np.clip(np.searchsorted(x, q) - 1, 0, h.size - 1)
        t = (q - x[i]) / h[i]
        c = hm0[i] + hm1[i] - 2.0 * rise[i]
        return y[i] + t * (hm0[i] + t * (3.0 * rise[i] - 2.0 * hm0[i] - hm1[i] + t * c))

    return cubic


def chebyshev_interpolant(x, y):
    """The polynomial through (x_j, y_j) at the m Chebyshev points of the
    first kind x_j of an interval, as a function of an array of points.

    It is evaluated in the barycentric form of Berrut and Trefethen (SIAM
    Rev. 46, 2004), with the weights (-1)^j sin((j + 1/2) pi / m); a point
    on a node takes that node's value.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    j = np.arange(x.size)
    w = np.where(j % 2, -1.0, 1.0) * np.sin(np.pi * (j + 0.5) / x.size)
    sums = np.stack((y, np.ones_like(y)), axis=1)  # numerator and denominator

    def poly(q):
        q = np.asarray(q, dtype=float)
        c = np.subtract.outer(q, x)
        hit, node = np.nonzero(c == 0.0)  # points on a node
        with np.errstate(divide="ignore", invalid="ignore"):
            num, den = (np.divide(w, c, out=c) @ sums).T  # in place: one array
            out = num / den
        out[hit] = y[node]
        return out

    return poly


def logsumexp(a, axis: int) -> np.ndarray:
    """log(sum(exp(a))) along axis for a real array a, in the row-maximum
    form m + log(sum(exp(a - m))) with m the maximum; a non-finite m is
    taken as 0, as scipy takes it, so a row of -inf only gives -inf, a row
    holding NaN gives NaN and any other row holding +inf gives +inf."""
    a = np.asarray(a, dtype=float)
    top = a.max(axis=axis, keepdims=True)
    top[~np.isfinite(top)] = 0.0
    with np.errstate(divide="ignore"):  # a sum of 0 is -inf
        return np.log(np.sum(np.exp(a - top), axis=axis)) + top.squeeze(axis=axis)
