"""The one sampler: a run's multinomial draw, made as sequential binomial
draws from the standard library's ``random.Random``, at a cost that does
not grow with the number of trials."""

from math import floor, lgamma, log, log1p, pi, sqrt
from random import Random

import numpy as np


_HALF_LOG_2PI = 0.5 * log(2.0 * pi)


def _stirling_tail(x: int) -> float:
    """log(x!) minus Stirling's (x + 1/2) log x - x + log(2 pi)/2, for x >= 1."""
    if x < 16:
        return lgamma(x + 1) - (x + 0.5) * log(x) + x - _HALF_LOG_2PI
    r2 = 1.0 / (x * x)
    return (1.0 / 12.0 - r2 * (1.0 / 360.0 - r2 * (1.0 / 1260.0 - r2 / 1680.0))) / x


def _log_factorial_ratio(m: int, k: int) -> float:
    """log(m! / k!) + (k - m) log m, for m >= 1 and k >= 0.

    Written as Stirling differences around m, so nothing cancels at huge
    m and k; ``lgamma(m + 1) - lgamma(k + 1)`` loses every digit once
    lgamma(m) is far above 2**52.
    """
    if k == 0:
        return lgamma(m + 1) - m * log(m)
    d = k - m
    log_k_m = log1p(d / m) if 2 * k > m else log(k / m)  # d / m can round to -1
    return d - (k + 0.5) * log_k_m + _stirling_tail(m) - _stirling_tail(k)


def _binomial(n: int, p: float, rng: Random) -> int:
    """One Binomial(n, p) draw for an integer n >= 0 and 0 <= p <= 1.

    Devroye's geometric method when n p < 10, otherwise Hoermann's BTRS
    transformed rejection (J. Stat. Comput. Simul. 46, 101 (1993)), the
    algorithm of CPython 3.12's ``random.binomialvariate``, with p > 1/2
    reflected.  Unlike that port, the mode and the centre of the hat are
    exact integers, the acceptance log-ratio is :func:`_log_factorial_ratio`,
    the geometric gaps take ``log1p(-p)`` (``log(1 - p)`` rounds p to a
    multiple of 2**-53, and to 0 below 2**-54), and no uniform that is
    logged or divided by is ever 0, so the law holds for every n below 2**63.
    """
    if p > 0.5:
        return n - _binomial(n, 1.0 - p, rng)
    if p == 0.0:
        return 0
    if n * p < 10.0:  # the gaps between successes are geometric
        c = log1p(-p)
        x = y = 0
        while True:
            gap = log(1.0 - rng.random()) / c  # failures before the next success, unfloored
            if gap >= n - y:
                return x
            y += floor(gap) + 1
            x += 1
    spq = sqrt(n * p * (1.0 - p))
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    vr = 0.92 - 4.2 / b
    alpha = (2.83 + 5.1 / b) * spq
    num, den = p.as_integer_ratio()  # p is exactly num / den, and 1 - p (den - num) / den
    m = (n + 1) * num // den  # the mode
    c = (n * num - m * den) / den + 0.5  # n p + 1/2, less m
    # log of (n - m) p / (m (1 - p)), from exact integers
    log_ratio = log1p(((n - m) * num - m * (den - num)) / (m * (den - num)))
    while True:
        u = rng.random() - 0.5
        us = 0.5 - abs(u)
        if us == 0.0:  # random() gave 0, and 2a / us would divide by it
            continue
        k = m + floor((2.0 * a / us + b) * u + c)
        if not 0 <= k <= n:
            continue
        v = 1.0 - rng.random()
        if us >= 0.07 and v <= vr:
            return k
        v *= alpha / (a / (us * us) + b)
        if log(v) <= ((k - m) * log_ratio + _log_factorial_ratio(m, k)
                      + _log_factorial_ratio(n - m, n - k)):
            return k


def _multinomial(trials: int, weights: np.ndarray, rng: Random) -> np.ndarray:
    """One multinomial draw of ``trials`` over the cells of ``weights``, a
    law up to a positive factor, as int64 counts in the order of its ravel.

    Each cell with positive weight in turn takes a binomial share of the
    trials left, at its weight over that of itself and every later cell;
    the last such cell takes the rest, so the counts sum to ``trials``
    exactly and a cell of zero weight never gets a count.  A weight that is
    NaN, infinite or negative raises ``ValueError``, as do all zero weights.
    """
    weights = np.ravel(weights)
    tails = np.cumsum(weights[::-1])[::-1]  # each cell's weight and all after it
    if not (weights.min() >= 0.0 and 0.0 < tails[0] < np.inf):
        raise ValueError("cell weights must be finite, non-negative and not all zero")
    *cells, last = np.flatnonzero(weights).tolist()
    weights, tails = weights.tolist(), tails.tolist()
    counts = [0] * len(weights)
    left = trials
    for i in cells:
        if not left:
            break
        # at most 1: a tail, summed in order, is never below its first weight
        counts[i] = k = _binomial(left, weights[i] / tails[i], rng)
        left -= k
    counts[last] = left
    return np.array(counts, dtype=np.int64)
