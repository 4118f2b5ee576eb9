"""Closed-form growth constants and the sums of the lower-bound assembly.

The three E-sums are the interval contributions behind the n!/1.864^n
matching lower bound, expressed through f(x) = x*log(x) and bounded
densities; ``checks.bounds`` sets each against its claimed threshold and
assembles them into e^0.6226 > 1.8637.  This is a high-precision
floating-point re-verification, not interval arithmetic; every routine
documents its truncation and rounding error, which sits orders of
magnitude below the 4-decimal thresholds being checked.
"""

from __future__ import annotations

import math

import numpy as np

from .arith import odd_prime_fsum
from .reference import BRACKETS

__all__ = [
    "EULER_GAMMA",
    "ck_closed",
    "mcnew_product",
    "esum_dyadic",
    "esum_middle",
    "esum_tail",
]

EULER_GAMMA = 0.5772156649015328606
_E_GAMMA = math.exp(EULER_GAMMA)

def _f_xlogx(x: float) -> float:
    """f(x) = x*log(x), extended by continuity with f(0) = 0."""
    return 0.0 if x == 0.0 else x * math.log(x)


def ck_closed(k: int) -> float:
    """Closed-form growth constant for the gcd-with-k! relaxation.

    c_2 = 2, c_3 = 3/2^(1/3), c_5 = 2^(-53/15) * 3^(8/5) * 5; evaluated
    in float64 (relative error ~1e-16, comfortably 12+ significant
    digits).
    """
    if k == 2:
        return 2.0
    if k == 3:
        return 3.0 * 2.0 ** (-1.0 / 3.0)
    if k == 5:
        return 2.0 ** (-53.0 / 15.0) * 3.0 ** (8.0 / 5.0) * 5.0
    raise ValueError("closed forms are available for k in {2, 3, 5}")


def _mcnew_log_factor(p: np.ndarray) -> np.ndarray:
    # log of p*(p-2)^(1-2/p) / (p-1)^(2*(1-1/p)) over a float64 array of
    # odd primes
    return (
        np.log(p)
        + (1.0 - 2.0 / p) * np.log(p - 2.0)
        - 2.0 * (1.0 - 1.0 / p) * np.log(p - 1.0)
    )


def mcnew_product(P: int) -> float:
    """The conjectured limiting constant, a product over primes p <= P.

    The factor at p is n!/N_p(n) per position, where N_p counts
    permutations whose pairs avoid a common factor p: 2 at p = 2, else
    p*(p-2)^(1-2/p) / (p-1)^(2*(1-1/p)).  (The published displayed
    product carries a doubled "p" in its numerator; the factor here
    follows the n!/N_p display, which is the version that reproduces the
    closed forms at k = 3 and 5.)  The odd factors are accumulated as one
    compensated sum of their logs, evaluated over each segment of the odd
    prime sieve as a float64 array (``math.fsum`` is correctly rounded,
    so the segmentation cannot change the result); the factor 2 at p = 2
    scales the result exactly.  The truncation tail beyond P is of order
    (log P)/P (each log factor is O(log(p)/p^2)), so P = 1e7 pins the
    limit well below 1e-4.
    """
    if P < 2:
        raise ValueError("P must be >= 2")
    return 2.0 * math.exp(odd_prime_fsum(int(P), _mcnew_log_factor))


# the literature upper bound at 1/2 caps every dyadic density bound
_DYADIC_CAP = BRACKETS[0][2]


def _dyadic_density_bound(i: int) -> float:
    # delta(1/2^i) <= min(1.78/4^i, cap): the second-moment inequality
    # capped by the literature bound at 1/2
    return min(1.78 / 4.0**i, _DYADIC_CAP)


# the dyadic terms are summed for i = 2.._DYADIC_LAST
_DYADIC_LAST = 29


def esum_dyadic() -> float:
    """Contribution of the dyadic split points in (0, 1/4].

    Term i is f(a - db(i)) - f(a - db(i-1)) at a = 1/2^i, with db the
    density bound min(1.78/4^i, cap) and f(x) = x log x; terms i = 2..K
    are summed (K = _DYADIC_LAST).  Past K the remainder is stated, not
    summed.  For i >= 5 db is uncapped, so by the mean value theorem term
    i is (db(i-1) - db(i)) * f'(xi) = 5.34/4^i * f'(xi) for some xi in
    (a - db(i-1), a - db(i)), where 2^-(i+1) < xi < a < 1/e; there
    |f'(xi)| = -log(xi) - 1 < (i+1) log 2.  Summing over i > K,

        |remainder| < 5.34 log 2 * 4^-(K+1) * (4(K+2)/3 + 4/9),

    1.341e-16 at K = 29.
    """
    terms = [
        _f_xlogx(0.5**i - _dyadic_density_bound(i))
        - _f_xlogx(0.5**i - _dyadic_density_bound(i - 1))
        for i in range(2, _DYADIC_LAST + 1)
    ]
    return math.fsum(terms)


def esum_middle() -> float:
    """Contribution of the split points 1/4, 0.5, 0.6, ..., 0.99.

    Each point a contributes f(a - d(a)) - f(a - d(a+)), where d is the
    upper end of the literature bracket at a and a+ is the next point.
    The first pair cancels by construction: the density bound used at
    1/4 is the dyadic cap, which is the bracket's upper end at 0.5.
    """
    f = _f_xlogx
    points = [0.25] + [float(alpha) for alpha, _, _ in BRACKETS[:-1]]
    dens = [_DYADIC_CAP] + [upper for _, _, upper in BRACKETS]
    terms = [f(a - d) - f(a - d1) for a, d, d1 in zip(points, dens, dens[1:])]
    return math.fsum(terms)


def _tail_g(i: float) -> float:
    # lower bound for the tail mass 1 - delta(1 - 10^-i) from the
    # Mertens-product estimate
    L = math.log(2.0) + i * math.log(10.0)
    return 2.0 / (_E_GAMMA * L) * (1.0 - 7.0 / (4.0 * L * L))


# the first tail term starts from the last literature bracket
_TAIL_SEED = float(BRACKETS[-1][0]) - BRACKETS[-1][2]

# the tail terms are summed directly for i = 4.._TAIL_DIRECT, where
# 10^(1-i) = 1e-39 sits 36 orders of magnitude below g(i) ~ 0.012
_TAIL_DIRECT = 40


def esum_tail() -> float:
    """Contribution of the split points 1 - 10^-i for i >= 4, all of them.

    The density bound at 0.999 is the upper end of the last literature
    bracket; at 1 - 10^-i for i >= 4 it is 1 - g(i) with g from the
    Mertens tail estimate, so term i is f(g(i-1) - 10^(1-i)) -
    f(g(i) - 10^(1-i)), with f(x) = x log x.  Terms i = 4..K are summed
    directly (K = _TAIL_DIRECT).  Past K the shift 10^(1-i) is below the
    float resolution of g(i), so each term is exactly f(g(i-1)) - f(g(i))
    in float64, and their sum over i > K telescopes to f(g(K)): g -> 0
    and f(0) = 0.  In real arithmetic the shifts past K move that sum by
    at most sum over i > K of 2 * 10^(1-i) * (|log g(i)| + 1), below
    1e-30.

    The feasibility inequality 10^(1-i) < g(i) is checked for i = 4..K.
    Past K it follows by induction from g(i+1)/g(i) > L/(L + log 10) > 1/10,
    with L = log 2 + i log 10, checked at K (the bound grows with i).  A
    failed check raises ``RuntimeError``.
    """
    f = _f_xlogx
    terms = []
    for i in range(4, _TAIL_DIRECT + 1):
        eps = 10.0 ** (1 - i)
        if not eps < _tail_g(i):
            raise RuntimeError(f"tail feasibility 10^(1-i) < g(i) fails at i={i}")
        x = _TAIL_SEED if i == 4 else _tail_g(i - 1) - eps
        y = _tail_g(i) - eps
        terms.append(f(x) - f(y))
    L = math.log(2.0) + _TAIL_DIRECT * math.log(10.0)
    if not L / (L + math.log(10.0)) > 0.1:
        raise RuntimeError(f"tail feasibility fails past i={_TAIL_DIRECT}")
    terms.append(f(_tail_g(_TAIL_DIRECT)))
    return math.fsum(terms)
