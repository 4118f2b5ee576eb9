"""Closed-form growth constants and the lower-bound assembly checks.

The assembly re-verifies, numerically and at stated tolerances, the
chain of inequalities behind the n!/1.864^n matching lower bound: three
interval contributions expressed through f(x) = x*log(x) and bounded
densities, the Rosser--Schoenfeld brackets for the odd Mertens product,
and the final exponentiation.  This is a high-precision floating-point
re-verification, not interval arithmetic; every routine documents its
truncation and rounding error, which sits orders of magnitude below the
4-decimal thresholds being checked.
"""

from __future__ import annotations

import math
from decimal import Decimal
from itertools import chain

import numpy as np

from .arith import mertens_product, primes_upto
from .checks import BoundReport
from .reference import BRACKETS

__all__ = [
    "EULER_GAMMA",
    "ck_closed",
    "mcnew_product",
    "esum_dyadic",
    "esum_middle",
    "esum_tail",
    "assemble_lower_bound",
    "rs_bracket_check",
    "f_xlogx",
]

EULER_GAMMA = 0.5772156649015328606
_E_GAMMA = math.exp(EULER_GAMMA)

def f_xlogx(x: float) -> float:
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


_MCNEW_CHUNK = 1 << 16  # primes per float64 chunk of log factors


def mcnew_product(P: int) -> float:
    """The conjectured limiting constant, a product over primes p <= P.

    The factor at p is n!/N_p(n) per position, where N_p counts
    permutations whose pairs avoid a common factor p: 2 at p = 2, else
    p*(p-2)^(1-2/p) / (p-1)^(2*(1-1/p)).  (The published displayed
    product carries a doubled "p" in its numerator; the factor here
    follows the n!/N_p display, which is the version that reproduces the
    closed forms at k = 3 and 5.)  The odd factors are accumulated as one
    compensated sum of their logs, evaluated over float64 chunks of the
    prime array (``math.fsum`` is correctly rounded, so the chunking
    cannot change the result); the factor 2 at p = 2 scales the result
    exactly.  The truncation tail beyond P is of order (log P)/P (each
    log factor is O(log(p)/p^2)), so P = 1e7 pins the limit well below
    1e-4.
    """
    if P < 2:
        raise ValueError("P must be >= 2")
    odd = primes_upto(int(P))[1:]
    logs = (
        _mcnew_log_factor(odd[lo : lo + _MCNEW_CHUNK].astype(np.float64)).tolist()
        for lo in range(0, len(odd), _MCNEW_CHUNK)
    )
    return 2.0 * math.exp(math.fsum(chain.from_iterable(logs)))


# the literature upper bound at 1/2 caps every dyadic density bound
_DYADIC_CAP = BRACKETS[0][2]


def _dyadic_density_bound(i: int) -> float:
    # delta(1/2^i) <= min(1.78/4^i, cap): the second-moment inequality
    # capped by the literature bound at 1/2
    return min(1.78 / 4.0**i, _DYADIC_CAP)


# the dyadic terms are summed for i = 2.._DYADIC_LAST
_DYADIC_LAST = 29


def esum_dyadic() -> BoundReport:
    """Contribution of the dyadic split points in (0, 1/4].

    Term i is f(a - db(i)) - f(a - db(i-1)) at a = 1/2^i, with db the
    density bound min(1.78/4^i, cap) and f(x) = x log x; terms i = 2..K
    are summed (K = _DYADIC_LAST).  Past K the remainder is stated, not
    summed.  For i >= 5 db is uncapped, so by the mean value theorem term
    i is (db(i-1) - db(i)) * f'(xi) = 5.34/4^i * f'(xi) for some xi in
    (a - db(i-1), a - db(i)), where 2^-(i+1) < xi < a < 1/e; there
    |f'(xi)| = -log(xi) - 1 < (i+1) log 2.  Summing over i > K,

        |remainder| < 5.34 log 2 * 4^-(K+1) * (4(K+2)/3 + 4/9),

    1.341e-16 at K = 29, which the notes round up.
    """
    k = _DYADIC_LAST
    terms = [
        f_xlogx(0.5**i - _dyadic_density_bound(i))
        - f_xlogx(0.5**i - _dyadic_density_bound(i - 1))
        for i in range(2, k + 1)
    ]
    remainder = 5.34 * math.log(2.0) * 4.0 ** -(k + 1) * (4 * (k + 2) / 3 + 4 / 9)
    return BoundReport.make(
        name="esum-dyadic",
        computed=math.fsum(terms),
        relation=">",
        claimed=-0.0538,
        notes=(
            f"split points 1/2^i for i=2..{k}, remainder past {k} below "
            f"{math.ceil(remainder * 1e18) / 1e18:.3g}; "
            f"bound min(1.78/4^i, {_DYADIC_CAP})"
        ),
    )


def esum_middle() -> BoundReport:
    """Contribution of the split points 1/4, 0.5, 0.6, ..., 0.99.

    Each point a contributes f(a - d(a)) - f(a - d(a+)), where d is the
    upper end of the literature bracket at a and a+ is the next point.
    The first pair cancels by construction: the density bound used at
    1/4 is the dyadic cap, which is the bracket's upper end at 0.5.
    """
    f = f_xlogx
    points = [0.25] + [float(alpha) for alpha, _, _ in BRACKETS[:-1]]
    dens = [_DYADIC_CAP] + [upper for _, _, upper in BRACKETS]
    terms = [f(a - d) - f(a - d1) for a, d, d1 in zip(points, dens, dens[1:])]
    value = math.fsum(terms)
    return BoundReport.make(
        name="esum-middle",
        computed=value,
        relation=">",
        claimed=-0.2873,
        notes="14-term expression over split points 1/4, .5, .6, .7, .8, .9, .99",
    )


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


def esum_tail() -> BoundReport:
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
    with L = log 2 + i log 10, checked at K (the bound grows with i).
    """
    f = f_xlogx
    terms = []
    need_ok = True
    for i in range(4, _TAIL_DIRECT + 1):
        eps = 10.0 ** (1 - i)
        x = _TAIL_SEED if i == 4 else _tail_g(i - 1) - eps
        y = _tail_g(i) - eps
        terms.append(f(x) - f(y))
        need_ok = need_ok and eps < _tail_g(i)
    L = math.log(2.0) + _TAIL_DIRECT * math.log(10.0)
    need_ok = need_ok and L / (L + math.log(10.0)) > 0.1
    terms.append(f(_tail_g(_TAIL_DIRECT)))
    value = math.fsum(terms)
    notes = (
        f"indices 4..{_TAIL_DIRECT} summed, i > {_TAIL_DIRECT} telescoped to "
        f"f(g({_TAIL_DIRECT})); shifts past {_TAIL_DIRECT} below 1e-30; "
        f"feasibility 10^(1-i) < g(i) holds for all i: {need_ok}"
    )
    report = BoundReport.make(
        name="esum-tail", computed=value, relation=">", claimed=-0.2814, notes=notes
    )
    return report if need_ok else report._replace(passed=False)


def assemble_lower_bound(
    dyadic: BoundReport, middle: BoundReport, tail: BoundReport
) -> BoundReport:
    """Combine the three interval contributions into the final constant.

    Checks that 0.0538 + 0.2873 + 0.2815 <= 0.6226 exactly in decimal
    (the tail's -0.2814 is padded by 1e-4 to absorb the last interval)
    and that e^0.6226 > 1.8637, which yields the matching lower bound
    constant 1.864 and, after squaring and doubling, the 3.73 of the
    permutation bound.
    """
    for rep in (dyadic, middle, tail):
        if not rep.passed:
            raise RuntimeError(f"sub-report failed: {rep.name}")
    parts = [Decimal("0.0538"), Decimal("0.2873"), Decimal("0.2815")]
    budget = Decimal("0.6226")
    if sum(parts) > budget:
        raise RuntimeError("interval contributions exceed the 0.6226 budget")
    value = math.exp(0.6226)
    theorem_constant = 1.864
    notes = (
        f"0.0538 + 0.2873 + 0.2815 = {sum(parts)} <= {budget}; "
        f"matching bound constant {theorem_constant} "
        f"(square {theorem_constant**2:.6f}, doubled {2 * theorem_constant:.6f} "
        f"vs permutation bound constant 3.73)"
    )
    return BoundReport.make(
        name="assembly-e^0.6226",
        computed=value,
        relation=">",
        claimed=1.8637,
        notes=notes,
    )


_RS_GRID = (300.0, 1e4, 1e6)  # the lower bracket is cited for x >= 285 only


def rs_bracket_check() -> list[BoundReport]:
    """Verify the odd Mertens product sits inside the classical brackets.

    2/(e^gamma log x) * (1 -+ 1/(2 log^2 x)) at each x of ``_RS_GRID``.
    """
    reports = []
    for x in _RS_GRID:
        m = mertens_product(x)
        lx = math.log(x)
        main = 2.0 / (_E_GAMMA * lx)
        for side, relation, sign in (("lower", ">", -1.0), ("upper", "<", 1.0)):
            reports.append(
                BoundReport.make(
                    name=f"mertens-{side}(x={x:g})",
                    computed=m,
                    relation=relation,
                    claimed=main * (1.0 + sign / (2.0 * lx * lx)),
                    notes=f"odd Mertens product vs classical {side} bracket",
                )
            )
    return reports
