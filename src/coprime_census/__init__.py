"""Exact enumeration and verification toolkit for coprime permutations."""

__version__ = "0.1.0"

from .arith import (
    FactorSieve,
    build_sieve,
    coprime_count,
    euler_phi,
    mertens_product,
    omega,
    prime_recip_sum,
)
from .bounds import BoundReport, PartitionScheme
from .counts import (
    CountResult,
    anti_lower,
    brute_constrained_count,
    count_a,
    count_c,
    count_c0,
    count_c1,
    count_c_a,
    count_ck,
    ratio_r,
    ratio_u,
)
from .dist import BracketTable, DistEstimate, bracket_table, d_count, delta_phi
from .graph import (
    BitMatrix,
    build_anti,
    build_full_coprime,
    build_gcd_k,
    build_odd_half,
    build_odd_plus_excluding,
)
from .permanent import CapacityError, permanent_brute, permanent_ryser

__all__ = [
    "__version__",
    "FactorSieve",
    "build_sieve",
    "coprime_count",
    "euler_phi",
    "mertens_product",
    "omega",
    "prime_recip_sum",
    "BoundReport",
    "PartitionScheme",
    "CountResult",
    "anti_lower",
    "brute_constrained_count",
    "count_a",
    "count_c",
    "count_c0",
    "count_c1",
    "count_c_a",
    "count_ck",
    "ratio_r",
    "ratio_u",
    "BracketTable",
    "DistEstimate",
    "bracket_table",
    "d_count",
    "delta_phi",
    "BitMatrix",
    "build_anti",
    "build_full_coprime",
    "build_gcd_k",
    "build_odd_half",
    "build_odd_plus_excluding",
    "CapacityError",
    "permanent_brute",
    "permanent_ryser",
]
