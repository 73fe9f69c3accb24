"""Closed-form product evaluators.

Every product formula is assembled verbatim from Pochhammer or q-Pochhammer
factors and evaluated exactly, with no algebraic shortcuts, so that any
transcription drift is caught loudly by the oracle tests.  Each formula is
written once, as pairs (x, m) listing its factors (x)_m or [x;q]_m, and a
q-closed form's description ``(num_pairs, shift, den_pairs)`` serves both
weights.  The plain value ``_at_one`` divides the product of ``pochhammer``
over the numerator pairs once by that over the denominator pairs.  The q value
is one ``q_poch_ratio`` call, which divides the whole numerator times q^shift
by each denominator bracket in turn and raises NonExactDivision on any
remainder; both forms have as many brackets above as below, so it makes no
(1 - q) pass.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Sequence

from .exact import LaurentPolyQ, QFraction, pochhammer, q_poch_product, q_poch_ratio
from .patterns import Partition

_Pairs = tuple[tuple[int, int], ...]


def _at_one(num_pairs: Iterable, den_pairs: Iterable) -> Fraction:
    return Fraction(math.prod(pochhammer(x, m) for x, m in num_pairs),
                    math.prod(pochhammer(x, m) for x, m in den_pairs))


def intro_binomial(r: int, k: int) -> Fraction:
    """binomial(k+r, r) = (k+1)_r / (1)_r, extended to arbitrary integer k."""
    if r < 0:
        raise ValueError(f"length must be nonnegative, got {r}")
    return _at_one(((k + 1, r),), ((1, r),))


def theorem_special(n: int, c: int, k: int) -> Fraction:
    """Number of strict plane partitions with parts in {1..n}, at most c
    columns and k parts equal to n, theorem_main_q_fraction at q = 1:

        (1+k)_{n-1} (1+c-k)_{n-1} / (1)_{n-1}
            * prod_{i=1}^{n-1} (c+i+1)_{i-1} / (i)_i
    """
    num_pairs, _, den_pairs = _theorem_main_q_brackets(n, c, k)
    return _at_one(num_pairs, den_pairs)


def _theorem_main_q_brackets(n: int, c: int, k: int) -> tuple[_Pairs, int, _Pairs]:
    # theorem_main_q_fraction's factors as written: numerator pairs, the
    # exponent of q^{kn}, denominator pairs
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    num_pairs = ((k + 1, n - 1), (1 + c - k, n - 1),
                 *((c + i + 1, i - 1) for i in range(1, n)))
    den_pairs = ((1, n - 1), *((i, i) for i in range(1, n)))
    return num_pairs, k * n, den_pairs


def _bender_knuth_brackets(n: int, c: int) -> tuple[_Pairs, int, _Pairs]:
    # bender_knuth_gf's factors as written
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return (tuple((c + i, i) for i in range(1, n + 1)), 0,
            tuple((i, i) for i in range(1, n + 1)))


def theorem_main_q_fraction(n: int, c: int, k: int) -> QFraction:
    """Norm generating function of the same objects in raw quotient form:

        q^{kn} [k+1;q]_{n-1} [1+c-k;q]_{n-1} / [1;q]_{n-1}
            * prod_{i=1}^{n-1} [c+i+1;q]_{i-1} / [i;q]_i
    """
    num_pairs, shift, den_pairs = _theorem_main_q_brackets(n, c, k)
    return QFraction(q_poch_product(*num_pairs).shift(shift), q_poch_product(*den_pairs))


def theorem_main_q(n: int, c: int, k: int) -> LaurentPolyQ:
    """The generating function of theorem_main_q_fraction reduced to an exact
    Laurent polynomial.  Raises NonExactDivision if the quotient is not
    polynomial, which would indicate a transcription bug."""
    num_pairs, shift, den_pairs = _theorem_main_q_brackets(n, c, k)
    return q_poch_ratio(LaurentPolyQ.monomial(shift), num_pairs, den_pairs)


def bender_knuth_count(n: int, c: int) -> Fraction:
    """Number of strict plane partitions with parts in {1..n} and at most c
    columns: prod_{i=1}^{n} (c+i)_i / (i)_i, bender_knuth_gf at q = 1."""
    num_pairs, _, den_pairs = _bender_knuth_brackets(n, c)
    return _at_one(num_pairs, den_pairs)


def bender_knuth_gf(n: int, c: int) -> LaurentPolyQ:
    """Norm generating function of the same objects:
    prod_{i=1}^{n} [c+i;q]_i / [i;q]_i, reduced to an exact polynomial."""
    num_pairs, shift, den_pairs = _bender_knuth_brackets(n, c)
    return q_poch_ratio(LaurentPolyQ.monomial(shift), num_pairs, den_pairs)


def ssyt_product(shape: Sequence[int], k: int) -> Fraction:
    """Number of semistandard tableaux of the given shape with entries in
    {1..k}: prod_{1<=i<j<=k} (lam_i - lam_j + j - i) / (j - i), the shape
    padded with zeros to k parts."""
    if k < 1:
        raise ValueError(f"entry bound must be positive, got {k}")
    lam = Partition(tuple(shape)).padded(k)
    pairs = list(itertools.combinations(range(k), 2))
    return _at_one(((lam[i] - lam[j] + j - i, 1) for i, j in pairs),
                   ((j - i, 1) for i, j in pairs))


def refined_asm(n: int, k: int) -> Fraction:
    """Number of alternating sign matrices of order n whose unique 1 in the
    first row sits in column k:

        (k)_{n-1} (1+n-k)_{n-1} / (1)_{n-1}
            * prod_{i=1}^{n-1} (1)_{3i-2} / (1)_{n+i-1}
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return _at_one(((k, n - 1), (1 + n - k, n - 1), *((1, 3 * i - 2) for i in range(1, n))),
                   ((1, n - 1), *((1, n + i - 1) for i in range(1, n))))


def asm_product(n: int) -> Fraction:
    """Number of alternating sign matrices of order n:
    prod_{i=0}^{n-1} (3i+1)! / (n+i)!, each factorial m! written (1)_m."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return _at_one(((1, 3 * i + 1) for i in range(n)), ((1, n + i) for i in range(n)))


def tsspp_product(n: int) -> Fraction:
    """Number of (n-1) x (n-1) x (n-1) totally symmetric plane partitions:
    prod_{1<=i<=j<=n-1} (i+j+n-2) / (i+2j-2)."""
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    pairs = list(itertools.combinations_with_replacement(range(1, n), 2))
    return _at_one(((i + j + n - 2, 1) for i, j in pairs), ((i + 2 * j - 2, 1) for i, j in pairs))

