"""Operator calculus and instance-level identity verification.

Implements the swap operator D_i and the summation operators acting on
integer functions, verifies each lemma-level identity at sample points by
evaluating both sides independently, and reconstructs the one-variable count
as an exact polynomial by Newton interpolation to witness its degree bound
and integer zeros.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from .counting import TopRowKey, enumerate_patterns, f_bruteforce, f_recursive, fq_recursive
from .exact import (
    LaurentPolyQ, NonExactDivision, chained_sum, chained_sum_q, pochhammer, q_bracket, q_poch,
)


class DegreeExceeded(ArithmeticError):
    """The interpolated count has a degree above its stated bound."""


@dataclass(frozen=True)
class IntFunction:
    """Total function from integer vectors of fixed arity to exact values."""

    arity: int
    fn: Callable[..., object]

    def __call__(self, *args):
        if len(args) != self.arity:
            raise TypeError(f"expected {self.arity} arguments, got {len(args)}")
        return self.fn(*args)


def apply_D(i: int, g: IntFunction) -> IntFunction:
    """The swap operator: (D_i g)(k) = g(k) + g(..., k_{i+1}+1, k_i-1, ...)."""
    if not 1 <= i <= g.arity - 1:
        raise IndexError(f"D_{i} undefined on arity-{g.arity} functions")

    gfn = g.fn  # the outer call has checked the arity

    def fn(*k):
        return gfn(*k) + gfn(*_swap(k, i))

    return IntFunction(g.arity, fn)


def _swap(k: tuple[int, ...], i: int) -> tuple[int, ...]:
    # D_i's second argument: (k_i, k_{i+1}) replaced by (k_{i+1}+1, k_i-1)
    return k[: i - 1] + (k[i] + 1, k[i - 1] - 1) + k[i + 1 :]


def apply_phi(g: IntFunction) -> IntFunction:
    """Summation operator: arity m -> m+1, summing g over the chained ranges
    l_1 in [k_1,k_2], ..., l_m in [k_m,k_{m+1}]."""
    return _summed(g, chained_sum)


def apply_phi_q(g: IntFunction) -> IntFunction:
    """q-weighted summation operator: each term carries q^(l_1+...+l_m).
    The value is always a LaurentPolyQ, the zero one when a link is empty;
    g may take integer values."""
    return _summed(g, chained_sum_q)


def _summed(g: IntFunction, chain) -> IntFunction:
    m, gfn = g.arity, g.fn  # the outer call has checked the arity

    def fn(*k):
        return chain([(k[j], k[j + 1]) for j in range(m)], lambda ls: gfn(*ls))

    return IntFunction(m + 1, fn)


# ---------------------------------------------------------------------------
# The fundamental commutation identity for D_i and the summation operator
# ---------------------------------------------------------------------------


def _fund_rhs_bounds(m: int, i: int, k: Sequence[int], first_term: bool):
    # bounds of l_1..l_m; the standard range of l_j is [k_j, k_{j+1}]
    bounds = [(k[j - 1], k[j]) for j in range(1, m + 1)]
    if first_term:
        bounds[i - 2] = (k[i - 1] + 1, k[i] + 1)  # l_{i-1} in [k_i+1, k_{i+1}+1]
        if i + 1 <= m:
            bounds[i] = (k[i - 1] - 1, k[i + 1])  # l_{i+1} in [k_i-1, k_{i+2}]
    else:
        bounds[i] = (k[i - 1] - 1, k[i] - 1)  # l_{i+1} in [k_i-1, k_{i+1}-1]
    return bounds


def _verify_fund(m: int, i: int, g: IntFunction, sample: Sequence[int], q: bool) -> bool:
    if g.arity != m:
        raise ValueError(f"function arity {g.arity} does not match m={m}")
    if not 1 <= i <= m:
        raise ValueError(f"index i={i} out of range 1..{m}")
    if len(sample) != m + 1:
        raise ValueError(f"sample must have {m + 1} entries")
    chain = chained_sum_q if q else chained_sum
    lhs = apply_D(i, _summed(g, chain))(*sample)

    def total(bounds, h):
        hfn = h.fn  # the terms have h's arity
        return chain(bounds, lambda ls: hfn(*ls))

    terms = 0
    if i >= 2:  # D_0 g = 0 kills this term for i = 1
        terms += total(_fund_rhs_bounds(m, i, sample, True), apply_D(i - 1, g))
    if i <= m - 1:  # D_m g = 0 kills this term for i = m
        terms += total(_fund_rhs_bounds(m, i, sample, False), apply_D(i, g))
    rhs = Fraction(-1, 2) * terms
    return lhs == rhs


def verify_lemma_fund(m: int, i: int, g: IntFunction, sample: Sequence[int]) -> bool:
    """Check D_i applied to the summed function against its two-sum expansion
    at one sample point, both sides evaluated independently."""
    return _verify_fund(m, i, g, sample, q=False)


def verify_lemma_fund_q(m: int, i: int, g: IntFunction, sample: Sequence[int]) -> bool:
    """q-weighted version of verify_lemma_fund."""
    return _verify_fund(m, i, g, sample, q=True)


def random_int_functions(
    count: int, arity: int, seed: int, box: int = 5, value_bound: int = 5
) -> Iterator[IntFunction]:
    """Seeded stream of total integer functions, zero outside the box
    [-box, box]^arity.

    Each function draws one 64-bit key from random.Random(seed).  Its value
    at a point of the box is the point's output of splitmix64 seeded with the
    key, reduced into [-value_bound, value_bound] on first read and kept in
    the function's own dict, so the seed and the point fix every value.
    """
    rng = random.Random(seed)
    for _ in range(count):
        yield IntFunction(arity, _splitmix_values(rng.getrandbits(64), box, value_bound))


def _splitmix_values(key: int, box: int, value_bound: int) -> Callable[..., int]:
    values = {}
    side, width, mask = 2 * box + 1, 2 * value_bound + 1, (1 << 64) - 1

    def fn(*pt):
        value = values.get(pt)
        if value is None:
            value = 0
            if all(-box <= x <= box for x in pt):
                idx = 0  # the point's place in the box
                for x in pt:
                    idx = idx * side + x + box
                z = (key + (idx + 1) * 0x9E3779B97F4A7C15) & mask
                z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & mask
                z = (z ^ z >> 27) * 0x94D049BB133111EB & mask
                value = (z ^ z >> 31) % width - value_bound
            values[pt] = value
        return value

    return fn


# ---------------------------------------------------------------------------
# The double-sum evaluation lemma and the product decomposition of D_i F
# ---------------------------------------------------------------------------


def _tabled(memo: dict | None, key: tuple[int, int], build: Callable):
    # memo[key], built as build(*key) on first read
    if memo is None:
        return build(*key)
    value = memo.get(key)
    if value is None:
        value = memo[key] = build(*key)
    return value


def _lemma2_term(r: int, diff: int) -> int:
    # the summand at diff = y'-x'
    return math.prod(range(diff - r + 3, diff + r)) * (diff + 1)


def _lemma2q_term(r: int, diff: int) -> LaurentPolyQ:
    # the q summand at diff, before its shift
    return q_poch(diff - r + 3, 2 * r - 3) * q_bracket(diff + 1) * LaurentPolyQ({0: 1, r - 1: 1})


def verify_lemma_2(r: int, d: int, x: int, y: int, memo: dict | None = None) -> bool:
    """Double extended sum of (y'-x'-r+3)_{2r-3} (y'-x'+1) over the shifted
    box against its closed form (y-x-r+2)_{2r-1} (y-x+1) / (r(2r-1)).
    memo: this check's own dict of summands, keyed by (r, y'-x')."""
    if r < 2:
        raise ValueError(f"r must be at least 2, got {r}")

    def term(ls):
        xp, yp = ls
        return _tabled(memo, (r, yp - xp), _lemma2_term)

    lhs = chained_sum([(x + d, y + d), (x - 1 + d, y - 1 + d)], term)
    rhs = (
        Fraction(1, r * (2 * r - 1))
        * pochhammer(y - x - r + 2, 2 * r - 1)
        * (y - x + 1)
    )
    return lhs == rhs


def verify_lemma_2q(r: int, d: int, x: int, y: int, memo: dict | None = None) -> bool:
    """q-analog of verify_lemma_2, checked by cross-multiplication with the
    denominator [2r-1;q][2r;q]; memo as there, holding unshifted summands."""
    if r < 2:
        raise ValueError(f"r must be at least 2, got {r}")

    def term(ls):
        xp, yp = ls
        return _tabled(memo, (r, yp - xp), _lemma2q_term).shift((2 * r - 2) * xp)

    lhs = chained_sum_q([(x + d, y + d), (x - 1 + d, y - 1 + d)], term)
    rhs_num = (
        2
        * q_poch(y - x - r + 2, 2 * r - 1)
        * q_bracket(y - x + 1)
        * LaurentPolyQ({0: 1, r: 1})  # 1 + q^r
    ).shift(2 * r * x + 2 * d * r + r - 2)
    return lhs * q_bracket(2 * r - 1) * q_bracket(2 * r) == rhs_num


def _decomp_rhs_args(ks: tuple[int, ...], i: int) -> tuple[int, ...]:
    # drop k_i, k_{i+1}; shift the later entries by 2
    return ks[: i - 1] + tuple(v + 2 for v in ks[i + 1 :])


def _decomp_factor(r: int, diff: int) -> Fraction:
    # (-1)^r 2/(2r)! (diff-r+2)_{2r-1} (diff+1) at diff = k_{i+1}-k_i
    poch = pochhammer(diff - r + 2, 2 * r - 1)
    return (-1) ** r * Fraction(2, math.factorial(2 * r)) * poch * (diff + 1)


def _decomp_q_factor(r: int, diff: int) -> tuple[LaurentPolyQ, LaurentPolyQ]:
    # its q-analog, and [1;q]_{2r}
    num = LaurentPolyQ({0: 1, r: 1}) * q_poch(diff - r + 2, 2 * r - 1) * q_bracket(diff + 1)
    return (-1) ** r * num, q_poch(1, 2 * r)


def verify_decomp(r: int, n: int, c: int, i: int, ks: Sequence[int],
                  memo: dict | None = None) -> bool:
    """D_i F(r,n,c;.) at ks against the explicit product times the smaller
    count F(r,n-2,c+2;...), both sides through the recursion engine.
    memo: this check's own dict of products, keyed by (r, k_{i+1}-k_i), and
    of recursion states, keyed by (r, n, c, ks): no key is both."""
    ks = tuple(ks)
    if not 1 <= i <= n - r - 1:
        raise ValueError(f"index i={i} out of range 1..{n - r - 1}")
    if r == 0:
        return True  # both sides are the constant 2
    lhs = f_recursive(TopRowKey(r, n, c, ks), memo) + f_recursive(
        TopRowKey(r, n, c, _swap(ks, i)), memo
    )
    factor = _tabled(memo, (r, ks[i] - ks[i - 1]), _decomp_factor)
    rhs = factor * f_recursive(TopRowKey(r, n - 2, c + 2, _decomp_rhs_args(ks, i)), memo)
    return lhs == rhs


def decomp_q_exponent(r: int, n: int, i: int) -> int:
    """The constant q-exponent r(1+4i-4n+5r)/2; always an integer.

    The numerator is r(5r+1) + 4r(i-n), and r(5r+1) is even: either r is
    even, or r is odd and 5r+1 is even.  The ArithmeticError guards this
    argument, not an input that can occur.
    """
    num = r * (1 + 4 * i - 4 * n + 5 * r)
    if num % 2:
        raise ArithmeticError(f"half-integer exponent at r={r}, n={n}, i={i}")
    return num // 2


def verify_decomp_q(r: int, n: int, c: int, i: int, ks: Sequence[int],
                    memo: dict | None = None) -> bool:
    """q-analog of verify_decomp, cross-multiplied with [1;q]_{2r}; memo as
    there, each product also holding [1;q]_{2r}."""
    ks = tuple(ks)
    if not 1 <= i <= n - r - 1:
        raise ValueError(f"index i={i} out of range 1..{n - r - 1}")
    if r == 0:
        return True
    lhs = fq_recursive(TopRowKey(r, n, c, ks), memo) + fq_recursive(
        TopRowKey(r, n, c, _swap(ks, i)), memo
    )
    factor, den = _tabled(memo, (r, ks[i] - ks[i - 1]), _decomp_q_factor)
    shift = 2 * r * ks[i - 1] + decomp_q_exponent(r, n, i)
    rhs_num = (
        factor * fq_recursive(TopRowKey(r, n - 2, c + 2, _decomp_rhs_args(ks, i)), memo)
    ).shift(shift)
    return lhs * den == rhs_num


# ---------------------------------------------------------------------------
# Hypergeometric summation identities
# ---------------------------------------------------------------------------


def hyper_middle_expression(m: int, c: int) -> Fraction:
    """(1)_{m-1}^2 binomial(c+2m-1, 2m-1), the Chu-Vandermonde evaluation."""
    return pochhammer(1, m - 1) ** 2 * math.comb(c + 2 * m - 1, 2 * m - 1)


def hyper_final_expression(m: int, c: int) -> Fraction:
    """(1)_{m-1}^2 (c+1)_{2m-2} / (1)_{2m-2}, as displayed; disagrees with the
    middle expression already at m = 2, c = 2 (6 versus 10), so the middle
    form is the one verified."""
    return pochhammer(1, m - 1) ** 2 * pochhammer(c + 1, 2 * m - 2) / pochhammer(1, 2 * m - 2)


def verify_hyper(m: int, c: int) -> bool:
    """sum_{k=0}^{c} (1+k)_{m-1} (1+c-k)_{m-1} against the binomial form."""
    if m < 1 or c < 0:
        raise ValueError(f"need m >= 1 and c >= 0, got m={m}, c={c}")

    def term(ls):
        (k,) = ls
        return pochhammer(1 + k, m - 1) * pochhammer(1 + c - k, m - 1)

    lhs = chained_sum([(0, c)], term)
    return lhs == hyper_middle_expression(m, c)


def verify_qvand(m: int, c: int) -> bool:
    """sum_{k=0}^{c} [k+1;q]_{m-1} [k-c-m+1;q]_{m-1} q^k against its closed
    form, cross-multiplied with [1;q]_{2m-1}."""
    if m < 1 or c < 0:
        raise ValueError(f"need m >= 1 and c >= 0, got m={m}, c={c}")

    def term(ls):
        (k,) = ls
        return q_poch(k + 1, m - 1) * q_poch(k - c - m + 1, m - 1)

    lhs = chained_sum_q([(0, c)], term)
    num = (1 - m) * (2 * c + m)
    # never odd: 1-m is even for odd m, and 2c+m is even for even m
    if num % 2:
        raise ArithmeticError(f"half-integer exponent at m={m}, c={c}")
    sign = -1 if (m - 1) & 1 else 1
    rhs_num = (
        sign * q_poch(1, m - 1) ** 2 * q_poch(c + 1, 2 * m - 1)
    ).shift(num // 2)
    return lhs * q_poch(1, 2 * m - 1) == rhs_num


def verify_qpoch_sum(n: int, y: int) -> bool:
    """sum_{x=1}^{y} [x;q]_n q^x == q [y;q]_{n+1} / [n+1;q] for any integer y,
    cross-multiplied with [n+1;q]."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    lhs = chained_sum_q([(1, y)], lambda ls: q_poch(ls[0], n))
    return lhs * q_bracket(n + 1) == q_poch(y, n + 1).shift(1)


# ---------------------------------------------------------------------------
# Degree and zero structure of the one-variable count
# ---------------------------------------------------------------------------


def interpolate(xs: Sequence[int], ys: Sequence[Fraction | int]) -> LaurentPolyQ:
    """The unique polynomial in k through the points (xs[t], ys[t]), by
    Newton's divided differences in exact rational arithmetic, held as a
    LaurentPolyQ whose variable stands for k."""
    if len(xs) != len(ys) or not xs:
        raise ValueError("need equally many nodes and values, at least one")
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation nodes must be distinct")
    dd = [Fraction(y) for y in ys]
    m = len(xs)
    for order in range(1, m):
        for t in range(m - 1, order - 1, -1):
            dd[t] = (dd[t] - dd[t - 1]) / (xs[t] - xs[t - order])
    # the Newton form dd_0 + (k - x_0)(dd_1 + (k - x_1)(...)), inside out
    poly = LaurentPolyQ()
    for x, d in zip(reversed(xs), reversed(dd)):
        poly = poly * _linear(x) + d
    return poly


def _linear(z: int) -> LaurentPolyQ:
    # k - z
    return LaurentPolyQ({1: 1, 0: -z})


def interpolate_f(n: int, c: int) -> LaurentPolyQ:
    """The polynomial in k through the brute-force counts F(n-1,n,c;k) at
    k = -2..2n, 2n+3 nodes.

    As a degree-bound witness it must have degree at most 2n-2, so that any
    2n-1 of the nodes already fix it; a higher degree raises DegreeExceeded.
    """
    if n < 1 or c < 0:
        raise ValueError(f"need n >= 1 and c >= 0, got n={n}, c={c}")
    nodes = range(-2, 2 * n + 1)
    poly = interpolate(nodes, [f_bruteforce(TopRowKey(n - 1, n, c, (k,))) for k in nodes])
    if poly and poly.max_exp > 2 * n - 2:
        raise DegreeExceeded(
            f"counts at n={n}, c={c} interpolate to degree {poly.max_exp}, "
            f"above the bound {2 * n - 2}"
        )
    return poly


def expected_zeros(n: int, c: int) -> list[int]:
    """The 2n-2 predicted integer zeros of the one-variable count."""
    return list(range(-1, -n, -1)) + list(range(c + 1, c + n))


def verify_zeros(n: int, c: int) -> bool:
    """No patterns exist at the predicted zeros, and the interpolated
    polynomial is within the degree bound and a nonzero constant times the
    product of (k - z) over them, by one exact division."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    zeros = expected_zeros(n, c)
    for k in zeros:
        key = TopRowKey(n - 1, n, c, (k,))
        if next(enumerate_patterns(key), None) is not None:
            return False  # objects exist, not even a signed cancellation
    try:
        quotient = interpolate_f(n, c).exact_div(math.prod(map(_linear, zeros)))
    except (NonExactDivision, DegreeExceeded):
        return False
    return bool(quotient) and quotient.min_exp == quotient.max_exp == 0


def verify_extra(n: int, c: int, memo: dict | None = None) -> bool:
    """F(n-1,n,c;c) == sum_{k=0}^{c} F(n-2,n-1,c;k), by the recursion engine;
    memo: this check's own dict of its states."""
    if n < 2 or c < 0:
        raise ValueError(f"need n >= 2 and c >= 0, got n={n}, c={c}")
    lhs = f_recursive(TopRowKey(n - 1, n, c, (c,)), memo)
    rhs = chained_sum(
        [(0, c)], lambda ks: f_recursive(TopRowKey(n - 2, n - 1, c, ks), memo)
    )
    return lhs == rhs


def verify_extra_q(n: int, c: int, memo: dict | None = None) -> bool:
    """F_q(n-1,n,c;c) == q^{cn-c} sum_{k=0}^{c} F_q(n-2,n-1,c;k) q^k;
    memo as there."""
    if n < 2 or c < 0:
        raise ValueError(f"need n >= 2 and c >= 0, got n={n}, c={c}")
    lhs = fq_recursive(TopRowKey(n - 1, n, c, (c,)), memo)
    rhs = chained_sum_q(
        [(0, c)], lambda ks: fq_recursive(TopRowKey(n - 2, n - 1, c, ks), memo)
    )
    return lhs == rhs.shift(c * n - c)
