"""Operator calculus and instance-level identity verification.

Implements the swap operator D_i and the summation operators acting on
integer functions, verifies each lemma-level identity at given points by
evaluating both sides independently, and checks the one-variable count's
degree bound and integer zeros on consecutive integers, by finite
differences.  Seven identities are decided everywhere from finitely many
points: the fundamental lemma for every function at once, by the signed
corners of its boxes, and at every integer point from one generic point;
and lemma 2, the plain decomposition, the boundary recursion and the three
single sums at fixed sizes, for every value of their parameters, from
nodes that decide the space both sides lie in.  The degree lemma
(degree_bound) sizes the nodes of the decomposition and the boundary
recursion.  Each node function's docstring holds its argument, and a
*_DECIDES template next to it says what passing at its nodes decides.

Lemma 2 and the decomposition of D_i F read one product,
P_r(d) = (1+q^r) [d-r+2;q]_{2r-1} [d+1;q], written once as its bracket pairs
and read on both weights (2 (d-r+2)_{2r-1} (d+1) at q = 1): lemma 2 sums
P_{r-1} over a box to 2 P_r / [2r-1;q]_2, and D_i F is (-1)^r P_r / [1;q]_{2r}
times the smaller count.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from fractions import Fraction
from typing import Callable, Sequence

from .counting import TopRowKey, level, pattern_counts
from .exact import (
    LaurentPolyQ, NonExactDivision, chained_sum, chained_sum_packed, chained_sum_q, pack_q,
    pochhammer, q_bracket, q_poch, q_poch_product, q_poch_ratio, unpack_q, widened,
)


class IntFunction(namedtuple("IntFunction", "arity fn")):
    """Total function from integer vectors of fixed arity to exact values;
    fn takes the point as one tuple."""

    __slots__ = ()

    def __call__(self, *args):
        if len(args) != self.arity:
            raise TypeError(f"expected {self.arity} arguments, got {len(args)}")
        return self.fn(args)


def apply_D(i: int, g: IntFunction) -> IntFunction:
    """The swap operator: (D_i g)(k) = g(k) + g(..., k_{i+1}+1, k_i-1, ...)."""
    if not 1 <= i <= g.arity - 1:
        raise IndexError(f"D_{i} undefined on arity-{g.arity} functions")

    gfn = g.fn  # the outer call has checked the arity

    def fn(k):
        return gfn(k) + gfn(_swap(k, i))

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

    def fn(k):
        return chain([(k[j], k[j + 1]) for j in range(m)], gfn)

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


def _swapped_box(bounds: list[tuple[int, int]], j: int) -> list[tuple[int, int]]:
    # the image of the box under D_j's swap (l_j, l_{j+1}) -> (l_{j+1}+1, l_j-1):
    # each link keeps its length, so its sign, and l_1+...+l_m, so its q weight
    (a, b), (c, d) = bounds[j - 1 : j + 1]
    return bounds[: j - 1] + [(c + 1, d + 1), (a - 1, b - 1)] + bounds[j + 1 :]


def _fund_boxes(m: int, i: int, sample: Sequence[int]) -> list[list[tuple[int, int]]]:
    # the right side's boxes: each term's sum of D_j g over a box B is the
    # sums of g over B and over _swapped_box(B, j)
    if not 1 <= i <= m:
        raise ValueError(f"index i={i} out of range 1..{m}")
    if len(sample) != m + 1:
        raise ValueError(f"sample must have {m + 1} entries")
    boxes = []
    for j, first_term in ((i - 1, True), (i, False)):
        if 1 <= j <= m - 1:  # D_0 g = D_m g = 0 kills the term for i = 1 or m
            box = _fund_rhs_bounds(m, i, sample, first_term)
            boxes += [box, _swapped_box(box, j)]
    return boxes


def fund_generic_point(m: int) -> tuple[int, ...]:
    """(0, 4, ..., 4m): one sample at which verify_lemma_fund_all(m, i, .)
    decides the lemma at every integer point.

    The check builds its boxes and chains from the sample's entries by the
    same shifts at every sample, so each corner coordinate is a sample entry
    plus an offset in -1..2 (tests/test_identities.py computes the offsets
    for m <= 6).  Here the entries are 4 apart, so a coordinate names its
    entry and offset, and two corners coincide here only if they coincide at
    every sample.  So the weights vanish here exactly when each corner's
    weight, summed over the terms that share its entries and offsets, is 0;
    then they vanish at every sample, where corners only merge further.  The
    check passes here exactly when the lemma holds at every integer point."""
    return tuple(range(0, 4 * m + 1, 4))


#: What verify_lemma_fund_all passing at fund_generic_point(m), every i,
#: decides; formatted with the largest m.
FUND_DECIDES = "every integer point, every function, m <= {}"


def _verify_fund(m: int, i: int, g: IntFunction, sample: Sequence[int], q: bool) -> bool:
    """D_i of the summed g at sample against -1/2 times the expansion's
    terms, compared as -2 lhs == the sum of g over _fund_boxes, so every
    term is one read of g.fn."""
    if g.arity != m:
        raise ValueError(f"function arity {g.arity} does not match m={m}")
    boxes = _fund_boxes(m, i, sample)
    chain = chained_sum_q if q else chained_sum
    lhs = apply_D(i, _summed(g, chain))(*sample)
    return -2 * lhs == sum(chain(box, g.fn) for box in boxes)


def verify_lemma_fund(m: int, i: int, g: IntFunction, sample: Sequence[int]) -> bool:
    """Check D_i applied to the summed function against its two-sum expansion
    at one sample point, both sides evaluated independently."""
    return _verify_fund(m, i, g, sample, q=False)


def verify_lemma_fund_q(m: int, i: int, g: IntFunction, sample: Sequence[int]) -> bool:
    """q-weighted version of verify_lemma_fund."""
    return _verify_fund(m, i, g, sample, q=True)


def verify_lemma_fund_all(m: int, i: int, sample: Sequence[int]) -> bool:
    """verify_lemma_fund and verify_lemma_fund_q at sample for every function
    g of arity m at once.

    Both sides add up g over signed boxes: 2 lhs over the chains of sample
    and of its D_i swap, and the expansion over _fund_boxes.  A box's
    extended indicator is the signed sum of the orthants at its 2^m corners,
    a_j counting + and b_j + 1 counting -, which holds for b_j < a_j too.
    The mixed backward difference is injective on finitely supported
    functions, so the identity holds for every g exactly when every corner's
    total weight is 0; the q weight q^(l_1+...+l_m) depends on the point
    alone, so the same check covers the q version."""
    sample = tuple(sample)
    terms = [(1, box) for box in _fund_boxes(m, i, sample)]
    terms += [(2, list(zip(k, k[1:]))) for k in (sample, _swap(sample, i))]
    weights: dict[tuple[int, ...], int] = {}
    for weight, box in terms:
        corners = itertools.product(*[(a, b + 1) for a, b in box])
        for corner, signs in zip(corners, itertools.product((1, -1), repeat=m)):
            weights[corner] = weights.get(corner, 0) + weight * math.prod(signs)
    return not any(weights.values())


# ---------------------------------------------------------------------------
# The degree lemma and the lattice simplex
# ---------------------------------------------------------------------------


def degree_bound(r: int, n: int) -> int:
    """D_r(n) = r(2n-r+1)/2, the bound of the degree lemma.

    The degree lemma: F(r,n,c;k_1..k_{n-r}), as counting.level's recursion
    gives it at every integer c and ks, is a polynomial in (c, k_1..k_{n-r})
    of total degree at most D_r(n); and F_q(r,n,c;ks) is a polynomial over
    Q(q) in (q^c, q^(k_1)..q^(k_{n-r})), with no negative power, of total
    degree at most D_r(n).

    By induction on r: F(0,n,c;.) = 1, and D_0(n) = 0.  A state of level r
    sums F(r-1,n,c;l_1..l_{n-r+1}) over the links l_j in [b_{j-1}, b_j], with
    (b_0..b_{n-r+1}) = (0, k_1, ..., k_{n-r}, c).  The extended sum of a
    polynomial p over [a, b] is S(b+1) - S(a) for all integers a and b, S a
    Faulhaber sum of p of one degree more; so each of the n-r+1 links raises
    the total degree by at most one, and D_{r-1}(n) + n-r+1 = D_r(n).  With
    q, each term carries q^(l_1+...+l_{n-r+1}), so every power q^(e l_j) it
    sums has e >= 1, and the extended sum of q^(el) over [a, b] is
    (q^(e(b+1)) - q^(ea)) / (q^e - 1): again one degree more, in the powers
    of the bounds, and none negative."""
    return r * (2 * n - r + 1) // 2


def simplex_nodes(count: int, degree: int) -> list[tuple[int, ...]]:
    """The lattice simplex {v in Z^count: every v_j >= 0, sum(v) <= degree}
    in lexicographic order: a polynomial in count variables of total degree
    at most degree that vanishes at these nodes is 0.

    By induction on count + degree.  With count or degree 0 the one node
    decides a constant.  Otherwise p(v_1..v_{count-1}, 0) vanishes on the
    simplex of count - 1 variables, so it is 0, and p = v_count p' with p' of
    degree at most degree - 1.  p' vanishes at the nodes with v_count >= 1,
    so p'(v + e_count) vanishes on the simplex of degree - 1, and is 0.

    verify_decomp(r, n, c, i, ks) at (c, ks) in
    simplex_nodes(1 + n - r, degree_bound(r, n)) decides the decomposition
    at every integer c and ks, by the degree lemma: the left side, F at ks
    and at D_i's swap of ks, has total degree at most D_r(n), and the right
    side, P_r(k_{i+1}-k_i) times F(r,n-2,c+2;...), at most 2r + D_r(n-2) =
    D_r(n), the swap and the shifted arguments being affine.
    verify_decomp_q is only checked at these nodes: its factor
    P_r(k_{i+1}-k_i) q^(2r k_i) has negative powers of q^(k_i), so the
    lemma bounds no total degree of its sides."""
    return [v for v in itertools.product(range(degree + 1), repeat=count) if sum(v) <= degree]


#: What verify_decomp passing at simplex_nodes decides; formatted with the
#: (r, n) it ran at.
SIMPLEX_DECIDES = "all integers (c, ks) at (r, n) in {}, by the degree lemma"


# ---------------------------------------------------------------------------
# The double-sum evaluation lemma and the product decomposition of D_i F
# ---------------------------------------------------------------------------


def _tabled(memo: dict, key: tuple, build: Callable):
    # memo[key], built as build(*key) on first read
    value = memo.get(key)
    if value is None:
        value = memo[key] = build(*key)
    return value


def _product_pairs(r: int, d: int) -> tuple[tuple[int, int], ...]:
    # P_r(d) = (1+q^r) [d-r+2;q]_{2r-1} [d+1;q]: its bracket pairs (x, n)
    return (d - r + 2, 2 * r - 1), (d + 1, 1)


def _product(r: int, d: int) -> int:
    # P_r(d) at q = 1
    return 2 * math.prod(pochhammer(x, n) for x, n in _product_pairs(r, d))


def _product_q(r: int, d: int) -> LaurentPolyQ:
    # P_r(d)
    return LaurentPolyQ({0: 1, r: 1}) * q_poch_product(*_product_pairs(r, d))


def lemma2_nodes(r: int) -> list[tuple[int, int, int]]:
    """(d, x, y) = (1, 1, 1+t), t = 0..2r: the 2r+1 nodes at which
    verify_lemma_2(r, ...) and verify_lemma_2q(r, ...) decide lemma 2 at
    every integer (d, x, y).

    The box moves rigidly with x and d: x' - (x+d) and y' - (x+d-1) both run
    over [0, y-x].  Plain: the summand P_{r-1}(y'-x') has degree 2r-2, and
    each of the two extended sums adds one, so the left side is a polynomial
    of degree at most 2r in y-x alone, as is 2 P_r(y-x) / (2r-1)_2.  q:
    P_{r-1}(y'-x') is a sum of q^(j(y'-x')), 0 <= j <= 2r-2, and the weights
    q^(x'+y') q^((2r-2)x') make each term q^(e x' + f y') with e = 2r-1-j >= 1
    and f = j+1 >= 1.  The extended sums of q^(e x') over [x+d, y+d] and of
    q^(f y') over [x+d-1, y+d-1] are q^(e(x+d)) and q^(f(x+d-1)) times
    polynomials of degree e and f in Z = q^(y-x), and e + f = 2r; the right
    side is q^(2r(x+d)+r-2) times a polynomial of degree 2r in Z.  So the
    sides differ by q^(2r(x+d)) times a polynomial of degree at most 2r in
    y-x (plain) or in Z (q) alone, and one that vanishes at y-x = 0..2r is
    0: a Vandermonde determinant.  The nodes sit off the origin, where a
    slip in a coefficient of x or of d would vanish."""
    return [(1, 1, 1 + t) for t in range(2 * r + 1)]


#: What verify_lemma_2 and verify_lemma_2q passing at lemma2_nodes decides;
#: formatted with the r it ran at.
LEMMA2_DECIDES = "every integer (d, x, y), r in {}"


def verify_lemma_2(r: int, d: int, x: int, y: int, memo: dict | None = None) -> bool:
    """Lemma 2 at q = 1: the double extended sum of P_{r-1}(y'-x') over the
    shifted box against its closed form 2 P_r(y-x) / (2r-1)_2, the
    denominator multiplied across.
    memo: this check's own dict of summands P_{r-1}, keyed by (r-1, y'-x')."""
    if r < 2:
        raise ValueError(f"r must be at least 2, got {r}")
    memo = {} if memo is None else memo

    def term(ls):
        xp, yp = ls
        return _tabled(memo, (r - 1, yp - xp), _product)

    lhs = chained_sum([(x + d, y + d), (x - 1 + d, y - 1 + d)], term)
    return lhs * (2 * r - 1) * (2 * r) == 2 * _product(r, y - x)


def _lemma2q_rhs(r: int, diff: int) -> LaurentPolyQ:
    # 2 P_r(diff) / ([2r-1;q][2r;q]), diff = y-x
    return q_poch_ratio(LaurentPolyQ({0: 2, r: 2}), _product_pairs(r, diff), ((2 * r - 1, 2),))


def verify_lemma_2q(r: int, d: int, x: int, y: int, memo: dict | None = None) -> bool:
    """Lemma 2 in q: the sum of q^{(2r-2) x'} P_{r-1}(y'-x') over the box against
    q^{2rx+2dr+r-2} 2 P_r(y-x) / ([2r-1;q][2r;q]), the right side divided
    exactly (False on a remainder); memo as there, holding summands packed at
    exact.PACK_BITS.
    The left side is one chained_sum_packed, each summand's low raised by
    (2r-2) x', unpacked at the width exact.widened proves from its count."""
    if r < 2:
        raise ValueError(f"r must be at least 2, got {r}")

    def lhs_at(table, bits):
        def summand(r, diff):
            return pack_q(_product_q(r, diff), bits)

        def term(ls):
            packed, low, weight = _tabled(table, (r - 1, ls[1] - ls[0]), summand)
            return packed, low + (2 * r - 2) * ls[0], weight

        return chained_sum_packed([(x + d, y + d), (x - 1 + d, y - 1 + d)], term, bits)

    bits, packed, low, _ = widened(lhs_at, memo)
    try:
        rhs = _lemma2q_rhs(r, y - x)
    except NonExactDivision:
        return False
    return unpack_q(packed, low, bits) == rhs.shift(2 * r * x + 2 * d * r + r - 2)


def _decomp_rhs_args(ks: tuple[int, ...], i: int) -> tuple[int, ...]:
    # drop k_i, k_{i+1}; shift the later entries by 2
    return ks[: i - 1] + tuple(v + 2 for v in ks[i + 1 :])


def verify_decomp(r: int, n: int, c: int, i: int, ks: Sequence[int],
                  memo: dict | None = None) -> bool:
    """D_i F(r,n,c;.) at ks against (-1)^r P_r(k_{i+1}-k_i) / (2r)! times the
    smaller count F(r,n-2,c+2;...), each count read from counting.level's
    tables, (2r)! multiplied across.
    memo: this check's own dict of products P_r, keyed by (r, k_{i+1}-k_i),
    and of the recursion's level tables, keyed by (r, n, c): no key is both."""
    ks = tuple(ks)
    if not 1 <= i < n - r == len(ks):
        raise ValueError(f"need 1 <= i <= {n - r - 1} and {n - r} entries, got i={i}, ks={ks}")
    if r == 0:
        return True  # both sides are the constant 2
    memo = {} if memo is None else memo
    counts = level(memo, r, n, c)
    factor = (-1) ** r * _tabled(memo, (r, ks[i] - ks[i - 1]), _product)
    rhs = factor * level(memo, r, n - 2, c + 2)[_decomp_rhs_args(ks, i)]
    return (counts[ks] + counts[_swap(ks, i)]) * math.factorial(2 * r) == rhs


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
    """q-analog of verify_decomp, (-1)^r P_r(k_{i+1}-k_i) / [1;q]_{2r} times
    q^(2r k_i + decomp_q_exponent) F_q(r,n-2,c+2;...), cross-multiplied with
    [1;q]_{2r}; memo as there, each signed product packed with [1;q]_{2r}, and
    each F_q read from counting.level's tables at width bits.  Both sides are
    packed ints at one low; the product of a side's weights (an F_q's is its
    pattern count) bounds its coefficients, so exact.widened picks the
    compare's width and table."""
    ks = tuple(ks)
    if not 1 <= i < n - r == len(ks):
        raise ValueError(f"need 1 <= i <= {n - r - 1} and {n - r} entries, got i={i}, ks={ks}")
    if r == 0:
        return True
    shift = 2 * r * ks[i - 1] + decomp_q_exponent(r, n, i)

    def sides(table, bits):
        def factor(r, diff):
            return pack_q((-1) ** r * _product_q(r, diff), bits), pack_q(q_poch(1, 2 * r), bits)

        counts = level(table, r, n, c, bits)
        (a, a_low, a_w), (b, b_low, b_w) = counts[ks], counts[_swap(ks, i)]
        f, f_low, f_w = level(table, r, n - 2, c + 2, bits)[_decomp_rhs_args(ks, i)]
        (x, x_low, x_w), (den, den_low, den_w) = _tabled(table, (r, ks[i] - ks[i - 1]), factor)
        right_low = x_low + f_low + shift - den_low
        low = min(a_low, b_low, right_low)
        return (((a << bits * (a_low - low)) + (b << bits * (b_low - low))) * den,
                x * f << bits * (right_low - low), max((a_w + b_w) * den_w, x_w * f_w))

    _, left, right, _ = widened(sides, memo)
    return left == right


# ---------------------------------------------------------------------------
# Hypergeometric summation identities
# ---------------------------------------------------------------------------


def hyper_middle_expression(m: int, c: int) -> int:
    """(1)_{m-1}^2 binomial(c+2m-1, 2m-1), the Chu-Vandermonde evaluation."""
    return pochhammer(1, m - 1) ** 2 * math.comb(c + 2 * m - 1, 2 * m - 1)


def hyper_final_expression(m: int, c: int) -> Fraction:
    """(1)_{m-1}^2 (c+1)_{2m-2} / (1)_{2m-2}, as displayed; disagrees with the
    middle expression already at m = 2, c = 2 (6 versus 10), so the middle
    form is the one verified."""
    return Fraction(pochhammer(1, m - 1) ** 2 * pochhammer(c + 1, 2 * m - 2),
                    pochhammer(1, 2 * m - 2))


def vandermonde_nodes(m: int) -> range:
    """c = 0..2m-1: the nodes at which verify_hyper(m, .) and
    verify_qvand(m, .) decide their identity for every c >= 0.

    hyper: both sides are polynomials in c of degree at most 2m-1.  The
    summand has total degree 2m-2 in (k, c), and summing k over 0..c adds
    one; binomial(c+2m-1, 2m-1) has degree 2m-1.

    qvand: put C = q^c.  Each side times C^(m-1) is a polynomial in C of
    degree at most 2m-1 over Q(q).  The summand is a sum of q^(ek) C^(-b)
    with e >= 1, 0 <= b <= m-1 and e-b <= m, and summing q^(ek) over
    k = 0..c gives (q^(e(c+1)) - 1)/(q^e - 1); the right side is C^(1-m)
    times [c+1;q]_{2m-1}, times a constant.

    Either way the two sides' difference is a combination of 2m sequences,
    c^j for j = 0..2m-1 (hyper) or q^(jc) for j = 1-m..m (qvand), and such a
    combination that vanishes at 2m consecutive c is 0: a Vandermonde
    determinant, the q^j being distinct."""
    return range(2 * m)


#: What verify_hyper or verify_qvand passing at vandermonde_nodes decides;
#: formatted with the largest m.
VANDERMONDE_DECIDES = "every c >= 0, m <= {}"


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
        return q_poch_product((k + 1, m - 1), (k - c - m + 1, m - 1))

    lhs = chained_sum_q([(0, c)], term)
    num = (1 - m) * (2 * c + m)
    # never odd: 1-m is even for odd m, and 2c+m is even for even m
    if num % 2:
        raise ArithmeticError(f"half-integer exponent at m={m}, c={c}")
    sign = -1 if (m - 1) & 1 else 1
    rhs_num = (
        sign * q_poch_product((1, m - 1), (1, m - 1), (c + 1, 2 * m - 1))
    ).shift(num // 2)
    return lhs * q_poch(1, 2 * m - 1) == rhs_num


def qpoch_nodes(n: int) -> range:
    """y = -1..n: the n+2 nodes at which verify_qpoch_sum(n, .) decides its
    identity for every integer y.

    Put Y = q^y.  [x;q]_n q^x is a sum of q^(ex), 1 <= e <= n+1, and the
    extended sum of q^(ex) over x in [1, y] is (q^(e(y+1)) - q^e)/(q^e - 1),
    for y < 1 too; the right side is q [y;q]_{n+1} / [n+1;q].  So both sides
    are polynomials in Y of degree at most n+1 over Q(q), and two that agree
    at n+2 consecutive y agree at every y.  The node y = 0 is the empty sum
    and y = -1 the inverted one."""
    return range(-1, n + 1)


#: What verify_qpoch_sum passing at qpoch_nodes decides; formatted with the
#: largest n.
QPOCH_DECIDES = "every integer y, n <= {}"


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


def expected_zeros(n: int, c: int) -> list[int]:
    """The 2n-2 predicted integer zeros of the one-variable count."""
    return list(range(-1, -n, -1)) + list(range(c + 1, c + n))


def verify_zeros(n: int, c: int) -> bool:
    """The count F(n-1,n,c;k) on the consecutive nodes k = -n-1..c+n+1,
    which hold every predicted zero: no patterns exist at a zero and the
    count there is 0, the counts are not all 0, and every difference of
    order one above the number of zeros vanishes.  So on the nodes the count
    is a polynomial of degree at most 2n-2 with those 2n-2 zeros, a nonzero
    constant times the product of (k - z) over them.  One walk per node
    reads both the count and the number of patterns."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    zeros = expected_zeros(n, c)
    nodes = range(-n - 1, c + n + 2)
    memo = {}  # row tables, shared by the nodes
    counts, sizes = zip(*(pattern_counts(TopRowKey(n - 1, n, c, (k,)), memo)
                          for k in nodes))
    # at a zero, objects are not even a signed cancellation
    if not any(counts) or any(counts[i] or sizes[i] for i in map(nodes.index, zeros)):
        return False
    for _ in range(len(zeros) + 1):
        counts = [b - a for a, b in zip(counts, counts[1:])]
    return not any(counts)


def extra_nodes(n: int) -> range:
    """c = 0..D_{n-1}(n) = (n-1)(n+2)/2: the nodes at which verify_extra(n, .)
    and verify_extra_q(n, .) decide the boundary recursion for every c >= 0,
    by the degree lemma.

    Plain: F(n-1,n,c;c) has degree at most D_{n-1}(n) in c, and the extended
    sum of F(n-2,n-1,c;k) over k in [0, c] at most D_{n-2}(n-1) + 1 =
    D_{n-1}(n) - n + 1.  q: with C = q^c, F_q(n-1,n,c;c) is a polynomial in C
    of degree at most D_{n-1}(n) over Q(q).  On the right, q^k
    F_q(n-2,n-1,c;k) is a sum of C^a q^(ek) with e >= 1 and a + e <=
    D_{n-2}(n-1) + 1, the sum of q^(ek) over k in [0, c] is
    (q^(e(c+1)) - 1)/(q^e - 1), and q^(c(n-1)) adds n-1 to the degree.
    Either way the sides differ by a combination of c^j or of q^(jc),
    j = 0..D_{n-1}(n), and one that vanishes at D_{n-1}(n) + 1 consecutive
    c is 0: a Vandermonde determinant."""
    return range(degree_bound(n - 1, n) + 1)


#: What verify_extra and verify_extra_q passing at extra_nodes decides;
#: formatted with the largest n.
EXTRA_DECIDES = "every c >= 0, 2 <= n <= {}, by the degree lemma"


def verify_extra(n: int, c: int, memo: dict | None = None) -> bool:
    """F(n-1,n,c;c) == sum_{k=0}^{c} F(n-2,n-1,c;k), each count read from
    counting.level's tables; memo: this check's own dict of them."""
    if n < 2 or c < 0:
        raise ValueError(f"need n >= 2 and c >= 0, got n={n}, c={c}")
    memo = {} if memo is None else memo
    return level(memo, n - 1, n, c)[c,] == chained_sum(
        [(0, c)], level(memo, n - 2, n - 1, c).__getitem__)


def verify_extra_q(n: int, c: int, memo: dict | None = None) -> bool:
    """F_q(n-1,n,c;c) == q^{cn-c} sum_{k=0}^{c} F_q(n-2,n-1,c;k) q^k, each
    count read from counting.level's tables at width bits and each side
    unpacked once, at the width exact.widened proves from the sides' pattern
    counts; memo as there."""
    if n < 2 or c < 0:
        raise ValueError(f"need n >= 2 and c >= 0, got n={n}, c={c}")

    def sides(table, bits):
        lhs = level(table, n - 1, n, c, bits)[c,]
        rhs = chained_sum_packed([(0, c)], level(table, n - 2, n - 1, c, bits).__getitem__, bits)
        return lhs, rhs, max(lhs[2], rhs[2])

    bits, (lhs, low, _), (rhs, rhs_low, _), _ = widened(sides, memo)
    return unpack_q(lhs, low, bits) == unpack_q(rhs, rhs_low + c * n - c, bits)
