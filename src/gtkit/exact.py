"""Exact scalar and q-polynomial arithmetic.

Rationals are ``fractions.Fraction``, Laurent polynomials in q sparse
exponent -> coefficient maps.  ``q_poch_ratio`` (behind ``q_poch_product``
and ``q_poch``) multiplies and divides by q-Pochhammer brackets on one dense
list, counting their (1 - q) factors, and checks each remainder;
``LaurentPolyQ.exact_div`` is long division, for ``qfrac_exact_div``
(``QFraction`` itself cross-multiplies).  The q recursion and the
lemma 2 and decomposition q checks keep each q-polynomial packed in one int
(``pack_q``, ``chained_sum_packed``, ``unpack_q``), at the width that
``widened`` proves.  The plain recursion closes its lowest two levels with
``chained_count`` and ``chained_count2``, the q recursion its lowest one
with ``chained_count_packed``.  No floating point is used anywhere.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence, Union

Scalar = Union[int, Fraction]


class NonExactDivision(ArithmeticError):
    """A Laurent-polynomial division left a nonzero remainder."""


def _signed_ranges(bounds: Iterable[tuple[int, int]]) -> tuple[int, list[range]]:
    # [a, a-1] gives the empty range(a, a), so the whole product is empty
    ranges = []
    sign = 1
    for a, b in bounds:
        if b >= a:
            ranges.append(range(a, b + 1))
        else:
            ranges.append(range(b + 1, a))
            sign = -sign
    return sign, ranges


def chained_sum(bounds: Iterable[tuple[int, int]],
                summand: Callable[[tuple[int, ...]], object]):
    """The nested extended sums l_1 over [a_1, b_1], ..., l_m over [a_m, b_m]
    of summand((l_1, ..., l_m)), a sum over [a, b] with b < a being minus the
    sum over [b+1, a-1]; the sign, common to every term, is applied once."""
    sign, ranges = _signed_ranges(bounds)
    total = sum(map(summand, itertools.product(*ranges)))
    return total if sign > 0 else -total


def chained_count(bounds: Iterable[tuple[int, int]]) -> int:
    """chained_sum(bounds, lambda ls: 1): the product of the b - a + 1, an
    extended range [a, b] holding that many terms counted with their sign."""
    return math.prod([b - a + 1 for a, b in bounds])


def _link_sums(a: int, b: int) -> tuple[int, int, int]:
    # the sums of 1, y and y^2 over the extended range [a, b], each a
    # Faulhaber difference P(b+1) - P(a), which holds for b < a too
    return (b - a + 1, (b * (b + 1) - a * (a - 1)) // 2,
            (b * (b + 1) * (2 * b + 1) - (a - 1) * a * (2 * a - 1)) // 6)


def chained_count2(bounds: Iterable[tuple[int, int]]) -> int:
    """chained_sum(bounds, lambda ls: chained_count(links of (0,) + ls + (c,))),
    c the last bound's upper end: F(2,n,c;ks) on the links of (0,) + ks + (c,).

    Every factor of the summand is linear in its two ends, so the sum is
    carried link by link as the moments S0 = sum A(x) and S1 = sum x A(x) of
    the partial products A, from (1, 0), and the state is (c+1) S0 - S1.
    Each link costs a few products; bounds must hold at least one link.
    """
    s0, s1 = 1, 0
    for a, b in bounds:
        n, y1, y2 = _link_sums(a, b)
        s0, s1 = s0 * (y1 + n) - s1 * n, s0 * (y2 + y1) - s1 * y1
    return (b + 1) * s0 - s1  # b is now c


def chained_sum_q(
    bounds: Iterable[tuple[int, int]],
    summand: Callable[[tuple[int, ...]], "LaurentPolyQ | Scalar"],
) -> "LaurentPolyQ":
    """chained_sum with each term weighted by q^(l_1 + ... + l_m).

    summand(ls) is a LaurentPolyQ, or an int or Fraction standing for the
    constant term q^0.  The shifted terms are added up in one coefficient
    map, each times the chain's sign.  The value is a LaurentPolyQ, the zero
    one when a link is empty.
    """
    sign, ranges = _signed_ranges(bounds)
    out: dict[int, Scalar] = {}
    get = out.get
    # the shifts and the terms, each mapped over its own pass of the box
    terms = map(summand, itertools.product(*ranges))
    for shift, term in zip(map(sum, itertools.product(*ranges)), terms):
        if isinstance(term, LaurentPolyQ):
            for e, c in term._terms.items():
                e += shift
                out[e] = get(e, 0) + sign * c
        elif term:
            out[shift] = get(shift, 0) + sign * term
    return LaurentPolyQ(out)


#: Bits per coefficient of a packed q-polynomial: (packed, low) stands for
#: q^low * P(q) where P(2^PACK_BITS) == packed, so each coefficient is one
#: balanced digit in base 2^PACK_BITS.
PACK_BITS = 64


def chained_sum_packed(
    bounds: Iterable[tuple[int, int]],
    summand: Callable[[tuple[int, ...]], tuple[int, int, int]],
    bits: int,
) -> tuple[int, int, int]:
    """chained_sum_q over packed q-polynomials, by Kronecker substitution.

    summand(ls) and the sum are triples (packed, low, count): q^low * P(q)
    with P(2^bits) == packed, and a nonnegative count added up unsigned.
    The weight q^(l_1 + ... + l_m) is a left shift, so a term costs one
    shift and one add; low is the running minimum exponent, the total
    shifted up once whenever it drops.  Exact at any width.
    """
    sign, ranges = _signed_ranges(bounds)
    total = low = count = 0
    for ls in itertools.product(*ranges):
        packed, child_low, child_count = summand(ls)
        count += child_count
        if packed:
            e = sum(ls) + child_low
            if not total:
                total, low = packed, e
            elif e >= low:
                total += packed << bits * (e - low)
            else:
                total = (total << bits * (low - e)) + packed
                low = e
    return (total if sign > 0 else -total), low, count


def chained_count_packed(bounds: Iterable[tuple[int, int]], bits: int) -> tuple[int, int, int]:
    """chained_sum_packed(bounds, lambda ls: (1, 0, 1), bits) as a product,
    one link at a time: a link [a, b] with b < a stands for minus the range
    [b+1, a-1].  Over the ranges R, packed is the sign times the product of
    sum_{t<|R|} 2^(bits*t), low the sum of the starts, count the product of
    the |R|; an empty link makes the triple (0, 0, 0)."""
    digit = (1 << bits) - 1
    packed, low, count = 1, 0, 1
    for a, b in bounds:
        if b < a:
            a, b, packed = b + 1, a - 1, -packed
        length = b - a + 1
        if not length:
            return 0, 0, 0
        packed *= ((1 << bits * length) - 1) // digit
        low += a
        count *= length
    return packed, low, count


def unpack_q(packed: int, low: int, bits: int) -> "LaurentPolyQ":
    """The LaurentPolyQ q^low * P(q) with P(2^bits) == packed.

    Reads packed as balanced digits in base 2^bits, so the result is the
    packed polynomial only if every coefficient lies strictly between
    -2^(bits-1) and 2^(bits-1); the caller must know that bound.
    """
    terms: dict[int, Scalar] = {}
    base = 1 << bits
    mask, half = base - 1, base >> 1
    while packed:
        digit = packed & mask
        packed >>= bits
        if digit >= half:  # a negative digit borrows from the next one
            digit -= base
            packed += 1
        if digit:
            terms[low] = digit
        low += 1
    return LaurentPolyQ._raw(terms)


def pack_q(poly: "LaurentPolyQ", bits: int) -> tuple[int, int, int]:
    """The inverse of unpack_q: (packed, low, weight), poly = q^low * P(q)
    with P(2^bits) == packed, weight the sum of |coefficient|.  Exact at any
    width; int coefficients only, a Fraction raises TypeError."""
    terms = poly._terms
    low = min(terms, default=0)
    return (sum([c << bits * (e - low) for e, c in terms.items()]), low,
            sum(map(abs, terms.values())))


def widened(packed_at: Callable[[dict, int], tuple], memo: dict | None) -> tuple:
    """(bits,) + packed_at(table, bits), its last entry a weight bounding
    each packed q-polynomial's sum of |coefficient|.  It packs at PACK_BITS
    from memo (a fresh table if None); a weight of PACK_BITS bits or more
    packs again from a fresh table at the narrowest multiple of PACK_BITS
    above its bit length, so a memo holds PACK_BITS values only.  Every
    coefficient is then one balanced digit: packed ints unpack, and compare
    at one low, exactly."""
    found = packed_at({} if memo is None else memo, PACK_BITS)
    bits = PACK_BITS * (found[-1].bit_length() // PACK_BITS + 1)
    return (bits,) + (found if bits == PACK_BITS else packed_at({}, bits))


def pochhammer(a: int, n: int) -> int:
    """Rising product (a)_n = a (a+1) ... (a+n-1); the empty product is 1."""
    if n < 0:
        raise ValueError(f"pochhammer index must be nonnegative, got {n}")
    return math.prod(range(a, a + n))


class LaurentPolyQ:
    """Sparse Laurent polynomial in q with exact rational coefficients.

    Stored as a map from integer exponent to nonzero coefficient (int or
    Fraction).  Instances are immutable by convention and hashable; all
    arithmetic is exact and equality is coefficient-wise.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, Scalar] | None = None):
        self._terms = {e: c for e, c in terms.items() if c} if terms else {}

    @classmethod
    def constant(cls, value: Scalar) -> "LaurentPolyQ":
        return cls({0: value})

    @classmethod
    def monomial(cls, exponent: int, coeff: Scalar = 1) -> "LaurentPolyQ":
        return cls({exponent: coeff})

    @classmethod
    def _raw(cls, terms: dict[int, Scalar]) -> "LaurentPolyQ":
        # internal: takes ownership of an already-normalized dict
        p = cls.__new__(cls)
        p._terms = terms
        return p

    # -- inspection ---------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._terms)

    def terms(self) -> tuple[tuple[int, Scalar], ...]:
        """Terms as (exponent, coefficient) pairs, ascending by exponent."""
        return tuple(sorted(self._terms.items()))

    @property
    def min_exp(self) -> int:
        if not self._terms:
            raise ValueError("the zero polynomial has no exponents")
        return min(self._terms)

    @property
    def max_exp(self) -> int:
        if not self._terms:
            raise ValueError("the zero polynomial has no exponents")
        return max(self._terms)

    def at_one(self) -> Fraction:
        """Value at q = 1, i.e. the sum of all coefficients."""
        return Fraction(sum(self._terms.values()))

    # -- ring operations ----------------------------------------------------

    @staticmethod
    def _coerce(value) -> "LaurentPolyQ | None":
        if isinstance(value, LaurentPolyQ):
            return value
        if isinstance(value, (int, Fraction)):
            return LaurentPolyQ({0: value})
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self._terms)
        for e, c in o._terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return LaurentPolyQ._raw(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPolyQ._raw({e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out: dict[int, Scalar] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in o._terms.items():
                e = e1 + e2
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return LaurentPolyQ._raw(out)

    __rmul__ = __mul__

    def shift(self, exponent: int) -> "LaurentPolyQ":
        """Multiply by the monomial q**exponent."""
        if exponent == 0:
            return self
        return LaurentPolyQ._raw({e + exponent: c for e, c in self._terms.items()})

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._terms == o._terms  # both hold nonzero coefficients only

    def __hash__(self):
        # equal to its scalar when no exponent but 0 is left, so hash alike
        if self._terms.keys() <= {0}:
            return hash(self._terms.get(0, 0))
        return hash(frozenset(self._terms.items()))

    # -- division -----------------------------------------------------------

    def exact_div(self, den: "LaurentPolyQ") -> "LaurentPolyQ":
        """Exact quotient self / den in the Laurent ring, by long division
        from the top down on a dense coefficient list.  den's leading
        coefficient is inverted once; +1 and -1 are their own inverses, so
        integer inputs give an integer quotient and build no Fraction, and
        any other gives the exact rational quotient.

        Raises NonExactDivision if den does not divide self exactly.
        """
        if not den:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self:
            return LaurentPolyQ()
        noff = self.min_exp
        doff = den.min_exp
        dtop = den.max_exp
        ddeg = dtop - doff
        dlead = den._terms[dtop]
        inv = dlead if dlead in (1, -1) else 1 / Fraction(dlead)
        # the divisor's other terms, as offsets below its leading term
        lower = [(e - dtop, c) for e, c in den._terms.items() if e != dtop]
        rem = [0] * (self.max_exp - noff + 1)
        for e, c in self._terms.items():
            rem[e - noff] = c
        shift = noff - doff - ddeg
        quot: dict[int, Scalar] = {}
        for top in range(len(rem) - 1, ddeg - 1, -1):
            c = rem[top]
            if not c:
                continue
            c *= inv
            quot[top + shift] = c
            for off, dc in lower:
                rem[top + off] -= c * dc
        for rdeg in range(min(ddeg, len(rem)) - 1, -1, -1):
            if rem[rdeg]:
                raise NonExactDivision(
                    f"{self} is not divisible by {den}: remainder of degree {rdeg}"
                )
        return LaurentPolyQ._raw(quot)

    # -- rendering ----------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for idx, (e, c) in enumerate(self.terms()):
            coeff = Fraction(c)
            magnitude = abs(coeff)
            if e == 0:
                body = _fmt_scalar(magnitude)
            else:
                qpow = "q" if e == 1 else f"q^{e}"
                body = qpow if magnitude == 1 else f"{_fmt_scalar(magnitude)}*{qpow}"
            if idx == 0:
                parts.append(f"-{body}" if coeff < 0 else body)
            else:
                parts.append(f"- {body}" if coeff < 0 else f"+ {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPolyQ({dict(self.terms())!r})"


def _fmt_scalar(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def q_bracket(x: int) -> LaurentPolyQ:
    """The q-analog [x;q] = (1 - q^x)/(1 - q) as an exact Laurent polynomial.

    For x >= 0 this is 1 + q + ... + q^(x-1); for x < 0 it is
    -(q^x + q^(x+1) + ... + q^(-1)).
    """
    if x >= 0:
        return LaurentPolyQ._raw(dict.fromkeys(range(x), 1))
    return LaurentPolyQ._raw(dict.fromkeys(range(x, 0), -1))


def q_poch_ratio(num: LaurentPolyQ, num_pairs: Sequence[tuple[int, int]],
                 den_pairs: Sequence[tuple[int, int]]) -> LaurentPolyQ:
    """num times the product of [x;q]_n over num_pairs, divided exactly by
    that of [y;q]_m over den_pairs, on one dense list.

    [x;q] is (1 - q^x)/(1 - q), and -q^x [-x;q] for x < 0.  Of the A
    numerator and B denominator brackets, the first A - B numerator ones are
    window sums, the rest (1 - q^x) passes; if B > A the list is multiplied
    by (1 - q)^(B - A).  Each denominator bracket divides the whole list as
    (1 - q^y), by strided prefix sums whose top y entries are the remainder.
    As (1 - q) is prime to every [y;q], a step leaves a remainder exactly
    when dividing by [y;q] there would; no bracket is cancelled against
    another.  Integer input gives integer coefficients.

    Raises ValueError for a negative index, before any work;
    ZeroDivisionError for a denominator [0;q]; NonExactDivision, naming the
    bracket, on a remainder.  A numerator [0;q] gives zero.
    """
    terms = num._terms
    zero = not terms
    whole = 0  # A - B
    for x0, n in num_pairs:
        if n < 0:
            raise ValueError(f"q_poch index must be nonnegative, got {n}")
        zero = zero or x0 <= 0 < x0 + n
        whole += n
    for y0, m in den_pairs:
        if m < 0:
            raise ValueError(f"q_poch index must be nonnegative, got {m}")
        if y0 <= 0 < y0 + m:
            raise ZeroDivisionError("division by the zero bracket [0;q]")
        whole -= m
    if zero:
        return LaurentPolyQ()
    low = min(terms)
    coeffs = [terms.get(e, 0) for e in range(low, max(terms) + 1)]
    sign = 1
    for x0, n in num_pairs:
        for x in range(x0, x0 + n):
            if x < 0:
                sign, low, x = -sign, low + x, -x
            if whole <= 0:
                pad = [0] * x
                coeffs = list(map(operator.sub, coeffs + pad, pad + coeffs))
                continue
            whole -= 1
            if x > 1:  # [1;q] is 1
                s = list(itertools.accumulate(itertools.chain(coeffs, itertools.repeat(0, x - 1))))
                coeffs = s[:x] + list(map(operator.sub, s[x:], s))
    while whole < 0:
        whole += 1
        coeffs = list(map(operator.sub, coeffs + [0], [0] + coeffs))
    for y0, m in den_pairs:
        for y in range(y0, y0 + m):
            step = y
            if y < 0:
                sign, low, step = -sign, low - y, -y
            for r in range(step):
                coeffs[r::step] = itertools.accumulate(coeffs[r::step])
            cut = len(coeffs) - step
            if cut <= 0 or any(coeffs[cut:]):
                raise NonExactDivision(
                    f"bracket [{y};q] of [{y0};q]_{m} leaves a remainder")
            del coeffs[cut:]
    return LaurentPolyQ._raw({low + e: sign * c for e, c in enumerate(coeffs) if c})


_ONE = LaurentPolyQ._raw({0: 1})


def q_poch_product(*pairs: tuple[int, int]) -> LaurentPolyQ:
    """The product of the rising q-products [x;q]_n over the (x, n) pairs:
    q_poch_ratio with no denominator, each bracket a window sum, O(degree)
    whatever x is.  The coefficients are ints."""
    return q_poch_ratio(_ONE, pairs, ())


def q_poch(x: int, n: int) -> LaurentPolyQ:
    """Rising q-product [x;q]_n = [x;q] [x+1;q] ... [x+n-1;q]."""
    return q_poch_ratio(_ONE, ((x, n),), ())


class QFraction:
    """Formal quotient of two Laurent polynomials in q.

    Equality of a/b and c/d is decided exactly via a*d == c*b; no reduction
    or approximation is performed.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPolyQ, den: LaurentPolyQ):
        if not den:
            raise ZeroDivisionError("QFraction denominator must be nonzero")
        self.num = num
        self.den = den

    def __eq__(self, other) -> bool:
        if isinstance(other, QFraction):
            return self.num * other.den == other.num * self.den
        o = LaurentPolyQ._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o * self.den

    __hash__ = None  # cross-multiplied equality is incompatible with hashing

    def __str__(self) -> str:
        return f"({self.num}) / ({self.den})"

    def __repr__(self) -> str:
        return f"QFraction({self.num!r}, {self.den!r})"


def qfrac_exact_div(f: QFraction) -> LaurentPolyQ:
    """Reduce a QFraction whose denominator divides its numerator exactly.

    Raises NonExactDivision otherwise.
    """
    return f.num.exact_div(f.den)
