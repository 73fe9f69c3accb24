"""Tests for exact rational and Laurent-polynomial arithmetic."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gtkit import closedforms, exact
from gtkit.counting import CountResult
from gtkit.exact import (
    PACK_BITS,
    LaurentPolyQ,
    NonExactDivision,
    QFraction,
    chained_count,
    chained_count2,
    chained_count_packed,
    chained_sum,
    chained_sum_packed,
    chained_sum_q,
    pack_q,
    pochhammer,
    q_bracket,
    q_poch,
    q_poch_product,
    q_poch_ratio,
    qfrac_exact_div,
    unpack_q,
)
from gtkit.exact import _signed_ranges

Q = LaurentPolyQ.monomial(1)


def ext_sum(f, a, b):
    """The reference extended sum f(a) + ... + f(b): the ordinary sum for
    b >= a, zero for b == a - 1, and -(f(b+1) + ... + f(a-1)) for b <= a - 2,
    so that ext_sum(f, a, b) + ext_sum(f, b+1, c) == ext_sum(f, a, c)."""
    if b >= a:
        return sum(f(i) for i in range(a, b + 1))
    if b == a - 1:
        return 0
    return -sum(f(i) for i in range(b + 1, a))


def ext_terms(bounds):
    """The terms of chained_sum as (sign, (l_1, ..., l_m)) pairs."""
    sign, ranges = _signed_ranges(bounds)
    return zip(itertools.repeat(sign), itertools.product(*ranges))


class TestExtSum:
    def test_ordinary_range(self):
        assert ext_sum(lambda i: i, 0, 3) == 6

    def test_empty_range_is_zero(self):
        calls = []
        assert ext_sum(lambda i: calls.append(i) or 99, 2, 1) == 0
        assert calls == []

    def test_reversed_range_negates(self):
        # sum_{i=3}^{0} i = -(f(1) + f(2)) = -3
        assert ext_sum(lambda i: i, 3, 0) == -3

    @given(
        a=st.integers(-8, 8),
        b=st.integers(-8, 8),
        c=st.integers(-8, 8),
    )
    def test_telescoping(self, a, b, c):
        f = lambda i: i * i - 3 * i + 1
        assert ext_sum(f, a, b) + ext_sum(f, b + 1, c) == ext_sum(f, a, c)

    def test_works_over_laurent_values(self):
        total = ext_sum(lambda i: LaurentPolyQ.monomial(i), 0, 2)
        assert total == LaurentPolyQ({0: 1, 1: 1, 2: 1})
        assert ext_sum(lambda i: LaurentPolyQ.monomial(i), 2, 1) == 0


def _nested_ext_sum(bounds, f, prefix=()):
    # the closure-per-level evaluation that exact.chained_sum flattens
    if not bounds:
        return f(*prefix)
    a, b = bounds[0]
    return ext_sum(lambda l: _nested_ext_sum(bounds[1:], f, prefix + (l,)), a, b)


def _summand(*ls):
    # depends on the position of every variable, so a reordering shows
    return 1 + sum((j + 2) * l * l - (j + 1) * l for j, l in enumerate(ls))


class TestExtTerms:
    @given(chain=st.lists(st.integers(-4, 4), min_size=1, max_size=5))
    @example(chain=[0, 3, 1, 4])  # ordinary, reversed, ordinary: mixed signs
    @example(chain=[2, -1, -3])  # two reversed links: sign +1
    @example(chain=[0, 2, 1, 5])  # a b == a - 1 link inside the chain
    @example(chain=[3])  # no links: the single empty tuple
    def test_chain_matches_nested_ext_sum(self, chain):
        bounds = list(zip(chain, chain[1:]))
        flat = sum(sign * _summand(*ls) for sign, ls in ext_terms(bounds))
        nested = _nested_ext_sum(bounds, _summand)
        assert flat == nested
        assert chained_sum(bounds, lambda ls: _summand(*ls)) == nested

    @given(bounds=st.lists(
        st.integers(-4, 4).flatmap(
            lambda a: st.tuples(st.just(a), st.integers(a - 5, a + 4))),
        max_size=4,
    ))
    def test_pairs_match_nested_ext_sum(self, bounds):
        flat = sum(sign * _summand(*ls) for sign, ls in ext_terms(bounds))
        nested = _nested_ext_sum(bounds, _summand)
        assert flat == nested
        assert chained_sum(bounds, lambda ls: _summand(*ls)) == nested

    def test_signed_ranges(self):
        assert list(ext_terms([(0, 1), (3, 0)])) == [
            (-1, (0, 1)), (-1, (0, 2)), (-1, (1, 1)), (-1, (1, 2)),
        ]

    def test_empty_link_never_calls_summand(self):
        calls = []
        bounds = [(0, 3), (5, 0), (2, 1), (0, 2)]
        total = sum(sign * (calls.append(ls) or 1) for sign, ls in ext_terms(bounds))
        assert total == 0
        assert chained_sum(bounds, lambda ls: calls.append(ls) or 1) == 0
        assert not chained_sum_q(bounds, lambda ls: calls.append(ls) or Q)
        assert calls == []


def _nested_q_sum(bounds, f, prefix=()):
    # the q-weighted sum level by level: the level of l_j multiplies by q^l_j
    if not bounds:
        return LaurentPolyQ() + f(*prefix)
    a, b = bounds[0]
    return LaurentPolyQ() + ext_sum(
        lambda l: _nested_q_sum(bounds[1:], f, prefix + (l,)).shift(l), a, b
    )


def _q_summand(*ls):
    # a q-polynomial whose exponents and coefficients depend on the positions
    return LaurentPolyQ({0: 1}) + sum(
        LaurentPolyQ.monomial(j * l - 1, (j + 2) * l + 1) for j, l in enumerate(ls)
    )


def _on_tuple(f):
    # chained_sum_q's summand takes the tuple ls and returns a LaurentPolyQ
    return lambda ls: LaurentPolyQ() + f(*ls)


class TestChainedSumQ:
    @given(chain=st.lists(st.integers(-4, 4), min_size=1, max_size=4))
    @example(chain=[0, 3, 1, 4])  # ordinary, reversed, ordinary: mixed signs
    @example(chain=[2, -1, -3])  # two reversed links
    @example(chain=[0, 2, 1, 5])  # a b == a - 1 link inside the chain
    @example(chain=[3])  # no links: the single empty tuple
    def test_matches_nested_shifted_sums(self, chain):
        bounds = list(zip(chain, chain[1:]))
        for summand in (_summand, _q_summand):
            assert chained_sum_q(bounds, _on_tuple(summand)) == _nested_q_sum(bounds, summand)

    @given(chain=st.lists(st.integers(-4, 4), min_size=1, max_size=4))
    @example(chain=[0, 3, 1, 4])  # ordinary, reversed, ordinary: mixed signs
    @example(chain=[2, -1, -3])  # two reversed links
    @example(chain=[0, 2, 1, 5])  # a b == a - 1 link inside the chain
    @example(chain=[3])  # no links: the single empty tuple
    def test_scalar_terms_are_constant_terms(self, chain):
        bounds = list(zip(chain, chain[1:]))
        for scalar in (lambda ls: _summand(*ls) % 5 - 2,  # zero on some tuples
                       lambda ls: Fraction(_summand(*ls), len(ls) + 2)):
            value = chained_sum_q(bounds, scalar)
            assert value == chained_sum_q(
                bounds, lambda ls: LaurentPolyQ.constant(scalar(ls)))
            assert 0 not in dict(value.terms()).values()

    def test_zero_terms_leave_no_coefficient(self):
        assert chained_sum_q([(0, 3)], lambda ls: 0).terms() == ()
        assert not chained_sum_q([(0, 2)], lambda ls: Fraction(0))
        # the zero term at q^2 adds no coefficient
        assert chained_sum_q([(1, 1), (0, 2)], lambda ls: ls[1] - 1).terms() == (
            (1, -1), (3, 1))
        # -1 + 1 at q^1 cancels
        assert not chained_sum_q([(0, 1), (0, 1)], lambda ls: ls[0] - ls[1])

    @given(chain=st.lists(st.integers(-4, 4), min_size=1, max_size=4))
    @example(chain=[2, -1, -3])
    @example(chain=[0, 2, 1, 5])
    def test_is_a_polynomial_with_the_plain_sum_at_one(self, chain):
        bounds = list(zip(chain, chain[1:]))
        value = chained_sum_q(bounds, _on_tuple(_summand))
        assert isinstance(value, LaurentPolyQ)
        assert value.at_one() == chained_sum(bounds, lambda ls: _summand(*ls))


def _pack(p: LaurentPolyQ, low: int) -> int:
    # q^-low * p at q = 2^PACK_BITS
    return sum(c << PACK_BITS * (e - low) for e, c in p.terms())


_EDGE = 2 ** (PACK_BITS - 1) - 1  # the widest coefficient one digit holds


class TestPackedQ:
    @given(
        terms=st.dictionaries(
            st.integers(-12, 12),
            st.one_of(st.integers(-50, 50), st.sampled_from([_EDGE, -_EDGE])),
            max_size=8,
        ),
        below=st.integers(0, 3),
    )
    @example(terms={-3: -1, 0: 2, 4: -7}, below=0)  # negative exponents
    @example(terms={0: _EDGE, 1: -_EDGE, 2: _EDGE}, below=0)
    @example(terms={-2: -_EDGE, 5: -_EDGE}, below=0)
    @example(terms={1: 5, 2: -3}, below=2)  # the packed value is a multiple of 2^(2B)
    @example(terms={}, below=0)  # the zero polynomial
    def test_unpack_inverts_pack(self, terms, below):
        p = LaurentPolyQ(terms)
        low = (p.min_exp if p else 0) - below
        packed = _pack(p, low)
        if below:
            assert packed % (1 << PACK_BITS * below) == 0
        assert unpack_q(packed, low, PACK_BITS) == p
        assert unpack_q(-packed, low, PACK_BITS) == -p

    def test_cancelled_lowest_term(self):
        # (q^-1 + 3q) + (-q^-1), both packed from q^-1: the sum is divisible
        # by 2^PACK_BITS
        packed = _pack(LaurentPolyQ({-1: 1, 1: 3}), -1) + _pack(LaurentPolyQ({-1: -1}), -1)
        assert packed % (1 << PACK_BITS) == 0
        assert unpack_q(packed, -1, PACK_BITS) == LaurentPolyQ({1: 3})

    @given(chain=st.lists(st.integers(-4, 4), min_size=1, max_size=4))
    @example(chain=[0, 3, 1, 4])  # ordinary, reversed, ordinary: mixed signs
    @example(chain=[2, -1, -3])  # two reversed links
    @example(chain=[0, 2, 1, 5])  # a b == a - 1 link inside the chain
    @example(chain=[3])  # no links: the single empty tuple
    def test_chained_sum_packed_matches_chained_sum_q(self, chain):
        bounds = list(zip(chain, chain[1:]))

        def packed_summand(ls):
            p = LaurentPolyQ() + _q_summand(*ls)
            low = p.min_exp if p else 0
            return _pack(p, low), low, len(ls) + 1

        packed, low, count = chained_sum_packed(bounds, packed_summand, PACK_BITS)
        assert unpack_q(packed, low, PACK_BITS) == chained_sum_q(bounds, _on_tuple(_q_summand))
        # the count is added up unsigned: one per term, whatever the sign
        terms = sum(1 for _ in ext_terms(bounds))
        assert count == terms * len(chain)


def _digit_polys(bits: int):
    # int polynomials whose coefficients are balanced digits at bits
    edge = 2 ** (bits - 1) - 1
    return st.dictionaries(
        st.integers(-12, 12),
        st.one_of(st.integers(-edge, edge), st.sampled_from([edge, -edge])),
        max_size=8,
    ).map(LaurentPolyQ)


class TestPackQ:
    @pytest.mark.parametrize("bits", [8, 64])
    @given(data=st.data())
    def test_unpack_inverts_pack_q(self, bits, data):
        p = data.draw(_digit_polys(bits))
        packed, low, weight = pack_q(p, bits)
        assert unpack_q(packed, low, bits) == p
        assert low == (p.min_exp if p else 0)
        assert packed == sum(c << bits * (e - low) for e, c in p.terms())
        assert weight == sum(abs(c) for _, c in p.terms())

    @pytest.mark.parametrize("bits", [8, 64])
    def test_zero_and_negative_exponents(self, bits):
        assert pack_q(LaurentPolyQ(), bits) == (0, 0, 0)
        assert unpack_q(0, 0, bits) == LaurentPolyQ()
        p = LaurentPolyQ({-3: -1, 0: 2, 4: -7})
        assert pack_q(p, bits)[1:] == (-3, 10)
        assert unpack_q(*pack_q(p, bits)[:2], bits) == p

    @pytest.mark.parametrize("coeff", [Fraction(1, 2), Fraction(2)])
    def test_fraction_coefficient_raises(self, coeff):
        with pytest.raises(TypeError):
            pack_q(LaurentPolyQ({0: 1, 2: coeff}), PACK_BITS)

    def test_differing_polynomials_pack_alike_past_the_width(self):
        # 16 is no digit at 4 bits: at a common low, 16 and q are one int
        sixteen, q = pack_q(LaurentPolyQ({0: 16}), 4), pack_q(LaurentPolyQ({1: 1}), 4)
        assert sixteen == (16, 0, 16) and q == (1, 1, 1)
        assert sixteen[0] == q[0] << 4
        assert pack_q(LaurentPolyQ({0: 16}), 8)[0] != pack_q(LaurentPolyQ({1: 1}), 8)[0] << 8


def _random_bounds(seed: int):
    # chains of up to 4 links over [-6, 6]: ordinary, reversed and empty
    # (b == a - 1) links, negative bounds, and the zero-length chain
    rng = random.Random(seed)
    for _ in range(300):
        bounds = []
        for _ in range(rng.randint(0, 4)):
            a = rng.randint(-6, 6)
            bounds.append((a, rng.choice([a - 1, rng.randint(-6, 6)])))
        yield bounds


class TestChainedCount:
    """The r = 1 closures of the recursion are the chained sums of the
    constant 1 that they replace, value for value."""

    EDGES = [[], [(0, 3)], [(3, 0)], [(2, 1)], [(-4, -1), (-1, -6)],
             [(0, 2), (2, 1), (1, 5)], [(5, -2), (-2, 3), (3, -6), (-6, 0)]]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_chained_sum_of_one(self, seed):
        for bounds in self.EDGES + list(_random_bounds(seed)):
            assert chained_count(bounds) == chained_sum(bounds, lambda ls: 1), bounds
            assert chained_count(iter(bounds)) == chained_count(bounds)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("bits", [8, 64])
    def test_packed_matches_chained_sum_packed_of_one(self, seed, bits):
        for bounds in self.EDGES + list(_random_bounds(seed)):
            expected = chained_sum_packed(bounds, lambda ls: (1, 0, 1), bits)
            assert chained_count_packed(bounds, bits) == expected, bounds
            assert chained_count_packed(iter(bounds), bits) == expected

    def test_zero_length_chain_is_the_base_value(self):
        assert chained_count(()) == 1
        assert chained_count_packed((), PACK_BITS) == (1, 0, 1)

    def test_empty_link_gives_zero(self):
        assert chained_count([(0, 3), (5, 4)]) == 0
        assert chained_count_packed([(0, 3), (5, 4), (4, 0)], 8) == (0, 0, 0)


def _count2_by_sum(bounds):
    # the level r = 2 state as the recursion sums it: chained_count of the
    # links of (0,) + ls + (c,) over the chain, c the last upper end
    c = bounds[-1][1]

    def level_one(ls):
        row = (0,) + ls + (c,)
        return chained_count(zip(row, row[1:]))

    return chained_sum(bounds, level_one)


class TestChainedCount2:
    """The r = 2 closure of the plain recursion is the chained sum of the
    r = 1 products that it replaces, value for value."""

    EDGES = [[(0, 3)], [(3, 0)], [(2, 1)], [(0, -4)], [(-4, -1), (-1, -6)],
             [(0, 2), (2, 1), (1, 5)], [(5, -2), (-2, 3), (3, -6), (-6, 0)],
             [(0, 0), (0, 0)], [(0, -1), (-1, 3)]]

    @staticmethod
    def _chains(seed: int):
        # one to four links: ordinary, reversed and empty ones
        return [bounds for bounds in _random_bounds(seed) if bounds]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_the_summed_level_one(self, seed):
        for bounds in self.EDGES + self._chains(seed):
            assert chained_count2(bounds) == _count2_by_sum(bounds), bounds
            assert chained_count2(iter(bounds)) == chained_count2(bounds)

    def test_one_link_is_a_binomial_sum(self):
        # F(2,2,c;) sums (l+1)(c-l+1) over l in ext[0, c]: binomial(c+3, 3),
        # a polynomial in c, negative c included
        for c in range(-6, 8):
            assert chained_count2([(0, c)]) == (c + 1) * (c + 2) * (c + 3) // 6, c

    def test_planted_faulhaber_off_by_one_fails(self, monkeypatch):
        # S(b) - S(a) in place of S(b+1) - S(a) drops the last term of each link
        real = exact._link_sums
        monkeypatch.setattr(exact, "_link_sums", lambda a, b: real(a, b - 1))
        wrong = [bounds for bounds in self.EDGES + self._chains(0)
                 if chained_count2(bounds) != _count2_by_sum(bounds)]
        assert [(0, 3)] in wrong and [(3, 0)] in wrong


class TestPochhammer:
    def test_basic(self):
        assert pochhammer(3, 2) == 12

    def test_returns_the_int_it_builds(self):
        for a, n in [(3, 2), (17, 0), (-2, 5), (-7, 3), (1, 6)]:
            assert type(pochhammer(a, n)) is int, (a, n)

    def test_empty_product(self):
        assert pochhammer(17, 0) == 1
        assert pochhammer(-4, 0) == 1

    def test_zero_factor(self):
        assert pochhammer(-2, 5) == 0

    @pytest.mark.parametrize("n", range(8))
    def test_factorial(self, n):
        assert pochhammer(1, n) == math.factorial(n)


class TestLaurentPolyQ:
    def test_zero_coefficients_dropped(self):
        p = LaurentPolyQ({0: 1, 2: 0, 5: Fraction(0)})
        assert p.terms() == ((0, 1),)

    def test_addition_cancels(self):
        p = LaurentPolyQ({1: 2, 3: -1})
        q = LaurentPolyQ({1: -2, 2: 5})
        assert (p + q).terms() == ((2, 5), (3, -1))

    def test_scalar_coercion(self):
        assert 1 + Q == LaurentPolyQ({0: 1, 1: 1})
        assert Q - 1 == LaurentPolyQ({0: -1, 1: 1})
        assert 3 * Q == LaurentPolyQ({1: 3})
        assert LaurentPolyQ.constant(5) == 5

    def test_multiplication(self):
        p = 1 + Q
        assert p * p == LaurentPolyQ({0: 1, 1: 2, 2: 1})

    def test_negative_exponents(self):
        p = LaurentPolyQ.monomial(-2, 3)
        assert (p * Q).terms() == ((-1, 3),)
        assert p.shift(2) == LaurentPolyQ.constant(3)

    def test_at_one(self):
        assert LaurentPolyQ({-1: Fraction(1, 2), 4: Fraction(3, 2)}).at_one() == 2

    def test_str_rendering(self):
        assert str(LaurentPolyQ()) == "0"
        assert str(LaurentPolyQ({1: 1, 2: 1})) == "q + q^2"
        assert str(LaurentPolyQ({-1: -1, 0: 2})) == "-q^-1 + 2"
        assert str(LaurentPolyQ({2: Fraction(3, 2)})) == "3/2*q^2"

    def test_hash_consistency(self):
        assert hash(LaurentPolyQ({1: 2})) == hash(LaurentPolyQ({1: Fraction(2)}))

    def test_a_constant_hashes_as_its_scalar(self):
        # a constant equals its scalar, so sets and records that hold either
        # must hash them alike
        for scalar in (1, -7, Fraction(3, 2), 0):
            poly = LaurentPolyQ.constant(scalar)
            assert poly == scalar and hash(poly) == hash(scalar)
        assert poly == LaurentPolyQ() and hash(LaurentPolyQ()) == hash(0)
        assert len({1, LaurentPolyQ.constant(1)}) == 1
        record = CountResult(1, LaurentPolyQ.constant(1))
        assert record == (1, 1) and hash(record) == hash((1, 1))
        assert len({record, (1, 1)}) == 1

    @settings(max_examples=60)
    @given(
        st.dictionaries(st.integers(-4, 4), st.integers(-5, 5), max_size=4),
        st.dictionaries(st.integers(-4, 4), st.integers(-5, 5), max_size=4),
        st.dictionaries(st.integers(-4, 4), st.integers(-5, 5), max_size=4),
    )
    def test_ring_axioms(self, a, b, c):
        pa, pb, pc = LaurentPolyQ(a), LaurentPolyQ(b), LaurentPolyQ(c)
        assert pa + pb == pb + pa
        assert pa * pb == pb * pa
        assert (pa + pb) * pc == pa * pc + pb * pc
        assert (pa * pb) * pc == pa * (pb * pc)


class TestQBracket:
    def test_zero(self):
        assert not q_bracket(0)

    def test_positive(self):
        assert q_bracket(2) == 1 + Q

    def test_negative_one(self):
        # (1 - q^-1)/(1 - q) = -q^-1, confirmed by cross-multiplication:
        # (1 - q^-1) == -q^-1 * (1 - q)
        got = q_bracket(-1)
        assert got == LaurentPolyQ.monomial(-1, -1)
        one_minus_qx = 1 - LaurentPolyQ.monomial(-1)
        assert one_minus_qx == got * (1 - Q)

    @pytest.mark.parametrize("x", range(-10, 11))
    def test_value_at_one(self, x):
        assert q_bracket(x).at_one() == x

    @pytest.mark.parametrize("x", range(-6, 7))
    def test_defining_quotient(self, x):
        # [x;q] (1 - q) == 1 - q^x
        assert q_bracket(x) * (1 - Q) == 1 - LaurentPolyQ.monomial(x)


class TestQPoch:
    def test_simple_product(self):
        assert q_poch(1, 2) == 1 + Q

    def test_empty(self):
        assert q_poch(-7, 0) == 1

    def test_contains_zero_bracket(self):
        assert not q_poch(-1, 3)

    def test_matches_bracket_product(self):
        expected = q_bracket(3) * q_bracket(4) * q_bracket(5)
        assert q_poch(3, 3) == expected


def _bracket_product(pairs):
    # the reference: every bracket multiplied in by the dict-of-terms __mul__
    out = LaurentPolyQ.constant(1)
    for x, n in pairs:
        for i in range(n):
            out = out * q_bracket(x + i)
    return out


class TestQPochProduct:
    @pytest.mark.parametrize("x", range(-8, 9))
    def test_every_small_pair_matches_bracket_product(self, x):
        for n in range(7):
            got = q_poch_product((x, n))
            assert got == _bracket_product([(x, n)]), (x, n)
            assert all(type(c) is int for _, c in got.terms())
            assert q_poch(x, n) == got

    @settings(max_examples=80)
    @given(st.lists(st.tuples(st.integers(-8, 8), st.integers(0, 6)), min_size=1, max_size=4))
    def test_pair_lists_match_bracket_product(self, pairs):
        got = q_poch_product(*pairs)
        assert got == _bracket_product(pairs)
        assert all(type(c) is int for _, c in got.terms())

    def test_no_pairs_is_one(self):
        assert q_poch_product() == 1

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            q_poch_product((3, -1))
        with pytest.raises(ValueError):
            q_poch_product((0, 2), (1, -1))  # even behind a zero bracket
        with pytest.raises(ValueError):
            q_poch(2, -1)

    def test_transcription_slip_fails_division(self):
        # [2][3][4] is not divisible by [5]: a wrong bracket list is caught
        with pytest.raises(NonExactDivision):
            qfrac_exact_div(QFraction(q_poch_product((2, 3)), q_bracket(5)))


_int_poly = st.dictionaries(st.integers(-6, 6), st.integers(-5, 5), max_size=6)


@st.composite
def _bracket_pairs(draw):
    # (x, n) pairs whose brackets [x;q] .. [x+n-1;q] lie in [-6, 8] \ {0}
    pairs = []
    for _ in range(draw(st.integers(0, 3))):
        x = draw(st.sampled_from([x for x in range(-6, 9) if x]))
        pairs.append((x, draw(st.integers(0, min(3, -x if x < 0 else 9 - x)))))
    return pairs


def _outcome(divide):
    try:
        return divide()
    except NonExactDivision:
        return NonExactDivision


class TestQPochQuotient:
    """q_poch_ratio with no numerator brackets: an exact quotient by a product."""

    @settings(max_examples=80)
    @given(p=_int_poly, pairs=_bracket_pairs())
    def test_equals_exact_div_on_products(self, p, pairs):
        num = LaurentPolyQ(p) * q_poch_product(*pairs)
        got = q_poch_ratio(num, (), pairs)
        assert got == num.exact_div(q_poch_product(*pairs)) == LaurentPolyQ(p)
        assert all(type(c) is int for _, c in got.terms())

    def test_raises_exactly_when_exact_div_does(self):
        # theorem_main_q_fraction's quotient is exact on this whole grid, so
        # the slip c - k for 1 + c - k supplies the numerators that are not
        seen = set()
        for n in range(1, 7):
            for c in range(-3, 7):
                for k in range(-3, c + 4):
                    num_pairs, shift, den_pairs = closedforms._theorem_main_q_brackets(n, c, k)
                    den = q_poch_product(*den_pairs)
                    slipped = (num_pairs[0], (c - k, n - 1), *num_pairs[2:])
                    for pairs in (num_pairs, slipped):
                        num = q_poch_product(*pairs).shift(shift)
                        want = _outcome(lambda: num.exact_div(den))
                        assert _outcome(lambda: q_poch_ratio(num, (), den_pairs)) == want
                        ratio = _outcome(lambda: q_poch_ratio(
                            LaurentPolyQ.monomial(shift), pairs, den_pairs))
                        assert ratio == want
                        seen.add(want is NonExactDivision)
        assert seen == {False, True}

    def test_drift_guard(self):
        with pytest.raises(NonExactDivision, match=r"\[5;q\]"):
            q_poch_ratio(q_poch_product((2, 3)), (), [(5, 1)])

    def test_zero_bracket_rejected(self):
        with pytest.raises(ZeroDivisionError):
            q_poch_ratio(Q, (), [(-2, 4)])
        with pytest.raises(ZeroDivisionError):
            q_poch_ratio(LaurentPolyQ(), (), [(0, 1)])

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            q_poch_ratio(q_poch_product((2, 3)), (), [(2, 3), (1, -1)])

    def test_zero_numerator(self):
        assert not q_poch_ratio(LaurentPolyQ(), (), [(2, 3)])

    def test_negative_bracket(self):
        # [-3;q] = -q^-3 [3;q]
        got = q_poch_ratio(q_poch_product((-3, 1), (4, 2)), (), [(-3, 1)])
        assert got == q_poch_product((4, 2))
        assert all(type(c) is int for _, c in got.terms())


_ratio_pair = st.tuples(st.integers(-6, 8), st.sampled_from([-1, 0, 1, 2, 2, 3, 3]))


@st.composite
def _ratio_pairs(draw):
    # numerator and denominator pairs, with [0;q] and negative indices among
    # them; the denominator is independent or part of the numerator reordered
    num = draw(st.lists(_ratio_pair, max_size=4))
    if draw(st.booleans()):
        return num, draw(st.lists(_ratio_pair, max_size=4))
    return num, draw(st.permutations(num))[:draw(st.integers(0, len(num)))]


def _attempt(compute):
    # the value, or the exception's type and message
    try:
        return compute()
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


class TestQPochRatio:
    @settings(max_examples=300)
    @given(case=_ratio_pairs(), s=st.integers(-5, 5))
    @example(case=([(-4, 2), (3, 2)], [(3, 1)]), s=2)  # A > B, negative brackets
    @example(case=([(2, 3)], [(1, 3)]), s=0)  # A = B
    @example(case=([(6, 1)], [(1, 3)]), s=-1)  # A < B: [6;q] / [2;q][3;q]
    @example(case=([(4, 1)], [(1, 2), (2, 1)]), s=0)  # A < B, a remainder
    @example(case=([(-1, 3)], [(2, 1)]), s=3)  # [0;q] above
    @example(case=([(2, 2)], [(0, 1)]), s=0)  # [0;q] below
    @example(case=([(2, 2)], [(5, 1), (3, -1)]), s=0)  # index checked before [5;q]
    @example(case=([(0, 2), (1, -1)], []), s=0)  # index checked behind [0;q]
    def test_matches_quotient_of_product(self, case, s):
        num, den = case
        got = _attempt(lambda: q_poch_ratio(LaurentPolyQ.monomial(s), num, den))
        assert got == _attempt(lambda: q_poch_ratio(q_poch_product(*num).shift(s), (), den))
        if isinstance(got, LaurentPolyQ):
            assert got * q_poch_product(*den) == q_poch_product(*num).shift(s)
            assert all(type(c) is int for _, c in got.terms())


@st.composite
def _unit_lead_divisor(draw):
    # integer Laurent polynomial whose leading coefficient is +1 or -1
    low = draw(st.integers(-4, 4))
    body = draw(st.lists(st.integers(-5, 5), max_size=4))
    lead = draw(st.sampled_from([1, -1]))
    return LaurentPolyQ({low + e: c for e, c in enumerate(body + [lead])})


class TestQFractionAndDivision:
    def test_square_over_base(self):
        p = 1 + Q
        assert qfrac_exact_div(QFraction(p * p, p)) == p

    def test_poch_ratio(self):
        assert qfrac_exact_div(QFraction(q_poch(3, 2), q_bracket(3))) == q_bracket(4)

    def test_monomial_division(self):
        num = Q + Q * Q * Q
        assert qfrac_exact_div(QFraction(num, Q)) == 1 + Q * Q

    def test_non_exact_division_raises(self):
        with pytest.raises(NonExactDivision):
            qfrac_exact_div(QFraction(1 + Q, LaurentPolyQ({0: 1, 2: 1})))

    def test_division_by_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            QFraction(Q, LaurentPolyQ())

    def test_cross_multiplied_equality(self):
        # q/(1+q) == q^2/(q + q^2) without any reduction
        assert QFraction(Q, 1 + Q) == QFraction(Q * Q, Q + Q * Q)
        assert QFraction(Q * (1 + Q), 1 + Q) == Q

    def test_laurent_exact_div_with_negative_exponents(self):
        num = LaurentPolyQ({-3: 1, -1: 1})  # q^-3 (1 + q^2)
        den = LaurentPolyQ({-2: 1})
        assert num.exact_div(den) == LaurentPolyQ({-1: 1, 1: 1})

    @settings(max_examples=80)
    @given(p=_int_poly, d=_unit_lead_divisor())
    @example(p={-3: 2, 1: -1}, d=LaurentPolyQ({-2: 3, 0: -1}))
    def test_unit_lead_quotient_is_exact_and_integer(self, p, d):
        p = LaurentPolyQ(p)
        quotient = (p * d).exact_div(d)
        assert quotient == p
        assert all(type(c) is int for _, c in quotient.terms())

    def test_non_unit_lead_gives_rational_quotient(self):
        assert LaurentPolyQ({0: 1}).exact_div(LaurentPolyQ({0: 2})) == Fraction(1, 2)
        num = LaurentPolyQ({-1: 1, 0: 4, 1: 3})  # (1 + q)(1 + 3q) / q
        quotient = num.exact_div(LaurentPolyQ({0: 2, 1: 6}))
        assert quotient == LaurentPolyQ({-1: Fraction(1, 2), 0: Fraction(1, 2)})

    @settings(max_examples=60)
    @given(p=_int_poly, d=_unit_lead_divisor(), r=st.lists(st.integers(-5, 5), max_size=4))
    def test_remainder_below_divisor_degree_raises(self, p, d, r):
        # r spans fewer than deg d exponents from the lowest exponent of p*d,
        # so d divides p*d + r only if r == 0
        p = LaurentPolyQ(p) or LaurentPolyQ({0: 1})
        ddeg = d.max_exp - d.min_exp
        num = p * d
        r = LaurentPolyQ({num.min_exp + e: c for e, c in enumerate(r[:ddeg])})
        if not r:
            assert (num + r).exact_div(d) == p
        else:
            with pytest.raises(NonExactDivision):
                (num + r).exact_div(d)

    def test_numerator_below_divisor_degree_raises(self):
        with pytest.raises(NonExactDivision, match="remainder of degree 1"):
            LaurentPolyQ({5: 1, 6: 1}).exact_div(q_bracket(4))
        with pytest.raises(NonExactDivision):
            LaurentPolyQ({-2: 3}).exact_div(1 + Q)

    def test_laurent_division_by_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            Q.exact_div(LaurentPolyQ())
