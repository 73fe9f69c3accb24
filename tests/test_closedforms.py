"""Tests for the closed-form product evaluators against enumeration oracles."""

import itertools
from fractions import Fraction

import pytest

from gtkit import closedforms
from gtkit.closedforms import (
    asm_product,
    bender_knuth_count,
    bender_knuth_gf,
    intro_binomial,
    refined_asm,
    ssyt_product,
    theorem_main_q,
    theorem_main_q_fraction,
    theorem_special,
    tsspp_product,
)
from gtkit.counting import (
    TopRowKey,
    f_bruteforce,
    fq_bruteforce,
    spp_generating_function,
)
from gtkit.exact import LaurentPolyQ, NonExactDivision, q_poch, q_poch_product
from gtkit.tableaux import ssyt_bruteforce


def _main_q_by_mul(n, c, k):
    # theorem_main_q_fraction's formula assembled factor by factor with *
    num = LaurentPolyQ.monomial(k * n) * q_poch(k + 1, n - 1) * q_poch(1 + c - k, n - 1)
    den = q_poch(1, n - 1)
    for i in range(1, n):
        num = num * q_poch(c + i + 1, i - 1)
        den = den * q_poch(i, i)
    return num, den


def _bender_knuth_by_mul(n, c):
    num = den = LaurentPolyQ.constant(1)
    for i in range(1, n + 1):
        num = num * q_poch(c + i, i)
        den = den * q_poch(i, i)
    return num, den


class TestBracketListsMatchFormulas:
    """Each closed form's bracket list builds the same numerator and
    denominator as its formula multiplied out factor by factor."""

    def test_theorem_main_q_fraction(self):
        for n in range(1, 8):
            for c in range(-2, 7):
                for k in range(-2, c + 3):
                    frac = theorem_main_q_fraction(n, c, k)
                    assert (frac.num, frac.den) == _main_q_by_mul(n, c, k), (n, c, k)

    def test_bender_knuth_gf(self):
        for n in range(1, 8):
            for c in range(-2, 7):
                num_pairs, shift, den_pairs = closedforms._bender_knuth_brackets(n, c)
                got = (q_poch_product(*num_pairs).shift(shift), q_poch_product(*den_pairs))
                assert got == _bender_knuth_by_mul(n, c), (n, c)


def _bracket_count(pairs):
    return sum(m for _, m in pairs)


def test_closed_forms_have_as_many_brackets_above_as_below():
    # so q_poch_ratio makes no (1 - q) pass on them; a slip here would only
    # be slower
    for n in range(1, 10):
        for c in range(-3, 8):
            num_pairs, _, den_pairs = closedforms._bender_knuth_brackets(n, c)
            assert _bracket_count(num_pairs) == _bracket_count(den_pairs), (n, c)
            for k in range(-3, c + 4):
                num_pairs, _, den_pairs = closedforms._theorem_main_q_brackets(n, c, k)
                assert _bracket_count(num_pairs) == _bracket_count(den_pairs), (n, c, k)


def _brackets(pairs):
    # every x of the brackets [x;q] in the products [x0;q]_m over the pairs
    return [x for x0, m in pairs for x in range(x0, x0 + m)]


class TestDegreesFromBrackets:
    """The quotient's span and lowest exponent read off the description:
    [x;q] spans |x| - 1 exponents, and for x < 0 starts at q^x."""

    @staticmethod
    def _check(result, num_pairs, shift, den_pairs):
        num, den = _brackets(num_pairs), _brackets(den_pairs)
        assert all(x > 0 for x in den)
        span = sum(abs(x) - 1 for x in num) - sum(x - 1 for x in den)
        assert result.max_exp - result.min_exp == span
        assert result.min_exp == shift + sum(x for x in num if x < 0)

    def test_theorem_main_q(self):
        for n in range(1, 8):
            for c in range(7):
                for k in range(c + 1):
                    self._check(theorem_main_q(n, c, k),
                                *closedforms._theorem_main_q_brackets(n, c, k))

    def test_bender_knuth_gf(self):
        for n in range(1, 8):
            for c in range(7):
                self._check(bender_knuth_gf(n, c), *closedforms._bender_knuth_brackets(n, c))

    def test_planted_slip_raises(self, monkeypatch):
        # c - k in place of 1 + c - k in the description
        written = closedforms._theorem_main_q_brackets

        def slipped(n, c, k):
            num_pairs, shift, den_pairs = written(n, c, k)
            return (num_pairs[0], (c - k, n - 1), *num_pairs[2:]), shift, den_pairs

        monkeypatch.setattr(closedforms, "_theorem_main_q_brackets", slipped)
        grid = [(n, c, k) for n in range(1, 8) for c in range(7) for k in range(c + 1)]
        with pytest.raises(NonExactDivision):
            for n, c, k in grid:
                theorem_main_q(n, c, k)
        # the plain count reads the same description, so the slip shows there too
        assert any(theorem_special(n, c, k) != f_bruteforce(TopRowKey(n - 1, n, c, (k,)))
                   for n, c, k in grid if n <= 4)


class TestTheoremSpecial:
    def test_base_case_n1(self):
        for c in range(4):
            for k in range(-2, c + 3):
                assert theorem_special(1, c, k) == 1

    def test_small_values(self):
        assert theorem_special(2, 2, 1) == 4
        assert theorem_special(3, 2, 0) == 10

    def test_plain_closed_forms_are_fractions(self):
        # one evaluator, exact.pochhammer's quotient, for every Pochhammer form
        for value in (theorem_special(3, 2, 1), bender_knuth_count(3, 2), intro_binomial(0, 5),
                      refined_asm(4, 2), asm_product(1)):
            assert type(value) is Fraction, value

    def test_matches_bruteforce(self):
        for n in range(1, 5):
            for c in range(4):
                for k in range(-n, c + n + 1):
                    assert theorem_special(n, c, k) == f_bruteforce(
                        TopRowKey(n - 1, n, c, (k,))
                    ), (n, c, k)


class TestTheoremMainQ:
    def test_hand_oracle(self):
        # strict plane partitions {(2), (2/1)} with norms 2 and 3
        assert theorem_main_q(2, 1, 1) == LaurentPolyQ({2: 1, 3: 1})

    def test_n1_is_a_monomial(self):
        for c in range(3):
            for k in range(-1, c + 2):
                assert theorem_main_q(1, c, k) == LaurentPolyQ.monomial(k)

    def test_q_at_one_specializes(self):
        for n in range(1, 5):
            for c in range(5):
                for k in range(-n, c + n + 1):
                    assert theorem_main_q(n, c, k).at_one() == theorem_special(n, c, k)

    def test_equals_generating_function_of_fq(self):
        # the closed form carries the extra factor q^k relative to the
        # normalized engine quantity
        for n in range(1, 4):
            for c in range(3):
                for k in range(c + 1):
                    fq = fq_bruteforce(TopRowKey(n - 1, n, c, (k,)))
                    assert theorem_main_q(n, c, k) == fq.shift(k), (n, c, k)

    def test_coefficients_are_ints(self):
        for n, c, k in [(2, 1, 1), (4, 3, 2), (5, 4, 0), (6, 3, 5), (7, 6, 3)]:
            assert all(type(coeff) is int for _, coeff in theorem_main_q(n, c, k).terms())

    def test_cross_multiplied_outside_admissible_range(self):
        for n in range(1, 4):
            for c in range(3):
                for k in range(-2, c + 3):
                    frac = theorem_main_q_fraction(n, c, k)
                    fq = fq_bruteforce(TopRowKey(n - 1, n, c, (k,)))
                    assert frac.num == fq.shift(k) * frac.den, (n, c, k)


class TestBenderKnuth:
    def test_count_small(self):
        assert bender_knuth_count(2, 2) == 10
        assert bender_knuth_count(3, 1) == 8

    def test_count_empty_bound(self):
        for n in range(1, 5):
            assert bender_knuth_count(n, 0) == 1

    def test_gf_single_row(self):
        for c in range(5):
            assert bender_knuth_gf(1, c) == LaurentPolyQ(dict.fromkeys(range(c + 1), 1))

    def test_gf_matches_enumeration(self):
        for n in range(1, 4):
            for c in range(4):
                assert bender_knuth_gf(n, c) == spp_generating_function(n, c)

    def test_gf_specializes_to_count(self):
        for n in range(1, 5):
            for c in range(5):
                assert bender_knuth_gf(n, c).at_one() == bender_knuth_count(n, c)

    def test_gf_coefficients_are_nonnegative_integers(self):
        for n in range(1, 5):
            for c in range(5):
                for _, coeff in bender_knuth_gf(n, c).terms():
                    assert type(coeff) is int
                    assert coeff > 0

    def test_refined_sums(self):
        for n in range(1, 5):
            for c in range(5):
                plain = sum(theorem_special(n, c, k) for k in range(c + 1))
                assert plain == bender_knuth_count(n, c)
                gf = LaurentPolyQ()
                for k in range(c + 1):
                    gf = gf + theorem_main_q(n, c, k)
                assert gf == bender_knuth_gf(n, c)


class TestSsytProduct:
    def test_single_box(self):
        assert ssyt_product((1,), 2) == 2

    def test_hook_shape(self):
        assert ssyt_product((2, 1), 3) == 8

    def test_single_row_single_entry(self):
        for c in range(6):
            assert ssyt_product((c,), 1) == 1

    def test_matches_bruteforce(self):
        shapes = set()
        for rows in range(5):
            shapes.update(
                itertools.combinations_with_replacement(range(4, 0, -1), rows)
            )
        for shape in sorted(shapes):
            for k in range(max(1, len(shape)), 5):
                assert ssyt_product(shape, k) == ssyt_bruteforce(shape, k), (shape, k)


class TestRefinedAsm:
    def test_trivial(self):
        assert refined_asm(1, 1) == 1

    def test_order_three(self):
        assert refined_asm(3, 1) == 2
        assert refined_asm(3, 2) == 3

    def test_known_rows(self):
        assert [refined_asm(4, k) for k in range(1, 5)] == [7, 14, 14, 7]
        assert sum(refined_asm(5, k) for k in range(1, 6)) == 429


class TestAsmProduct:
    def test_known_totals(self):
        assert [asm_product(n) for n in range(1, 7)] == [1, 2, 7, 42, 429, 7436]

    @pytest.mark.parametrize("n", [1, 4, 7, 8])
    def test_sum_of_refined_counts(self, n):
        assert asm_product(n) == sum(refined_asm(n, k) for k in range(1, n + 1))

    def test_rejects_nonpositive_order(self):
        with pytest.raises(ValueError):
            asm_product(0)


class TestTsspp:
    def test_small_boxes(self):
        assert tsspp_product(2) == 2
        assert tsspp_product(3) == 5

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_integrality(self, n):
        value = tsspp_product(n)
        assert value.denominator == 1 and value > 0

    def test_ratio_chain_at_n3(self):
        assert tsspp_product(3) == Fraction(10, 2) == Fraction(15, 3)


class TestIntroBinomial:
    def test_positive(self):
        assert intro_binomial(2, 2) == 6

    def test_at_zero(self):
        for r in range(6):
            assert intro_binomial(r, 0) == 1

    def test_negative_argument(self):
        assert intro_binomial(2, -3) == 1

