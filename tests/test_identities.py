"""Tests for the operator calculus, identity sweeps and interpolation."""

import itertools
import random
from fractions import Fraction

import pytest

from gtkit import cli, identities
from gtkit.closedforms import theorem_special
from gtkit.counting import TopRowKey, f_recursive, fq_recursive
from gtkit.exact import LaurentPolyQ, NonExactDivision
from gtkit.identities import (
    DegreeExceeded,
    IntFunction,
    apply_D,
    apply_phi,
    apply_phi_q,
    decomp_q_exponent,
    expected_zeros,
    hyper_final_expression,
    hyper_middle_expression,
    interpolate,
    interpolate_f,
    random_int_functions,
    verify_decomp,
    verify_decomp_q,
    verify_extra,
    verify_extra_q,
    verify_hyper,
    verify_lemma_2,
    verify_lemma_2q,
    verify_lemma_fund,
    verify_lemma_fund_q,
    verify_qpoch_sum,
    verify_qvand,
    verify_zeros,
)


class TestArity:
    def test_wrong_arity_raises(self):
        g = IntFunction(2, lambda k1, k2: k1)
        for f, arity in [(g, 2), (apply_D(1, g), 2), (apply_phi(g), 3),
                         (apply_phi_q(g), 3)]:
            for args in [(1,) * (arity - 1), (1,) * (arity + 1)]:
                with pytest.raises(TypeError, match=f"expected {arity} arguments"):
                    f(*args)

    def test_operators_call_the_inner_function_once_per_term(self):
        # the outer call checks the arity; the terms call g.fn unchecked
        checked, calls = [], []

        class Checked(IntFunction):
            def __call__(self, *args):
                checked.append(args)
                return super().__call__(*args)

        g = Checked(2, lambda k1, k2: calls.append((k1, k2)) or k1)
        assert apply_D(1, g)(4, 9) == 4 + 10
        assert apply_phi(g)(0, 1, 2) == 0 + 0 + 1 + 1
        assert len(calls) == 2 + 4 and checked == []


class TestApplyD:
    def test_definition(self):
        g = IntFunction(2, lambda k1, k2: k1)
        assert apply_D(1, g)(4, 9) == 4 + (9 + 1)

    def test_symmetric_function_doubles(self):
        # invariant under (k1, k2) -> (k2+1, k1-1), e.g. k1 + k2
        g = IntFunction(2, lambda k1, k2: k1 + k2)
        for k1, k2 in itertools.product(range(-3, 4), repeat=2):
            assert apply_D(1, g)(k1, k2) == 2 * g(k1, k2)

    def test_antisymmetric_function_vanishes(self):
        # k2 - k1 + 1 flips sign under the swap
        g = IntFunction(2, lambda k1, k2: k2 - k1 + 1)
        for k1, k2 in itertools.product(range(-3, 4), repeat=2):
            assert apply_D(1, g)(k1, k2) == 0

    def test_index_out_of_range(self):
        g = IntFunction(2, lambda k1, k2: k1)
        with pytest.raises(IndexError):
            apply_D(2, g)
        with pytest.raises(IndexError):
            apply_D(0, g)


class TestApplyPhi:
    def test_summing_the_constant_one(self):
        one = IntFunction(1, lambda l: 1)
        phi = apply_phi(one)
        for k1, k2 in itertools.product(range(-4, 5), repeat=2):
            assert phi(k1, k2) == k2 - k1 + 1

    def test_reproduces_the_recursion(self):
        for r, n, c in [(1, 2, 2), (2, 3, 2), (2, 4, 1), (3, 4, 2)]:
            g = IntFunction(
                n - r + 1, lambda *ls: f_recursive(TopRowKey(r - 1, n, c, ls))
            )
            phi = apply_phi(g)
            for ks in itertools.product(range(-1, c + 2), repeat=n - r):
                assert phi(0, *ks, c) == f_recursive(TopRowKey(r, n, c, ks)), ks

    def test_q_version_is_a_polynomial_on_an_empty_link(self):
        phi = apply_phi_q(IntFunction(1, lambda l: l))
        value = phi(3, 2)  # the link l in [3, 2] is empty
        assert isinstance(value, LaurentPolyQ)
        assert value.terms() == ()
        assert phi(2, 3).terms() == ((2, 2), (3, 3))

    def test_q_version_reproduces_the_recursion(self):
        for r, n, c in [(1, 2, 2), (2, 3, 2), (2, 4, 1)]:
            g = IntFunction(
                n - r + 1, lambda *ls: fq_recursive(TopRowKey(r - 1, n, c, ls))
            )
            phi = apply_phi_q(g)
            for ks in itertools.product(range(-1, c + 2), repeat=n - r):
                assert phi(0, *ks, c) == fq_recursive(TopRowKey(r, n, c, ks)), ks


class TestRandomIntFunctions:
    def test_values_depend_only_on_seed_and_point(self):
        points = list(itertools.product(range(-6, 7), repeat=2))
        first = list(random_int_functions(3, 2, seed=11))
        again = list(random_int_functions(3, 2, seed=11))
        # read the second construction last function first, last point first
        backward = {(j, pt): again[j](*pt) for j in (2, 1, 0) for pt in reversed(points)}
        for j, g in enumerate(first):
            assert [g(*pt) for pt in points] == [backward[j, pt] for pt in points]
        other = next(random_int_functions(1, 2, seed=12))
        assert [other(*pt) for pt in points] != [first[0](*pt) for pt in points]

    def test_box_and_bound(self):
        for arity, box, bound in ((1, 5, 5), (2, 2, 1), (3, 1, 3)):
            g = next(random_int_functions(1, arity, seed=arity, box=box, value_bound=bound))
            for pt in itertools.product(range(-box - 2, box + 3), repeat=arity):
                value = g(*pt)
                if max(map(abs, pt)) > box:
                    assert value == 0, pt
                else:
                    assert -bound <= value <= bound, pt

    def test_every_value_appears(self):
        g = next(random_int_functions(1, 3, seed=5))
        values = {g(*pt) for pt in itertools.product(range(-3, 4), repeat=3)}
        assert values == set(range(-5, 6))


class TestLemmaFund:
    def test_zero_function(self):
        zero = IntFunction(2, lambda *l: 0)
        for i in (1, 2):
            assert verify_lemma_fund(2, i, zero, (0, 1, -1))
            assert verify_lemma_fund_q(2, i, zero, (0, 1, -1))

    def test_random_sweep(self):
        rng = random.Random(20240117)
        for idx in range(60):
            m = idx % 3 + 1
            g = next(random_int_functions(1, m, rng.randrange(2**32)))
            sample = tuple(rng.randint(-3, 3) for _ in range(m + 1))
            for i in range(1, m + 1):
                assert verify_lemma_fund(m, i, g, sample), (m, i, sample)
                assert verify_lemma_fund_q(m, i, g, sample), (m, i, sample)

    def test_arity_checked(self):
        g = IntFunction(2, lambda *l: 0)
        with pytest.raises(ValueError):
            verify_lemma_fund(3, 1, g, (0, 0, 0, 0))

    def test_terms_skip_the_arity_check(self, monkeypatch):
        # only the left side's one outer call goes through IntFunction.__call__
        calls = []
        real = IntFunction.__call__

        def counted(self, *args):
            calls.append(args)
            return real(self, *args)

        monkeypatch.setattr(IntFunction, "__call__", counted)
        g = next(random_int_functions(1, 3, 7))
        for verify in (verify_lemma_fund, verify_lemma_fund_q):
            for i in (1, 2, 3):
                calls.clear()
                assert verify(3, i, g, (-1, 0, 2, 3))
                assert calls == [(-1, 0, 2, 3)], (verify, i)


class TestLemma2:
    def test_four_term_hand_sum(self):
        # (r,d,x,y) = (2,0,0,1): both sides equal 2
        assert verify_lemma_2(2, 0, 0, 1)
        lhs = sum(
            (yp - xp + 1) ** 2 for xp in range(0, 2) for yp in range(-1, 1)
        )
        assert lhs == 2

    def test_vanishing_factor(self):
        # y - x = -1 makes (y-x+1) vanish
        assert verify_lemma_2(2, 1, 3, 2)
        assert verify_lemma_2q(2, 1, 3, 2)

    def test_sweep(self):
        for r in (2, 3):
            for d in range(-2, 3):
                for x in range(-3, 4):
                    for y in range(-3, 4):
                        assert verify_lemma_2(r, d, x, y), (r, d, x, y)

    def test_q_hand_case(self):
        # worked by hand: both sides reduce to 2(1+q) at (2,0,0,1)
        assert verify_lemma_2q(2, 0, 0, 1)

    def test_q_sweep_small(self):
        for r in (2, 3):
            for d in (-1, 0, 2):
                for x in range(-2, 3):
                    for y in range(-2, 3):
                        assert verify_lemma_2q(r, d, x, y), (r, d, x, y)

    def test_r_below_two_rejected(self):
        with pytest.raises(ValueError):
            verify_lemma_2(1, 0, 0, 0)


class TestDecomp:
    def test_hand_case(self):
        # D_1 F(1,3,2;.)(0,0) = 3 - 8 = -5 and the right side matches
        assert verify_decomp(1, 3, 2, 1, (0, 0))

    def test_r_zero_trivial(self):
        assert verify_decomp(0, 2, 3, 1, (0, 1))
        assert verify_decomp_q(0, 2, 3, 1, (0, 1))

    @pytest.mark.parametrize("r,n", [(1, 3), (1, 4), (2, 4)])
    def test_sweep(self, r, n):
        for ks in itertools.product(range(-2, 5), repeat=n - r):
            for i in range(1, n - r):
                assert verify_decomp(r, n, 2, i, ks), (i, ks)

    def test_q_sweep(self):
        for ks in itertools.product(range(-1, 4), repeat=2):
            assert verify_decomp_q(1, 3, 2, 1, ks), ks

    def test_q_exponent_is_integer(self):
        for r in range(1, 4):
            for n in range(r + 2, r + 6):
                for i in range(1, n - r):
                    assert isinstance(decomp_q_exponent(r, n, i), int)

    def test_index_range_enforced(self):
        with pytest.raises(ValueError):
            verify_decomp(1, 3, 2, 2, (0, 0))


LEMMA2_SWEEP = [(r, d, x, y) for r in cli.LEMMA2_RS for d in range(-2, 3)
                for x in range(-3, 4) for y in range(-3, 4)]
DECOMP_SWEEP = [(r, n, 2, i, ks) for r, n in cli.DECOMP_RN
                for ks in itertools.product(range(-2, 5), repeat=n - r) for i in range(1, n - r)]


class InsertCounting(dict):
    def __init__(self):
        super().__init__()
        self.inserts = 0

    def __setitem__(self, key, value):
        self.inserts += 1
        super().__setitem__(key, value)


def _summand_keys(memo: dict) -> list:
    # decomp's memo also holds the recursion's states, keyed by (r, n, c, ks)
    return [key for key in memo if len(key) == 2]


class TestSummandTables:
    """Each of lemma 2's and decomp's checks keeps its summands in a memo of
    its own, keyed by (r, difference)."""

    @pytest.mark.parametrize("check,sweep", [
        (verify_lemma_2, LEMMA2_SWEEP), (verify_lemma_2q, LEMMA2_SWEEP),
        (verify_decomp, DECOMP_SWEEP), (verify_decomp_q, DECOMP_SWEEP)])
    def test_shared_memo_gives_the_fresh_verdicts(self, check, sweep):
        memo = InsertCounting()
        for inst in sweep:
            assert check(*inst, memo=memo) == check(*inst, memo={}) == check(*inst), inst
        assert len(memo) == memo.inserts
        assert len(_summand_keys(memo)) == 26

    @pytest.mark.parametrize("check,inst,wrong", [
        (verify_lemma_2, (2, 0, 0, 1), lambda v: v + 1),
        (verify_lemma_2, (3, 1, -2, 3), lambda v: v + 1),
        (verify_lemma_2q, (2, 0, 0, 1), lambda v: v.shift(1)),
        (verify_lemma_2q, (3, 1, -2, 3), lambda v: v.shift(1)),
        (verify_decomp, (1, 3, 2, 1, (0, 0)), lambda v: v + 1),
        (verify_decomp, (2, 4, 2, 1, (1, 3)), lambda v: v + 1),
        (verify_decomp_q, (1, 3, 2, 1, (0, 0)), lambda v: (v[0].shift(1), v[1])),
        (verify_decomp_q, (2, 4, 2, 1, (1, 3)), lambda v: (v[0].shift(1), v[1])),
    ])
    def test_a_wrong_term_in_the_table_fails(self, check, inst, wrong):
        memo: dict = {}
        assert check(*inst, memo=memo)
        planted = 0
        for key in _summand_keys(memo):
            value = memo[key]
            if wrong(value) == value:
                continue  # a zero q-term is unchanged by the shift
            memo[key] = wrong(value)
            assert not check(*inst, memo=memo), key
            memo[key] = value
            planted += 1
        assert planted and check(*inst, memo=memo)

    @pytest.mark.parametrize("suite,builders", [
        ("lemma2", ("_lemma2_term", "_lemma2q_term")),
        ("decomp", ("_decomp_factor", "_decomp_q_factor"))])
    def test_suite_builds_each_term_once(self, suite, builders, monkeypatch, capsys):
        # 26 distinct (r, difference) among 4,410 lemma 2 terms and 784 decomp
        # instances, per check
        built = {name: 0 for name in builders}
        for name in builders:
            def counted(r, diff, name=name, real=getattr(identities, name)):
                built[name] += 1
                return real(r, diff)

            monkeypatch.setattr(identities, name, counted)
        assert cli.main(["verify", "--suite", suite]) == cli.EXIT_OK
        capsys.readouterr()
        assert built == {name: 26 for name in builders}

    def test_no_module_level_table(self):
        dicts = {name for name, value in vars(identities).items()
                 if isinstance(value, dict) and not name.startswith("__")}
        assert dicts == set()


class TestHyper:
    def test_small_case(self):
        # 3 + 4 + 3 = binom(5,3)
        assert verify_hyper(2, 2)
        assert hyper_middle_expression(2, 2) == 10

    def test_m1_reduces_to_count(self):
        for c in range(7):
            assert verify_hyper(1, c)
            assert hyper_middle_expression(1, c) == c + 1

    def test_sweep(self):
        for m in range(1, 5):
            for c in range(7):
                assert verify_hyper(m, c), (m, c)

    def test_final_expression_discrepancy(self):
        # the displayed final form disagrees with the verified binomial form
        assert hyper_final_expression(2, 2) == 6
        assert hyper_middle_expression(2, 2) == 10


class TestQVandermonde:
    def test_m1(self):
        for c in range(6):
            assert verify_qvand(1, c)

    def test_sweep(self):
        for m in range(1, 4):
            for c in range(6):
                assert verify_qvand(m, c), (m, c)


class TestQPochSum:
    def test_hand_expansion(self):
        # n=1, y=2: q + q^2 + q^3 on both sides
        assert verify_qpoch_sum(1, 2)

    def test_empty_and_negative_ranges(self):
        for n in range(4):
            for y in range(-3, 6):
                assert verify_qpoch_sum(n, y), (n, y)


def _at(poly, k):
    # the value of a polynomial in k, held as a LaurentPolyQ, at k
    return sum(c * Fraction(k) ** e for e, c in poly.terms())


class TestPolyUni:
    """Univariate polynomials in k: interpolate, and exact division by
    linear factors."""

    def test_interpolate_line(self):
        p = interpolate([0, 1], [3, 5])
        assert p == LaurentPolyQ({0: 3, 1: 2})
        assert _at(p, 10) == 23

    def test_interpolate_quadratic(self):
        p = interpolate([0, 1, 2], [1, 0, 1])  # (x-1)^2
        assert p == LaurentPolyQ({0: 1, 1: -2, 2: 1})

    def test_divide_linear(self):
        p = LaurentPolyQ({0: 2, 1: -3, 2: 1})  # (x-1)(x-2)
        q = p.exact_div(LaurentPolyQ({0: -1, 1: 1}))
        assert q == LaurentPolyQ({0: -2, 1: 1})
        assert q.exact_div(LaurentPolyQ({0: -2, 1: 1})) == 1
        with pytest.raises(NonExactDivision):
            p.exact_div(LaurentPolyQ({0: -3, 1: 1}))  # remainder p(3) = 2

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ValueError):
            interpolate([0, 0], [1, 2])

    def test_mismatched_or_empty_nodes_rejected(self):
        with pytest.raises(ValueError):
            interpolate([0, 1], [1])
        with pytest.raises(ValueError):
            interpolate([], [])


class TestInterpolateF:
    def test_n1_constant_one(self):
        p = interpolate_f(1, 3)
        assert p == LaurentPolyQ.constant(1)

    def test_n2_matches_closed_form_coefficientwise(self):
        # (1+k)(3-k) = 3 + 2k - k^2
        p = interpolate_f(2, 2)
        assert p == LaurentPolyQ({0: 3, 1: 2, 2: -1})

    @pytest.mark.parametrize(
        "n,c", [(n, c) for n in range(1, 5) for c in range(5)]
    )
    def test_matches_theorem_special_as_polynomial(self, n, c):
        # agreement at more than 2n-1 points of two polynomials of degree at
        # most 2n-2 is a coefficient-wise identity
        p = interpolate_f(n, c)
        assert p.min_exp >= 0 and p.max_exp <= 2 * n - 2
        for k in range(-n - 2, c + n + 3):
            assert _at(p, k) == theorem_special(n, c, k), (n, c, k)

    def test_n3_zero_set(self):
        p = interpolate_f(3, 2)
        assert p.max_exp <= 4
        for k in (-1, -2, 3, 4):
            assert _at(p, k) == 0

    def test_degree_witness_mechanism(self):
        # values of k^5 interpolated at 0..4 disagree with the true value at
        # 5, and interpolated at 0..5 they show their degree, 5
        nodes = list(range(5))
        p = interpolate(nodes, [k**5 for k in nodes])
        assert p.max_exp == 4
        assert _at(p, 5) != 5**5
        nodes.append(5)
        assert interpolate(nodes, [k**5 for k in nodes]) == LaurentPolyQ({5: 1})

    def test_degree_exceeded_signal(self, monkeypatch):
        # corrupt one out-of-window count: the witness check must fire
        import gtkit.identities as ident

        real = ident.f_bruteforce

        def corrupted(key):
            value = real(key)
            return value + 1 if key.ks == (4,) else value

        monkeypatch.setattr(ident, "f_bruteforce", corrupted)
        with pytest.raises(DegreeExceeded, match="n=2, c=1.*above the bound 2"):
            interpolate_f(2, 1)


class TestVerifyZeros:
    def test_expected_zero_list(self):
        assert expected_zeros(3, 2) == [-1, -2, 3, 4]

    @pytest.mark.parametrize("n,c", [(2, 2), (3, 2), (4, 1)])
    def test_holds(self, n, c):
        assert verify_zeros(n, c)

    def test_stream_is_empty_at_zeros(self):
        from gtkit.counting import enumerate_patterns

        for k in expected_zeros(3, 2):
            assert list(enumerate_patterns(TopRowKey(2, 3, 2, (k,)))) == []

    @staticmethod
    def _watch_division(monkeypatch):
        # record every exact_div call's outcome: a quotient or the error
        outcomes = []
        real = LaurentPolyQ.exact_div

        def watched(self, den):
            try:
                outcomes.append(real(self, den))
            except NonExactDivision as exc:
                outcomes.append(exc)
                raise
            return outcomes[-1]

        monkeypatch.setattr(LaurentPolyQ, "exact_div", watched)
        return outcomes

    def test_planted_wrong_zero_fails_the_division(self, monkeypatch):
        # move the zero c+n-1 to c+n, where patterns exist; with the
        # empty-set check taken out, the division alone must reject it
        import gtkit.identities as ident

        n, c = 3, 2
        real = ident.expected_zeros
        monkeypatch.setattr(ident, "expected_zeros",
                            lambda n, c: real(n, c)[:-1] + [c + n])
        monkeypatch.setattr(ident, "enumerate_patterns", lambda key: iter(()))
        outcomes = self._watch_division(monkeypatch)
        assert not verify_zeros(n, c)
        assert len(outcomes) == 1
        assert isinstance(outcomes[0], NonExactDivision)

    def test_dropped_zero_leaves_a_linear_quotient(self, monkeypatch):
        import gtkit.identities as ident

        n, c = 3, 2
        real = ident.expected_zeros
        monkeypatch.setattr(ident, "expected_zeros", lambda n, c: real(n, c)[1:])
        outcomes = self._watch_division(monkeypatch)
        assert not verify_zeros(n, c)
        assert len(outcomes) == 1
        assert outcomes[0].min_exp == 0 and outcomes[0].max_exp == 1


class TestVerifyExtra:
    def test_n2_reduces_to_counting(self):
        for c in range(5):
            assert verify_extra(2, c)

    def test_n3(self):
        # 10 = 3 + 4 + 3
        assert verify_extra(3, 2)
        assert f_recursive(TopRowKey(2, 3, 2, (2,))) == 10

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_q_version(self, n):
        for c in range(4):
            assert verify_extra_q(n, c), (n, c)


class TestQuotientIndependence:
    @pytest.mark.parametrize(
        "n,c", [(n, c) for n in range(1, 5) for c in range(5)]
    )
    def test_count_over_linear_factors_is_constant(self, n, c):
        from gtkit.exact import pochhammer

        p = interpolate_f(n, c)
        quotients = set()
        for k in range(-n - 2, c + n + 3):
            den = pochhammer(1 + k, n - 1) * pochhammer(1 + c - k, n - 1)
            if den != 0:
                quotients.add(_at(p, k) / den)
        assert len(quotients) == 1
