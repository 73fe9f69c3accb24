"""Tests for the operator calculus, identity sweeps and the zeros check."""

import __future__
import ast
import functools
import inspect
import itertools
import json
import math
import random
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from gtkit import cli, counting, exact, identities
from gtkit.closedforms import theorem_special
from gtkit.counting import (
    TopRowKey, enumerate_patterns, f_bruteforce, f_recursive, fq_recursive, level,
)
from gtkit.exact import (
    PACK_BITS, LaurentPolyQ, NonExactDivision, chained_sum, chained_sum_q, pack_q, pochhammer,
    q_bracket, q_poch, q_poch_ratio, unpack_q, widened,
)
from gtkit.identities import (
    IntFunction,
    apply_D,
    apply_phi,
    apply_phi_q,
    decomp_q_exponent,
    expected_zeros,
    fund_generic_point,
    hyper_final_expression,
    hyper_middle_expression,
    verify_decomp,
    verify_decomp_q,
    verify_extra,
    verify_extra_q,
    verify_hyper,
    verify_lemma_2,
    verify_lemma_2q,
    verify_lemma_fund,
    verify_lemma_fund_all,
    verify_lemma_fund_q,
    verify_qpoch_sum,
    verify_qvand,
    verify_zeros,
)


class TestArity:
    def test_wrong_arity_raises(self):
        g = IntFunction(2, lambda k: k[0])
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

        g = Checked(2, lambda k: calls.append(k) or k[0])
        assert apply_D(1, g)(4, 9) == 4 + 10
        assert apply_phi(g)(0, 1, 2) == 0 + 0 + 1 + 1
        assert len(calls) == 2 + 4 and checked == []


class TestApplyD:
    def test_definition(self):
        g = IntFunction(2, lambda k: k[0])
        assert apply_D(1, g)(4, 9) == 4 + (9 + 1)

    def test_symmetric_function_doubles(self):
        # invariant under (k1, k2) -> (k2+1, k1-1), e.g. k1 + k2
        g = IntFunction(2, lambda k: k[0] + k[1])
        for k1, k2 in itertools.product(range(-3, 4), repeat=2):
            assert apply_D(1, g)(k1, k2) == 2 * g(k1, k2)

    def test_antisymmetric_function_vanishes(self):
        # k2 - k1 + 1 flips sign under the swap
        g = IntFunction(2, lambda k: k[1] - k[0] + 1)
        for k1, k2 in itertools.product(range(-3, 4), repeat=2):
            assert apply_D(1, g)(k1, k2) == 0

    def test_index_out_of_range(self):
        g = IntFunction(2, lambda k: k[0])
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
                n - r + 1, lambda ls: f_recursive(TopRowKey(r - 1, n, c, ls))
            )
            phi = apply_phi(g)
            for ks in itertools.product(range(-1, c + 2), repeat=n - r):
                assert phi(0, *ks, c) == f_recursive(TopRowKey(r, n, c, ks)), ks

    def test_q_version_is_a_polynomial_on_an_empty_link(self):
        phi = apply_phi_q(IntFunction(1, lambda l: l[0]))
        value = phi(3, 2)  # the link l in [3, 2] is empty
        assert isinstance(value, LaurentPolyQ)
        assert value.terms() == ()
        assert phi(2, 3).terms() == ((2, 2), (3, 3))

    def test_q_version_reproduces_the_recursion(self):
        for r, n, c in [(1, 2, 2), (2, 3, 2), (2, 4, 1)]:
            g = IntFunction(
                n - r + 1, lambda ls: fq_recursive(TopRowKey(r - 1, n, c, ls))
            )
            phi = apply_phi_q(g)
            for ks in itertools.product(range(-1, c + 2), repeat=n - r):
                assert phi(0, *ks, c) == fq_recursive(TopRowKey(r, n, c, ks)), ks


class TestLemmaFund:
    def test_zero_function(self):
        zero = IntFunction(2, lambda *l: 0)
        for i in (1, 2):
            assert verify_lemma_fund(2, i, zero, (0, 1, -1))
            assert verify_lemma_fund_q(2, i, zero, (0, 1, -1))

    def test_random_sweep(self, random_function):
        rng = random.Random(20240117)
        for idx in range(60):
            m = idx % 3 + 1
            g = random_function(m, rng.randrange(2**32))
            sample = tuple(rng.randint(-3, 3) for _ in range(m + 1))
            for i in range(1, m + 1):
                assert verify_lemma_fund(m, i, g, sample), (m, i, sample)
                assert verify_lemma_fund_q(m, i, g, sample), (m, i, sample)

    def test_arity_checked(self):
        g = IntFunction(2, lambda *l: 0)
        with pytest.raises(ValueError):
            verify_lemma_fund(3, 1, g, (0, 0, 0, 0))

    def test_terms_skip_the_arity_check(self, monkeypatch, random_function):
        # only the left side's one outer call goes through IntFunction.__call__
        calls = []
        real = IntFunction.__call__

        def counted(self, *args):
            calls.append(args)
            return real(self, *args)

        monkeypatch.setattr(IntFunction, "__call__", counted)
        g = random_function(3, 7)
        for verify in (verify_lemma_fund, verify_lemma_fund_q):
            for i in (1, 2, 3):
                calls.clear()
                assert verify(3, i, g, (-1, 0, 2, 3))
                assert calls == [(-1, 0, 2, 3)], (verify, i)

    def test_an_off_by_one_bound_fails_both_verdicts(self, monkeypatch, capsys,
                                                     random_function):
        _assert_slip_fails_the_fund_verdict(monkeypatch, capsys, random_function,
                                            "_fund_rhs_bounds", _off_by_one_bounds)

    def test_an_unshifted_swapped_box_fails_both_verdicts(self, monkeypatch, capsys,
                                                          random_function):
        _assert_slip_fails_the_fund_verdict(monkeypatch, capsys, random_function,
                                            "_swapped_box", _unshifted_box)

    def test_every_function_check_is_the_pointwise_definition(self, monkeypatch):
        # every sample in [-2,2]^(m+1), m <= 3: the corner weights vanish
        # exactly when the signed count of every point does, with the real
        # boxes and with an off-by-one bound, so reversed ranges expand right
        instances = [(m, i, sample) for m in (1, 2, 3)
                     for sample in itertools.product(range(-2, 3), repeat=m + 1)
                     for i in range(1, m + 1)]
        assert len(instances) == 2150
        assert all(verify_lemma_fund_all(*inst) and _pointwise_fund_all(*inst)
                   for inst in instances)
        monkeypatch.setattr(identities, "_fund_rhs_bounds", _off_by_one_bounds)
        verdicts = [verify_lemma_fund_all(*inst) for inst in instances]
        assert verdicts == [_pointwise_fund_all(*inst) for inst in instances]
        assert not all(verdicts)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_generic_point_separates_every_corner(self, m):
        # each corner coordinate is a sample entry plus an offset, read off at
        # entries 1000 apart; the offsets spread less than the generic point's
        # spacing, so there two corners coincide only if they name the same
        # entries and offsets, and so coincide at every sample
        point = fund_generic_point(m)
        assert point == tuple(range(0, 4 * m + 1, 4))
        wide = tuple(range(0, 1000 * m + 1, 1000))
        offsets = set()
        for i in range(1, m + 1):
            names = {}
            for far, near in zip(_fund_corners(m, i, wide), _fund_corners(m, i, point)):
                name = tuple(divmod(v + 500, 1000) for v in far)
                offsets |= {offset - 500 for _, offset in name}
                assert near == tuple(point[t] + offset - 500 for t, offset in name)
                names[name] = near
            assert len(set(names.values())) == len(names), (m, i)
        assert offsets <= set(range(-1, 3))  # as fund_generic_point's docstring says
        assert max(offsets) - min(offsets) < point[1] - point[0]

    def test_a_planted_slip_fails_at_the_generic_point_exactly_when_at_some_sample(
            self, monkeypatch):
        # each slip changes the bounds of one term that some (m, i) reads;
        # the generic point fails it exactly when some sample in [-3,3]^(m+1)
        # does, for the 80 slips that change the term's signed boxes and the
        # 20 that do not
        real, read = identities._fund_rhs_bounds, set()

        def recording(m, i, k, first_term):
            read.add((m, i, first_term))
            return real(m, i, k, first_term)

        monkeypatch.setattr(identities, "_fund_rhs_bounds", recording)
        assert all(verify_lemma_fund_all(m, i, fund_generic_point(m))
                   for m in (1, 2, 3) for i in range(1, m + 1))
        assert len(read) == 6  # 2 terms at m = 2 and 4 at m = 3
        verdicts = []
        for term in sorted(read):
            m, i, first_term = term
            for slip in _fund_slips(m, i, first_term):
                def slipped(*args):
                    bounds = real(*args)
                    return slip(bounds) if args[:2] + args[3:] == term else bounds

                monkeypatch.setattr(identities, "_fund_rhs_bounds", slipped)
                generic = verify_lemma_fund_all(m, i, fund_generic_point(m))
                samples = itertools.product(range(-3, 4), repeat=m + 1)
                assert generic == all(verify_lemma_fund_all(m, i, k) for k in samples), term
                verdicts.append(generic)
        assert (verdicts.count(False), verdicts.count(True)) == (80, 20)

    def test_every_function_check_refuses_a_bad_instance(self):
        for m, i, sample in ((2, 0, (0, 0, 0)), (2, 3, (0, 0, 0)), (2, 1, (0, 0))):
            with pytest.raises(ValueError):
                verify_lemma_fund_all(m, i, sample)

    @pytest.mark.parametrize("m", [2, 3])
    def test_fraction_and_polynomial_values(self, m, monkeypatch):
        # the plain sums and the one-map q compare take the values chained_sum
        # and chained_sum_q take: a Fraction, and q^{l_1} (l_2 + 1)
        functions = [IntFunction(m, lambda l: Fraction(l[0] - 2 * l[-1] ** 2, 3)),
                     IntFunction(m, lambda l: LaurentPolyQ({l[0]: l[1] + 1}))]
        rng = random.Random(m)
        samples = [tuple(rng.randint(-2, 2) for _ in range(m + 1)) for _ in range(6)]
        instances = [(g, i, sample) for g in functions for i in range(1, m + 1)
                     for sample in samples]
        for verify in (verify_lemma_fund, verify_lemma_fund_q):
            assert all(verify(m, i, g, sample) for g, i, sample in instances), verify
        # and the compare is not vacuous: without the swap's shift, each
        # function fails somewhere on both weights
        monkeypatch.setattr(identities, "_swapped_box", _unshifted_box)
        for verify in (verify_lemma_fund, verify_lemma_fund_q):
            for g in functions:
                assert not all(verify(m, i, g, sample) for i in range(1, m + 1)
                               for sample in samples), (verify, g)


def _unshifted_box(bounds, j):
    # identities._swapped_box with a slip: links j and j+1 trade ranges
    # without the +1 and -1
    return bounds[: j - 1] + [bounds[j], bounds[j - 1]] + bounds[j + 1 :]


_REAL_FUND_RHS_BOUNDS = identities._fund_rhs_bounds


def _off_by_one_bounds(m, i, k, first_term):
    # identities._fund_rhs_bounds with a slip: l_i runs one past k_{i+1}
    bounds = _REAL_FUND_RHS_BOUNDS(m, i, k, first_term)
    lo, hi = bounds[i - 1]
    bounds[i - 1] = (lo, hi + 1)
    return bounds


def _fund_slips(m, i, first_term):
    # slips of one term's bounds: one end moved by 1, one or two links
    # reversed, (a, b) -> (b + 1, a - 1), and the box replaced by its swapped
    # image.  A reversed link negates its extended sum, so a reversed pair
    # and the image, whose image is the box, leave the signed boxes as they are
    def moved(link, end, delta):
        def slip(bounds):
            ends = list(bounds[link])
            ends[end] += delta
            return bounds[:link] + [tuple(ends)] + bounds[link + 1 :]
        return slip

    def reversed_links(links):
        return lambda bounds: [(b + 1, a - 1) if j in links else (a, b)
                               for j, (a, b) in enumerate(bounds)]

    slips = [moved(link, end, delta) for link in range(m)
             for end in (0, 1) for delta in (-1, 1)]
    slips += [reversed_links(links) for size in (1, 2)
              for links in itertools.combinations(range(m), size)]
    j = i - 1 if first_term else i
    return slips + [lambda bounds: identities._swapped_box(bounds, j)]


def _fund_corners(m, i, sample):
    # the corners verify_lemma_fund_all weighs, term by term: those of the
    # boxes, then those of the chains of sample and of its D_i swap
    boxes = identities._fund_boxes(m, i, sample)
    boxes += [list(zip(k, k[1:])) for k in (sample, identities._swap(sample, i))]
    return [corner for box in boxes
            for corner in itertools.product(*[(a, b + 1) for a, b in box])]


def _pointwise_fund_all(m, i, sample):
    # verify_lemma_fund_all by its definition: each box's points through
    # exact._signed_ranges, each adding weight times the box's sign
    weights = {}
    terms = [(2, list(zip(k, k[1:]))) for k in (sample, identities._swap(sample, i))]
    terms += [(1, box) for box in identities._fund_boxes(m, i, sample)]
    for weight, box in terms:
        sign, ranges = exact._signed_ranges(box)
        for pt in itertools.product(*ranges):
            weights[pt] = weights.get(pt, 0) + weight * sign
    return not any(weights.values())


def _assert_slip_fails_the_fund_verdict(monkeypatch, capsys, random_function, name, slip):
    # verify --suite fund with identities.<name> replaced by slip fails its
    # one verdict; the counterexample (m, i, sample) replays the failure and
    # passes again with the real helper, and there some seeded function fails
    # both value-level checks, so a corner failure is a failure of both weights
    real = getattr(identities, name)
    monkeypatch.setattr(identities, name, slip)
    assert cli.main(["verify", "--suite", "fund"]) == cli.EXIT_VERIFICATION_FAILED
    (verdict,) = json.loads(capsys.readouterr().out)["verdicts"]
    assert not verdict["pass"]
    m, i, sample = ast.literal_eval(verdict["counterexample"])
    assert not verify_lemma_fund_all(m, i, sample)
    assert any(not verify_lemma_fund(m, i, g, sample) and not verify_lemma_fund_q(m, i, g, sample)
               for g in (random_function(m, seed) for seed in range(5)))
    monkeypatch.setattr(identities, name, real)
    assert verify_lemma_fund_all(m, i, sample)


def _parent_lemma_2(r, d, x, y, memo):
    # lemma 2 as it was checked before: the right side as a Fraction, the
    # summands P_{r-1} read from the check's table
    def term(ls):
        xp, yp = ls
        return identities._tabled(memo, (r - 1, yp - xp), identities._product)

    lhs = chained_sum([(x + d, y + d), (x - 1 + d, y - 1 + d)], term)
    rhs = Fraction(2, r * (2 * r - 1)) * pochhammer(y - x - r + 2, 2 * r - 1) * (y - x + 1)
    return lhs == rhs


def _packed_lemma2q_term(r, diff):
    return pack_q(identities._product_q(r, diff), PACK_BITS)


def _shifted(value):
    # a table entry times q: a LaurentPolyQ, or a triple packed at PACK_BITS
    if isinstance(value, LaurentPolyQ):
        return value.shift(1)
    return (value[0] << PACK_BITS,) + value[1:]


def _parent_lemma_2q(r, d, x, y, memo):
    # lemma 2 q as it was checked before: cross-multiplied per instance, each
    # summand unpacked from the table and shifted
    def term(ls):
        xp, yp = ls
        packed, low, _ = identities._tabled(memo, (r - 1, yp - xp), _packed_lemma2q_term)
        return unpack_q(packed, low, PACK_BITS).shift((2 * r - 2) * xp)

    lhs = chained_sum_q([(x + d, y + d), (x - 1 + d, y - 1 + d)], term)
    rhs_num = (
        2 * q_poch(y - x - r + 2, 2 * r - 1) * q_bracket(y - x + 1) * LaurentPolyQ({0: 1, r: 1})
    ).shift(2 * r * x + 2 * d * r + r - 2)
    return lhs * q_bracket(2 * r - 1) * q_bracket(2 * r) == rhs_num


def _slipped_pairs(r, d):
    # identities._product_pairs with a slip: [d+2;q] for [d+1;q]
    return (d - r + 2, 2 * r - 1), (d + 2, 1)


class TestProduct:
    """P_r(d) = (1+q^r) [d-r+2;q]_{2r-1} [d+1;q], written once as bracket
    pairs, is what lemma 2 and the decomposition read on both weights."""

    def test_plain_weight_is_the_q_weight_at_one(self):
        for r in range(1, 6):
            for d in range(-8, 9):
                plain = identities._product(r, d)
                assert plain == identities._product_q(r, d).at_one(), (r, d)
                assert plain == 2 * pochhammer(d - r + 2, 2 * r - 1) * (d + 1), (r, d)

    @pytest.mark.parametrize("suite,checks", [
        ("lemma2", {"double-sum evaluation (plain)": verify_lemma_2,
                    "double-sum evaluation (q)": verify_lemma_2q}),
        ("decomp", {"swap-operator factorization (plain)": verify_decomp,
                    "swap-operator factorization (q)": verify_decomp_q})])
    def test_a_slip_in_the_pairs_fails_every_verdict(self, suite, checks, monkeypatch, capsys):
        # one slipped bracket fails both checks of the suite, plain and q;
        # each counterexample replays: False with the slip, True without
        monkeypatch.setattr(identities, "_product_pairs", _slipped_pairs)
        assert cli.main(["verify", "--suite", suite]) == cli.EXIT_VERIFICATION_FAILED
        verdicts = json.loads(capsys.readouterr().out)["verdicts"]
        assert [v["identity"] for v in verdicts] == list(checks)
        assert not any(v["pass"] for v in verdicts)
        replays = [(checks[v["identity"]], ast.literal_eval(v["counterexample"]))
                   for v in verdicts]
        assert not any(check(*inst) for check, inst in replays)
        monkeypatch.undo()
        assert all(check(*inst) for check, inst in replays)


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

    def test_q_left_side_is_one_packed_sum(self, monkeypatch):
        # the left side is one packed sum over the box, unpacked once, and
        # only the right side is shifted, where shifting every x' partial
        # sum made one shift per x' and shifting every summand one per
        # (x', y') term
        shifts, sums, unpacked = [], [], []
        real = LaurentPolyQ.shift

        def counted(self, exponent):
            shifts.append(exponent)
            return real(self, exponent)

        def summed(bounds, summand, bits, real=identities.chained_sum_packed):
            sums.append(bounds)
            return real(bounds, summand, bits)

        def unpack(*args, real=identities.unpack_q):
            unpacked.append(args)
            return real(*args)

        monkeypatch.setattr(LaurentPolyQ, "shift", counted)
        monkeypatch.setattr(identities, "chained_sum_packed", summed)
        monkeypatch.setattr(identities, "unpack_q", unpack)
        monkeypatch.setattr(identities, "chained_sum_q", None)
        memo: dict = {}
        for r, d, x, y in LEMMA2_SWEEP:
            for log in (shifts, sums, unpacked):
                log.clear()
            assert verify_lemma_2q(r, d, x, y, memo=memo)
            assert shifts == [2 * r * x + 2 * d * r + r - 2], (r, d, x, y)
            assert sums == [[(x + d, y + d), (x - 1 + d, y - 1 + d)]], (r, d, x, y)
            assert len(unpacked) == 1 and unpacked[0][2] == PACK_BITS, (r, d, x, y)

    @pytest.mark.parametrize("check,parent,wrong", [
        (verify_lemma_2, _parent_lemma_2, lambda v: v + 1),
        (verify_lemma_2q, _parent_lemma_2q, _shifted)])
    def test_verdicts_match_the_parent_forms(self, check, parent, wrong):
        memo: dict = {}
        for inst in LEMMA2_SWEEP:
            assert check(*inst, memo=memo) and parent(*inst, memo), inst
        keys = _summand_keys(memo)
        planted_any = False
        for key in keys[::5]:
            if wrong(memo[key]) == memo[key]:
                continue  # a zero q-term is unchanged by the shift
            planted = dict(memo)
            planted[key] = wrong(memo[key])
            verdicts = [check(*inst, memo=planted) for inst in LEMMA2_SWEEP]
            assert verdicts == [parent(*inst, planted) for inst in LEMMA2_SWEEP], key
            assert not all(verdicts), key
            planted_any = True
        assert planted_any


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

    @pytest.mark.parametrize("check", [verify_decomp, verify_decomp_q])
    @pytest.mark.parametrize("ks", [(0,), (0, 0, 0)])
    def test_top_row_length_enforced(self, check, ks):
        # the counts are table reads, so the check itself refuses a top row
        # that is not n - r entries long
        with pytest.raises(ValueError, match="2 entries"):
            check(1, 3, 2, 1, ks)


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


#: The instances the lemma2 and decomp suites check: the nodes of
#: lemma2_nodes at each r, and of the simplex of degree D_r(n) at each (r, n).
LEMMA2_NODES = [(r, *node) for r in cli.LEMMA2_RS for node in identities.lemma2_nodes(r)]
DECOMP_NODES = [(r, n, v[0], i, v[1:]) for r, n in cli.DECOMP_RN
                for v in identities.simplex_nodes(1 + n - r, identities.degree_bound(r, n))
                for i in range(1, n - r)]


def _lemma2_summands(instances) -> set:
    # the (r-1, y'-x') that lemma 2's boxes read; every box here is proper
    return {(r - 1, yp - xp) for r, d, x, y in instances
            for xp in range(x + d, y + d + 1) for yp in range(x - 1 + d, y + d)}


def _lemma2_right_sides(instances) -> set:
    return {(r, y - x) for r, d, x, y in instances}


def _decomp_factors(instances) -> set:
    # the (r, k_{i+1}-k_i) of decomp's products
    return {(r, ks[i] - ks[i - 1]) for r, n, c, i, ks in instances}


def _decomp_tops(instances) -> set:
    # the distinct counts (r, n, c, ks) that decomp's instances read
    return {top for r, n, c, i, ks in instances
            for top in ((r, n, c, ks), (r, n, c, identities._swap(ks, i)),
                        (r, n - 2, c + 2, identities._decomp_rhs_args(ks, i)))}


#: The 660 distinct counts (r, n, c, ks) that DECOMP_SWEEP's instances read.
DECOMP_TOPS = _decomp_tops(DECOMP_SWEEP)


def _summand_keys(memo: dict) -> list:
    # decomp's memo also holds the recursion's level tables, keyed by (r, n, c)
    return [key for key in memo if len(key) == 2]


def _level_states(memo: dict) -> dict:
    # the states of a check memo's level tables, as {(r, n, c, ks): value}
    return {(*key, ks): value for key, table in memo.items()
            if isinstance(table, counting._Level) for ks, value in table.items()}


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
        (verify_lemma_2q, (2, 0, 0, 1), _shifted),
        (verify_lemma_2q, (3, 1, -2, 3), _shifted),
        (verify_decomp, (1, 3, 2, 1, (0, 0)), lambda v: v + 1),
        (verify_decomp, (2, 4, 2, 1, (1, 3)), lambda v: v + 1),
        # the packed factor times q, [1;q]_{2r} kept
        (verify_decomp_q, (1, 3, 2, 1, (0, 0)), lambda v: (_shifted(v[0]), v[1])),
        (verify_decomp_q, (2, 4, 2, 1, (1, 3)), lambda v: (_shifted(v[0]), v[1])),
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
        ("lemma2", (("_product", len(_lemma2_summands(LEMMA2_NODES))
                     + len(_lemma2_right_sides(LEMMA2_NODES))),
                    ("_product_q", len(_lemma2_summands(LEMMA2_NODES))))),
        ("decomp", (("_product", len(_decomp_factors(DECOMP_NODES))),
                    ("_product_q", len(_decomp_factors(DECOMP_NODES)))))])
    def test_suite_builds_each_term_once(self, suite, builders, monkeypatch, capsys):
        # each distinct (r, difference) among the terms of lemma 2's nodes
        # and among decomp's nodes is built once per check, 22 and 24 of
        # them; the plain lemma 2 check also builds one right side
        # 2 P_r(y-x) per node, 12 (the q check's are _lemma2q_rhs)
        assert (len(_lemma2_summands(LEMMA2_NODES)), len(_lemma2_right_sides(LEMMA2_NODES)),
                len(_decomp_factors(DECOMP_NODES))) == (22, 12, 24)
        builders = dict(builders)
        built = {name: 0 for name in builders}
        for name in builders:
            def counted(r, diff, name=name, real=getattr(identities, name)):
                built[name] += 1
                return real(r, diff)

            monkeypatch.setattr(identities, name, counted)
        assert cli.main(["verify", "--suite", suite]) == cli.EXIT_OK
        capsys.readouterr()
        assert built == builders

    def test_decomp_suite_reads_each_top_count_once(self, monkeypatch, capsys):
        # the q check reads 840 counts F_q of 362 distinct top rows of
        # decomp's nodes from the recursion's level tables: each state is
        # computed and stored once, every top row among them, and none is
        # unpacked
        stored, unpacked, memos, tables = [], [], {}, {}

        def missing(table, ks, real=counting._Level.__missing__):
            tables[id(table)] = table  # kept alive, so that no id is reused
            stored.append((id(table), ks))
            return real(table, ks)

        def reading(memo, *args, real=identities.level):
            if len(args) == 4:  # r, n, c and bits: a q read
                memos[id(memo)] = memo
            return real(memo, *args)

        def counted(*args, real=counting.unpack_q):
            unpacked.append(args)
            return real(*args)

        monkeypatch.setattr(counting._Level, "__missing__", missing)
        monkeypatch.setattr(identities, "level", reading)
        monkeypatch.setattr(counting, "unpack_q", counted)
        monkeypatch.setattr(identities, "unpack_q", counted)
        assert cli.main(["verify", "--suite", "decomp"]) == cli.EXIT_OK
        capsys.readouterr()
        (memo,) = memos.values()
        tops = _decomp_tops(DECOMP_NODES)
        assert len(stored) == len(set(stored)) > len(tops) == 362
        assert tops <= _level_states(memo).keys() and unpacked == []

    def test_decomp_q_tables_counts_apart_from_states(self):
        memo: dict = {}
        for inst in DECOMP_SWEEP:
            assert verify_decomp_q(*inst, memo=memo), inst
        # the counts are the states of the recursion's level tables, under
        # (r, n, c), each F_q packed at PACK_BITS with its pattern count;
        # the products sit apart under (r, k_{i+1}-k_i), and no count has an
        # entry of its own
        assert sorted({len(key) for key in memo}) == [2, 3]
        states = _level_states(memo)
        assert len(DECOMP_TOPS) == 660 and DECOMP_TOPS <= states.keys()
        for key in DECOMP_TOPS:
            packed, low, patterns = states[key]
            assert unpack_q(packed, low, PACK_BITS) == fq_recursive(TopRowKey(*key)), key
            assert states[key] == level({}, *key[:3], PACK_BITS)[key[3]], key
            assert patterns == sum(1 for _ in enumerate_patterns(TopRowKey(*key))), key

    @pytest.mark.parametrize("suite", ["decomp", "extra"])
    def test_suite_builds_no_key_and_enters_no_engine(self, suite, monkeypatch, capsys):
        # every count is a read of a level table: no TopRowKey is built and
        # no f_recursive or fq_recursive is called
        entries = []

        def new(cls, *args, real=TopRowKey.__new__):
            entries.append("TopRowKey")
            return real(cls, *args)

        monkeypatch.setattr(TopRowKey, "__new__", new)
        for name in ("f_recursive", "fq_recursive"):
            def entry(*args, name=name, real=getattr(counting, name)):
                entries.append(name)
                return real(*args)

            monkeypatch.setattr(counting, name, entry)
        assert cli.main(["verify", "--suite", suite]) == cli.EXIT_OK
        capsys.readouterr()
        assert entries == []
        # the counters see an engine entry
        counting.fq_recursive(TopRowKey(1, 2, 1, (0,)))
        assert entries == ["TopRowKey", "fq_recursive"]

    @pytest.mark.parametrize("check", [verify_lemma_2, verify_lemma_2q])
    def test_lemma2_tables_its_summands_alone(self, check):
        # each right side is read once per instance, so it is built, not tabled
        memo = InsertCounting()
        for inst in LEMMA2_SWEEP:
            assert check(*inst, memo=memo), inst
        assert len(_summand_keys(memo)) == len(memo) == memo.inserts == 26

    def test_an_inexact_right_side_fails_without_a_traceback(self, monkeypatch, capsys):
        def without_one_plus_q_r(r, diff):
            num = 2 * q_poch(diff - r + 2, 2 * r - 1) * q_bracket(diff + 1)
            return q_poch_ratio(num, (), [(2 * r - 1, 2)])

        monkeypatch.setattr(identities, "_lemma2q_rhs", without_one_plus_q_r)
        with pytest.raises(NonExactDivision):
            without_one_plus_q_r(2, 1)  # [4;q] = (1+q)(1+q^2) does not divide
        assert not verify_lemma_2q(2, 0, 0, 1)
        assert not verify_lemma_2q(2, 0, 0, 1, memo={})
        assert cli.main(["verify", "--suite", "lemma2"]) == cli.EXIT_VERIFICATION_FAILED
        captured = capsys.readouterr()
        plain, q = json.loads(captured.out)["verdicts"]
        assert plain["pass"] and not q["pass"] and q["counterexample"]
        assert "Traceback" not in captured.err

    def test_lemma2_suite_multiplies_at_most_110_times(self, monkeypatch, capsys):
        # 22 summands and 12 right sides at the nodes, at most two products
        # each; 2,502 when every instance of the dense box cross-multiplied
        calls = 0
        real = LaurentPolyQ.__mul__

        def counted(self, other):
            nonlocal calls
            calls += 1
            return real(self, other)

        monkeypatch.setattr(LaurentPolyQ, "__mul__", counted)
        monkeypatch.setattr(LaurentPolyQ, "__rmul__", counted)  # 2 * poly
        assert cli.main(["verify", "--suite", "lemma2"]) == cli.EXIT_OK
        capsys.readouterr()
        assert calls <= 110

    def test_no_module_level_table(self):
        dicts = {name for name, value in vars(identities).items()
                 if isinstance(value, dict) and not name.startswith("__")}
        assert dicts == set()


GOLDEN = Path(__file__).resolve().parent / "data" / "verify_all_seed42.json"


class TestCheckedWidth:
    """The packed q checks never trust a width they have not checked."""

    def test_an_overflow_pair_differs_by_widening(self, monkeypatch):
        # 16 and q pack alike at 4 bits, but the weight 16 is no 4-bit digit:
        # decomp's compare widens to 8 bits, where they differ
        monkeypatch.setattr(exact, "PACK_BITS", 4)
        widths = []

        def sides(first, second):
            def packed_at(_memo, bits):
                # both at the common low 0, under the larger weight
                widths.append(bits)
                (a, a_low, a_w), (b, b_low, b_w) = pack_q(first, bits), pack_q(second, bits)
                return a << bits * a_low, b << bits * b_low, max(a_w, b_w)

            return packed_at

        sixteen, q = LaurentPolyQ({0: 16}), LaurentPolyQ({1: 1})
        assert sides(sixteen, q)({}, 4)[:2] == (16, 16)
        widths.clear()
        assert widened(sides(sixteen, q), {})[:3] == (8, 16, 256)
        assert widths == [4, 8]
        both = LaurentPolyQ({0: 16, 1: -1})
        bits, left, right, _ = widened(sides(both, both), {})
        assert left == right and bits == 8

    def test_decomp_weight_is_the_larger_side_bound(self, monkeypatch):
        # each instance's weight is the larger product of weights: the two
        # F_q pattern counts added, times [1;q]_{2r}'s sum of |coefficient|,
        # or the factor's times the smaller F_q's pattern count
        weights, widths = [], []

        def recording(packed_at, memo, real=widened):
            weights.append(packed_at(memo, PACK_BITS)[-1])
            found = real(packed_at, memo)
            widths.append(found[0])
            return found

        monkeypatch.setattr(identities, "widened", recording)
        memo: dict = {}
        for inst in DECOMP_SWEEP:
            assert verify_decomp_q(*inst, memo=memo), inst
        patterns: dict = {}

        def count(*key):
            if key not in patterns:
                patterns[key] = sum(1 for _ in enumerate_patterns(TopRowKey(*key)))
            return patterns[key]

        def weight(poly):
            return sum(abs(c) for _, c in poly.terms())

        expected = []
        for r, n, c, i, ks in DECOMP_SWEEP:
            factor, den = identities._product_q(r, ks[i] - ks[i - 1]), q_poch(1, 2 * r)
            left = (count(r, n, c, ks) + count(r, n, c, identities._swap(ks, i))) * weight(den)
            right = weight(factor) * count(r, n - 2, c + 2, identities._decomp_rhs_args(ks, i))
            expected.append(max(left, right))
        assert weights == expected and set(widths) == {PACK_BITS}
        # a weight planted on a factor's entry lifts the right side's
        # product above the left's: the compare widens, from fresh entries
        r, n, c, i, ks = inst = DECOMP_SWEEP[0]
        key = (r, ks[i] - ks[i - 1])
        (x, x_low, _), den = memo[key]
        memo[key] = ((x, x_low, 2 ** 70), den)
        weights.clear()
        widths.clear()
        assert verify_decomp_q(*inst, memo=memo)
        assert weights == [2 ** 70 * count(r, n - 2, c + 2, identities._decomp_rhs_args(ks, i))]
        assert widths == [2 * PACK_BITS]

    @pytest.mark.parametrize("check,sweep", [(verify_lemma_2q, LEMMA2_SWEEP),
                                             (verify_decomp_q, DECOMP_SWEEP)],
                             ids=["lemma2", "decomp"])
    def test_memoless_verdicts_equal_the_memo_ones_at_8_bits(self, check, sweep, monkeypatch):
        # without memo= each call packs from a fresh table; some sides
        # widen, and every verdict is the one a shared memo gives
        monkeypatch.setattr(exact, "PACK_BITS", 8)
        widths = []

        def recording(packed_at, memo, real=widened):
            found = real(packed_at, memo)
            widths.append(found[0])
            return found

        monkeypatch.setattr(identities, "widened", recording)
        memo: dict = {}
        verdicts = [check(*inst, memo=memo) for inst in sweep]
        assert all(verdicts) and max(widths) > 8
        widths.clear()
        assert [check(*inst) for inst in sweep] == verdicts
        assert len(widths) == len(sweep) and max(widths) > 8

    @pytest.mark.parametrize("suite,tabled", [
        ("lemma2", len(_lemma2_summands(LEMMA2_NODES))),
        ("decomp", 2 * len(_decomp_factors(DECOMP_NODES)))])
    def test_suite_verdicts_hold_at_8_bits(self, suite, tabled, monkeypatch, capsys):
        # at 8 bits the tables are packed once, the summands, or the factors
        # and their [1;q]_{2r}; some sides outgrow a digit and are packed
        # again wider, and every verdict is the golden report's
        monkeypatch.setattr(exact, "PACK_BITS", 8)
        widths = []

        def packing(poly, bits, real=identities.pack_q):
            widths.append(bits)
            return real(poly, bits)

        monkeypatch.setattr(identities, "pack_q", packing)
        assert cli.main(["verify", "--suite", suite, "--seed", "42"]) == cli.EXIT_OK
        verdicts = json.loads(capsys.readouterr().out)["verdicts"]
        golden = json.loads(GOLDEN.read_text())["verdicts"]
        assert verdicts == [v for v in golden if v["suite"] == suite] and len(verdicts) == 2
        assert widths.count(8) == tabled
        assert sum(bits > 8 for bits in widths) > 0


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

    def test_final_expression_is_an_exact_fraction(self):
        # its quotient is built as a Fraction, never as a float
        value = hyper_final_expression(2, 2)
        assert type(value) is Fraction and value == Fraction(6)
        assert type(hyper_final_expression(3, 1)) is Fraction


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


# Each single sum's two sides, built from the formulas as the paper writes
# them, apart from the checks' code; [x;q] is the extended sum of q^j over
# j in [0, x-1], so -(q^x + ... + q^-1) for x < 0.
def _ext_sum(f, a, b):
    if b >= a - 1:
        return sum((f(i) for i in range(a, b + 1)), LaurentPolyQ())
    return -sum((f(i) for i in range(b + 1, a)), LaurentPolyQ())


def _poch(x, n):
    value = LaurentPolyQ.constant(1)
    for j in range(n):
        value = value * _ext_sum(LaurentPolyQ.monomial, 0, x + j - 1)
    return value


def _hyper_sides(m, c):
    # integers, as constants; the right side's (1)_{m-1}^2 is ((m-1)!)^2
    rising = lambda a, n: math.prod(range(a, a + n))
    lhs = sum(rising(1 + k, m - 1) * rising(1 + c - k, m - 1) for k in range(c + 1))
    rhs = math.factorial(m - 1) ** 2 * math.comb(c + 2 * m - 1, 2 * m - 1)
    return LaurentPolyQ.constant(lhs), LaurentPolyQ.constant(rhs)


def _qvand_sides(m, c):
    # the right side times [1;q]_{2m-1}, a constant in c
    lhs = _ext_sum(lambda k: (_poch(k + 1, m - 1) * _poch(k - c - m + 1, m - 1)).shift(k), 0, c)
    rhs = (-1) ** (m - 1) * _poch(1, m - 1) * _poch(1, m - 1) * _poch(c + 1, 2 * m - 1)
    return lhs, rhs.shift((1 - m) * (2 * c + m) // 2)


def _qpoch_sides(n, y):
    # the right side times [n+1;q], a constant in y
    return _ext_sum(lambda x: _poch(x, n).shift(x), 1, y), _poch(y, n + 1).shift(1)


def _annihilated(values, roots):
    # values at consecutive parameters after each factor (E - q^j), j in
    # roots, E the shift of the parameter by one; at j = 0, a difference
    for j in roots:
        values = [b - a.shift(j) for a, b in zip(values, values[1:])]
    return values


#: identity: (check, its nodes, its sides, the roots j of its span's
#: annihilator prod (E - q^j) at m or n, the dense parameters at m or n)
SINGLE_SUMS = {
    "hyper": (verify_hyper, identities.vandermonde_nodes, _hyper_sides,
              lambda m: [0] * (2 * m), lambda m: range(4 * m + 4)),
    "qvand": (verify_qvand, identities.vandermonde_nodes, _qvand_sides,
              lambda m: list(range(1 - m, m + 1)), lambda m: range(4 * m + 4)),
    "qpoch": (verify_qpoch_sum, identities.qpoch_nodes, _qpoch_sides,
              lambda n: list(range(n + 2)), lambda n: range(-8, 9)),
}

#: the m (hyper, qvand) or n (qpoch) of the tests
FIXED = {"hyper": range(1, 6), "qvand": range(1, 6), "qpoch": range(6)}


def _vanishing(x, roots):
    # the product of (x - root) over the roots: 0 exactly at them
    return math.prod(x - root for root in roots)


def _slips(name, m):
    # slips in the primitives each check reads at m (or n), each keeping
    # both sides in the span: a shifted bracket index, a wrong q exponent, a
    # wrong Pochhammer length, a shifted sum bound, and a term on the left
    # side that vanishes at every node but the last
    poch, comb = identities.pochhammer, identities.hyper_middle_expression
    product, qpoch, bracket = identities.q_poch_product, identities.q_poch, identities.q_bracket
    plain_sum, q_sum = identities.chained_sum, identities.chained_sum_q
    q = LaurentPolyQ.monomial
    return {
        "hyper": [
            ("pochhammer", lambda a, n: poch(a + 1, n)),
            ("pochhammer", lambda a, n: poch(a, max(n - 1, 0))),
            ("hyper_middle_expression", lambda m, c: comb(m, c - 1)),
            ("chained_sum", lambda bounds, f: plain_sum([(a, b - 1) for a, b in bounds], f)),
            ("chained_sum", lambda bounds, f: plain_sum(bounds, f) + _vanishing(
                bounds[0][1], range(2 * m - 1))),
        ],
        "qvand": [
            ("q_poch_product", lambda *pairs: product(*[(x + 1, n) for x, n in pairs])),
            ("chained_sum_q", lambda bounds, f: q_sum(bounds, f).shift(1)),
            ("q_poch_product", lambda *pairs: product(*[(x, max(n - 1, 0)) for x, n in pairs])),
            ("q_poch", lambda x, n: qpoch(x, n - 1)),
            ("chained_sum_q", lambda bounds, f: q_sum(bounds, f) + _vanishing(
                q(bounds[0][1]), map(q, range(2 * m - 1))).shift((1 - m) * bounds[0][1])),
        ],
        "qpoch": [
            ("q_poch", lambda x, n: qpoch(x + 1, n)),
            ("q_bracket", lambda x: bracket(x).shift(1)),
            ("q_poch", lambda x, n: qpoch(x, max(n - 1, 0))),
            ("chained_sum_q", lambda bounds, f: q_sum([(a + 1, b) for a, b in bounds], f)),
            ("chained_sum_q", lambda bounds, f: q_sum(bounds, f) + _vanishing(
                q(bounds[0][1]), map(q, range(-1, m)))),
        ],
    }[name]


class TestSingleSumNodes:
    """Held at fixed m (or n), both sides of each single sum lie in the
    space of sequences in its parameter that prod (E - q^j) over the span's
    roots annihilates, and agreement at as many consecutive nodes as it has
    roots proves the identity at every value."""

    @pytest.mark.parametrize("name,m", [(name, m) for name in FIXED for m in FIXED[name]])
    def test_the_annihilator_kills_both_sides_and_no_smaller_one_the_left(self, name, m):
        _, nodes, sides, roots, dense = SINGLE_SUMS[name]
        lhs, rhs = zip(*(sides(m, p) for p in dense(m)))
        roots = roots(m)
        assert nodes(m) == range(nodes(m).start, nodes(m).start + len(roots))
        assert not any(_annihilated(lhs, roots)) and not any(_annihilated(rhs, roots))
        for t in range(len(roots)):  # every product with one factor fewer
            assert any(_annihilated(lhs, roots[:t] + roots[t + 1:])), t

    @pytest.mark.parametrize("name", SINGLE_SUMS)
    def test_the_nodes_fail_a_slip_exactly_when_a_dense_sweep_does(self, monkeypatch, name):
        check, nodes, _, _, dense = SINGLE_SUMS[name]
        assert all(check(m, p) for m in FIXED[name] for p in dense(m))
        failed = set()
        for m in FIXED[name]:
            for t, (primitive, slip) in enumerate(_slips(name, m)):
                monkeypatch.setattr(identities, primitive, slip)
                verdicts = [check(m, p) for p in nodes(m)]
                assert all(verdicts) == all(check(m, p) for p in dense(m)), (t, m)
                monkeypatch.undo()
                if not all(verdicts):
                    failed.add(t)
                if t == 4:  # a node fewer would miss it
                    assert verdicts == [True] * (len(verdicts) - 1) + [False], m
        assert failed == set(range(5))


def _binomial(x, k):
    # x choose k for every integer x: x (x-1) ... (x-k+1) / k!
    return math.prod(range(x - k + 1, x + 1)) // math.factorial(k)


def _newton_table(values):
    # the forward differences Delta^v f(0) at each node v of a simplex, from
    # f's values there: one pass of differences per axis, each line of the
    # simplex along the axis starting at 0
    table = dict(values)
    for axis in range(len(next(iter(table)))):
        lines = {}
        for v in sorted(table):
            lines.setdefault(v[:axis] + v[axis + 1:], []).append(v)
        for line in lines.values():
            column = [table[v] for v in line]
            for v in line:
                table[v] = column[0]
                column = [b - a for a, b in zip(column, column[1:])]
    return table


def _mutant(func, old, new):
    # func compiled again from its source with its one `old` replaced by new,
    # over its module's names
    source = textwrap.dedent(inspect.getsource(func))
    assert source.count(old) == 1, old
    namespace = dict(vars(inspect.getmodule(func)))
    exec(compile(source.replace(old, new), inspect.getsourcefile(func), "exec",
                 flags=__future__.annotations.compiler_flag, dont_inherit=True), namespace)
    return namespace[func.__name__]


class _Planted:
    """A level table whose every read adds slip(ks)."""

    def __init__(self, table, slip):
        self.table, self.slip = table, slip

    def __getitem__(self, ks):
        return self.table[ks] + self.slip(ks)


def _planted_level(monkeypatch, r, n, slip):
    # identities.level with slip(c, ks) added to every read of level (r, n, c)
    real = identities.level

    def planted(memo, rr, nn, c, bits=None):
        table = real(memo, rr, nn, c, bits)
        return _Planted(table, lambda ks: slip(c, ks)) if (rr, nn) == (r, n) else table

    monkeypatch.setattr(identities, "level", planted)


def _suite_verdicts(suite, capsys):
    # {identity: pass} of one suite run through the CLI
    cli.main(["verify", "--suite", suite])
    return {v["identity"]: v["pass"] for v in json.loads(capsys.readouterr().out)["verdicts"]}


def _dense_verdicts(checks, sweep):
    # {identity: passes on every instance} of each check over a dense sweep,
    # on one memo per check, as the suites run them
    return {identity: all(map(functools.partial(getattr(identities, name), memo={}), *zip(*sweep)))
            for identity, name in checks.items()}


class TestDegreeLemma:
    """identities.degree_bound: F(r,n) is a polynomial in (c, ks) of total
    degree at most D_r(n), so its values on simplex_nodes(1+n-r, D_r(n))
    determine it everywhere."""

    @pytest.mark.parametrize("r,n", [(r, n) for n in range(1, 6) for r in range(n + 1)])
    def test_the_simplex_predicts_the_recursion_everywhere(self, r, n):
        degree, memo = identities.degree_bound(r, n), {}
        assert degree == sum(range(n - r + 1, n + 1))  # level j adds n-j+1 links
        nodes = identities.simplex_nodes(1 + n - r, degree)
        assert len(nodes) == math.comb(1 + n - r + degree, degree) == len(set(nodes))
        table = _newton_table({v: f_recursive(TopRowKey(r, n, v[0], v[1:]), memo) for v in nodes})
        # the bound is attained: the top layer of differences is not all 0
        assert any(table[v] for v in nodes if sum(v) == degree)
        rng = random.Random(10 * n + r)
        points = [(-8,) * (1 + n - r)]
        points += [tuple(rng.randint(-8, 8) for _ in range(1 + n - r)) for _ in range(12)]
        for point in points:
            predicted = sum(value * math.prod(map(_binomial, point, v))
                            for v, value in table.items())
            assert predicted == f_recursive(TopRowKey(r, n, point[0], point[1:]), memo), point

    def test_the_simplex_decides_a_polynomial_of_its_degree(self):
        # a polynomial of total degree d that vanishes on the simplex of
        # degree d - 1: the product of (sum(v) - t) over t < d, nonzero on
        # the top layer alone
        for count, degree in [(1, 3), (2, 4), (3, 3), (4, 2)]:
            def top_layer(v, degree=degree):
                return math.prod(sum(v) - t for t in range(degree))

            short = identities.simplex_nodes(count, degree - 1)
            nodes = identities.simplex_nodes(count, degree)
            assert set(short) < set(nodes) and nodes == sorted(nodes)
            assert not any(map(top_layer, short))
            assert all(top_layer(v) for v in set(nodes) - set(short))


def _product_formula(r, t):
    # P_r(t) = (1+q^r) [t-r+2;q]_{2r-1} [t+1;q], from the formula
    return (LaurentPolyQ.constant(1) + LaurentPolyQ.monomial(r)) * _poch(t - r + 2, 2 * r - 1) \
        * _poch(t + 1, 1)


def _lemma2q_sides(r, d, x, y):
    # lemma 2 q from the formula: the double extended sum of
    # q^(x'+y') q^((2r-2)x') P_{r-1}(y'-x') over x' in [x+d, y+d] and
    # y' in [x+d-1, y+d-1], times [2r-1;q]_2, and q^(2rx+2dr+r-2) 2 P_r(y-x)
    lhs = _ext_sum(lambda xp: _ext_sum(
        lambda yp: _product_formula(r - 1, yp - xp).shift((2 * r - 1) * xp + yp),
        x + d - 1, y + d - 1), x + d, y + d)
    return lhs * _poch(2 * r - 1, 2), (2 * _product_formula(r, y - x)).shift(
        2 * r * x + 2 * d * r + r - 2)


#: lemma 2's checks by their verdicts' identities
LEMMA2_CHECKS = {"double-sum evaluation (plain)": "verify_lemma_2",
                 "double-sum evaluation (q)": "verify_lemma_2q"}

#: slips in lemma 2's checks and in the product they read: each keeps both
#: sides of the same shape or moves them off it away from the origin
LEMMA2_SLIPS = {
    "a bracket index + 1": ("_product_pairs", lambda r, d: ((d - r + 3, 2 * r - 1), (d + 1, 1))),
    "a bracket length - 1": ("_product_pairs", lambda r, d: ((d - r + 2, 2 * r - 2), (d + 1, 1))),
    "the second bracket at d+2": ("_product_pairs", _slipped_pairs),
    "the q shift's x-coefficient + 1": ("verify_lemma_2q", (
        "2 * r * x + 2 * d * r", "(2 * r + 1) * x + 2 * d * r")),
    "the q shift's d-coefficient + 1": ("verify_lemma_2q", (
        "2 * d * r + r - 2", "(2 * r + 1) * d + r - 2")),
    "the box offset 2d for d": (("verify_lemma_2", "verify_lemma_2q"), (
        "[(x + d, y + d), (x - 1 + d, y - 1 + d)]",
        "[(x + 2 * d, y + 2 * d), (x - 1 + 2 * d, y - 1 + 2 * d)]")),
}

#: the slips that vanish at d = x = 0, where nodes at the origin miss them
OFF_ORIGIN = ("the q shift's x-coefficient + 1", "the q shift's d-coefficient + 1",
              "the box offset 2d for d")


def _plant(monkeypatch, names, slip):
    # each identities.<name> replaced by slip, or by its mutant when slip is
    # an (old, new) pair of source text
    for name in (names,) if isinstance(names, str) else names:
        real = getattr(identities, name)
        monkeypatch.setattr(identities, name,
                            _mutant(real, *slip) if isinstance(slip, tuple) else slip)


class TestLemma2Nodes:
    """lemma2_nodes: both sides are q^(2r(x+d)) times a polynomial of degree
    at most 2r in y-x (plain) or q^(y-x) (q), so 2r+1 nodes off the origin
    decide every integer (d, x, y)."""

    @pytest.mark.parametrize("r", [2, 3])
    def test_the_annihilator_of_the_span_kills_both_sides(self, r):
        # along y, prod (E - q^j) over j = 0..2r, and no product with a
        # factor fewer kills the left side; along x and y together, and along
        # d, E - q^(2r)
        roots = list(range(2 * r + 1))
        for d, x in [(1, 1), (-2, 3), (2, -1)]:
            lhs, rhs = zip(*(_lemma2q_sides(r, d, x, y) for y in range(x - 3, x + 2 * r + 2)))
            assert not any(_annihilated(lhs, roots)) and not any(_annihilated(rhs, roots))
            for t in range(len(roots)):
                assert any(_annihilated(lhs, roots[:t] + roots[t + 1:])), (d, x, t)
            for step in [lambda s: (d, x + s, x + 2 + s), lambda s: (d + s, x, x + 2)]:
                lhs, rhs = zip(*(_lemma2q_sides(r, *step(s)) for s in range(3)))
                assert not any(_annihilated(lhs, [2 * r])) and not any(_annihilated(rhs, [2 * r]))

    def test_the_nodes_sit_off_the_origin(self):
        for r in (2, 3):
            assert identities.lemma2_nodes(r) == [(1, 1, 1 + t) for t in range(2 * r + 1)]

    @pytest.mark.parametrize("slip", LEMMA2_SLIPS)
    def test_the_nodes_fail_a_slip_exactly_when_a_dense_box_does(self, slip, monkeypatch,
                                                                 capsys):
        _plant(monkeypatch, *LEMMA2_SLIPS[slip])
        verdicts = _suite_verdicts("lemma2", capsys)
        assert verdicts == _dense_verdicts(LEMMA2_CHECKS, LEMMA2_SWEEP)
        assert not all(verdicts.values())
        if slip in OFF_ORIGIN:  # nodes at the origin would pass it
            origin = [(r, 0, 0, t) for r in cli.LEMMA2_RS for t in range(2 * r + 1)]
            assert all(_dense_verdicts(LEMMA2_CHECKS, origin).values())

    @pytest.mark.parametrize("r", [2, 3])
    def test_a_node_fewer_misses_a_slip_on_the_last_node(self, r, monkeypatch):
        # a right side off by a polynomial of degree 2r in y-x, or in q^(y-x),
        # that vanishes at every node but the last
        plain, q = identities._product, identities._lemma2q_rhs
        monkeypatch.setattr(identities, "_product", lambda rr, t: plain(rr, t) + (rr == r) * (
            _vanishing(t, range(2 * r))))
        monkeypatch.setattr(identities, "_lemma2q_rhs", lambda rr, t: q(rr, t) + (
            _vanishing(LaurentPolyQ.monomial(t), map(LaurentPolyQ.monomial, range(2 * r)))))
        for check in (verify_lemma_2, verify_lemma_2q):
            verdicts = [check(r, *node) for node in identities.lemma2_nodes(r)]
            assert verdicts == [True] * (2 * r) + [False], check
            assert not all(check(*inst) for inst in LEMMA2_SWEEP if inst[0] == r), check


#: decomp's checks by their verdicts' identities
DECOMP_CHECKS = {"swap-operator factorization (plain)": "verify_decomp",
                 "swap-operator factorization (q)": "verify_decomp_q"}

#: slips in decomp's checks and in the product they read
DECOMP_SLIPS = {
    "the later entries shifted by 1": (
        "_decomp_rhs_args", lambda ks, i: ks[: i - 1] + tuple(v + 1 for v in ks[i + 1:])),
    "a bracket index + 1": ("_product_pairs", lambda r, d: ((d - r + 3, 2 * r - 1), (d + 1, 1))),
    "the q exponent + 1": ("decomp_q_exponent", lambda r, n, i, real=decomp_q_exponent: (
        real(r, n, i) + 1)),
}


class TestDecompNodes:
    """simplex_nodes: the plain decomposition's sides have total degree at
    most D_r(n) in (c, ks), so the simplex of that degree decides them; the
    q decomposition is checked at the same nodes."""

    @pytest.mark.parametrize("slip", DECOMP_SLIPS)
    def test_the_nodes_fail_a_slip_exactly_when_a_dense_box_does(self, slip, monkeypatch,
                                                                 capsys):
        _plant(monkeypatch, *DECOMP_SLIPS[slip])
        verdicts = _suite_verdicts("decomp", capsys)
        assert verdicts == _dense_verdicts(DECOMP_CHECKS, DECOMP_SWEEP)
        assert not all(verdicts.values())

    def test_the_shifted_entries_fail_48_plain_and_57_q_nodes(self, monkeypatch):
        _plant(monkeypatch, *DECOMP_SLIPS["the later entries shifted by 1"])
        failed = [sum(not check(*inst) for inst in DECOMP_NODES)
                  for check in (identities.verify_decomp, identities.verify_decomp_q)]
        assert failed == [48, 57]

    @pytest.mark.parametrize("r,n", cli.DECOMP_RN)
    def test_a_layer_fewer_misses_a_slip_on_the_top_layer(self, r, n, monkeypatch):
        # a left side off by a polynomial of total degree D_r(n) that vanishes
        # on the simplex of degree D_r(n) - 1: D_i's swap keeps c + sum(ks)
        degree = identities.degree_bound(r, n)
        _planted_level(monkeypatch, r, n, lambda c, ks: _vanishing(c + sum(ks), range(degree)))
        nodes = [(r, n, v[0], i, v[1:]) for v in identities.simplex_nodes(1 + n - r, degree)
                 for i in range(1, n - r)]
        failing = {inst for inst in nodes if not verify_decomp(*inst)}
        assert failing and all(c + sum(ks) == degree for _, _, c, _, ks in failing)
        assert not all(verify_decomp(*inst) for inst in DECOMP_SWEEP if inst[:2] == (r, n))


def _extra_q_sides(n, c):
    # the boundary recursion's sides from the formula, each F_q read from
    # the recursion
    lhs = fq_recursive(TopRowKey(n - 1, n, c, (c,)))
    rhs = sum((fq_recursive(TopRowKey(n - 2, n - 1, c, (k,))).shift(k) for k in range(c + 1)),
              LaurentPolyQ())
    return lhs, rhs.shift(c * n - c)


#: the boundary recursion's checks by their verdicts' identities
EXTRA_CHECKS = {"boundary recursion (plain)": "verify_extra",
                "boundary recursion (q)": "verify_extra_q"}

#: the dense sweep: c up to five past the last node, at n <= 4
EXTRA_SWEEP = [(n, c) for n in range(2, 5) for c in range(identities.degree_bound(n - 1, n) + 6)]

#: slips in the boundary recursion's checks, each keeping both sides
#: polynomials in c, or in q^c, of degree at most D_{n-1}(n)
EXTRA_SLIPS = {
    "the q shift + 1": ("verify_extra_q", ("rhs_low + c * n - c", "rhs_low + c * n - c + 1")),
    "the sum to c-1": (("verify_extra", "verify_extra_q"), ("[(0, c)]", "[(0, c - 1)]")),
    "the left side at k = c-1": (("verify_extra", "verify_extra_q"), ("[c,]", "[c - 1,]")),
}


class TestExtraNodes:
    """extra_nodes: both sides have degree at most D_{n-1}(n) in c, or in
    q^c, so c = 0..D_{n-1}(n) decides every c >= 0."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_the_annihilator_of_the_span_kills_both_sides(self, n):
        # prod (E - q^j) over j = 0..D, and the left side needs its top root
        degree = identities.degree_bound(n - 1, n)
        assert identities.extra_nodes(n) == range(degree + 1)
        lhs, rhs = zip(*(_extra_q_sides(n, c) for c in range(degree + 4)))
        roots = list(range(degree + 1))
        assert not any(_annihilated(lhs, roots)) and not any(_annihilated(rhs, roots))
        assert any(_annihilated(lhs, roots[:-1]))

    @pytest.mark.parametrize("slip", EXTRA_SLIPS)
    def test_the_nodes_fail_a_slip_exactly_when_a_dense_sweep_does(self, slip, monkeypatch,
                                                                   capsys):
        _plant(monkeypatch, *EXTRA_SLIPS[slip])
        verdicts = _suite_verdicts("extra", capsys)
        assert verdicts == _dense_verdicts(EXTRA_CHECKS, EXTRA_SWEEP)
        assert not all(verdicts.values())

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_a_node_fewer_misses_a_slip_on_the_last_node(self, n, monkeypatch):
        degree = identities.degree_bound(n - 1, n)
        _planted_level(monkeypatch, n - 1, n, lambda c, ks: _vanishing(c, range(degree)))
        verdicts = [verify_extra(n, c) for c in identities.extra_nodes(n)]
        assert verdicts == [True] * degree + [False]


def _counts(n, c, ks):
    # the brute-force counts F(n-1,n,c;k) at each k of ks
    return [f_bruteforce(TopRowKey(n - 1, n, c, (k,))) for k in ks]


def _differences(values, order):
    # the order-th forward differences of values at consecutive nodes
    for _ in range(order):
        values = [b - a for a, b in zip(values, values[1:])]
    return values


class TestPolyUni:
    """Exact division of a polynomial by linear factors."""

    def test_divide_linear(self):
        p = LaurentPolyQ({0: 2, 1: -3, 2: 1})  # (x-1)(x-2)
        q = p.exact_div(LaurentPolyQ({0: -1, 1: 1}))
        assert q == LaurentPolyQ({0: -2, 1: 1})
        assert q.exact_div(LaurentPolyQ({0: -2, 1: 1})) == 1
        with pytest.raises(NonExactDivision):
            p.exact_div(LaurentPolyQ({0: -3, 1: 1}))  # remainder p(3) = 2


class TestInterpolateF:
    """The counts F(n-1,n,c;k) as a polynomial in k, read off their finite
    differences at consecutive k: values of degree at most d are exactly
    those whose (d+1)-th differences vanish."""

    def test_n1_constant_one(self):
        assert _counts(1, 3, range(-2, 3)) == [1] * 5

    def test_n2_matches_closed_form_coefficientwise(self):
        # (1+k)(3-k) = 3 + 2k - k^2 at the nodes -2..4, so the interpolant
        # through them is that quadratic
        ks = range(-2, 5)
        assert _counts(2, 2, ks) == [3 + 2 * k - k * k for k in ks]

    @pytest.mark.parametrize(
        "n,c", [(n, c) for n in range(1, 5) for c in range(5)]
    )
    def test_matches_theorem_special_as_polynomial(self, n, c):
        # degree at most 2n-2 on more than 2n-1 nodes, and agreement there
        ks = range(-n - 2, c + n + 3)
        counts = _counts(n, c, ks)
        assert not any(_differences(counts, 2 * n - 1))
        assert counts == [theorem_special(n, c, k) for k in ks]

    def test_n3_zero_set(self):
        ks = range(-2, 7)
        counts = _counts(3, 2, ks)
        assert not any(_differences(counts, 5))
        assert [counts[ks.index(k)] for k in (-1, -2, 3, 4)] == [0] * 4

    def test_degree_witness_mechanism(self):
        # k^5 at 0..4 has no fifth difference, so five nodes cannot refute
        # degree 4; at 0..5 the one fifth difference is 5! and shows degree
        # 5, and at 0..6 the sixth difference vanishes
        assert _differences([k**5 for k in range(5)], 5) == []
        assert _differences([k**5 for k in range(6)], 5) == [120]
        assert _differences([k**5 for k in range(7)], 6) == [0]

    def test_degree_exceeded_signal(self, monkeypatch):
        # corrupt one count off the zeros: the differences must catch it
        import gtkit.identities as ident

        real = ident.pattern_counts

        def corrupted(key, memo=None):
            value, patterns = real(key, memo)
            return (value + 1 if key.ks == (4,) else value), patterns

        assert verify_zeros(2, 1)
        monkeypatch.setattr(ident, "pattern_counts", corrupted)
        ks = range(-3, 5)
        counts = [corrupted(TopRowKey(1, 2, 1, (k,)))[0] for k in ks]
        assert counts[ks.index(-1)] == counts[ks.index(2)] == 0
        assert any(_differences(counts, 3))
        assert not verify_zeros(2, 1)


class TestVerifyZeros:
    def test_expected_zero_list(self):
        assert expected_zeros(3, 2) == [-1, -2, 3, 4]

    @pytest.mark.parametrize("n,c", [(2, 2), (3, 2), (4, 1)])
    def test_holds(self, n, c):
        assert verify_zeros(n, c)

    def test_stream_is_empty_at_zeros(self):
        for k in expected_zeros(3, 2):
            assert list(enumerate_patterns(TopRowKey(2, 3, 2, (k,)))) == []

    @pytest.mark.parametrize("n,c", [(2, 0), (2, 4), (3, 2), (4, 1)])
    def test_nodes_are_consecutive_and_hold_every_zero(self, n, c, monkeypatch):
        import gtkit.identities as ident

        read = []
        real = ident.pattern_counts
        monkeypatch.setattr(ident, "pattern_counts",
                            lambda key, memo=None: read.append(key.ks[0]) or real(key, memo))
        assert verify_zeros(n, c)
        assert read == list(range(read[0], read[-1] + 1))
        assert set(expected_zeros(n, c)) <= set(read) and len(read) >= 2 * n + 3

    def test_a_planted_count_beyond_2n_fails(self, monkeypatch):
        # the zero c+1 = 5 at (2, 4) lies beyond 2n = 4: its count is read,
        # not extrapolated, so one planted there fails
        import gtkit.identities as ident

        real = ident.pattern_counts

        def planted(key, memo=None):
            value, patterns = real(key, memo)
            return value + (key.ks == (5,)), patterns

        assert 5 in expected_zeros(2, 4) and verify_zeros(2, 4)
        monkeypatch.setattr(ident, "pattern_counts", planted)
        assert not verify_zeros(2, 4)

    def test_a_moved_zero_fails_on_its_count(self, monkeypatch):
        # move the zero c+n-1 to c+n, where patterns exist; with the
        # empty-set check taken out (every node's pattern count read as 0)
        # and the degree still within its bound, the count at c+n alone
        # must reject it
        import gtkit.identities as ident

        n, c = 3, 2
        real = ident.expected_zeros
        monkeypatch.setattr(ident, "expected_zeros",
                            lambda n, c: real(n, c)[:-1] + [c + n])
        read = ident.pattern_counts
        monkeypatch.setattr(ident, "pattern_counts",
                            lambda key, memo=None: (read(key, memo)[0], 0))
        assert _counts(n, c, [c + n]) != [0]
        assert not any(_differences(_counts(n, c, range(-n - 1, c + n + 2)), 2 * n - 1))
        assert not verify_zeros(n, c)

    def test_a_pattern_at_a_zero_fails_on_its_size(self, monkeypatch):
        # patterns whose signs cancel at a zero leave its count 0 and the
        # differences as they are: only the pattern count rejects them
        import gtkit.identities as ident

        n, c = 3, 2
        zero = expected_zeros(n, c)[0]
        read = ident.pattern_counts
        monkeypatch.setattr(ident, "pattern_counts", lambda key, memo=None: (
            read(key, memo)[0], read(key, memo)[1] + 2 * (key.ks == (zero,))))
        assert not verify_zeros(n, c)

    def test_a_dropped_zero_fails_the_degree(self, monkeypatch):
        # with one zero fewer the differences of one order lower must
        # vanish: they are a nonzero constant, the count's degree being 2n-2
        import gtkit.identities as ident

        n, c = 3, 2
        real = ident.expected_zeros
        monkeypatch.setattr(ident, "expected_zeros", lambda n, c: real(n, c)[1:])
        (step,) = set(_differences(_counts(n, c, range(-n - 1, c + n + 2)), 2 * n - 2))
        assert step != 0
        assert not verify_zeros(n, c)

    def test_the_zeros_suite_builds_no_fraction(self, monkeypatch, capsys):
        # the verdicts come from integers alone: no Fraction, no polynomial
        built = []

        def counted(cls, *args, **kwargs):
            built.append(cls)
            return real_new(cls, *args, **kwargs)

        def counted_raw(cls, terms):
            built.append(cls)
            return real_raw(terms)

        # LaurentPolyQ inherits __new__, so its two constructors are counted
        real_new, real_init, real_raw = Fraction.__new__, LaurentPolyQ.__init__, LaurentPolyQ._raw
        monkeypatch.setattr(Fraction, "__new__", counted)
        monkeypatch.setattr(LaurentPolyQ, "__init__",
                            lambda self, *args: built.append(type(self)) or real_init(self, *args))
        monkeypatch.setattr(LaurentPolyQ, "_raw", classmethod(counted_raw))
        assert cli.main(["verify", "--suite", "zeros"]) == 0
        capsys.readouterr()
        assert built == []
        assert Fraction(1, 3) and -LaurentPolyQ({0: 1}) == LaurentPolyQ({0: -1})
        assert built == [Fraction] + [LaurentPolyQ] * 3  # the counters count


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
        ks = range(-n - 2, c + n + 3)
        quotients = set()
        for k, count in zip(ks, _counts(n, c, ks)):
            den = pochhammer(1 + k, n - 1) * pochhammer(1 + c - k, n - 1)
            if den != 0:
                quotients.add(Fraction(count, den))
            else:
                assert count == 0, k
        assert len(quotients) == 1
