"""Tests for the alternating tableau-count extension."""

import itertools
from fractions import Fraction

import pytest

from gtkit import cli, tableaux
from gtkit.closedforms import ssyt_product
from gtkit.patterns import ShapeViolation
from gtkit.tableaux import (
    f_ext,
    f_ext_recursive,
    ssyt_bruteforce,
    ssyt_count,
    verify_part_formula,
    verify_sign_involution,
)


class TestSsytBruteforce:
    def test_single_box(self):
        assert ssyt_bruteforce((1,), 2) == 2

    def test_hook(self):
        assert ssyt_bruteforce((2, 1), 3) == 8

    def test_too_many_rows(self):
        assert ssyt_bruteforce((1, 1, 1), 2) == 0

    def test_column_is_a_subset_choice(self):
        # single column of height h with entries <= k: binomial(k, h)
        import math

        for h in range(1, 5):
            for k in range(1, 6):
                shape = (1,) * h
                assert ssyt_bruteforce(shape, k) == math.comb(k, h)

    def test_zero_parts_ignored(self):
        assert ssyt_bruteforce((2, 1, 0, 0), 3) == 8


def _shapes(max_cells: int):
    # every partition with at most max_cells cells, the empty one included
    def parts(total, largest):
        if not total:
            yield ()
        for first in range(min(total, largest), 0, -1):
            for rest in parts(total - first, first):
                yield (first,) + rest

    return [shape for m in range(max_cells + 1) for shape in parts(m, m)]


def _fillings(shape, k):
    # the definition: every filling of the cells from {1..k}, rows weakly
    # and columns strictly increasing
    cells = [(i, j) for i, p in enumerate(shape) for j in range(p)]
    count = 0
    for values in itertools.product(range(1, k + 1), repeat=len(cells)):
        t = dict(zip(cells, values))
        if all(t[i, j - 1] <= v for (i, j), v in t.items() if j) and all(
                t[i - 1, j] < v for (i, j), v in t.items() if i):
            count += 1
    return count


class TestSsytBruteforceMatchesTheDefinition:
    def test_small_shapes(self):
        shapes = _shapes(6)
        assert len(shapes) == 30
        for shape in shapes:
            for k in range(1, 5):
                assert ssyt_bruteforce(shape, k) == _fillings(shape, k), (shape, k)


def _old_sort_desc_with_sign(lam):
    # the form before the ascent count: inversions of the stable sorting order
    order = sorted(range(len(lam)), key=lambda t: (-lam[t], t))
    inversions = sum(1 for a in range(len(order)) for b in range(a + 1, len(order))
                     if order[a] > order[b])
    return -1 if inversions & 1 else 1, tuple(lam[t] for t in order)


class TestSortDescWithSign:
    def test_matches_the_sorting_permutation(self):
        for k in range(5):
            for lam in itertools.product(range(-3, 4), repeat=k):
                assert tableaux._sort_desc_with_sign(lam) == _old_sort_desc_with_sign(lam), lam


class TestFExt:
    def test_staircase_is_one(self):
        for k in range(1, 5):
            staircase = tuple(range(k - 1, -1, -1))
            assert f_ext(staircase) == 1

    def test_repeated_entries_vanish(self):
        assert f_ext((2, 2, 0)) == 0
        assert f_ext((1, 0, 1)) == 0

    def test_swap_negates(self):
        for lam in itertools.product(range(-3, 4), repeat=3):
            swapped = (lam[1], lam[0], lam[2])
            assert f_ext(swapped) == -f_ext(lam) or f_ext(lam) == 0

    def test_matches_shifted_ssyt_count(self):
        # partition (2,1) padded to k=3 gives lam = (1,-1,-3)
        assert f_ext((1, -1, -3)) == 8

    def test_translation_invariance(self):
        for lam in itertools.product(range(-2, 3), repeat=3):
            base = f_ext(lam)
            for shift in (-3, -1, 2, 3):
                assert f_ext(tuple(x + shift for x in lam)) == base, (lam, shift)

    def test_antisymmetry_full_group(self):
        sign = {
            (0, 1, 2): 1, (1, 0, 2): -1, (0, 2, 1): -1,
            (2, 1, 0): -1, (1, 2, 0): 1, (2, 0, 1): 1,
        }
        for lam in itertools.product(range(-2, 3), repeat=3):
            base = f_ext(lam)
            for perm, sgn in sign.items():
                permuted = tuple(lam[p] for p in perm)
                assert f_ext(permuted) == sgn * base, (lam, perm)


class TestCountMemo:
    def test_memo_gives_the_same_values(self):
        memo: dict = {}
        for k in (1, 2, 3):
            for lam in itertools.product(range(-2, 4), repeat=k):
                assert f_ext(lam, memo) == f_ext(lam), lam
                assert verify_part_formula(lam, memo), lam
                if all(lam[t] >= lam[t + 1] for t in range(k - 1)):
                    assert verify_sign_involution(lam, memo), lam
        # tableau counts under (parts, k), extension values under the vector
        counts = {key: v for key, v in memo.items() if isinstance(key[0], tuple)}
        assert counts and all(ssyt_bruteforce(*key) == count for key, count in counts.items())
        values = {key: v for key, v in memo.items() if key not in counts}
        assert values and all(f_ext(lam) == value for lam, value in values.items())

    def test_tableaux_suite_works_out_each_vector_once(self, monkeypatch, capsys):
        # the suite reads 3,506 extension values of 690 distinct vectors from
        # one memo, which keeps each vector's value: each vector without a
        # tie is sorted, shaped and counted once
        reads, memos, shaped = [], {}, []

        def reading(lam, memo=None, real=tableaux.f_ext):
            reads.append(tuple(lam))
            memos[id(memo)] = memo
            return real(lam, memo)

        def shaping(shape, k, memo, real=tableaux.ssyt_count):
            shaped.append((shape, k))
            return real(shape, k, memo)

        monkeypatch.setattr(tableaux, "f_ext", reading)
        monkeypatch.setattr(tableaux, "ssyt_count", shaping)
        assert cli.main(["verify", "--suite", "tableaux"]) == cli.EXIT_OK
        capsys.readouterr()
        assert len(reads) == 3506 and len(set(reads)) == 690
        (memo,) = memos.values()
        assert set(reads) == {key for key in memo if not isinstance(key[0], tuple)}
        assert len(shaped) == len({lam for lam in reads if len(set(lam)) == len(lam)})

    def test_trailing_zero_parts_share_a_key(self):
        memo: dict = {}
        assert ssyt_count((2, 1, 0, 0), 3, memo) == ssyt_count((2, 1), 3, memo) == 8
        assert memo == {((2, 1), 3): 8}

    def test_invalid_shape_still_raises(self):
        memo = {((2, 1), 3): 8}
        with pytest.raises(ShapeViolation):
            ssyt_count((2, 0, 1), 3, memo)


class TestFExtRecursive:
    def test_agrees_with_definition(self):
        for k in (1, 2, 3):
            for lam in itertools.product(range(-2, 4), repeat=k):
                assert f_ext_recursive(lam) == f_ext(lam), lam

    def test_tie_vanishes_on_both_paths(self):
        lam = (3, 1, 1)
        assert f_ext(lam) == 0
        assert f_ext_recursive(lam) == 0

    def test_strict_partition_case(self):
        # lam = (mu_1 - 1, ..., mu_k - k) for mu = (3,1) padded to k=3
        lam = (2, -1, -3)
        assert f_ext_recursive(lam) == ssyt_bruteforce((3, 1), 3)

    def test_isolated_memo(self):
        memo: dict = {}
        assert f_ext_recursive((2, 0, -1), memo) == f_ext((2, 0, -1))
        assert memo

    def test_no_module_level_table(self):
        dicts = {name for name, value in vars(tableaux).items()
                 if isinstance(value, dict) and not name.startswith("__")}
        assert dicts == set()

    def test_memo_state_count(self):
        # the tableaux suite's vectors, [-2,3]^k for k <= 3, reach 55 states
        memo: dict = {}
        for k in (1, 2, 3):
            for lam in itertools.product(range(-2, 4), repeat=k):
                assert f_ext_recursive(lam, memo) == f_ext(lam), lam
        assert len(memo) == 55


class TestSignInvolution:
    def test_small_domain_by_hand(self):
        assert verify_sign_involution((2, 0))

    def test_vacuous_for_spread_out_entries(self):
        # mu_1 in [1, 5] can never dip to lam_2 = -4
        assert verify_sign_involution((5, -4))

    def test_weakly_decreasing_sweep(self):
        span = range(-2, 4)
        for lam in itertools.product(span, repeat=3):
            if lam[0] >= lam[1] >= lam[2]:
                assert verify_sign_involution(lam), lam

    def test_rejects_increasing_input(self):
        with pytest.raises(ValueError):
            verify_sign_involution((0, 1))


class TestPartFormula:
    def test_hand_value(self):
        assert verify_part_formula((1, -1, -3))
        product = Fraction(1 - (-1), 1) * Fraction(1 - (-3), 2) * Fraction(-1 - (-3), 1)
        assert product == 8

    def test_repeated_entries(self):
        assert verify_part_formula((2, 2, 0))

    def test_sweep(self):
        for k in (1, 2, 3):
            for lam in itertools.product(range(-3, 4), repeat=k):
                assert verify_part_formula(lam), lam


class TestOracleChain:
    def test_product_bruteforce_extension_agree(self):
        shapes = set()
        for rows in range(5):
            shapes.update(
                itertools.combinations_with_replacement(range(4, 0, -1), rows)
            )
        for shape in sorted(shapes):
            for k in range(len(shape), 5):
                if k == 0:
                    continue
                brute = ssyt_bruteforce(shape, k)
                assert ssyt_product(shape, k) == brute, (shape, k)
                padded = shape + (0,) * (k - len(shape))
                lam = tuple(padded[t] - t - 1 for t in range(k))
                assert f_ext(lam) == brute, (shape, k)
