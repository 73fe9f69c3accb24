"""Tests for the alternating tableau-count extension."""

import __future__
import inspect
import itertools
import math
import random
import textwrap
from fractions import Fraction

import pytest

from gtkit import cli, closedforms, tableaux
from gtkit.closedforms import ssyt_product
from gtkit.patterns import ShapeViolation
from gtkit.tableaux import (
    f_ext,
    f_ext_recursive,
    part_nodes,
    ssyt_bruteforce,
    ssyt_count,
    verify_alternating,
    verify_part_formula,
    verify_recursion_agreement,
    verify_sign_involution,
    verify_translation,
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


def _orderings(nodes):
    # every ordering of every node
    return [lam for node in nodes for lam in itertools.permutations(node)]


def _suite_reads():
    # the f_ext reads of the tableaux suite's checks at k <= 3, built from
    # part_nodes: agreement at every ordering of every node, translation at
    # each ordering of a k = 3 node and its shifts, alternation at each
    # k = 3 node and its orderings, and the sign involution at the dipping
    # tuples of each k = 3 node; the product formula reads the recursion
    three = part_nodes(3)
    reads = _orderings(node for k in (1, 2, 3) for node in part_nodes(k))
    reads += [vector for lam in _orderings(three) for s in (-3, 2, 3)
              for vector in (lam, tuple(x + s for x in lam))]
    reads += [vector for node in three for vector in [node] + _orderings([node])]
    reads += [mu for lam in three
              for mu in itertools.product(*[range(1, top + 1) for top in lam[:-1]])
              if any(mu[t] <= lam[t + 1] for t in range(2))]
    return reads


class TestCountMemo:
    def test_memo_gives_the_same_values(self):
        memo: dict = {}
        for k in (1, 2, 3):
            for lam in itertools.product(range(-2, 4), repeat=k):
                assert f_ext(lam, memo) == f_ext(lam), lam
                if all(lam[t] >= lam[t + 1] for t in range(k - 1)):
                    assert verify_sign_involution(lam, memo), lam
        # tableau counts under (parts, k), extension values under the vector
        counts = {key: v for key, v in memo.items() if isinstance(key[0], tuple)}
        assert counts and all(ssyt_bruteforce(*key) == count for key, count in counts.items())
        values = {key: v for key, v in memo.items() if key not in counts}
        assert values and all(f_ext(lam) == value for lam, value in values.items())

    def test_tableaux_suite_works_out_each_vector_once(self, monkeypatch, capsys):
        # the suite reads every extension value that its checks read at the
        # nodes, from one memo, which keeps each vector's value: each vector
        # without a tie is sorted, shaped and counted once
        expected = _suite_reads()
        assert (len(expected), len(set(expected))) == (545, 261)
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
        assert sorted(reads) == sorted(expected)
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
        # the vectors of [-2,3]^k for k <= 3 reach 55 states
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


def _binomial(x, a):
    # x choose a for every integer x: x (x-1) ... (x-a+1) / a!
    return math.prod(range(x - a + 1, x + 1)) // math.factorial(a)


def _degree(k):
    return k * (k - 1) // 2


def _gaps(lam):
    # the node coordinates v of a vector: v_i = lam_i - lam_{i+1} - 1
    return tuple(a - b - 1 for a, b in zip(lam, lam[1:]))


def _interpolant(k):
    # f_ext_recursive as the polynomial of total degree <= k(k-1)/2 in the
    # gaps that its values at part_nodes(k) give: the forward differences
    # Delta^a f at the simplex's origin, each the signed sum over b <= a
    values = {_gaps(lam): f_ext_recursive(lam) for lam in part_nodes(k)}
    table = {a: sum((-1) ** (sum(a) - sum(b)) * math.prod(map(math.comb, a, b)) * values[b]
                    for b in itertools.product(*[range(x + 1) for x in a]))
             for a in values}
    return lambda lam: sum(value * math.prod(map(_binomial, _gaps(lam), a))
                           for a, value in table.items())


def _mutant(func, old, new):
    # func compiled again from its source with its one `old` replaced by new,
    # over its module's names
    source = textwrap.dedent(inspect.getsource(func))
    assert source.count(old) == 1, old
    namespace = dict(vars(inspect.getmodule(func)))
    exec(compile(source.replace(old, new), inspect.getsourcefile(func), "exec",
                 flags=__future__.annotations.compiler_flag, dont_inherit=True), namespace)
    return namespace[func.__name__]


#: slips in the recursion and in the product formula P_k, by what they
#: change: (the module, its function, the function's old text, its new text)
PART_SLIPS = {
    "the denominator j-i+1": (closedforms, "part_product", "(j - i, 1) for",
                              "(j - i + 1, 1) for"),
    "the recursion's lower bound lam_k": (tableaux, "f_ext_recursive", "(last + 1, top)",
                                          "(last, top)"),
    "the sort without its sign": (tableaux, "f_ext_recursive",
                                  "sign * f_ext_recursive(ordered", "f_ext_recursive(ordered"),
}


def _plant(monkeypatch, slip):
    module, name, old, new = PART_SLIPS[slip]
    monkeypatch.setattr(module, name, _mutant(getattr(module, name), old, new))


class TestPartNodes:
    """part_nodes: the product formula P_k, checked against the recursion at
    part_nodes(j) for every j <= k, is decided at every integer vector by
    induction on k."""

    def test_strictly_decreasing_simplex_images(self):
        assert [len(part_nodes(k)) for k in range(1, 5)] == [1, 2, 10, 84]
        for k in range(1, 6):
            nodes = part_nodes(k)
            assert len(nodes) == len(set(nodes)) == math.comb(k - 1 + _degree(k), k - 1)
            assert all(len(lam) == k and lam[-1] == 0 for lam in nodes)
            assert all(a > b for lam in nodes for a, b in zip(lam, lam[1:]))
            # the node map's inverse gives back the simplex
            assert sorted(map(_gaps, nodes)) == tableaux.simplex_nodes(k - 1, _degree(k))

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_the_nodes_predict_the_recursion_everywhere(self, k):
        # the interpolant through the nodes gives f_ext_recursive at random
        # vectors in [-6,6]^k, in every ordering, ties included
        predict = _interpolant(k)
        rng = random.Random(k)
        vectors = [tuple(rng.randint(-6, 6) for _ in range(k)) for _ in range(12)]
        vectors += [(3,) * k, (5, -6, 5, 0)[:k], (-6, 6, -6, 2)[:k]]
        memo: dict = {}
        for vector in vectors:
            for lam in set(itertools.permutations(vector)):
                assert predict(lam) == f_ext_recursive(lam, memo), lam

    def test_the_product_formula_holds_at_the_nodes(self):
        nodes = [lam for k in range(1, 5) for lam in part_nodes(k)]
        assert len(nodes) == 97 and all(map(verify_part_formula, nodes))

    @pytest.mark.parametrize("slip", PART_SLIPS)
    def test_the_nodes_fail_a_slip_exactly_when_the_old_box_does(self, slip, monkeypatch):
        _plant(monkeypatch, slip)
        nodes = [lam for k in (1, 2, 3) for lam in part_nodes(k)]
        box = [lam for k in (1, 2, 3) for lam in itertools.product(range(-2, 4), repeat=k)]
        check = tableaux.verify_part_formula
        assert all(map(check, nodes)) == all(map(check, box)) is False

    def test_the_denominator_slip_fails_12_of_13_nodes(self, monkeypatch):
        _plant(monkeypatch, "the denominator j-i+1")
        nodes = [lam for k in (1, 2, 3) for lam in part_nodes(k)]
        assert sum(not verify_part_formula(lam) for lam in nodes) == 12
        # the tableau count's product formula reads the same P_k
        assert not tableaux.verify_ssyt_product((2, 1), 2)

    def test_the_bound_slip_fails_every_node_above_k_1(self, monkeypatch):
        _plant(monkeypatch, "the recursion's lower bound lam_k")
        failed = [sum(not verify_part_formula(lam) for lam in part_nodes(k)) for k in (2, 3, 4)]
        assert failed == [2, 10, 84]

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_a_layer_fewer_misses_a_difference_on_the_top_layer(self, k, monkeypatch):
        # a recursion off by a polynomial of degree k(k-1)/2 at length k that
        # vanishes on the simplex of one degree less: the product of
        # (sum(v) - t) over t < k(k-1)/2, v the gaps
        degree = _degree(k)
        real = tableaux.f_ext_recursive

        def planted(lam, memo=None):
            slip = math.prod(sum(_gaps(lam)) - t for t in range(degree)) if len(lam) == k else 0
            return real(lam, memo) + slip

        monkeypatch.setattr(tableaux, "f_ext_recursive", planted)
        nodes = part_nodes(k)
        failing = [lam for lam in nodes if not verify_part_formula(lam)]
        assert failing and all(sum(_gaps(lam)) == degree for lam in failing)
        assert all(verify_part_formula(lam) for lam in nodes if sum(_gaps(lam)) < degree)


class TestSampleChecks:
    """The agreement, translation and alternation checks, one function
    each, that the tableaux suite runs on the nodes' orderings."""

    def test_the_checks_hold_on_the_suites_instances(self):
        memo, rec_memo = {}, {}
        orderings = _orderings(node for k in (1, 2, 3) for node in part_nodes(k))
        assert len(orderings) == 65
        assert all(verify_recursion_agreement(lam, memo, rec_memo) for lam in orderings)
        assert all(verify_translation(lam, s, memo)
                   for lam in _orderings(part_nodes(3)) for s in (-3, 2, 3))
        assert all(verify_alternating(lam, memo) for lam in part_nodes(3))

    def test_each_check_fails_a_slip_in_what_it_checks(self, monkeypatch):
        real = tableaux.f_ext
        monkeypatch.setattr(tableaux, "f_ext", lambda lam, memo=None: real(lam) + lam[0])
        assert not verify_translation((2, 1, 0), 3)
        assert not verify_alternating((2, 1, 0))
        assert not verify_recursion_agreement((2, 1, 0))

    def test_the_product_formula_reads_the_recursion_alone(self, monkeypatch):
        # the three routes stay apart: P_k is checked against the recursion,
        # which never reads a tableau count
        def refused(*args, **kwargs):
            raise AssertionError("the brute-force route was read")

        monkeypatch.setattr(tableaux, "f_ext", refused)
        monkeypatch.setattr(tableaux, "ssyt_count", refused)
        assert all(verify_part_formula(lam) for k in (1, 2, 3, 4) for lam in part_nodes(k))
