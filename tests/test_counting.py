"""Tests for the two enumeration engines and their agreement."""

import functools
import itertools

import pytest

from gtkit import asm, counting, exact
from gtkit.counting import (
    CountResult,
    TopRowKey,
    bruteforce_count,
    count_bounded_partitions,
    enumerate_patterns,
    f_bruteforce,
    f_recursive,
    fq_bruteforce,
    fq_recursive,
    spp_generating_function,
)
from gtkit.exact import LaurentPolyQ
from gtkit.patterns import GenPattern, norm_of, sign_of, validate
from gtkit.closedforms import intro_binomial, refined_asm


class TestTopRowKey:
    def test_arity_enforced(self):
        with pytest.raises(ValueError):
            TopRowKey(1, 3, 2, (0,))  # needs two entries

    def test_negative_r_rejected(self):
        with pytest.raises(ValueError):
            TopRowKey(-1, 2, 2, (0, 0, 0))

    def test_empty_top_row_allowed(self):
        # middle entry l ranges over [0,4], the bottom pair over [0,l] x [l,4]:
        # sum of (l+1)(5-l) = 35
        key = TopRowKey(2, 2, 4, ())
        assert f_bruteforce(key) == f_recursive(key) == 35


class TestEnumerator:
    def test_four_patterns(self):
        # top row (0,1,2): the two bottom cells range over [0,1] and [1,2]
        pats = list(enumerate_patterns(TopRowKey(1, 2, 2, (1,))))
        assert len(pats) == 4
        assert len(set(pats)) == 4

    def test_r_zero_yields_single_pattern(self):
        pats = list(enumerate_patterns(TopRowKey(0, 4, 3, (2, 0, -1, 5))))
        assert len(pats) == 1
        assert pats[0].rows == ((0, 2, 0, -1, 5, 3),)

    def test_empty_stream_at_forbidden_top(self):
        # no r distinct integers fit strictly between 0 and a negative entry
        assert list(enumerate_patterns(TopRowKey(2, 3, 2, (-1,)))) == []

    def test_row_filter_prunes(self):
        strict = lambda row: all(row[t] < row[t + 1] for t in range(len(row) - 1))
        pats = list(enumerate_patterns(TopRowKey(2, 3, 4, (2,)), row_filter=strict))
        assert len(pats) == 3
        # with r = 0 the filter sees the top row as the bottom row
        assert list(enumerate_patterns(TopRowKey(0, 2, 4, (3, 1)), row_filter=strict)) == []
        pats = list(enumerate_patterns(TopRowKey(0, 2, 4, (1, 3)), row_filter=strict))
        assert [p.rows for p in pats] == [((0, 1, 3, 4),)]

    def test_pattern_order(self):
        # --dump-patterns prints the patterns in this order: increasing,
        # compared row by row from the top
        def rows(key, row_filter=None):
            listed = [p.rows for p in enumerate_patterns(key, row_filter)]
            assert all(a < b for a, b in zip(listed, listed[1:])), key
            return listed

        memo: dict = {}
        for key in _keys(2):
            fq_recursive(key, memo)
            patterns = memo[(key.r, key.n, key.c, key.ks)][2] if key.r else 1
            assert len(rows(key)) == patterns, key
        for n in range(1, 6):
            for k in range(n + 2):
                key = TopRowKey(n - 1, n, n + 1, (k,))
                triangles = refined_asm(n, k) if 1 <= k <= n else 0
                assert len(rows(key, asm._strictly_increasing)) == triangles, key

    def test_walk_built_patterns_pass_the_checked_constructor(self):
        # enumerate_patterns builds its patterns unchecked; each must be the
        # pattern the public constructor checks and builds from its rows
        keys = list(_keys(1)) + [TopRowKey(2, 4, -3, (-5, 1)), TopRowKey(4, 5, 3, (1,))]
        filters = [None, asm._strictly_increasing]
        for key, row_filter in itertools.product(keys, filters):
            for p in enumerate_patterns(key, row_filter):
                checked = GenPattern(key.r, key.n, key.c, [list(row) for row in p.rows])
                assert validate(p), p
                assert p == checked and hash(p) == hash(checked)
                assert type(p.rows) is tuple and all(type(row) is tuple for row in p.rows)


class TestBruteForce:
    def test_initial_condition(self):
        for ks in itertools.product(range(-1, 3), repeat=3):
            assert f_bruteforce(TopRowKey(0, 3, 2, ks)) == 1

    def test_small_count(self):
        assert f_bruteforce(TopRowKey(1, 2, 2, (1,))) == 4

    def test_signed_count(self):
        assert f_bruteforce(TopRowKey(2, 3, 2, (0,))) == 10

    def test_fq_hand_oracle(self):
        # two patterns with norms 2 and 3, divided by q^1
        assert fq_bruteforce(TopRowKey(1, 2, 1, (1,))) == LaurentPolyQ({1: 1, 2: 1})

    def test_fq_initial_condition(self):
        for ks in itertools.product(range(-1, 2), repeat=2):
            assert fq_bruteforce(TopRowKey(0, 2, 3, ks)) == 1


# every (r, n) with r <= 3, n <= 5 and 0 <= n-r <= 2
SHAPES = [(r, n) for r in range(4) for n in range(max(1, r), 6) if 0 <= n - r <= 2]


def _keys(max_c: int):
    # every key of SHAPES with 0 <= c <= max_c and ks in [-2, c+2]^(n-r): the
    # criterion-1 sweep, and the benchmark's oracle-sweep at max_c = 2
    for r, n in SHAPES:
        for c in range(max_c + 1):
            for ks in itertools.product(range(-2, c + 3), repeat=n - r):
                yield TopRowKey(r, n, c, ks)


def _negative_c_keys():
    # every key of SHAPES with -3 <= c <= -1 and ks in [c-2, 2]^(n-r):
    # negative offsets, and reversed links wherever k_j > k_{j+1}
    for r, n in SHAPES:
        for c in range(-3, 0):
            for ks in itertools.product(range(c - 2, 3), repeat=n - r):
                yield TopRowKey(r, n, c, ks)


class TestSinglePassMatchesDefinition:
    """The fast pass carries sign and norm down the rows; it must agree with
    sign_of and norm_of applied to every enumerated pattern."""

    def test_every_small_key(self):
        # at c < 0 the right border lies below the left one
        for keys, expected in [(_keys(2), 521), (_negative_c_keys(), 689)]:
            seen = 0
            for key in keys:
                plain, coeffs = 0, {}
                for p in enumerate_patterns(key):
                    plain += sign_of(p)
                    e = norm_of(p) - sum(key.ks)
                    coeffs[e] = coeffs.get(e, 0) + sign_of(p)
                result = bruteforce_count(key)
                assert result.plain == plain, key
                assert result.q_weighted == LaurentPolyQ(coeffs), key
                seen += 1
            assert seen == expected

    def test_r_zero_counts_no_top_inversions(self):
        # the top row (0,2,0,-1,5,3) has descents, but with r = 0 it is the
        # bottom row and only contributes its norm
        result = bruteforce_count(TopRowKey(0, 4, 3, (2, 0, -1, 5)))
        assert result == CountResult(1, LaurentPolyQ({0: 1}))

    def test_key_without_patterns(self):
        key = TopRowKey(2, 3, 2, (-1,))
        assert list(enumerate_patterns(key)) == []
        assert bruteforce_count(key) == CountResult(0, LaurentPolyQ())


def _box_count(key: TopRowKey) -> CountResult:
    # the definition, without the walk: every integer array whose rows below
    # the top take their interior entries from [min(top), max(top)], kept
    # when validate accepts it.  Each entry of a pattern lies between its
    # upper neighbours, so the box holds every pattern.
    top = (0,) + key.ks + (key.c,)
    values = range(min(top), max(top) + 1)
    lower = [list(itertools.product(values, repeat=len(top) - 1 + d))
             for d in range(key.r)]
    plain, coeffs = 0, {}
    for interiors in itertools.product(*lower):
        p = GenPattern(key.r, key.n, key.c,
                       (top,) + tuple((0,) + row + (key.c,) for row in interiors))
        if validate(p):
            plain += sign_of(p)
            e = norm_of(p) - sum(key.ks)
            coeffs[e] = coeffs.get(e, 0) + sign_of(p)
    return CountResult(plain, LaurentPolyQ(coeffs))


class TestBruteForceMatchesTheBox:
    """bruteforce_count against the definition, with no walk in between."""

    @pytest.mark.parametrize("r, n, c, ks", [
        (0, 3, 2, (5, -1, 2)),    # r = 0, descents in the top row
        (1, 2, 2, (3,)),          # k > c
        (1, 3, 2, (2, -1)),       # inverted top row
        (2, 3, 2, (0,)),
        (2, 3, 2, (-1,)),         # no patterns
        (2, 3, -2, (1,)),         # negative c
        (3, 3, -2, ()),           # negative c, r = n
        (2, 4, -1, (1, -2)),      # negative c, inverted top row
        (3, 4, 1, (2,)),
    ])
    def test_box(self, r, n, c, ks):
        key = TopRowKey(r, n, c, ks)
        assert bruteforce_count(key) == _box_count(key)


class TestRowTable:
    """The walk's table of row facts lives for one call and respects the filter."""

    def test_interleaved_calls_match_fresh_ones(self):
        # the keys share rows; the filter prunes some of them for one caller
        strict = asm._strictly_increasing
        keys = [TopRowKey(2, 3, 4, (k,)) for k in range(1, 4)]
        running = {(key, f): enumerate_patterns(key, f)
                   for key in keys for f in (strict, None)}
        listed = {run: [] for run in running}
        counts = []
        while running:
            for (key, f), patterns in list(running.items()):
                p = next(patterns, None)
                if p is None:
                    del running[key, f]
                else:
                    listed[key, f].append(p.rows)
                    counts.append((key, bruteforce_count(key)))
        for (key, f), rows in listed.items():
            assert rows == [p.rows for p in enumerate_patterns(key, f)], key
        for key in keys:
            every = listed[key, None]
            assert listed[key, strict] == [
                rows for rows in every if all(map(strict, rows))], key
            assert len(listed[key, strict]) < len(every)
        for key, result in counts:
            assert result == bruteforce_count(key), key

    def test_plain_reader_matches_the_full_count(self):
        for key in _keys(2):
            assert f_bruteforce(key) == bruteforce_count(key).plain, key
        # (6,7,5;2) takes bruteforce_count seconds: match the recursion,
        # which test_cli's deep q count matches to bruteforce_count
        key = TopRowKey(6, 7, 5, (2,))
        assert f_bruteforce(key) == f_recursive(key, {}) == 13_325_312

    def test_no_module_level_table(self):
        # the recursion's memos and the walk's row table live for one call
        dicts = {name for name, value in vars(counting).items()
                 if isinstance(value, dict) and not name.startswith("__")}
        assert dicts == set()

    def test_cell_ranges_once_per_distinct_row(self, monkeypatch):
        # a walk without the table works the ranges out once per visit
        key = TopRowKey(4, 5, 3, (1,))
        patterns = [p.rows for p in enumerate_patterns(key)]
        above = {row for rows in patterns for row in rows[:-1]}
        cells = sum(len(row) - 1 for row in above)
        visited = {rows[:d] for rows in patterns for d in range(1, key.r + 1)}
        assert cells < sum(len(rows[-1]) - 1 for rows in visited)
        real, calls = counting._cell_range, []

        def counted(w, e):
            calls.append((w, e))
            return real(w, e)

        monkeypatch.setattr(counting, "_cell_range", counted)
        for run in (lambda: list(enumerate_patterns(key)), lambda: bruteforce_count(key)):
            calls.clear()
            run()
            assert len(calls) == cells


def _reflected(key: TopRowKey) -> TopRowKey:
    return TopRowKey(key.r, key.n, key.c, tuple(key.c - k for k in reversed(key.ks)))


def _at_inverse_q(p: LaurentPolyQ) -> LaurentPolyQ:
    return LaurentPolyQ({-e: v for e, v in p.terms()})


class TestReflectionSymmetry:
    """a -> c - a with every row reversed is a bijection on patterns that
    keeps the inversions and sends the norm below the top row to c*N - norm,
    N = r(n-r) + r(r+1)/2 interior entries, so
    F_q(ks)(q) = q^(c*N) F_q(c - reversed(ks))(1/q)."""

    @pytest.mark.parametrize("engine", ["bruteforce", "recursion"])
    def test_reflection(self, engine):
        plain_memo: dict = {}
        q_memo: dict = {}

        def count(key):
            if engine == "bruteforce":
                return bruteforce_count(key)
            return CountResult(f_recursive(key, plain_memo), fq_recursive(key, q_memo))

        for key in _keys(3):
            r, n, c = key.r, key.n, key.c
            interior = r * (n - r) + r * (r + 1) // 2
            direct, mirror = count(key), count(_reflected(key))
            assert direct.q_weighted == _at_inverse_q(mirror.q_weighted).shift(
                c * interior
            ), key
            assert direct.plain == mirror.plain, key


class TestRecursion:
    def test_one_row_formula(self):
        # F(1,2,c;k) == (1+k)(1+c-k) on the admissible range
        for c in range(5):
            for k in range(c + 1):
                assert f_recursive(TopRowKey(1, 2, c, (k,))) == (1 + k) * (1 + c - k)

    def test_initial_condition(self):
        assert f_recursive(TopRowKey(0, 5, 3, (1, 2, 0, -2, 7))) == 1
        assert fq_recursive(TopRowKey(0, 5, 3, (1, 2, 0, -2, 7))) == 1

    def test_memo_is_isolated_when_supplied(self):
        key = TopRowKey(2, 3, 2, (1,))
        for recursive, bruteforce in [(f_recursive, f_bruteforce),
                                      (fq_recursive, fq_bruteforce)]:
            memo: dict = {}
            value = recursive(key, memo)
            assert value == bruteforce(key)
            assert memo  # sub-keys were recorded
            assert recursive(key, {}) == value

    @pytest.mark.parametrize("recursive", [f_recursive, fq_recursive])
    def test_no_memo_starts_fresh_each_call(self, recursive, monkeypatch):
        # with no memo= nothing outlives a call: a second call computes the
        # same states as the first
        key = TopRowKey(3, 5, 3, (0, 2))
        real, computed = counting._recurse, []

        def counted(memo, total, box, r, n, c, ks):
            if r and (r, n, c, ks) not in memo:
                computed.append((r, n, c, ks))
            return real(memo, total, box, r, n, c, ks)

        monkeypatch.setattr(counting, "_recurse", counted)
        runs = []
        for _ in range(2):
            computed.clear()
            runs.append((recursive(key), list(computed)))
        assert runs[0] == runs[1]
        assert len(set(runs[0][1])) == len(runs[0][1]) > 1

    # states each engine memoizes for the benchmark's deep-recursion keys, as
    # counted by the partial-based engine, whose level r = 1 is a product
    @pytest.mark.parametrize("r,n,c,ks,states", [
        (6, 7, 5, (2,), 813),
        (7, 8, 4, (1,), 665),
        (6, 8, 4, (1, 3), 537),
        (6, 9, 4, (0, 2, 4), 407),
        (6, 7, 4, (1,), 372),
        (5, 8, 4, (0, 2, 4), 211),
    ])
    def test_memo_state_counts(self, r, n, c, ks, states):
        key = TopRowKey(r, n, c, ks)
        plain_memo: dict = {}
        q_memo: dict = {}
        plain = f_recursive(key, plain_memo)
        assert fq_recursive(key, q_memo).at_one() == plain
        assert len(plain_memo) == len(q_memo) == states


# the benchmark's deep-recursion keys
DEEP_KEYS = [TopRowKey(6, 7, 5, (2,)), TopRowKey(7, 8, 4, (1,)), TopRowKey(6, 8, 4, (1, 3)),
             TopRowKey(6, 9, 4, (0, 2, 4)), TopRowKey(6, 7, 4, (1,)), TopRowKey(5, 8, 4, (0, 2, 4))]


def _reference_recursion(state, memo, total, one):
    # the recursion as it reads: every level, r = 1 included, sums the level
    # below through total, down to the base value one
    r, n, c, ks = state
    if r == 0:
        return one
    value = memo.get(state)
    if value is None:
        bounds = (0,) + ks + (c,)
        value = memo[state] = total(
            zip(bounds, bounds[1:]),
            lambda ls: _reference_recursion((r - 1, n, c, ls), memo, total, one))
    return value


class TestClosedLastLevel:
    """At r = 1 the engine closes a state as a product of range lengths and
    never sums its terms; its memo must hold what the summed recursion does."""

    WEIGHTS = {
        "plain": (f_recursive, exact.chained_sum, 1),
        "q": (fq_recursive, functools.partial(exact.chained_sum_packed, bits=exact.PACK_BITS),
              (1, 0, 1)),
    }

    @pytest.mark.parametrize("weight", ["plain", "q"])
    @pytest.mark.parametrize("keys", ["sweep", "deep"])
    def test_memo_equals_the_summed_recursion(self, weight, keys):
        engine, total, one = self.WEIGHTS[weight]
        memo: dict = {}
        reference: dict = {}
        for key in list(_keys(2)) if keys == "sweep" else DEEP_KEYS:
            engine(key, memo)
            _reference_recursion((key.r, key.n, key.c, key.ks), reference, total, one)
        assert memo == reference

    @pytest.mark.parametrize("weight", ["plain", "q"])
    def test_total_runs_once_per_state_above_level_one(self, weight, monkeypatch):
        # each key has one n, so a chain of m links belongs to level n + 1 - m
        name = "chained_sum" if weight == "plain" else "chained_sum_packed"
        real = getattr(counting, name)
        chains = []

        def counted(bounds, summand, *args, **kwargs):
            bounds = list(bounds)
            chains.append(len(bounds))
            return real(bounds, summand, *args, **kwargs)

        monkeypatch.setattr(counting, name, counted)
        engine = self.WEIGHTS[weight][0]
        for key in DEEP_KEYS:
            memo: dict = {}
            chains.clear()
            engine(key, memo)
            levels = sorted(key.n + 1 - m for m in chains)
            assert levels == sorted(r for r, *_ in memo if r >= 2), key
            assert levels[0] == 2 and any(r == 1 for r, *_ in memo), key


def _patterns(r, n, c, ks):
    return sum(1 for _ in enumerate_patterns(TopRowKey(r, n, c, ks)))


class TestPackedWidth:
    """fq_recursive's memo carries each state's unsigned pattern count, which
    bounds every coefficient of F_q and so proves the packed width."""

    def test_carried_count_is_the_pattern_count(self):
        memo: dict = {}
        keys = [key for key in _keys(2) if key.r]
        for key in keys:
            fq_recursive(key, memo)
        for state in keys:
            assert (state.r, state.n, state.c, state.ks) in memo
        # every state reached, sub-states included
        for state, (_, _, patterns) in memo.items():
            assert patterns == _patterns(*state), state

    def test_narrow_width_recomputes_wide(self, monkeypatch):
        # at 8 bits, a count of 2^7 or more patterns no longer proves the
        # width; (3,5,4;1,3) has a coefficient of 129 and (4,5,4;2) one of
        # 564, so decoding them at 8 bits would be wrong
        monkeypatch.setattr(counting, "PACK_BITS", 8)
        widths = []

        def recording(bounds, summand, bits):
            widths.append(bits)
            return exact.chained_sum_packed(bounds, summand, bits)

        monkeypatch.setattr(counting, "chained_sum_packed", recording)
        memo: dict = {}
        for key, wide in [
            (TopRowKey(2, 4, 3, (0, 2)), 8),  # 36 patterns
            (TopRowKey(2, 4, 4, (1, 3)), 16),  # 129 patterns
            (TopRowKey(3, 5, 4, (1, 3)), 16),  # 1,407 patterns
            (TopRowKey(4, 5, 4, (2,)), 16),  # 8,910 patterns
            (TopRowKey(3, 4, 5, (2,)), 16),  # 2,400 patterns
        ]:
            widths.clear()
            assert fq_recursive(key, memo) == fq_bruteforce(key), key
            assert widths[0] == 8
            assert max(widths) == wide, key

    def test_wide_recompute_leaves_the_memo_narrow(self, monkeypatch):
        monkeypatch.setattr(counting, "PACK_BITS", 8)
        memo: dict = {}
        key = TopRowKey(4, 5, 4, (2,))
        assert fq_recursive(key, memo) == fq_bruteforce(key)
        # every state, the top one included, is F_q packed at 8 bits
        for state, (packed, low, _) in memo.items():
            poly = fq_bruteforce(TopRowKey(*state))
            assert packed == sum(c << 8 * (e - low) for e, c in poly.terms()), state


SWEEP = [
    (r, n, c, ks)
    for r in range(3)
    for n in range(max(1, r + 1), 5)
    if 0 <= n - r <= 2
    for c in range(4)
    for ks in itertools.product(range(-2, c + 3), repeat=n - r)
]


class TestOracleEquivalence:
    @pytest.mark.parametrize("r,n,c", sorted({(r, n, c) for r, n, c, _ in SWEEP}))
    def test_engines_agree(self, r, n, c):
        for ks in itertools.product(range(-2, c + 3), repeat=n - r):
            key = TopRowKey(r, n, c, ks)
            result = bruteforce_count(key)
            assert result.plain == f_recursive(key), key
            assert result.q_weighted == fq_recursive(key), key
            assert result.consistent(), key

    def test_engines_agree_at_negative_c(self):
        plain_memo: dict = {}
        q_memo: dict = {}
        keys = 0
        for key in _negative_c_keys():
            result = bruteforce_count(key)
            assert result.plain == f_recursive(key, plain_memo), key
            assert result.q_weighted == fq_recursive(key, q_memo), key
            keys += 1
        assert keys == 689

    def test_engines_are_deterministic(self):
        key = TopRowKey(2, 4, 3, (0, 2))
        first = bruteforce_count(key)
        second = bruteforce_count(key)
        assert first == second
        assert f_recursive(key, {}) == f_recursive(key, {})
        assert fq_recursive(key, {}) == fq_recursive(key, {})


class TestGeneratingFunctionIdentity:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_fq_matches_spp_enumeration(self, n):
        # fq(n-1,n,c;k) q^k is the norm generating function of strict plane
        # partitions with parts <= n, <= c columns, k parts equal to n
        for c in range(4):
            for k in range(c + 1):
                fq = fq_bruteforce(TopRowKey(n - 1, n, c, (k,)))
                assert fq.shift(k) == spp_generating_function(n, c, k), (n, c, k)


class TestCountBoundedPartitions:
    def test_positive_side(self):
        assert count_bounded_partitions(2, 2) == 6

    def test_zero_band(self):
        for r in range(1, 7):
            for k in range(-r, 0):
                assert count_bounded_partitions(r, k) == 0

    def test_signed_extension(self):
        assert count_bounded_partitions(2, -3) == 1

    def test_matches_binomial_everywhere(self):
        for r in range(5):
            for k in range(-8, 8):
                assert count_bounded_partitions(r, k) == intro_binomial(r, k), (r, k)


class TestCountResult:
    def test_consistency_flag(self):
        good = CountResult(2, LaurentPolyQ({0: 1, 3: 1}))
        bad = CountResult(3, LaurentPolyQ({0: 1, 3: 1}))
        assert good.consistent()
        assert not bad.consistent()
