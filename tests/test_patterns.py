"""Tests for the pattern domain objects, sign, norm and the bijection."""

import itertools
import json

import pytest

from gtkit import asm
from gtkit.asm import enumerate_monotone_triangles
from gtkit.counting import TopRowKey, enumerate_patterns
from gtkit.patterns import (
    DimensionMismatch,
    GenPattern,
    Partition,
    ShapeViolation,
    StrictPlanePartition,
    enumerate_spps,
    gt_to_spp,
    norm_of,
    sign_of,
    spp_to_gt,
    validate,
)

# The worked (3,6,4) example: 6 inversions, sign +1.
EXAMPLE_364 = GenPattern(
    3,
    6,
    4,
    (
        (0, 3, -5, 10, 4),
        (0, 2, -2, 3, 8, 4),
        (0, 2, -1, 2, 4, 7, 4),
        (0, 0, 0, 1, 2, 5, 6, 4),
    ),
)

# The worked 7-row Gelfand-Tsetlin pattern, a (6,7,6)-pattern, and its
# strict plane partition of shape (6,4,2,2) with norm 52.
EXAMPLE_GT7 = GenPattern(
    6,
    7,
    6,
    (
        (0, 1, 6),
        (0, 1, 1, 6),
        (0, 1, 1, 3, 6),
        (0, 0, 1, 2, 4, 6),
        (0, 0, 1, 1, 3, 5, 6),
        (0, 0, 0, 1, 2, 4, 6, 6),
        (0, 0, 0, 0, 2, 2, 4, 6, 6),
    ),
)
EXAMPLE_SPP = StrictPlanePartition(((7, 5, 5, 4, 3, 2), (6, 4, 3, 2), (5, 2), (3, 1)))


class TestValidation:
    def test_example_is_valid(self):
        assert validate(EXAMPLE_364)

    def test_strict_betweenness_violation(self):
        rows = [list(r) for r in EXAMPLE_364.rows]
        rows[1][2] = 3  # breaks 3 > a > -5 strictness against the row above
        bad = GenPattern(3, 6, 4, tuple(tuple(r) for r in rows))
        assert not validate(bad)

    def test_border_violation(self):
        rows = [list(r) for r in EXAMPLE_364.rows]
        rows[0][0] = 1
        assert not validate(GenPattern(3, 6, 4, tuple(tuple(r) for r in rows)))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            GenPattern(1, 2, 2, ((0, 1, 2),))  # wrong row count
        with pytest.raises(DimensionMismatch):
            GenPattern(1, 2, 2, ((0, 1, 2), (0, 1, 2)))  # wrong row length

    def test_gt_patterns_validate_as_gen_patterns(self):
        # patterns with 0 <= top entry <= c have the strict condition never
        # apply, hence no inversions and positive sign
        for k in range(3):
            for p in enumerate_patterns(TopRowKey(2, 3, 2, (k,))):
                assert validate(p)
                assert all(x >= 0 for row in p.rows for x in row)
                assert sign_of(p) == 1


class TestSign:
    def test_paper_example_has_six_inversions(self):
        assert sign_of(EXAMPLE_364) == 1

    def test_weakly_increasing_rows_have_positive_sign(self):
        p = GenPattern(1, 2, 3, ((0, 2, 3), (0, 1, 2, 3)))
        assert sign_of(p) == 1

    def test_bottom_row_excluded(self):
        # top row (0,5,2) carries one inversion; descents in the bottom row
        # do not contribute
        p = GenPattern(1, 2, 2, ((0, 5, 2), (0, 0, 3, 2)))
        q = GenPattern(1, 2, 2, ((0, 5, 2), (0, 5, 3, 2)))
        assert validate(p) and validate(q)
        assert sign_of(p) == -1
        assert sign_of(q) == -1

    def test_sign_matches_descent_recount(self):
        # independent recount of descents over all rows above the bottom one
        for ks in itertools.product(range(-1, 3), repeat=2):
            for p in enumerate_patterns(TopRowKey(1, 3, 2, ks)):
                descents = sum(
                    1
                    for row in p.rows[:-1]
                    for t in range(len(row) - 1)
                    if row[t] > row[t + 1]
                )
                assert sign_of(p) == (-1) ** descents


class TestNorm:
    def test_paper_seven_row_pattern(self):
        assert validate(EXAMPLE_GT7)
        assert norm_of(EXAMPLE_GT7) == 52

    def test_all_zero_pattern(self):
        p = GenPattern(1, 2, 0, ((0, 0, 0), (0, 0, 0, 0)))
        assert norm_of(p) == 0

    def test_small_pattern_by_hand(self):
        # (1,2,1)-pattern, top entry 1, bottom interior (0, 1): norm 1+0+1
        p = GenPattern(1, 2, 1, ((0, 1, 1), (0, 0, 1, 1)))
        assert norm_of(p) == 2


class TestBijection:
    def test_paper_example_forward(self):
        assert gt_to_spp(EXAMPLE_GT7) == EXAMPLE_SPP

    def test_paper_example_inverse(self):
        assert spp_to_gt(EXAMPLE_SPP, 7, 6) == EXAMPLE_GT7

    def test_all_zero_pattern_gives_empty_spp(self):
        p = GenPattern(2, 3, 0, ((0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0, 0)))
        assert gt_to_spp(p).rows == ()

    def test_gt_to_spp_rejects_other_dimensions(self):
        with pytest.raises(DimensionMismatch):
            gt_to_spp(EXAMPLE_364)  # r = 3, n = 6

    def test_gt_to_spp_rejects_a_decreasing_row(self):
        # a top entry k > c + 1 gives valid (n-1, n, c)-patterns whose top
        # row (0, k, c) decreases
        found = [p for n in (2, 3) for c in range(3) for k in (c + 2, c + 3)
                 for p in enumerate_patterns(TopRowKey(n - 1, n, c, (k,)))]
        assert found
        for p in found:
            assert validate(p)
            with pytest.raises(ShapeViolation):
                gt_to_spp(p)

    def test_gt_to_spp_rejects_an_invalid_pattern(self):
        # rows weakly increase, but 2 is not between its upper neighbours 0, 1
        p = GenPattern(1, 2, 2, ((0, 1, 2), (0, 2, 2, 2)))
        assert not validate(p)
        with pytest.raises(ShapeViolation):
            gt_to_spp(p)

    def test_shape_violations(self):
        spp = StrictPlanePartition(((3, 1),))
        with pytest.raises(ShapeViolation):
            spp_to_gt(spp, 2, 4)  # part 3 exceeds n=2
        with pytest.raises(ShapeViolation):
            spp_to_gt(spp, 4, 1)  # two columns exceed c=1

    @pytest.mark.parametrize(
        "n,c", [(n, c) for n in range(1, 5) for c in range(4)]
    )
    def test_roundtrip_and_norm_preservation(self, n, c):
        seen = set()
        count = 0
        for k in range(c + 1):
            for p in enumerate_patterns(TopRowKey(n - 1, n, c, (k,))):
                spp = gt_to_spp(p)
                assert spp_to_gt(spp, n, c) == p
                assert spp.norm == norm_of(p)
                assert spp.count_parts_equal(n) == k
                assert spp not in seen  # injectivity
                seen.add(spp)
                count += 1
        # surjectivity onto strict plane partitions with parts <= n, <= c cols
        universe = set(enumerate_spps(n, c))
        assert seen == universe
        assert count == len(universe)


class TestSPPType:
    def test_rejects_weak_column(self):
        with pytest.raises(ShapeViolation):
            StrictPlanePartition(((2, 2), (2,)))

    def test_rejects_increasing_row(self):
        with pytest.raises(ShapeViolation):
            StrictPlanePartition(((1, 2),))

    def test_rejects_ragged_shape(self):
        with pytest.raises(ShapeViolation):
            StrictPlanePartition(((2,), (1, 1)))

    def test_norm_and_shape(self):
        spp = StrictPlanePartition(((3, 2), (1,)))
        assert spp.norm == 6
        assert [len(row) for row in spp.rows] == [2, 1]
        assert spp.num_columns == 2


class TestPartition:
    def test_rejects_increasing(self):
        with pytest.raises(ShapeViolation):
            Partition((1, 2))

    def test_padding(self):
        assert Partition((2, 1)).padded(4) == (2, 1, 0, 0)
        with pytest.raises(ShapeViolation):
            Partition((2, 1, 1)).padded(2)


class TestMonotoneTriangle:
    def test_accepts_strict_pattern(self):
        p = GenPattern(2, 3, 4, ((0, 2, 4), (0, 1, 2, 4), (0, 1, 2, 3, 4)))
        assert p in enumerate_monotone_triangles(3, 2)

    def test_rejects_weak_row(self, monkeypatch):
        p = GenPattern(2, 3, 4, ((0, 2, 4), (0, 2, 2, 4), (0, 1, 2, 3, 4)))
        assert p not in enumerate_monotone_triangles(3, 2)
        # a filter that lets weak rows through: the enumeration refuses p
        monkeypatch.setattr(asm, "_strictly_increasing",
                            lambda row: all(a <= b for a, b in zip(row, row[1:])))
        with pytest.raises(ShapeViolation):
            list(enumerate_monotone_triangles(3, 2))


class TestJsonSerialization:
    def test_gen_pattern_roundtrip(self):
        obj = EXAMPLE_364.to_json_obj()
        # canonical serialization is stable
        blob = json.dumps(obj, sort_keys=True)
        assert blob == json.dumps(EXAMPLE_364.to_json_obj(), sort_keys=True)
        assert obj["kind"] == "gen_pattern"
        assert obj["rows"][0] == [3, -5, 10]  # interior only, top row first

    def test_golden_gen_pattern_blob(self):
        p = GenPattern(1, 2, 1, ((0, 1, 1), (0, 0, 1, 1)))
        blob = json.dumps(p.to_json_obj(), sort_keys=True)
        assert blob == (
            '{"c": 1, "kind": "gen_pattern", "n": 2, "r": 1, '
            '"rows": [[1], [0, 1]]}'
        )


class TestSppEnumerator:
    def test_counts_small_cases(self):
        # one-column strict plane partitions with parts <= 3: subsets of {1,2,3}
        assert sum(1 for _ in enumerate_spps(3, 1)) == 8
        # parts <= 1, cols <= 2: empty, (1), (1,1)
        assert sum(1 for _ in enumerate_spps(1, 2)) == 3

    def test_distinct(self):
        spps = list(enumerate_spps(3, 2))
        assert len(spps) == len(set(spps))
