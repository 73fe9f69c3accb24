"""Tests for monotone-triangle counting and the ratio observation."""

import pytest

from gtkit import asm, cli
from gtkit.asm import (
    count_monotone_triangles,
    enumerate_monotone_triangles,
    verify_ratio_independence,
)
from gtkit.closedforms import refined_asm, tsspp_product
from gtkit.patterns import GenPattern


class TestCounting:
    def test_size_one(self):
        assert count_monotone_triangles(1, 1) == 1

    def test_count_equals_the_validated_triangles(self):
        for n in range(1, 6):
            for k in range(0, n + 2):
                triangles = list(enumerate_monotone_triangles(n, k))
                assert count_monotone_triangles(n, k) == len(triangles), (n, k)

    def test_size_three(self):
        assert [count_monotone_triangles(3, k) for k in (1, 2, 3)] == [2, 3, 2]

    def test_counts_without_building_patterns(self, monkeypatch):
        expected = [count_monotone_triangles(4, k) for k in range(6)]

        def fail(*args):
            raise AssertionError("a pattern was built")

        monkeypatch.setattr(GenPattern, "_trusted", fail)
        assert [count_monotone_triangles(4, k) for k in range(6)] == expected
        assert expected == [0, 7, 14, 14, 7, 0]

    def test_out_of_range_top(self):
        assert count_monotone_triangles(3, 0) == 0
        assert count_monotone_triangles(3, 4) == 0

    def test_bottom_row_is_forced(self):
        for p in enumerate_monotone_triangles(3, 2):
            assert p.rows[-1][1:-1] == (1, 2, 3)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_refined_formula(self, n):
        for k in range(1, n + 1):
            assert count_monotone_triangles(n, k) == refined_asm(n, k), (n, k)

    def test_row_sums_are_the_total_counts(self):
        totals = {1: 1, 2: 2, 3: 7, 4: 42}
        for n, expected in totals.items():
            assert sum(count_monotone_triangles(n, k) for k in range(1, n + 1)) == expected


class TestRatioIndependence:
    def test_n2(self):
        assert verify_ratio_independence(2) == (True, 2)

    def test_n3(self):
        # 10/2 = 15/3 = 5, the totally symmetric plane partition count
        assert verify_ratio_independence(3) == (True, 5)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_common_value_is_tsspp(self, n):
        ok, ratio = verify_ratio_independence(n)
        assert ok
        assert ratio == tsspp_product(n)


class TestSuiteCountsOnce:
    def test_verify_asm_counts_each_key_once(self, monkeypatch, capsys):
        # the refined, totals and ratio checks share one dict of counts:
        # n <= 4 with 1 <= k <= n, and n = 5 for the ratio, 15 keys
        calls = []
        count = asm.count_patterns

        def counted(key, row_filter=None, memo=None):
            calls.append((key.n, *key.ks))
            return count(key, row_filter, memo)

        monkeypatch.setattr(asm, "count_patterns", counted)
        assert cli.main(["verify", "--suite", "asm"]) == cli.EXIT_OK
        capsys.readouterr()
        assert sorted(calls) == [(n, k) for n in range(1, 6) for k in range(1, n + 1)]

    def test_ratio_reads_the_given_counts(self):
        memo = {(3, k): v for k, v in zip((1, 2, 3), (2, 3, 2))}
        assert verify_ratio_independence(3, memo) == (True, 5)
        memo[3, 2] = 4
        assert verify_ratio_independence(3, memo)[0] is False
        memo[3, 2] = 0  # no ratio at k = 2
        assert verify_ratio_independence(3, memo) == (False, None)
