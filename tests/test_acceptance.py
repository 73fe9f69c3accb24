"""Acceptance suite.

One test per acceptance criterion, each printing a single pass/fail line
(visible with ``pytest -s``).  All comparisons are exact; the only tolerances
are the stated wall-clock budgets.
"""

import io
import itertools
import json
import time
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction

import gtkit.cli as cli
from gtkit.asm import count_monotone_triangles, verify_ratio_independence
from gtkit.closedforms import (
    bender_knuth_count,
    bender_knuth_gf,
    ssyt_product,
    theorem_main_q,
    theorem_main_q_fraction,
    theorem_special,
    tsspp_product,
)
from gtkit.counting import (
    TopRowKey,
    bruteforce_count,
    enumerate_patterns,
    f_bruteforce,
    f_recursive,
    fq_bruteforce,
    fq_recursive,
    spp_generating_function,
)
from gtkit.exact import LaurentPolyQ
from gtkit.identities import (
    expected_zeros,
    hyper_final_expression,
    hyper_middle_expression,
    verify_decomp,
    verify_decomp_q,
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
from gtkit.tableaux import f_ext, f_ext_recursive, ssyt_bruteforce


@contextmanager
def criterion(number: int, label: str, budget: float | None = None):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({label}): FAIL")
        raise
    elapsed = time.time() - start
    extra = f", {elapsed:.1f}s" if elapsed >= 0.05 else ""
    print(f"criterion {number} ({label}): PASS{extra}")
    if budget is not None:
        assert elapsed < budget, f"runtime {elapsed:.1f}s exceeds {budget}s budget"


def test_criterion_1_oracle_equivalence():
    with criterion(1, "recursion equals brute force, plain and q", budget=60.0):
        keys = 0
        for r in range(4):
            for n in range(max(r, 1), 6):
                if not 0 <= n - r <= 2:
                    continue
                for c in range(5):
                    for ks in itertools.product(
                        range(-2, c + 3), repeat=n - r
                    ):
                        key = TopRowKey(r, n, c, ks)
                        brute = bruteforce_count(key)
                        assert brute.plain == f_recursive(key), key
                        assert brute.q_weighted == fq_recursive(key), key
                        assert brute.consistent(), key
                        keys += 1
        assert keys >= 1160


def test_criterion_2_theorem_special():
    with criterion(2, "closed form equals signed count", budget=30.0):
        for n in range(1, 6):
            for c in range(5):
                for k in range(-n, c + n + 1):
                    assert theorem_special(n, c, k) == f_bruteforce(
                        TopRowKey(n - 1, n, c, (k,))
                    ), (n, c, k)


def test_criterion_3_theorem_main_q():
    with criterion(3, "q-closed form equals q-count", budget=60.0):
        for n in range(1, 5):
            for c in range(4):
                for k in range(-2, c + 3):
                    fq = fq_bruteforce(TopRowKey(n - 1, n, c, (k,)))
                    # the closed form is the plain generating function, which
                    # carries q^k relative to the normalized engine quantity
                    frac = theorem_main_q_fraction(n, c, k)
                    assert frac.num == fq.shift(k) * frac.den, (n, c, k)
                    if 0 <= k <= c:
                        assert theorem_main_q(n, c, k) == fq.shift(k), (n, c, k)


def test_criterion_4_bender_knuth():
    with criterion(4, "refined sums give the unrefined corollaries"):
        for n in range(1, 5):
            for c in range(5):
                plain = sum(theorem_special(n, c, k) for k in range(c + 1))
                assert plain == bender_knuth_count(n, c), (n, c)
                gf = LaurentPolyQ()
                for k in range(c + 1):
                    gf = gf + theorem_main_q(n, c, k)
                assert gf == bender_knuth_gf(n, c), (n, c)
        for n in range(1, 4):
            for c in range(4):
                assert bender_knuth_gf(n, c) == spp_generating_function(n, c), (n, c)


def test_criterion_5_zero_structure():
    with criterion(5, "predicted zeros and degree bound"):
        for n in range(2, 5):
            for c in range(5):
                for k in expected_zeros(n, c):
                    key = TopRowKey(n - 1, n, c, (k,))
                    assert next(enumerate_patterns(key), None) is None, (n, c, k)
                # vanishing (2n-1)-th differences at the nodes -2..2n: the
                # interpolant through them has degree at most 2n-2
                counts = [f_bruteforce(TopRowKey(n - 1, n, c, (k,))) for k in range(-2, 2 * n + 1)]
                for _ in range(2 * n - 1):
                    counts = [b - a for a, b in zip(counts, counts[1:])]
                assert not any(counts), (n, c)
                assert verify_zeros(n, c), (n, c)


def test_criterion_6_operator_identities(random_function):
    with criterion(6, "operator identities"):
        import random

        rng = random.Random(42)
        for idx in range(200):
            m = idx % 3 + 1
            g = random_function(m, rng.randrange(2**32))
            sample = tuple(rng.randint(-3, 3) for _ in range(m + 1))
            for i in range(1, m + 1):
                assert verify_lemma_fund(m, i, g, sample), (m, i, sample)
                assert verify_lemma_fund_q(m, i, g, sample), (m, i, sample)
                assert verify_lemma_fund_all(m, i, sample), (m, i, sample)
        for r in (2, 3):
            for d in range(-2, 3):
                for x in range(-3, 4):
                    for y in range(-3, 4):
                        assert verify_lemma_2(r, d, x, y), (r, d, x, y)
                        assert verify_lemma_2q(r, d, x, y), (r, d, x, y)
        for r, n in ((1, 3), (1, 4), (2, 4)):
            for ks in itertools.product(range(-2, 5), repeat=n - r):
                for i in range(1, n - r):
                    assert verify_decomp(r, n, 2, i, ks), (r, n, i, ks)
                    assert verify_decomp_q(r, n, 2, i, ks), (r, n, i, ks)


def test_criterion_7_hypergeometric_checks():
    with criterion(7, "hypergeometric and q-summation identities"):
        for m in range(1, 5):
            for c in range(7):
                assert verify_hyper(m, c), (m, c)
        # the displayed final expression disagrees at (2,2): 6 versus 10
        assert hyper_final_expression(2, 2) == 6
        assert hyper_middle_expression(2, 2) == 10
        for m in range(1, 4):
            for c in range(6):
                assert verify_qvand(m, c), (m, c)
        for n in range(4):
            for y in range(-3, 6):
                assert verify_qpoch_sum(n, y), (n, y)


def test_criterion_8_tableau_suite():
    with criterion(8, "tableau counts and the alternating extension"):
        shapes = set()
        for rows in range(5):
            shapes.update(
                itertools.combinations_with_replacement(range(4, 0, -1), rows)
            )
        for shape in sorted(shapes):
            for k in range(max(1, len(shape)), 5):
                brute = ssyt_bruteforce(shape, k)
                assert ssyt_product(shape, k) == brute, (shape, k)
                padded = shape + (0,) * (k - len(shape))
                lam = tuple(padded[t] - t - 1 for t in range(k))
                assert f_ext(lam) == brute, (shape, k)
        for k in (1, 2, 3):
            for lam in itertools.product(range(-2, 4), repeat=k):
                assert f_ext(lam) == f_ext_recursive(lam), lam
        for lam in itertools.product(range(-2, 3), repeat=3):
            base = f_ext(lam)
            for shift in range(-3, 4):
                assert f_ext(tuple(x + shift for x in lam)) == base, (lam, shift)
            assert f_ext((lam[1], lam[0], lam[2])) == -base, lam
            assert f_ext((lam[0], lam[2], lam[1])) == -base, lam
            assert f_ext((lam[2], lam[0], lam[1])) == base, lam


def test_criterion_9_asm_suite():
    with criterion(9, "monotone triangles and the ratio observation"):
        refined = {1: [1], 2: [1, 1], 3: [2, 3, 2], 4: [7, 14, 14, 7]}
        totals = {1: 1, 2: 2, 3: 7, 4: 42}
        for n, row in refined.items():
            got = [count_monotone_triangles(n, k) for k in range(1, n + 1)]
            assert got == row, n
            assert sum(got) == totals[n], n
        for n in range(2, 6):
            ok, ratio = verify_ratio_independence(n)
            assert ok and ratio == tsspp_product(n), n
        assert verify_ratio_independence(3) == (True, Fraction(5))


def test_criterion_10_cli_determinism():
    with criterion(10, "deterministic verification reports", budget=300.0):
        outputs = []
        codes = []
        for _ in range(2):
            buffer = io.StringIO()
            with redirect_stdout(buffer):
                codes.append(cli.main(["verify", "--suite", "all", "--seed", "42"]))
            outputs.append(buffer.getvalue())
        assert codes == [0, 0]
        assert outputs[0] == outputs[1]
        report = json.loads(outputs[0])
        assert all(v["pass"] for v in report["verdicts"])
