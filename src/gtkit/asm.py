"""Monotone triangles and the alternating-sign-matrix observation.

Monotone triangles are enumerated through the generalized-pattern enumerator
with an added strict-row filter, and counted by brute force.  The module
checks the observation that the (n-1,n,n-1) count at k-1 divided by the
triangle count is the totally-symmetric-plane-partition number, independently
of k; the cli's asm suite compares the counts with the refined counting
formula and the totals.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Iterator

from .closedforms import tsspp_product
from .counting import TopRowKey, count_patterns, enumerate_patterns, f_bruteforce
from .patterns import GenPattern, ShapeViolation, validate


def _strictly_increasing(row: tuple[int, ...]) -> bool:
    return all(map(operator.lt, row, row[1:]))


def _triangle_key(n: int, k: int) -> TopRowKey:
    if n < 1:
        raise ValueError(f"size must be positive, got {n}")
    return TopRowKey(n - 1, n, n + 1, (k,))


def enumerate_monotone_triangles(n: int, k: int) -> Iterator[GenPattern]:
    """All monotone triangles of size n whose single top entry equals k:
    (n-1, n, n+1)-patterns whose rows, borders included, strictly increase.
    ShapeViolation on a pattern the filter let through that is not one."""
    for p in enumerate_patterns(_triangle_key(n, k), row_filter=_strictly_increasing):
        if not validate(p) or any(a >= b for row in p.rows for a, b in zip(row, row[1:])):
            raise ShapeViolation(f"not a monotone triangle: {p.rows}")
        yield p


def count_monotone_triangles(n: int, k: int, memo: dict | None = None) -> int:
    """Number of monotone triangles of size n with top entry k; zero outside
    1 <= k <= n.  The filter made the rows strict: nothing to validate.
    memo holds counting.count_patterns's row tables and, beside them, this
    count under (n, k)."""
    memo = {} if memo is None else memo
    count = memo.get((n, k))
    if count is None:
        count = memo[n, k] = count_patterns(_triangle_key(n, k), _strictly_increasing, memo)
    return count


def verify_ratio_independence(n: int, memo: dict | None = None) -> tuple[bool, Fraction | None]:
    """The (n-1,n,n-1)-pattern count at top entry k-1, divided by the number
    of monotone triangles of size n with top entry k, is the same for every
    k in 1..n and equals the totally symmetric plane partition product.

    memo holds the triangle counts and the walks' row tables, shared
    across k.  Returns (verdict, common ratio), or
    (False, None) when a triangle count is zero and a ratio is undefined.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    memo = {} if memo is None else memo
    ratios = []
    for k in range(1, n + 1):
        triangles = count_monotone_triangles(n, k, memo)
        if not triangles:
            return False, None
        patterns = f_bruteforce(TopRowKey(n - 1, n, n - 1, (k - 1,)), memo)
        ratios.append(Fraction(patterns, triangles))
    common = ratios[0]
    verdict = all(r == common for r in ratios) and common == tsspp_product(n)
    return verdict, common
