"""Monotone triangles and the alternating-sign-matrix observation.

Monotone triangles are enumerated through the generalized-pattern enumerator
with an added strict-row filter.  The module checks the refined counting
formula against brute force and the observation that the (n-1,n,n-1) count at
k-1 divided by the refined count is the totally-symmetric-plane-partition
number, independently of k.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from .closedforms import tsspp_product
from .counting import TopRowKey, enumerate_patterns, f_bruteforce
from .patterns import MonotoneTriangle


def _strictly_increasing(row: tuple[int, ...]) -> bool:
    return all(row[t] < row[t + 1] for t in range(len(row) - 1))


def _triangle_patterns(n: int, k: int) -> Iterator:
    if n < 1:
        raise ValueError(f"size must be positive, got {n}")
    return enumerate_patterns(TopRowKey(n - 1, n, n + 1, (k,)), row_filter=_strictly_increasing)


def enumerate_monotone_triangles(n: int, k: int) -> Iterator[MonotoneTriangle]:
    """All monotone triangles of size n whose single top entry equals k."""
    return map(MonotoneTriangle, _triangle_patterns(n, k))


def count_monotone_triangles(n: int, k: int) -> int:
    """Number of monotone triangles of size n with top entry k; zero outside
    1 <= k <= n.  The filter made the rows strict: nothing to validate."""
    return sum(1 for _ in _triangle_patterns(n, k))


def triangle_count(n: int, k: int, memo: dict) -> int:
    """count_monotone_triangles(n, k), kept in memo under (n, k)."""
    count = memo.get((n, k))
    if count is None:
        count = memo[n, k] = count_monotone_triangles(n, k)
    return count


def verify_ratio_independence(n: int, memo: dict | None = None) -> tuple[bool, Fraction]:
    """The (n-1,n,n-1)-pattern count at top entry k-1, divided by the number
    of monotone triangles of size n with top entry k, is the same for every
    k in 1..n and equals the totally symmetric plane partition product.

    The triangle counts are kept in memo, a fresh dict when none is given.
    Returns (verdict, common ratio).
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    memo = {} if memo is None else memo
    ratios = []
    for k in range(1, n + 1):
        triangles = triangle_count(n, k, memo)
        patterns = f_bruteforce(TopRowKey(n - 1, n, n - 1, (k - 1,)))
        ratios.append(Fraction(patterns, triangles))
    common = ratios[0]
    verdict = all(r == common for r in ratios) and common == tsspp_product(n)
    return verdict, common
