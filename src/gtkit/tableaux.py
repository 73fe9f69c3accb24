"""The multivariate tableau application.

Extends the semistandard-tableau count of a fixed shape to a function on
arbitrary integer vectors (alternating in its arguments and invariant under
translation), evaluates it both by definition and by a merged recursion, and
checks the resulting quotient-of-differences product formula.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Sequence

from .exact import chained_sum
from .patterns import Partition


def ssyt_bruteforce(shape: Sequence[int], k: int) -> int:
    """Count fillings of the shape with entries in {1..k}, rows weakly
    increasing and columns strictly increasing, by direct backtracking."""
    if k < 1:
        raise ValueError(f"entry bound must be positive, got {k}")
    rows = [p for p in Partition(tuple(shape)).parts if p > 0]
    if len(rows) > k:
        return 0  # a column of more than k strictly increasing entries
    if not rows:
        return 1

    def fill(row_idx: int, col_idx: int, current: list[list[int]]) -> int:
        if row_idx == len(rows):
            return 1
        if col_idx == rows[row_idx]:
            return fill(row_idx + 1, 0, current)
        lo = 1
        if col_idx > 0:
            lo = max(lo, current[row_idx][col_idx - 1])
        if row_idx > 0 and col_idx < rows[row_idx - 1]:
            lo = max(lo, current[row_idx - 1][col_idx] + 1)
        total = 0
        for v in range(lo, k + 1):
            current[row_idx].append(v)
            total += fill(row_idx, col_idx + 1, current)
            current[row_idx].pop()
        return total

    return fill(0, 0, [[] for _ in rows])


def _sort_desc_with_sign(lam: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    # sign of the permutation that sorts lam weakly decreasing
    order = sorted(range(len(lam)), key=lambda t: (-lam[t], t))
    inversions = sum(
        1
        for a in range(len(order))
        for b in range(a + 1, len(order))
        if order[a] > order[b]
    )
    sign = -1 if inversions & 1 else 1
    return sign, tuple(lam[t] for t in order)


def ssyt_count(shape: Sequence[int], k: int, memo: dict) -> int:
    """ssyt_bruteforce(shape, k), kept in memo under (parts, k) with the
    trailing zero parts dropped."""
    parts = tuple(shape)
    while parts and not parts[-1]:
        parts = parts[:-1]
    count = memo.get((parts, k))
    if count is None:
        count = memo[parts, k] = ssyt_bruteforce(parts, k)
    return count


def f_ext(lam: Sequence[int], memo: dict | None = None) -> int:
    """The alternating extension of the tableau count to integer vectors.

    Vanishes on repeated entries; otherwise sort strictly decreasing
    (collecting the permutation sign), translate so the least entry is -k,
    and count semistandard tableaux of the staircase-shifted shape
    (lam_1+1, lam_2+2, ..., lam_k+k) with entries in {1..k}.
    """
    lam = tuple(lam)
    k = len(lam)
    if k == 0:
        return 1
    if len(set(lam)) != k:
        return 0
    sign, ordered = _sort_desc_with_sign(lam)
    shift = -k - ordered[-1]
    shape = tuple(ordered[t] + shift + t + 1 for t in range(k))
    return sign * ssyt_count(shape, k, {} if memo is None else memo)


def f_ext_recursive(lam: Sequence[int], memo: dict | None = None) -> int:
    """Evaluate the extension by the merged recursion.

    When every entry is at least the last one, sum the (k-1)-variable values
    over mu_i in [lam_k + 1, lam_i] with extended-summation semantics; for
    other vectors, permutation-normalize first.  The one-variable function is
    identically 1.  memo holds the values.
    """
    return _f_ext_rec(tuple(lam), {} if memo is None else memo)


def _f_ext_rec(lam: tuple[int, ...], memo: dict) -> int:
    k = len(lam)
    if k <= 1:
        return 1
    if len(set(lam)) != k:
        return 0
    last = lam[-1]
    if min(lam) < last:
        sign, ordered = _sort_desc_with_sign(lam)
        return sign * _f_ext_rec(ordered, memo)
    cached = memo.get(lam)
    if cached is not None:
        return cached
    bounds = [(last + 1, top) for top in lam[:-1]]
    value = chained_sum(bounds, functools.partial(_f_ext_rec, memo=memo))
    memo[lam] = value
    return value


def verify_sign_involution(lam: Sequence[int], memo: dict | None = None) -> bool:
    """The signed sum over tuples mu with lam_k+1 <= mu_i <= lam_i that dip
    below the next entry (mu_i <= lam_{i+1} for some i) vanishes."""
    lam = tuple(lam)
    k = len(lam)
    if any(lam[t] < lam[t + 1] for t in range(k - 1)):
        raise ValueError(f"need a weakly decreasing vector, got {lam}")
    if k < 2:
        return True
    lo = lam[-1] + 1
    total = 0
    for mu in itertools.product(*[range(lo, lam[t] + 1) for t in range(k - 1)]):
        if any(mu[t] <= lam[t + 1] for t in range(k - 1)):
            total += f_ext(mu, memo)
    return total == 0


def verify_part_formula(lam: Sequence[int], memo: dict | None = None) -> bool:
    """f_ext(lam) equals prod_{i<j} (lam_i - lam_j) / (j - i), the
    denominator multiplied across."""
    lam = tuple(lam)
    pairs = list(itertools.combinations(range(len(lam)), 2))
    return (f_ext(lam, memo) * math.prod(j - i for i, j in pairs)
            == math.prod(lam[i] - lam[j] for i, j in pairs))
