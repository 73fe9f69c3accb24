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
    increasing and columns strictly increasing, by backtracking row by row.
    Cell (i, j) is capped at k - h_j + 1 + i, h_j the height of column j, so
    every partial filling completes; the last cell adds its range's size."""
    if k < 1:
        raise ValueError(f"entry bound must be positive, got {k}")
    rows = [p for p in Partition(tuple(shape)).parts if p > 0]
    if len(rows) > k:
        return 0  # a column of more than k strictly increasing entries
    if not rows:
        return 1
    heights = [sum(p > j for p in rows) for j in range(rows[0])]
    # per cell: the slots of its left and upper neighbours (slot -1, always
    # 0, if none) and its cap
    cells = [(i, j) for i, p in enumerate(rows) for j in range(p)]
    plan = [(t - 1 if j else -1, t - rows[i - 1] if i else -1, k - heights[j] + 1 + i)
            for t, (i, j) in enumerate(cells)]
    last = len(plan) - 1
    values = [0] * (last + 2)

    def fill(t: int) -> int:
        left, above, hi = plan[t]
        lo = max(values[left], values[above] + 1)
        if t == last:
            return hi - lo + 1
        total = 0
        for v in range(lo, hi + 1):
            values[t] = v
            total += fill(t + 1)
        return total

    return fill(0)


def _sort_desc_with_sign(lam: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    # sign of the permutation that sorts lam weakly decreasing: the parity of
    # the pairs a < b with lam[a] < lam[b]
    ascents = sum(x < y for x, y in itertools.combinations(lam, 2))
    return -1 if ascents & 1 else 1, tuple(sorted(lam, reverse=True))


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
    (lam_1+1, lam_2+2, ..., lam_k+k) with entries in {1..k}.  memo keeps the
    value under lam itself, a tuple of ints, apart from ssyt_count's tableau
    counts, so a vector is sorted and shaped once per memo.
    """
    lam = tuple(lam)
    k = len(lam)
    if k == 0:
        return 1
    memo = {} if memo is None else memo
    value = memo.get(lam)
    if value is None:
        sign, ordered = _sort_desc_with_sign(lam)
        shape = tuple(x - ordered[-1] - k + t + 1 for t, x in enumerate(ordered))
        value = memo[lam] = sign * ssyt_count(shape, k, memo) if len(set(lam)) == k else 0
    return value


def f_ext_recursive(lam: Sequence[int], memo: dict | None = None) -> int:
    """Evaluate the extension by the merged recursion.

    When every entry is at least the last one, sum the (k-1)-variable values
    over mu_i in [lam_k + 1, lam_i] with extended-summation semantics; for
    other vectors, permutation-normalize first.  The one-variable function is
    identically 1.  memo holds the values.
    """
    lam = tuple(lam)
    memo = {} if memo is None else memo
    k = len(lam)
    if k <= 1:
        return 1
    if len(set(lam)) != k:
        return 0
    last = lam[-1]
    if min(lam) < last:
        sign, ordered = _sort_desc_with_sign(lam)
        return sign * f_ext_recursive(ordered, memo)
    cached = memo.get(lam)
    if cached is not None:
        return cached
    bounds = [(last + 1, top) for top in lam[:-1]]
    value = chained_sum(bounds, functools.partial(f_ext_recursive, memo=memo))
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
