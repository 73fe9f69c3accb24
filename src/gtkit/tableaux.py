"""The multivariate tableau application.

Extends the semistandard-tableau count of a fixed shape to a function on
arbitrary integer vectors (alternating in its arguments and invariant under
translation), evaluates it both by definition and by a merged recursion, and
checks the quotient-of-differences product formula P_k against the
recursion at part_nodes(k), which decides it at every integer vector by
induction on k; the agreement, translation, alternation and sign-involution
checks, one function each, run on those nodes' orderings.  The ssyt suite's
two checks of the tableau count, against the product formula and against
the extension, are functions here too.
"""

from __future__ import annotations

import functools
import itertools
from typing import Sequence

from . import closedforms
from .exact import chained_sum
from .identities import simplex_nodes
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
    value = memo.get(lam)
    if value is None:
        bounds = [(last + 1, top) for top in lam[:-1]]
        value = memo[lam] = chained_sum(bounds, functools.partial(f_ext_recursive, memo=memo))
    return value


def part_nodes(k: int) -> list[tuple[int, ...]]:
    """The vectors lam with lam_k = 0 and lam_i = sum_{j=i}^{k-1} (v_j + 1),
    v in simplex_nodes(k-1, k(k-1)/2): 1, 2, 10 and 84 strictly decreasing
    nodes for k = 1..4.  verify_part_formula passing at part_nodes(j) for
    every j <= k decides f_ext_recursive = P_k = prod_{i<j} (lam_i - lam_j)
    / (j - i) at every integer vector of length k, by induction on k:

    1. Assume f_ext_recursive = P_{k-1} on all of Z^{k-1}; P_1 = 1 is the
       recursion's one-variable value.
    2. On the cone where lam_k is least and the entries are distinct,
       f_ext_recursive(lam) is then g_k(lam), the extended sum of
       P_{k-1}(mu) over every mu_i in [lam_k + 1, lam_i].  Each extended sum
       of a polynomial over [a, b] is S(b+1) - S(a), S a Faulhaber sum of one
       degree more, so g_k is a polynomial of total degree at most
       (k-1)(k-2)/2 + k-1 = k(k-1)/2, as P_k is.
    3. g_k and P_k are both translation invariant (mu moves with lam, and
       P_{k-1} is), so each is a polynomial of that degree in the k-1
       differences lam_i - lam_k.  The node map v -> lam is an invertible
       affine map of Z^{k-1} onto those differences, so g_k - P_k composed
       with it vanishes on the simplex and is 0 (simplex_nodes).
    4. Off the cone f_ext_recursive sorts with the permutation's sign, and
       it is 0 at a tie; P_k is alternating, so it agrees there too."""
    return [tuple(sum(x + 1 for x in v[i:]) for i in range(k))
            for v in simplex_nodes(k - 1, k * (k - 1) // 2)]


#: What verify_part_formula passing at part_nodes(j), every j <= k,
#: decides; formatted with the largest k.
PART_DECIDES = "every integer vector, k <= {}, by induction on k"


def verify_part_formula(lam: Sequence[int], memo: dict | None = None) -> bool:
    """f_ext_recursive(lam) equals closedforms.part_product(lam), P_k =
    prod_{i<j} (lam_i - lam_j) / (j - i); memo: the recursion's values."""
    return f_ext_recursive(lam, memo) == closedforms.part_product(lam)


def verify_ssyt_product(shape: Sequence[int], k: int, memo: dict | None = None) -> bool:
    """closedforms.ssyt_product(shape, k) equals the tableau count
    ssyt_count(shape, k); memo: the tableau counts."""
    return closedforms.ssyt_product(shape, k) == ssyt_count(shape, k, {} if memo is None else memo)


def verify_ssyt_extension(shape: Sequence[int], k: int, memo: dict | None = None) -> bool:
    """f_ext at lam_t = shape_t - t - 1, t < k, equals the tableau count
    ssyt_count(shape, k), for a shape of exactly k rows: f_ext counts the
    shape less its full columns, which for a shape of fewer rows is the
    shape itself, the one count the check would compare it with.  memo: the
    tableau counts and extension values."""
    memo = {} if memo is None else memo
    lam = tuple(shape[t] - t - 1 for t in range(k))
    return f_ext(lam, memo) == ssyt_count(shape, k, memo)


def verify_recursion_agreement(lam: Sequence[int], memo: dict | None = None,
                               rec_memo: dict | None = None) -> bool:
    """f_ext(lam), the tableau count by definition, equals
    f_ext_recursive(lam); memo and rec_memo: each route's own values."""
    return f_ext(lam, memo) == f_ext_recursive(lam, rec_memo)


def verify_translation(lam: Sequence[int], shift: int, memo: dict | None = None) -> bool:
    """f_ext is unchanged when every entry of lam moves by shift."""
    return f_ext(lam, memo) == f_ext(tuple(x + shift for x in lam), memo)


def verify_alternating(lam: Sequence[int], memo: dict | None = None) -> bool:
    """Every permutation of lam's entries multiplies f_ext by its sign, the
    parity of its inversions."""
    base = f_ext(lam, memo)
    return all(f_ext(tuple(lam[p] for p in perm), memo)
               == (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2)) * base
               for perm in itertools.permutations(range(len(lam))))


def verify_sign_involution(lam: Sequence[int], memo: dict | None = None) -> bool:
    """The signed sum over tuples mu with lam_k+1 <= mu_i <= lam_i that dip
    below the next entry (mu_i <= lam_{i+1} for some i) vanishes."""
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
