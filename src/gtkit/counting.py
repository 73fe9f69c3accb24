"""Signed enumeration engines.

Two independent routes to the signed pattern count F(r,n,c;k_1..k_{n-r}) and
its q-analog F_q: an exhaustive backtracking enumerator (the ground truth)
and the memoized extended-summation recursion (the fast path).  Equality of
the two on documented sweeps is the central oracle of the whole package.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from .exact import (PACK_BITS, LaurentPolyQ, chained_count, chained_count_packed,
                    chained_sum, chained_sum_packed, unpack_q)
from .patterns import GenPattern, enumerate_spps


@dataclass(frozen=True)
class TopRowKey:
    """Parameters (r, n, c) plus the interior top-row entries k_1..k_{n-r}."""

    r: int
    n: int
    c: int
    ks: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "ks", tuple(self.ks))
        if self.r < 0 or self.n < 1 or self.r > self.n:
            raise ValueError(f"bad parameters r={self.r}, n={self.n}")
        if len(self.ks) != self.n - self.r:
            raise ValueError(
                f"top row needs {self.n - self.r} entries, got {len(self.ks)}"
            )


@dataclass(frozen=True)
class CountResult:
    """Plain signed count together with its q-weighted refinement."""

    plain: Fraction
    q_weighted: LaurentPolyQ

    def consistent(self) -> bool:
        """The q-polynomial evaluated at q = 1 must reproduce the plain count."""
        return self.q_weighted.at_one() == self.plain


# ---------------------------------------------------------------------------
# Exhaustive enumeration
# ---------------------------------------------------------------------------


def _cell_range(w: int, e: int) -> range:
    # admissible values weakly between ordered neighbours, strictly between
    # inverted ones
    return range(w, e + 1) if w <= e else range(e + 1, w)


def _rows_below(ranges: list[range], c: int, row_filter) -> list:
    # one value from each range, borders added; row_filter applied
    rows = [(0,) + combo + (c,) for combo in itertools.product(*ranges)]
    return rows if row_filter is None else list(filter(row_filter, rows))


def _walk(key: TopRowKey, complete: Callable[[list[range]], object],
          row_filter: Callable[[tuple[int, ...]], bool] | None = None) -> Iterator[tuple]:
    """The one top-down walk of the brute-force route.

    For each choice of the rows above the bottom row (top first, pruned by
    row_filter), yield those rows, their inversion parity (borders
    included), their interior sum, and complete(ranges) of the bottom row's
    cell ranges, one value from each making a pattern.  At r = 0 the top row
    is the bottom row and its ranges are singletons.

    A table for this call maps each distinct row to its parity, interior sum
    and next rows (complete(ranges) just above the bottom row; a row's
    length fixes its depth), worked out on first reach.  It holds row facts,
    never counts: every choice is still yielded.
    """
    r, c = key.r, key.c
    if r == 0:
        yield (), 0, 0, complete([range(k, k + 1) for k in key.ks])
        return
    top = (0,) + key.ks + (c,)
    if row_filter is not None and not row_filter(top):
        return
    table: dict = {}
    stack = [((top,), 0, 0)]
    while stack:
        rows, parity, norm = stack.pop()
        row, last = rows[-1], len(rows) == r
        facts = table.get(row)
        if facts is None:
            ranges = [_cell_range(w, e) for w, e in zip(row, row[1:])]
            # next rows reversed, so that the stack pops them in order
            below = complete(ranges) if last else _rows_below(ranges, c, row_filter)[::-1]
            facts = table[row] = (sum(a > b for a, b in zip(row, row[1:])) & 1,
                                  sum(row) - c,  # the borders are 0 and c
                                  below)
        flip, interior, below = facts
        parity ^= flip
        norm += interior
        if last:
            yield rows, parity, norm, below
        else:
            for child in below:
                stack.append((rows + (child,), parity, norm))


def enumerate_patterns(
    key: TopRowKey,
    row_filter: Callable[[tuple[int, ...]], bool] | None = None,
) -> Iterator[GenPattern]:
    """Yield every (r,n,c)-pattern with the given top row exactly once.

    Rows are filled top-down; each cell ranges over the interval determined
    by its two upper neighbours, so the stream is finite.  An optional
    row_filter prunes rows (borders included) as they are generated.
    """
    r, n, c = key.r, key.n, key.c
    bottoms = functools.partial(_rows_below, c=c, row_filter=row_filter)
    pattern = GenPattern._trusted
    for rows, _, _, below in _walk(key, bottoms, row_filter):
        for bottom in below:
            yield pattern(r, n, c, rows + (bottom,))


def _bottom_sums(ranges: list[range]) -> tuple[int, ...]:
    return tuple(map(sum, itertools.product(*ranges)))


def bruteforce_count(key: TopRowKey) -> CountResult:
    """Plain and q-weighted brute-force counts from a single enumeration pass.

    Each pattern contributes its sign to the plain count and
    sign * q^(norm - sum(ks)) to the q-weighted count, one at a time.  The
    walk's table keeps the bottom rows' interior sums per row above them.
    """
    total = 0
    by_norm: dict[int, int] = {}
    for _, parity, norm, sums in _walk(key, _bottom_sums):
        sign = -1 if parity else 1
        for s in sums:
            total += sign
            by_norm[norm + s] = by_norm.get(norm + s, 0) + sign
    offset = sum(key.ks)
    return CountResult(
        Fraction(total), LaurentPolyQ({e - offset: v for e, v in by_norm.items()})
    )


def f_bruteforce(key: TopRowKey) -> Fraction:
    """Signed count of all (r,n,c)-patterns with the given top row: the
    sign of each choice of upper rows times its number of bottom rows."""
    total = 0
    for _, parity, _, sums in _walk(key, _bottom_sums):
        total += -len(sums) if parity else len(sums)
    return Fraction(total)


def fq_bruteforce(key: TopRowKey) -> LaurentPolyQ:
    """Signed q-weighted count, normalized by q^(k_1 + ... + k_{n-r})."""
    return bruteforce_count(key).q_weighted


# ---------------------------------------------------------------------------
# The extended-summation recursion
# ---------------------------------------------------------------------------


def clear_memos() -> None:
    """A no-op, still called by perfbench/run.py."""


def f_recursive(key: TopRowKey, memo: dict | None = None) -> Fraction:
    """Evaluate F(r,n,c;ks) by the fundamental recursion.

    Each recursion level sums F(r-1,n,c;l_1..l_{n-r+1}) over the chained
    extended ranges l_1 in [0,k_1], l_2 in [k_1,k_2], ..., l_{n-r+1} in
    [k_{n-r},c], down to the base case F(0,n,c;.) = 1.  Memoized on the full
    key (r, n, c, ks); a memo value is the count as an int.  Never pass the
    memo to fq_recursive.
    """
    return Fraction(_recurse({} if memo is None else memo, chained_sum, chained_count,
                             key.r, key.n, key.c, key.ks))


def fq_recursive(key: TopRowKey, memo: dict | None = None) -> LaurentPolyQ:
    """Evaluate F_q(r,n,c;ks) by the q-weighted recursion.

    Identical nesting to f_recursive, with every innermost term weighted by
    q^(l_1 + ... + l_{n-r+1}).  A memo value is the triple
    (packed, low, patterns) of exact.chained_sum_packed at width
    PACK_BITS: F_q = q^low * P(q) with P(2^PACK_BITS) == packed, and
    patterns is the number of patterns with that top row, counted without
    sign.  memo as there; never pass it to f_recursive.

    The value is unpacked once, here.  The terms of a state's sum are the
    next rows of enumerate_patterns, so no coefficient of F_q exceeds
    patterns in absolute value, and the unpacking is exact when
    patterns < 2^(PACK_BITS-1).  Otherwise the key is recomputed, in a fresh
    private memo, at the smallest multiple of PACK_BITS that is wide enough;
    the caller's memo keeps its one width.
    """

    def packed_at(bits: int, memo: dict) -> tuple[int, int, int]:
        return _recurse(memo, functools.partial(chained_sum_packed, bits=bits),
                        functools.partial(chained_count_packed, bits=bits),
                        key.r, key.n, key.c, key.ks)

    bits = PACK_BITS
    packed, low, patterns = packed_at(bits, {} if memo is None else memo)
    if patterns.bit_length() >= bits:
        bits *= patterns.bit_length() // bits + 1
        packed, low, _ = packed_at(bits, {})
    return unpack_q(packed, low, bits)


def _recurse(memo: dict, total: Callable, box: Callable,
             r: int, n: int, c: int, ks: tuple[int, ...]):
    """The recursion engine shared by both weights.

    total(bounds, child) is chained_sum or a chained_sum_packed: it sums
    child(ls) = F(r-1,n,c;ls), this function with all but ls bound, over one
    state's chain of bounds.  box is the matching chained_count: the same
    sum of the constant F(0,n,c;.) = 1 as a product, which closes level
    r = 1; box(()) is that base value.  memo maps (r, n, c, ks) to the
    state's value as total returns it: an int for the plain weight, a
    (packed, low, patterns) triple for the q weight.  So one memo serves one
    weight and one width.
    """
    if r == 0:
        return box(())
    key = (r, n, c, ks)
    value = memo.get(key)
    if value is None:
        bounds = (0,) + ks + (c,)
        links = zip(bounds, bounds[1:])
        if r == 1:
            value = box(links)
        else:
            value = total(links, functools.partial(_recurse, memo, total, box, r - 1, n, c))
        memo[key] = value
    return value


# ---------------------------------------------------------------------------
# Bounded partitions (the introductory one-row count)
# ---------------------------------------------------------------------------


def count_bounded_partitions(r: int, k: int) -> int:
    """Number of weakly decreasing r-tuples with parts in {0..k}, extended to
    k < 0 as (-1)^r times the number of strictly increasing r-tuples between
    k and 0 (exclusive).  Always equals binomial(k+r, r)."""
    if r < 0:
        raise ValueError(f"length must be nonnegative, got {r}")
    if r == 0:
        return 1
    if k >= 0:
        return sum(1 for _ in itertools.combinations_with_replacement(range(k + 1), r))
    count = sum(1 for _ in itertools.combinations(range(k + 1, 0), r))
    return -count if r & 1 else count


# ---------------------------------------------------------------------------
# Independent generating-function oracle over strict plane partitions
# ---------------------------------------------------------------------------


def spp_generating_function(
    max_part: int, max_cols: int, parts_equal_to_max: int | None = None
) -> LaurentPolyQ:
    """Sum of q^norm over strict plane partitions with parts in {1..max_part}
    and at most max_cols columns, optionally restricted to those with the
    given number of parts equal to max_part.  Enumerates directly; used as an
    oracle against the pattern engines and the closed forms."""
    coeffs: dict[int, int] = {}
    for spp in enumerate_spps(max_part, max_cols):
        if (
            parts_equal_to_max is not None
            and spp.count_parts_equal(max_part) != parts_equal_to_max
        ):
            continue
        e = spp.norm
        coeffs[e] = coeffs.get(e, 0) + 1
    return LaurentPolyQ(coeffs)
