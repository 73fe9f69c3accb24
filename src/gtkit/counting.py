"""Signed enumeration engines.

Two independent routes to the signed pattern count F(r,n,c;k_1..k_{n-r}) and
its q-analog F_q: an exhaustive backtracking enumerator (the ground truth)
and the memoized extended-summation recursion (the fast path).  Equality of
the two on documented sweeps is the central oracle of the whole package.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import namedtuple
from typing import Callable, Iterator

from .exact import (LaurentPolyQ, chained_count, chained_count2, chained_count_packed,
                    chained_sum, chained_sum_packed, unpack_q, widened)
from .patterns import GenPattern, _checked_make, enumerate_spps


class TopRowKey(namedtuple("TopRowKey", "r n c ks")):
    """Parameters (r, n, c) plus the interior top-row entries k_1..k_{n-r}."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, r: int, n: int, c: int, ks: tuple[int, ...]):
        ks = tuple(ks)
        if r < 0 or n < 1 or r > n:
            raise ValueError(f"bad parameters r={r}, n={n}")
        if len(ks) != n - r:
            raise ValueError(f"top row needs {n - r} entries, got {len(ks)}")
        return super().__new__(cls, r, n, c, ks)


class CountResult(namedtuple("CountResult", "plain q_weighted")):
    """Plain signed count (an int) together with its q-weighted refinement
    (a LaurentPolyQ)."""

    __slots__ = ()

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


def _walk(key: TopRowKey, complete: Callable[[list[range]], object] | None = None,
          row_filter: Callable[[tuple[int, ...]], bool] | None = None,
          memo: dict | None = None) -> Iterator[tuple]:
    """The one top-down walk of the brute-force route.

    For each choice of the upper rows (all but the bottom row, top first,
    pruned by row_filter), yield the rows above the last upper row, that
    row, the choice's inversion parity (borders included), its interior
    sum, and complete(ranges) of the bottom row's cell ranges, one value
    from each making a pattern; complete None makes the bottom rows
    themselves, row_filter applied.  At r = 0 the top row is the bottom
    row: the one choice has no upper rows, its last row is None and its
    ranges are singletons.

    A table maps each distinct row to its parity, interior sum and next
    rows (complete(ranges) for a last upper row; a row's length fixes its
    depth at n), worked out on first reach.  A row's facts depend on the
    row, c, complete and row_filter alone, so memo keeps one table per
    (n, c, complete, row_filter) for every r and ks; without a memo the
    table lives for this call.  The stack holds the rows whose next rows
    are still to be chosen; a row just above the last upper row yields its
    next rows in one loop, so a last upper row is never pushed.  The table
    holds row facts, never counts below a non-last row: every choice is
    still yielded.
    """
    r, n, c = key.r, key.n, key.c
    bottoms = complete or functools.partial(_rows_below, c=c, row_filter=row_filter)
    if r == 0:
        yield (), None, 0, 0, bottoms([range(k, k + 1) for k in key.ks])
        return
    top = (0,) + key.ks + (c,)
    if row_filter is not None and not row_filter(top):
        return
    table = {} if memo is None else memo.setdefault((n, c, complete, row_filter), {})

    def facts(row):
        following = row[1:]
        ranges = list(map(_cell_range, row, following))
        below = bottoms(ranges) if len(row) > n else _rows_below(ranges, c, row_filter)
        table[row] = found = (sum(map(operator.gt, row, following)) & 1,
                              sum(row) - c,  # the borders are 0 and c
                              below)
        return found

    get = table.get
    # the rows chosen so far, their parity and interior sum, and the
    # candidates for the next row; the top row is the one candidate for the
    # first
    stack = [((), 0, 0, (top,))]
    while stack:
        rows, parity, norm, nexts = stack.pop()
        if len(rows) == r - 1:
            for row in nexts:
                flip, interior, below = get(row) or facts(row)
                yield rows, row, parity ^ flip, norm + interior, below
        else:
            # reversed, so that the stack pops them in order
            for row in reversed(nexts):
                flip, interior, below = get(row) or facts(row)
                stack.append((rows + (row,), parity ^ flip, norm + interior, below))


def enumerate_patterns(
    key: TopRowKey,
    row_filter: Callable[[tuple[int, ...]], bool] | None = None,
) -> Iterator[GenPattern]:
    """Yield every (r,n,c)-pattern with the given top row exactly once.

    Rows are filled top-down; each cell ranges over the interval determined
    by its two upper neighbours, so the stream is finite.  An optional
    row_filter prunes rows (borders included) as they are generated.  The
    walk yields a choice's last upper row apart from the rows above it;
    they are joined once per choice, then completed by each bottom row.
    """
    r, n, c = key.r, key.n, key.c
    pattern = GenPattern._trusted
    for above, last, _, _, below in _walk(key, None, row_filter):
        rows = above + (last,) if r else above
        for bottom in below:
            yield pattern(r, n, c, rows + (bottom,))


def count_patterns(key: TopRowKey, row_filter: Callable | None = None,
                   memo: dict | None = None) -> int:
    """Number of patterns enumerate_patterns(key, row_filter) yields, added
    up per choice of the upper rows without building one; memo as _walk's."""
    return sum(len(below) for *_, below in _walk(key, None, row_filter, memo))


def _bottom_sums(ranges: list[range]) -> tuple[tuple[int, int], ...]:
    # the bottom rows' tally: each distinct interior sum with its number of rows
    tally: dict[int, int] = {}
    for s in map(sum, itertools.product(*ranges)):
        tally[s] = tally.get(s, 0) + 1
    return tuple(tally.items())


def bruteforce_count(key: TopRowKey, memo: dict | None = None) -> CountResult:
    """Plain and q-weighted brute-force counts from a single enumeration pass.

    Each choice of the upper rows adds its sign times the number of bottom
    rows with each interior sum to the coefficient of q^(norm - sum(ks)), one
    add per distinct sum; the plain count is the sum of those coefficients.
    The walk's table keeps that tally per last upper row: every bottom row
    is generated once per distinct last row and memo (as _walk's), and
    every choice still adds its own tally.
    """
    by_norm: dict[int, int] = {}
    get = by_norm.get
    for _, _, parity, norm, tally in _walk(key, _bottom_sums, None, memo):
        for s, rows in tally:
            by_norm[norm + s] = get(norm + s, 0) + (-rows if parity else rows)
    offset = sum(key.ks)
    return CountResult(sum(by_norm.values()),
                       LaurentPolyQ({e - offset: v for e, v in by_norm.items()}))


def _bottom_count(ranges: list[range]) -> int:
    return math.prod(map(len, ranges))


def pattern_counts(key: TopRowKey, memo: dict | None = None) -> tuple[int, int]:
    """The signed and the unsigned number of (r,n,c)-patterns with the given
    top row, from one walk: each choice of upper rows adds its number of
    bottom rows, the product of their cells' range lengths, to the total of
    its sign.  memo as _walk's."""
    totals = [0, 0]
    for _, _, parity, _, count in _walk(key, _bottom_count, None, memo):
        totals[parity] += count
    even, odd = totals
    return even - odd, even + odd


def f_bruteforce(key: TopRowKey, memo: dict | None = None) -> int:
    """Signed count of all (r,n,c)-patterns with the given top row, the
    first of pattern_counts(key, memo)."""
    return pattern_counts(key, memo)[0]


def fq_bruteforce(key: TopRowKey, memo: dict | None = None) -> LaurentPolyQ:
    """Signed q-weighted count, normalized by q^(k_1 + ... + k_{n-r})."""
    return bruteforce_count(key, memo).q_weighted


# ---------------------------------------------------------------------------
# The extended-summation recursion
# ---------------------------------------------------------------------------


def clear_memos() -> None:
    """A no-op, still called by perfbench/run.py."""


class _Level(dict):
    """One level (r, n, c) of a recursion memo: its states, keyed by ks.
    level sets width = n - r, tail = (c,), the chain's last bound, and
    value_of, the level's closer or its total over the table below.  A
    missing ks of width entries is computed once, as value_of over the
    links (0, k_1), (k_1, k_2), ..., (k_{n-r}, c) of its chain of bounds,
    and stored, so a repeat read is a C-level dict lookup; ValueError for
    any other length.  Zipping (0,) + ks with ks + tail builds fewer tuples
    per state than slicing the bounds would, which pays for that check."""

    __slots__ = ("width", "tail", "value_of")

    def __missing__(self, ks):
        if len(ks) != self.width:
            raise ValueError(f"top row needs {self.width} entries, got {len(ks)}")
        value = self[ks] = self.value_of(zip((0,) + ks, ks + self.tail))
        return value


def level(memo: dict, r: int, n: int, c: int, bits: int | None = None) -> _Level:
    """memo's table of F(r,n,c;ks), keyed by ks, for n >= 1, 0 <= r <= n and
    ks of n - r entries, ValueError otherwise, as TopRowKey: the recursion
    engine, and its one read path on both weights.  bits None is the plain
    weight, each state the count as an int.  With bits, each state is F_q
    packed at width bits, the triple (packed, low, patterns) of
    exact.chained_sum_packed; patterns, the unsigned number of patterns with
    that top row, bounds the sum of |coefficient|.

    A table is built on first reach, over the table below it.  Each state
    sums F(r-1,n,c;l_1..l_{n-r+1}) over the chained extended ranges l_1 in
    [0,k_1], l_2 in [k_1,k_2], ..., l_{n-r+1} in [k_{n-r},c], by the weight's
    total(bounds, summand), exact.chained_sum or exact.chained_sum_packed
    (which weights each innermost term by q^(l_1 + ... + l_{n-r+1})),
    reading the summands from the table below.  closers[j](bounds) is a
    level j + 1 state in closed form, so the levels up to len(closers) are
    never summed: exact.chained_count and exact.chained_count2 close levels
    r = 1 and 2 of the plain weight, and no table below level 2 is built
    under a higher one; exact.chained_count_packed closes level r = 1 of
    the q weight.  Every state of level 0 is the base value F(0,n,c;.),
    closers[0](()): 1, or (1, 0, 1) packed.  memo maps each level (r, n, c)
    to its table, so one memo holds one weight at one width: never read it
    with and without bits, nor at a second width (exact.widened keeps a
    caller's memo at PACK_BITS).  Each state costs one Python call, and a
    repeat read, in this call or a later one on the same memo, none.
    """
    table = memo.get((r, n, c))
    if table is None:
        if r < 0 or n < 1 or r > n:
            raise ValueError(f"bad parameters r={r}, n={n}")
        total, *closers = ((chained_sum, chained_count, chained_count2) if bits is None else
                           (functools.partial(chained_sum_packed, bits=bits),
                            functools.partial(chained_count_packed, bits=bits)))
        if r > len(closers):
            value_of = functools.partial(total, summand=level(memo, r - 1, n, c, bits).__getitem__)
        else:
            value_of = closers[r - 1] if r else lambda links, base=closers[0](()): base
        table = memo[r, n, c] = _Level()
        table.width, table.tail, table.value_of = n - r, (c,), value_of
    return table


def f_recursive(key: TopRowKey, memo: dict | None = None) -> int:
    """F(r,n,c;ks) by the fundamental recursion: one read of
    level(memo, r, n, c), memo a fresh dict if None."""
    return level({} if memo is None else memo, key.r, key.n, key.c)[key.ks]


def fq_recursive(key: TopRowKey, memo: dict | None = None) -> LaurentPolyQ:
    """Evaluate F_q(r,n,c;ks) by the q-weighted recursion: one read of
    level(memo, r, n, c, bits), at the width exact.widened proves from its
    pattern count, unpacked once.  Each pattern adds +1 or -1 to one
    coefficient, so the count bounds them all; a count too wide for
    PACK_BITS recomputes the key in a fresh memo, and the caller's memo
    keeps its one width.
    """
    def packed_at(table, bits):
        return level(table, key.r, key.n, key.c, bits)[key.ks]

    bits, packed, low, _ = widened(packed_at, memo)
    return unpack_q(packed, low, bits)


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
