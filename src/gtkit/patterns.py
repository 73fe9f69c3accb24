"""Combinatorial domain objects.

Partitions, strict plane partitions and generalized (r,n,c)-patterns,
together with validation, sign, norm, the pattern <-> strict plane partition
bijection, and the JSON form of a generalized pattern that
``count --dump-patterns`` writes.

``GenPattern`` is the only pattern type.  A Gelfand-Tsetlin pattern is an
(n-1, n, c)-pattern whose rows weakly increase, and a monotone triangle an
(n-1, n, n+1)-pattern whose rows strictly increase, borders included; the
functions that take or yield them (``gt_to_spp``, ``spp_to_gt`` and
``asm.enumerate_monotone_triangles``) check that.

Conventions for generalized patterns: row i = 1 is the bottom row of the
display and row i = r+1 is the top row.  Row i carries entries a[i][j] for
j = i-1 .. n+1 with forced borders a[i][i-1] = 0 and a[i][n+1] = c.  Patterns
are stored top row first with borders included.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterator


def _checked_make(cls, iterable):
    # a validated record's _make, through __new__'s checks; the named tuple's
    # _replace calls _make, so neither builds a record that __new__ refuses
    return cls(*iterable)


class ShapeViolation(ValueError):
    """An array violates the shape constraints of its type."""


class DimensionMismatch(ValueError):
    """An array has dimensions inconsistent with its declared parameters."""


# ---------------------------------------------------------------------------
# Partitions
# ---------------------------------------------------------------------------


class Partition(namedtuple("Partition", "parts")):
    """Weakly decreasing tuple of nonnegative integers."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, parts: tuple[int, ...]):
        parts = tuple(parts)
        for i, p in enumerate(parts):
            if p < 0:
                raise ShapeViolation(f"negative part {p} in {parts}")
            if i and parts[i - 1] < p:
                raise ShapeViolation(f"parts not weakly decreasing: {parts}")
        return super().__new__(cls, parts)

    def padded(self, length: int) -> tuple[int, ...]:
        """Parts padded with zeros to the given length."""
        if len(self.parts) > length:
            raise ShapeViolation(f"{self.parts} has more than {length} parts")
        return self.parts + (0,) * (length - len(self.parts))


# ---------------------------------------------------------------------------
# Strict plane partitions
# ---------------------------------------------------------------------------


class StrictPlanePartition(namedtuple("StrictPlanePartition", "rows")):
    """Ferrers-shaped array with weakly decreasing rows and strictly
    decreasing columns of positive integers."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, rows: tuple[tuple[int, ...], ...]):
        rows = tuple(map(tuple, rows))
        for p, row in enumerate(rows):
            if not row:
                raise ShapeViolation("empty row in strict plane partition")
            if p and len(row) > len(rows[p - 1]):
                raise ShapeViolation("row lengths must be weakly decreasing")
            for j, v in enumerate(row):
                if v < 1:
                    raise ShapeViolation(f"part {v} is not positive")
                if j and row[j - 1] < v:
                    raise ShapeViolation(f"row {row} not weakly decreasing")
                if p and rows[p - 1][j] <= v:
                    raise ShapeViolation("columns must be strictly decreasing")
        return super().__new__(cls, rows)

    @property
    def norm(self) -> int:
        """Sum of all parts."""
        return sum(sum(row) for row in self.rows)

    @property
    def num_columns(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def count_parts_equal(self, value: int) -> int:
        return sum(row.count(value) for row in self.rows)

    def max_part(self) -> int:
        return self.rows[0][0] if self.rows else 0


# ---------------------------------------------------------------------------
# Generalized (r,n,c)-patterns
# ---------------------------------------------------------------------------


class GenPattern(namedtuple("GenPattern", "r n c rows")):
    """Generalized (r,n,c) pattern, rows stored top first with borders.

    rows[d] is row i = r+1-d and has n-r+2+d entries; rows[0] is the top row
    (0, k_1, ..., k_{n-r}, c) and rows[r] is the bottom row.
    """

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, r: int, n: int, c: int, rows: tuple[tuple[int, ...], ...]):
        rows = tuple(map(tuple, rows))
        if r < 0 or n < 1 or r > n:
            raise DimensionMismatch(f"bad parameters r={r}, n={n}")
        if len(rows) != r + 1:
            raise DimensionMismatch(f"expected {r + 1} rows, got {len(rows)}")
        for d, row in enumerate(rows):
            if len(row) != n - r + 2 + d:
                raise DimensionMismatch(
                    f"row {d} must have {n - r + 2 + d} entries, got {len(row)}")
        return super().__new__(cls, r, n, c, rows)

    @classmethod
    def _trusted(cls, r: int, n: int, c: int, rows: tuple) -> "GenPattern":
        # internal: rows already a tuple of tuples of the right lengths, as
        # the brute-force walk builds them, so __new__'s checks are skipped
        return tuple.__new__(cls, (r, n, c, rows))

    def to_json_obj(self) -> dict:
        return {"kind": "gen_pattern", "r": self.r, "n": self.n, "c": self.c,
                "rows": [list(row[1:-1]) for row in self.rows]}


def validate(p: GenPattern) -> bool:
    """Check the three defining conditions of a generalized pattern.

    Borders must equal 0 and c, and every entry below the top row must lie
    weakly between ordered upper neighbours, strictly between inverted ones.
    """
    for row in p.rows:
        if row[0] != 0 or row[-1] != p.c:
            return False
    for d in range(p.r):
        upper, lower = p.rows[d], p.rows[d + 1]
        for t in range(1, len(lower) - 1):
            w, e, x = upper[t - 1], upper[t], lower[t]
            if w <= e:
                if not w <= x <= e:
                    return False
            elif not e < x < w:
                return False
    return True


def sign_of(p: GenPattern) -> int:
    """(-1) to the number of inversions.

    An inversion is an adjacent descending pair inside any row other than the
    bottom one; border entries take part in the pairs.
    """
    inversions = 0
    for row in p.rows[: p.r]:  # all rows except the bottom row i = 1
        for t in range(len(row) - 1):
            if row[t] > row[t + 1]:
                inversions += 1
    return -1 if inversions & 1 else 1


def norm_of(p: GenPattern) -> int:
    """Sum of all entries, omitting the first and last entry of each row."""
    return sum(sum(row[1:-1]) for row in p.rows)


# ---------------------------------------------------------------------------
# The bijection with strict plane partitions
# ---------------------------------------------------------------------------


def gt_to_spp(p: GenPattern) -> StrictPlanePartition:
    """Map a Gelfand-Tsetlin pattern, an (n-1, n, c)-pattern whose rows
    weakly increase, to its strict plane partition.

    The cells of the result holding entries greater than i form the shape
    read off (right to left) from the interior of the pattern row with n-i
    interior entries; parts lie in {1..n} and the number of parts equal to n
    is the top entry.  DimensionMismatch if r != n-1, ShapeViolation if the
    pattern is not valid or a row decreases.
    """
    n = p.n
    if p.r != n - 1:
        raise DimensionMismatch(
            f"only (n-1, n, c) patterns are Gelfand-Tsetlin, got r={p.r}, n={n}")
    if not validate(p) or any(a > b for row in p.rows for a, b in zip(row, row[1:])):
        raise ShapeViolation(f"not a Gelfand-Tsetlin pattern: {p.rows}")
    shapes = [tuple(v for v in reversed(row[1:-1]) if v > 0) for row in reversed(p.rows)]
    full = shapes[0]
    rows = []
    for t in range(len(full)):
        rows.append(tuple(sum(1 for lam in shapes if t < len(lam) and lam[t] > j)
                          for j in range(full[t])))
    return StrictPlanePartition(tuple(rows))


def spp_to_gt(s: StrictPlanePartition, n: int, c: int) -> GenPattern:
    """Inverse of gt_to_spp for parts in {1..n} and at most c columns: an
    (n-1, n, c)-pattern."""
    if s.rows and s.max_part() > n:
        raise ShapeViolation(f"parts must lie in 1..{n}")
    if s.num_columns > c:
        raise ShapeViolation(f"at most {c} columns allowed")
    rows_top_first = []
    for d in range(n):
        i = n - 1 - d  # shape of cells with entry > i has at most d+1 parts
        lam = tuple(
            count for count in (sum(1 for v in row if v > i) for row in s.rows) if count
        )
        padded = lam + (0,) * (d + 1 - len(lam))
        rows_top_first.append((0,) + tuple(reversed(padded)) + (c,))
    return GenPattern(n - 1, n, c, tuple(rows_top_first))


# ---------------------------------------------------------------------------
# Independent strict plane partition enumerator (oracle for the bijection and
# for the generating-function checks)
# ---------------------------------------------------------------------------


def _weakly_decreasing_rows(bounds: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    # nonempty weakly decreasing rows with 1 <= row[j] <= bounds[j]
    def build(prefix: tuple[int, ...], j: int) -> Iterator[tuple[int, ...]]:
        if prefix:
            yield prefix
        if j == len(bounds):
            return
        hi = min(bounds[j], prefix[-1]) if prefix else bounds[j]
        for v in range(hi, 0, -1):
            yield from build(prefix + (v,), j + 1)

    yield from build((), 0)


def enumerate_spps(max_part: int, max_cols: int) -> Iterator[StrictPlanePartition]:
    """All strict plane partitions with parts in {1..max_part} and at most
    max_cols columns, the empty one included."""
    yield StrictPlanePartition(())
    if max_part < 1 or max_cols < 1:
        return

    def extend(rows: tuple[tuple[int, ...], ...]) -> Iterator[StrictPlanePartition]:
        yield StrictPlanePartition(rows)
        bounds = tuple(v - 1 for v in rows[-1])
        if not any(bounds):
            return
        width = max(j + 1 for j, b in enumerate(bounds) if b > 0)
        for row in _weakly_decreasing_rows(bounds[:width]):
            yield from extend(rows + (row,))

    for first in _weakly_decreasing_rows((max_part,) * max_cols):
        yield from extend((first,))
