"""Combinatorial domain objects.

Partitions, strict plane partitions, Gelfand-Tsetlin patterns, generalized
(r,n,c)-patterns and monotone triangles, together with validation, sign,
norm, the pattern <-> strict plane partition bijection, and the JSON form of
a generalized pattern that ``count --dump-patterns`` writes.

Conventions for generalized patterns: row i = 1 is the bottom row of the
display and row i = r+1 is the top row.  Row i carries entries a[i][j] for
j = i-1 .. n+1 with forced borders a[i][i-1] = 0 and a[i][n+1] = c.  Patterns
are stored top row first with borders included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator


class ShapeViolation(ValueError):
    """An array violates the shape constraints of its type."""


class DimensionMismatch(ValueError):
    """An array has dimensions inconsistent with its declared parameters."""


# ---------------------------------------------------------------------------
# Partitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing tuple of nonnegative integers."""

    parts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        for i, p in enumerate(self.parts):
            if p < 0:
                raise ShapeViolation(f"negative part {p} in {self.parts}")
            if i and self.parts[i - 1] < p:
                raise ShapeViolation(f"parts not weakly decreasing: {self.parts}")

    def padded(self, length: int) -> tuple[int, ...]:
        """Parts padded with zeros to the given length."""
        if len(self.parts) > length:
            raise ShapeViolation(f"{self.parts} has more than {length} parts")
        return self.parts + (0,) * (length - len(self.parts))


# ---------------------------------------------------------------------------
# Strict plane partitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StrictPlanePartition:
    """Ferrers-shaped array with weakly decreasing rows and strictly
    decreasing columns of positive integers."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
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
# Gelfand-Tsetlin patterns
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GTPattern:
    """Triangular array with n rows, stored top row first.

    rows[d] holds (a[i][i], ..., a[i][n]) for i = n - d, so rows[0] is the
    single-entry top row and rows[n-1] the n-entry bottom row.  Every entry
    lies weakly between its two upper neighbours.
    """

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        n = len(rows)
        if n == 0:
            raise DimensionMismatch("a Gelfand-Tsetlin pattern needs a row")
        for d, row in enumerate(rows):
            if len(row) != d + 1:
                raise DimensionMismatch(f"row {d} of a {n}-row pattern must have {d + 1} entries")
        for d in range(n - 1):
            upper, lower = rows[d], rows[d + 1]
            for t, v in enumerate(upper):
                if not lower[t] <= v <= lower[t + 1]:
                    raise ShapeViolation(
                        f"entry {v} not between lower neighbours {lower[t]}, {lower[t + 1]}")

    @property
    def n(self) -> int:
        return len(self.rows)


# ---------------------------------------------------------------------------
# Generalized (r,n,c)-patterns
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GenPattern:
    """Generalized (r,n,c) pattern, rows stored top first with borders.

    rows[d] is row i = r+1-d and has n-r+2+d entries; rows[0] is the top row
    (0, k_1, ..., k_{n-r}, c) and rows[r] is the bottom row.
    """

    r: int
    n: int
    c: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        if self.r < 0 or self.n < 1 or self.r > self.n:
            raise DimensionMismatch(f"bad parameters r={self.r}, n={self.n}")
        if len(rows) != self.r + 1:
            raise DimensionMismatch(f"expected {self.r + 1} rows, got {len(rows)}")
        for d, row in enumerate(rows):
            if len(row) != self.n - self.r + 2 + d:
                raise DimensionMismatch(
                    f"row {d} must have {self.n - self.r + 2 + d} entries, got {len(row)}")

    @classmethod
    def _trusted(cls, r: int, n: int, c: int, rows: tuple) -> "GenPattern":
        # internal: rows already a tuple of tuples of the right lengths, as
        # the brute-force walk builds them, so __post_init__ is skipped
        p = object.__new__(cls)
        object.__setattr__(p, "__dict__", {"r": r, "n": n, "c": c, "rows": rows})
        return p

    def to_gt(self) -> GTPattern:
        """Strip borders of an (n-1, n, c) pattern into a GTPattern."""
        if self.r != self.n - 1:
            raise DimensionMismatch(
                f"only (n-1, n, c) patterns are Gelfand-Tsetlin, got r={self.r}")
        return GTPattern(tuple(row[1:-1] for row in self.rows))

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


def gt_to_spp(g: GTPattern) -> StrictPlanePartition:
    """Map a Gelfand-Tsetlin pattern to its strict plane partition.

    The cells of the result holding entries greater than i form the shape
    read off (right to left) from the pattern row with n-i entries; parts lie
    in {1..n} and the number of parts equal to n is the top entry.
    """
    n = g.n
    shapes = []
    for i in range(n):
        row = g.rows[n - 1 - i]
        shapes.append(tuple(v for v in reversed(row) if v > 0))
    full = shapes[0]
    rows = []
    for p in range(len(full)):
        rows.append(tuple(sum(1 for lam in shapes if p < len(lam) and lam[p] > j)
                          for j in range(full[p])))
    return StrictPlanePartition(tuple(rows))


def spp_to_gt(s: StrictPlanePartition, n: int, c: int) -> GTPattern:
    """Inverse of gt_to_spp for parts in {1..n} and at most c columns."""
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
        rows_top_first.append(tuple(reversed(padded)))
    return GTPattern(tuple(rows_top_first))


# ---------------------------------------------------------------------------
# Monotone triangles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonotoneTriangle:
    """(n-1, n, n+1)-pattern whose rows are strictly increasing, borders
    included.  The bottom row is forced to (1, ..., n)."""

    pattern: GenPattern

    def __post_init__(self):
        p = self.pattern
        if p.r != p.n - 1 or p.c != p.n + 1:
            raise DimensionMismatch(
                f"monotone triangles are (n-1, n, n+1)-patterns, got ({p.r}, {p.n}, {p.c})")
        if not validate(p):
            raise ShapeViolation("underlying pattern is not valid")
        for row in p.rows:
            if any(row[t] >= row[t + 1] for t in range(len(row) - 1)):
                raise ShapeViolation(f"row {row} is not strictly increasing")


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
