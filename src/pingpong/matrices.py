"""Exact arbitrary-precision integer matrices and free-group words.

All certificate machinery ultimately answers to this module: group elements
are immutable integer matrices multiplied exactly, and words over two
generators are strings over the alphabet ``a, A, b, B`` standing for
``g1, g1^-1, g2, g2^-1``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError

ALPHABET = "aAbB"


@dataclass(frozen=True, slots=True)
class IntMatrix:
    """Immutable n x n matrix with Python-int entries (row-major tuples)."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.entries)
        if n == 0 or any(len(row) != n for row in self.entries):
            raise ConfigError("IntMatrix requires square, non-empty entries")

    @property
    def n(self) -> int:
        return len(self.entries)

    @staticmethod
    def from_rows(rows) -> "IntMatrix":
        return IntMatrix(tuple(tuple(int(x) for x in row) for row in rows))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.n != other.n:
            raise ConfigError("dimension mismatch")
        a, b = self.entries, other.entries
        n = self.n
        cols = tuple(zip(*b))
        return IntMatrix(
            tuple(tuple(sum(ra[k] * cb[k] for k in range(n)) for cb in cols) for ra in a)
        )

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.entries)))

    def trace(self) -> int:
        return sum(self.entries[i][i] for i in range(self.n))

    def power(self, e: int) -> "IntMatrix":
        if e < 0:
            return inverse(self).power(-e)
        result = IntMatrix.identity(self.n)
        base = self
        while e:
            if e & 1:
                result = result @ base
            base = base @ base
            e >>= 1
        return result

    def max_abs(self) -> int:
        return max(abs(x) for row in self.entries for x in row)

    def to_float(self):
        import numpy as np

        try:
            return np.array(self.entries, dtype=float)
        except OverflowError as exc:
            raise ConfigError("matrix entries exceed the float range (about 1.8e308)") from exc

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(str(x) for x in row) for row in self.entries) + "]"


def minor(entries, rows, cols) -> int:
    """Exact determinant of the rows x cols submatrix of ``entries``; 1 if empty.

    Orders 1 and 2 are read off directly, larger ones by fraction-free
    (Bareiss) elimination.
    """
    k = len(rows)
    if k == 0:
        return 1
    if k == 1:
        return entries[rows[0]][cols[0]]
    if k == 2:
        (r0, r1), (c0, c1) = rows, cols
        return entries[r0][c0] * entries[r1][c1] - entries[r0][c1] * entries[r1][c0]
    a = [[entries[r][c] for c in cols] for r in rows]
    sign = 1
    prev = 1
    for p in range(k - 1):
        if a[p][p] == 0:
            for i in range(p + 1, k):
                if a[i][p] != 0:
                    a[p], a[i] = a[i], a[p]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(p + 1, k):
            for j in range(p + 1, k):
                a[i][j] = (a[i][j] * a[p][p] - a[i][p] * a[p][j]) // prev
        prev = a[p][p]
    return sign * a[k - 1][k - 1]


def det(m: IntMatrix) -> int:
    """Exact determinant: the full minor."""
    full = range(m.n)
    return minor(m.entries, full, full)


def inverse(m: IntMatrix) -> IntMatrix:
    """Exact integer inverse; requires det = 1 (inverse = adjugate)."""
    d = det(m)
    if d != 1:
        raise ConfigError(f"inverse requires det = 1, got det = {d}")
    n = m.n
    rest = [tuple(r for r in range(n) if r != i) for i in range(n)]

    def cofactor(i, j):  # drop row i and column j
        c = minor(m.entries, rest[i], rest[j])
        return -c if (i + j) % 2 else c

    return IntMatrix(tuple(tuple(cofactor(j, i) for j in range(n)) for i in range(n)))


def invert_word(w: str) -> str:
    """Formal inverse: reverse the word and invert each letter."""
    return w[::-1].swapcase()


def free_reduce(w: str) -> str:
    """Unique reduced word freely equal to ``w`` (stack cancellation)."""
    stack: list[str] = []
    for ch in w:
        if ch not in ALPHABET:
            raise ConfigError(f"letter {ch!r} not in alphabet {ALPHABET!r}")
        if stack and stack[-1] == ch.swapcase():
            stack.pop()
        else:
            stack.append(ch)
    return "".join(stack)


def is_reduced(w: str) -> bool:
    return free_reduce(w) == w


def evaluate_word(w: str, g1: IntMatrix, g2: IntMatrix) -> IntMatrix:
    """Exact left-to-right product of the word's letters; empty word -> I."""
    table = {"a": g1, "A": inverse(g1), "b": g2, "B": inverse(g2)}
    result = IntMatrix.identity(g1.n)
    for ch in w:
        if ch not in table:
            raise ConfigError(f"letter {ch!r} not in alphabet {ALPHABET!r}")
        result = result @ table[ch]
    return result
