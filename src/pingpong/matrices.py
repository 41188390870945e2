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

_INVERSE_LETTER = {"a": "A", "A": "a", "b": "B", "B": "b"}


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

        return np.array(self.entries, dtype=float)

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(str(x) for x in row) for row in self.entries) + "]"


def det(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = m.n
    a = [list(row) for row in m.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _cofactor(m: IntMatrix, i: int, j: int) -> int:
    sub = tuple(
        tuple(row[c] for c in range(m.n) if c != j) for r, row in enumerate(m.entries) if r != i
    )
    minor = det(IntMatrix(sub)) if sub else 1  # a 1x1 matrix has the empty minor
    return -minor if (i + j) % 2 else minor


def inverse(m: IntMatrix) -> IntMatrix:
    """Exact integer inverse; requires det = 1 (inverse = adjugate)."""
    d = det(m)
    if d != 1:
        raise ConfigError(f"inverse requires det = 1, got det = {d}")
    n = m.n
    return IntMatrix(tuple(tuple(_cofactor(m, j, i) for j in range(n)) for i in range(n)))


def invert_word(w: str) -> str:
    """Formal inverse: reverse the word and invert each letter."""
    return w[::-1].swapcase()


def free_reduce(w: str) -> str:
    """Unique reduced word freely equal to ``w`` (stack cancellation)."""
    stack: list[str] = []
    for ch in w:
        if ch not in _INVERSE_LETTER:
            raise ConfigError(f"letter {ch!r} not in alphabet {ALPHABET!r}")
        if stack and stack[-1] == _INVERSE_LETTER[ch]:
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
