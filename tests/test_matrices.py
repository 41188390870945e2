"""Exact matrix arithmetic and free-group word handling."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pingpong.errors import ConfigError
from pingpong.matrices import (
    IntMatrix,
    det,
    evaluate_word,
    free_reduce,
    inverse,
    invert_word,
)

I2 = IntMatrix.identity(2)
H = IntMatrix.from_rows([[2, 1], [1, 1]])
ROT = IntMatrix.from_rows([[0, -1], [1, 0]])


def test_det_examples():
    assert det(IntMatrix.identity(3)) == 1
    assert det(H) == 1
    assert det(IntMatrix.from_rows([[1, 2, 0], [0, 1, 0], [0, 0, 1]])) == 1
    assert det(IntMatrix.from_rows([[2, 0], [0, 2]])) == 4
    assert det(IntMatrix.from_rows([[1, 1], [1, 1]])) == 0


def test_det_matches_permutation_expansion():
    # independent oracle: Leibniz expansion over permutations
    import itertools

    def leibniz(m):
        n = m.n
        total = 0
        for perm in itertools.permutations(range(n)):
            sign = 1
            for i in range(n):
                for j in range(i + 1, n):
                    if perm[i] > perm[j]:
                        sign = -sign
            term = 1
            for i in range(n):
                term *= m.entries[i][perm[i]]
            total += sign * term
        return total

    import random

    rng = random.Random(0)
    for n in (2, 3, 4):
        for _ in range(25):
            m = IntMatrix.from_rows(
                [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            )
            assert det(m) == leibniz(m)


def test_det_multiplicative_fuzz():
    import random

    rng = random.Random(1)
    for _ in range(50):
        a = IntMatrix.from_rows([[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)])
        b = IntMatrix.from_rows([[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)])
        assert det(a @ b) == det(a) * det(b)


def test_inverse_examples():
    assert inverse(I2) == I2
    assert inverse(H) == IntMatrix.from_rows([[1, -1], [-1, 2]])
    assert inverse(ROT) == IntMatrix.from_rows([[0, 1], [-1, 0]])
    assert inverse(IntMatrix.from_rows([[1]])) == IntMatrix.from_rows([[1]])


def test_inverse_rejects_non_unimodular():
    with pytest.raises(ConfigError):
        inverse(IntMatrix.from_rows([[2, 0], [0, 2]]))


def test_inverse_is_exact_two_sided():
    import random

    rng = random.Random(2)
    gens = [
        IntMatrix.from_rows([[1, 1], [0, 1]]),
        IntMatrix.from_rows([[1, 0], [1, 1]]),
    ]
    m = I2
    for _ in range(40):
        m = m @ gens[rng.randint(0, 1)]
    assert m @ inverse(m) == I2
    assert inverse(m) @ m == I2


def test_evaluate_word_examples():
    assert evaluate_word("", H, ROT) == I2
    assert evaluate_word("aA", H, ROT) == I2
    g1 = IntMatrix.from_rows([[1, 2], [0, 1]])
    g2 = IntMatrix.from_rows([[1, 0], [2, 1]])
    assert evaluate_word("ab", g1, g2) == IntMatrix.from_rows([[5, 2], [2, 1]])


def test_free_reduce_examples():
    assert free_reduce("aA") == ""
    assert free_reduce("abBa") == "aa"
    assert free_reduce("aBbAb") == "b"


def test_free_reduce_rejects_bad_letters():
    with pytest.raises(ConfigError):
        free_reduce("ax")


_letters = st.text(alphabet="aAbB", max_size=24)


@given(_letters)
def test_free_reduce_idempotent(w):
    r = free_reduce(w)
    assert free_reduce(r) == r


@given(_letters)
def test_free_reduce_no_adjacent_inverses(w):
    r = free_reduce(w)
    assert all(r[i] != r[i + 1].swapcase() for i in range(len(r) - 1))


@settings(max_examples=40)
@given(_letters)
def test_reduction_preserves_evaluation(w):
    g1 = IntMatrix.from_rows([[1, 2], [0, 1]])
    g2 = IntMatrix.from_rows([[1, 0], [2, 1]])
    assert evaluate_word(w, g1, g2) == evaluate_word(free_reduce(w), g1, g2)


@given(_letters)
def test_invert_word_is_involution(w):
    assert invert_word(invert_word(w)) == w
    assert free_reduce(w + invert_word(w)) == ""


def test_power():
    assert H.power(0) == I2
    assert H.power(4) == IntMatrix.from_rows([[34, 21], [21, 13]])
    assert H.power(-1) == inverse(H)
