"""Exact word oracle, reduced-length statistics, Lyapunov estimation.

The oracle is the exactness backstop for every numeric certificate: it
searches reduced words in exact integer arithmetic and a returned word is
a proof of non-freeness.  Finding nothing proves nothing, but a certified
pair that the oracle falsifies would disprove the implementation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ConfigError
from .matrices import ALPHABET, IntMatrix, free_reduce, inverse, invert_word, is_reduced
from .spectral import svd, svd_batch

MAX_ORACLE_LEN = 12
MAX_STEPS = 10**7  # m * trials per run; Lyapunov products take about 30 s at the cap

_LETTERS = "abAB"  # letter i and letter i ^ 2 are inverses


@dataclass(frozen=True)
class LyapunovEstimate:
    mean: float
    stderr: float
    m: int
    trials: int
    seed: int


@dataclass(frozen=True)
class WordStats:
    m: int
    trials: int
    seed: int
    mean_ratio: float
    std_ratio: float
    min_ratio: float
    max_ratio: float
    quantiles: dict
    frac_ge_quarter: float


def falsify_freeness(g1: IntMatrix, g2: IntMatrix, max_len: int) -> str | None:
    """Shortest-ish nonempty reduced word equal to the identity, or None.

    Meet-in-the-middle search: reduced words are enumerated breadth-first
    to length ceil(max_len/2) with exact products; two words mapping to
    the same matrix yield a relation.  Exactness means a returned word
    re-evaluates to the identity with no tolerance involved.

    The products are first taken mod 2^64, all at once.  Reduction mod
    2^64 is a ring homomorphism, so words with equal integer matrices have
    equal residues; when no two residues agree, no two matrices agree and
    the search, which visits a subset of these words, would return None.
    Only a pair with a collision mod 2^64 runs the exact search.
    """
    if max_len > MAX_ORACLE_LEN:
        raise BudgetError(f"oracle budget is max_len <= {MAX_ORACLE_LEN}, got {max_len}")
    if max_len < 1:
        raise ConfigError("max_len must be >= 1")
    letters = (g1, g2, inverse(g1), inverse(g2))  # in _LETTERS order
    if g1.n != g2.n:
        raise ConfigError("dimension mismatch")
    if g1.n**2 <= _HASH.size and _distinct_mod_2_64(letters, (max_len + 1) // 2):
        return None
    return _search(g1, g2, max_len)


# odd 64-bit multipliers, one per entry of a matrix with n <= 4 (larger n
# goes straight to the exact search): a key is the entries' dot product with
# them mod 2^64, so equal residues give equal keys, and a chance collision
# of unequal ones only costs an exact search
_HASH = np.array(
    [
        0xE9DD2A205F03A26F, 0x19BED63F41D5B71D, 0xBA63C3EFF1A5F753, 0xF6B87CAF10596D79,
        0x0EF273157D48FE53, 0xCE5D0E8B3A921D61, 0x7134B950B6729FED, 0xA0DF11CA329CC939,
        0x521F6339E26FABE9, 0xA1C2E8B74909424D, 0x38783C870FB94DB3, 0x9C84CA2D11EC33E5,
        0xC322DDDAC44047BF, 0x91AB4CBD9EC50739, 0x2F89A1C161E78649, 0xBFEE67C48017A883,
    ],
    dtype=np.uint64,
)


@functools.cache
def _level(k: int) -> tuple[np.ndarray, np.ndarray]:
    """(parent, letter) indices of the reduced words of length k >= 1.

    Word i of length k is word parent[i] of length k - 1 followed by
    _LETTERS[letter[i]]; the letter never cancels the parent's last.
    """
    last = _level(k - 1)[1] if k > 1 else np.array([-1])
    parent = np.repeat(np.arange(last.size), 4)
    letter = np.tile(np.arange(4), last.size)
    keep = letter != (last[parent] ^ 2)
    parent, letter = parent[keep], letter[keep]
    parent.flags.writeable = letter.flags.writeable = False  # shared by every call
    return parent, letter


def _distinct_mod_2_64(letters: tuple[IntMatrix, ...], depth: int) -> bool:
    """Whether the reduced words of length <= depth, the empty word included,
    have pairwise distinct keys; then their integer matrices are distinct."""
    n = letters[0].n
    gens = np.array(
        [[[x % 2**64 for x in row] for row in g.entries] for g in letters], dtype=np.uint64
    )
    level = np.eye(n, dtype=np.uint64)[None]
    levels = [level]
    for k in range(1, depth + 1):
        parent, letter = _level(k)
        level = level[parent] @ gens[letter]  # uint64 products wrap mod 2^64
        levels.append(level)
    keys = np.sort(np.concatenate(levels).reshape(-1, n * n) @ _HASH[: n * n])
    return not np.any(keys[1:] == keys[:-1])


def _search(g1: IntMatrix, g2: IntMatrix, max_len: int) -> str | None:
    """The exact search of falsify_freeness; it alone picks the returned word."""
    table = {"a": g1, "A": inverse(g1), "b": g2, "B": inverse(g2)}
    identity = IntMatrix.identity(g1.n)

    seen: dict[tuple, str] = {identity.entries: ""}
    level: list[tuple[str, IntMatrix]] = [("", identity)]
    depth = (max_len + 1) // 2
    for _ in range(depth):
        nxt: list[tuple[str, IntMatrix]] = []
        for word, mat in level:
            last = word[-1] if word else ""
            for letter in _LETTERS:
                if last and letter == last.swapcase():
                    continue
                w2 = word + letter
                m2 = mat @ table[letter]
                prev = seen.get(m2.entries)
                if prev is None:
                    seen[m2.entries] = w2
                    nxt.append((w2, m2))
                else:
                    relation = free_reduce(prev + invert_word(w2))
                    if 0 < len(relation) <= max_len:
                        return relation
        level = nxt
    return None


def _check_run(m: int, trials: int, seed: int):
    if m < 1 or trials < 1:
        raise ConfigError(f"need m >= 1 and trials >= 1, got m = {m}, trials = {trials}")
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")
    if m * trials > MAX_STEPS:
        raise BudgetError(f"run budget is m * trials <= {MAX_STEPS}, got {m} * {trials}")


def reduced_length_stats(m: int, trials: int, seed: int) -> WordStats:
    """Reduced-length / length ratios of uniform random words of length m."""
    _check_run(m, trials, seed)
    rng = np.random.default_rng(seed)
    ratios = np.empty(trials)
    for t in range(trials):
        # ALPHABET pairs inverses as 0<->1, 2<->3
        word = "".join([ALPHABET[i] for i in rng.integers(0, 4, size=m).tolist()])
        ratios[t] = len(free_reduce(word)) / m
    qs = {
        f"p{int(100 * q):02d}": float(np.quantile(ratios, q))
        for q in (0.01, 0.05, 0.25, 0.50, 0.75, 0.95, 0.99)
    }
    return WordStats(
        m=m,
        trials=trials,
        seed=seed,
        mean_ratio=float(np.mean(ratios)),
        std_ratio=float(np.std(ratios, ddof=1)) if trials > 1 else 0.0,
        min_ratio=float(np.min(ratios)),
        max_ratio=float(np.max(ratios)),
        quantiles=qs,
        frac_ge_quarter=float(np.mean(ratios >= 0.25)),
    )


_RENORM_EVERY = 8


def estimate_lyapunov(
    gens: list[IntMatrix],
    m: int,
    trials: int,
    seed: int,
    extra_key: tuple[int, ...] = (),
) -> LyapunovEstimate:
    """Trial-averaged (1/m) log ||product of m uniformly random generators||.

    Per-trial RNG streams derive from (seed, *extra_key, trial), so the
    result is independent of evaluation order.  Products renormalize by
    their max-abs entry every few steps, accumulating the log.
    """
    if not gens:
        raise ConfigError("need at least one generator")
    _check_run(m, trials, seed)
    mats = [g.to_float() for g in gens]
    # an explicit p: choice draws a different stream with p=None
    probs = [1.0 / len(mats)] * len(mats)
    n = gens[0].n
    prods = np.empty((trials, n, n))
    estimates = np.empty(trials)  # the log scales, until the top singular values are in
    try:
        with np.errstate(over="raise", invalid="raise"):
            for t in range(trials):
                rng = np.random.default_rng([seed, *extra_key, t])
                idx = rng.choice(len(mats), size=m, p=probs)
                prod = np.eye(n)
                log_scale = 0.0
                for step, i in enumerate(idx, start=1):
                    prod = prod @ mats[i]
                    if step % _RENORM_EVERY == 0:
                        mx = float(np.max(np.abs(prod)))
                        prod /= mx
                        log_scale += math.log(mx)
                prods[t], estimates[t] = prod, log_scale
            tops = svd_batch(prods).sigma[:, 0].tolist()
            estimates = np.array([(e + math.log(s)) / m for e, s in zip(estimates.tolist(), tops)])
            finite = bool(np.all(np.isfinite(estimates)))
    except FloatingPointError:
        finite = False
    if not finite:
        raise ConfigError("Lyapunov products left the float range; the entries are too large")
    stderr = float(np.std(estimates, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return LyapunovEstimate(float(np.mean(estimates)), stderr, m, trials, seed)


def _top_vectors(g: IntMatrix):
    """(u1, v1): top left/right singular directions, ||g x|| >= sigma1 |<x, v1>|."""
    triple = svd(g)
    return triple.k_g[:, 0], triple.k_g_prime[0, :], triple.sigma[0]


def check_twoops(
    A: IntMatrix, B: IntMatrix, w: str, eps: float, lam: float
) -> dict:
    """Check ||w(A,B) u1(A)|| >= (eps*lam)^k for a reduced word of length k.

    Verifies the preconditions first: all four top singular values at
    least lam, and every inner product the word's junction structure
    needs at least eps in absolute value.  Returns a diagnostics dict
    with status "pass", "fail", or "preconditions_unmet".
    """
    if not is_reduced(w):
        raise ConfigError("word must be reduced")
    table = {"a": A, "A": inverse(A), "b": B, "B": inverse(B)}
    data = {letter: _top_vectors(g) for letter, g in table.items()}
    u1_A = data["a"][0]

    min_sigma = min(d[2] for d in data.values())
    diagnostics = {
        "word": w,
        "k": len(w),
        "eps": eps,
        "lam": lam,
        "min_top_singular": min_sigma,
    }
    if min_sigma < lam:
        diagnostics["status"] = "preconditions_unmet"
        diagnostics["reason"] = "top singular value below lam"
        return diagnostics

    # the letters act right-to-left on u1(A); each junction needs the
    # incoming direction to have inner product > eps with the next v1
    needed = []
    if w:
        needed.append(abs(float(np.dot(data[w[-1]][1], u1_A))))
        for i in range(len(w) - 1, 0, -1):
            incoming_u1 = data[w[i]][0]
            next_v1 = data[w[i - 1]][1]
            needed.append(abs(float(np.dot(next_v1, incoming_u1))))
    min_inner = min(needed) if needed else 1.0
    diagnostics["min_inner_product"] = min_inner
    if min_inner <= eps:
        diagnostics["status"] = "preconditions_unmet"
        diagnostics["reason"] = "junction inner product not above eps"
        return diagnostics

    vec = u1_A.copy()
    log_norm = 0.0
    for letter in reversed(w):
        vec = table[letter].to_float() @ vec
        nrm = float(np.linalg.norm(vec))
        vec /= nrm
        log_norm += math.log(nrm)
    k = len(w)
    rhs = k * (math.log(eps) + math.log(lam)) if k else 0.0
    slack = 1e-9 * max(1.0, abs(rhs))
    diagnostics["lhs_log"] = log_norm
    diagnostics["rhs_log"] = rhs
    diagnostics["status"] = "pass" if log_norm >= rhs - slack else "fail"
    return diagnostics
