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

from .certify import with_inverses
from .errors import BudgetError, ConfigError
from .matrices import ALPHABET, IntMatrix, free_reduce, invert_word, is_reduced
from .spectral import as_float, seq_sum, svd_batch

MAX_ORACLE_LEN = 12
MAX_STEPS = 10**7  # m * trials per run; Lyapunov products take 5-35 s at the cap (README)


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
    """A nonempty reduced word of length <= max_len equal to the identity, or None.

    Reduced words are taken breadth-first to length ceil(max_len/2), with
    exact products: each length ordered by the word without its last letter,
    then by that letter in a, b, A, B order (the order of _level).  The
    first word whose matrix an earlier word already has gives the relation
    (earlier word)(word)^-1, freely reduced; the first such relation of
    length <= max_len is returned.  Exactness means a returned word
    re-evaluates to the identity with no tolerance involved.  This is
    ``find_relations`` on a batch of one pair.
    """
    if max_len > MAX_ORACLE_LEN:
        raise BudgetError(f"oracle budget is max_len <= {MAX_ORACLE_LEN}, got {max_len}")
    if max_len < 1:
        raise ConfigError("max_len must be >= 1")
    return find_relations(with_inverses([g1, g2])[None], max_len)[0]


def find_relations(letters: np.ndarray, max_len: int) -> list:
    """falsify_freeness for every pair of a (P, 4, n, n) integer stack of with_inverses
    rows g1, g1^-1, g2, g2^-1 (int64, or object for Python ints).  All pairs
    are screened at once by _collisions_mod_2_64, and only those it cannot clear
    walk the words again in exact Python-int products."""
    # int64 -> uint64 keeps the residue mod 2^64
    residues = (letters % 2**64 if letters.dtype == object else letters).astype(np.uint64)
    depth = (max_len + 1) // 2
    step = max(1, 2**15 // (2 * 3**depth - 1))  # pairs per block of 2^15 keys, L2-sized
    collide = np.empty(len(letters), dtype=bool)
    for lo in range(0, len(letters), step):
        collide[lo : lo + step] = _collisions_mod_2_64(residues[lo : lo + step], depth)
    return [_first_relation(row, max_len) if hit else None for row, hit in zip(letters, collide)]


@functools.cache
def _level(k: int) -> tuple[np.ndarray, np.ndarray]:
    """(parent, letter) indices of the reduced words of length k >= 1.

    Word i of length k is word parent[i] of length k - 1 followed by ALPHABET[letter[i]],
    tried in a, b, A, B order; the letter never cancels the parent's last.
    """
    last = _level(k - 1)[1] if k > 1 else np.array([-1])
    parent = np.repeat(np.arange(last.size), 4)
    letter = np.tile([0, 2, 1, 3], last.size)
    keep = letter != (last[parent] ^ 1)  # ALPHABET pairs inverses as 0<->1, 2<->3
    parent, letter = parent[keep], letter[keep]
    parent.flags.writeable = letter.flags.writeable = False  # shared by every call
    return parent, letter


@functools.cache
def _key_vectors(n: int) -> np.ndarray:
    # random and odd: small integer relations among the multipliers u_i v_j collide words
    uv = np.random.default_rng(0x5C4EE9).integers(0, 2**64, (2, n), dtype=np.uint64) | 1
    uv.flags.writeable = False  # shared by every call
    return uv


@functools.cache
def _key_index(depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Table indices (a, b) of _screen_keys's prefix a and suffix b of each reduced word
    w = a b, |w| <= depth, a its first min(ceil(depth/2), |w|) letters, b the rest."""
    h = (depth + 1) // 2
    last = np.concatenate([[-1], *(_level(k)[1] for k in range(1, h + 1))])
    # table entry i ends in last[i], a reversed b's first letter; inverses are 0<->1, 2<->3
    keep = last[:, None] != last[: 2 * 3 ** (depth - h) - 1] ^ 1
    keep &= (np.arange(len(last)) >= 2 * 3 ** (h - 1) - 1)[:, None]
    keep[:, 0] = True  # each a alone
    a, b = keep.nonzero()
    a.flags.writeable = b.flags.writeable = False  # shared by every call
    return a, b


def _screen_keys(gens: np.ndarray, depth: int) -> np.ndarray:
    """The (2 3^depth - 1, P) keys u (w v) mod 2^64 of the reduced words of length <= depth,
    per pair of a (P, 4, n, n) uint64 stack of letters: (u a)(b v) for _key_index's w =
    a b.  Each table entry is its parent times its last letter, over the pair axis (uint64
    wraps mod 2^64): u a, and from the transposed letters v^T b^T = (b v)^T, b reversed."""
    letters = np.ascontiguousarray(np.moveaxis(gens, 0, -1))  # (4, n, n, P)
    tables = []
    for vec, mats, k in zip(_key_vectors(gens.shape[-1]), (letters, letters.swapaxes(1, 2)),
                            ((depth + 1) // 2, depth // 2)):
        table = [np.broadcast_to(vec[:, None], (1, *letters.shape[2:]))]
        for parent, letter in map(_level, range(1, k + 1)):
            table.append(seq_sum((table[-1][parent, :, None] * mats[letter]).swapaxes(0, 1)))
        tables.append(np.concatenate(table))
    (rows, cols), (a, b) = tables, _key_index(depth)
    keys = rows[:, 0][a] * cols[:, 0][b]
    for i in range(1, gens.shape[-1]):  # a coordinate at a time, never a (K, n, P) stack
        keys += rows[:, i][a] * cols[:, i][b]
    return keys


def _collisions_mod_2_64(gens: np.ndarray, depth: int) -> np.ndarray:
    """Per pair, whether two of _screen_keys's keys are equal; if none are, the words'
    integer matrices are distinct, as reduction mod 2^64 is a ring homomorphism."""
    keys = np.sort(_screen_keys(gens, depth), axis=0)
    return np.any(keys[1:] == keys[:-1], axis=0)


def _first_relation(letters: np.ndarray, max_len: int) -> str | None:
    """The relation of falsify_freeness for one (4, n, n) stack of letters, taken
    over _level's words in exact Python-int products, one level at a time."""
    letters = letters.astype(object)
    level = np.eye(letters.shape[-1], dtype=object)[None]
    words = [""]
    first = {tuple(level.ravel().tolist()): ""}  # matrix -> its first word
    for k in range(1, (max_len + 1) // 2 + 1):
        parent, letter = _level(k)
        level = level[parent] @ letters[letter]
        words = [words[p] + ALPHABET[c] for p, c in zip(parent.tolist(), letter.tolist())]
        for word, key in zip(words, map(tuple, level.reshape(len(words), -1).tolist())):
            prev = first.setdefault(key, word)
            if prev != word:  # an earlier word has this matrix
                relation = free_reduce(prev + invert_word(word))
                if len(relation) <= max_len:
                    return relation
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
_GATHER = 2**16  # step matrices, (steps, rows, n, n), gathered at a time


def estimate_lyapunov(
    gens: list[IntMatrix],
    m: int,
    trials: int,
    seed: int,
    extra_key: tuple[int, ...] = (),
) -> LyapunovEstimate:
    """Trial-averaged (1/m) log ||product of m uniformly random generators||.

    This is ``lyapunov_estimates`` on a batch of one row of generators.
    """
    if not gens:
        raise ConfigError("need at least one generator")
    mats = as_float([[g.entries for g in gens]])
    estimates = lyapunov_estimates(mats, m, trials, seed, [extra_key])[0]
    stderr = float(np.std(estimates, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return LyapunovEstimate(float(np.mean(estimates)), stderr, m, trials, seed)


def lyapunov_estimates(
    mats: np.ndarray, m: int, trials: int, seed: int, keys: list[tuple[int, ...]]
) -> np.ndarray:
    """The (P, trials) per-trial estimates of estimate_lyapunov for a (P, k, n, n)
    float stack of k generators per row, with keys[i] as row i's extra_key.

    Trial t of row i draws its steps from default_rng([seed, *keys[i], t]), so
    the result is independent of evaluation order.  All P * trials products
    advance together, one stacked ``@`` per step.  Every _RENORM_EVERY steps
    each divides by its own max-abs entry, and the logs of the divisors are
    summed in step order; one svd_batch then takes the top singular values.
    """
    _check_run(m, trials, seed)
    p, k, n, _ = mats.shape
    cdf = np.cumsum([1.0 / k] * k)  # Generator.choice(k, size=m, p=[1/k] * k), spelled out
    cdf /= cdf[-1]
    flat = np.empty((p * trials, m), dtype=np.intp)  # indices into the (p * k) generators
    for row in range(p * trials):
        i, t = divmod(row, trials)
        u = np.random.default_rng([seed, *keys[i], t]).random(m)
        flat[row] = cdf.searchsorted(u, side="right") + i * k
    mats = mats.reshape(p * k, n, n)
    prods = np.tile(np.eye(n), (len(flat), 1, 1))
    # row j > 0 holds each product's divisor at renormalization j; the 1s of
    # row 0 give the 0.0 each log sum starts from
    scales = np.ones((m // _RENORM_EVERY + 1, len(flat), 1, 1))
    chunk = max(1, _GATHER // max(1, len(flat)))  # steps gathered at a time
    try:
        with np.errstate(over="raise", invalid="raise"):
            for s0 in range(0, m, chunk):
                for step, g in enumerate(mats[flat[:, s0 : s0 + chunk].T], start=s0 + 1):
                    prods = prods @ g
                    if step % _RENORM_EVERY == 0:
                        mx = scales[step // _RENORM_EVERY]
                        np.max(np.abs(prods), axis=(1, 2), keepdims=True, out=mx)
                        prods /= mx
            logs = np.fromiter(map(math.log, scales.flat), float, scales.size)
            log_scale = seq_sum(logs.reshape(len(scales), len(flat)))
            tops = svd_batch(prods).sigma[:, 0].tolist()
            estimates = np.array([(e + math.log(s)) / m for e, s in zip(log_scale.tolist(), tops)])
            finite = bool(np.all(np.isfinite(estimates)))
    except FloatingPointError:
        finite = False
    if not finite:
        raise ConfigError("Lyapunov products left the float range; the entries are too large")
    return estimates.reshape(p, trials)


def check_twoops(A: IntMatrix, B: IntMatrix, w: str, eps: float, lam: float) -> dict:
    """Check ||w(A,B) u1(A)|| >= (eps*lam)^k for a reduced word of length k.

    Verifies the preconditions first: all four top singular values at
    least lam, and every inner product the word's junction structure
    needs at least eps in absolute value.  Returns a diagnostics dict
    with status "pass", "fail", or "preconditions_unmet".
    """
    if not is_reduced(w):
        raise ConfigError("word must be reduced")
    rows = as_float(with_inverses([A, B]))  # rows a, A, b, B
    svds = svd_batch(rows)
    table = dict(zip(ALPHABET, rows))
    # top left/right singular directions: ||g x|| >= sigma1 |<x, v1>|
    u1 = dict(zip(ALPHABET, svds.k_g[:, :, 0]))
    v1 = dict(zip(ALPHABET, svds.k_g_prime[:, 0, :]))

    min_sigma = float(svds.sigma[:, 0].min())
    diagnostics = {"word": w, "k": len(w), "eps": eps, "lam": lam, "min_top_singular": min_sigma}
    if min_sigma < lam:
        diagnostics["status"] = "preconditions_unmet"
        diagnostics["reason"] = "top singular value below lam"
        return diagnostics

    # the letters act right-to-left on u1(A); each junction needs the incoming direction,
    # u1 of the letter after (of A after the last), above eps against the next letter's v1
    needed = [abs(float(seq_sum(v1[x] * u1[y]))) for x, y in zip(w, w[1:] + "a")]
    min_inner = min(needed, default=1.0)
    diagnostics["min_inner_product"] = min_inner
    if min_inner <= eps:
        diagnostics["status"] = "preconditions_unmet"
        diagnostics["reason"] = "junction inner product not above eps"
        return diagnostics

    vec = u1["a"].copy()
    log_norm = 0.0
    for letter in reversed(w):
        vec = seq_sum((table[letter] * vec).T)
        nrm = math.sqrt(seq_sum(vec * vec))
        vec /= nrm
        log_norm += math.log(nrm)
    k = len(w)
    rhs = k * (math.log(eps) + math.log(lam)) if k else 0.0
    slack = 1e-9 * max(1.0, abs(rhs))
    diagnostics["lhs_log"] = log_norm
    diagnostics["rhs_log"] = rhs
    diagnostics["status"] = "pass" if log_norm >= rhs - slack else "fail"
    return diagnostics
