"""Subset-sum (zeta) and Moebius transforms over variable-subset masks.

For a table c indexed by subsets of m variables (bit i = variable i),
zeta(c)[y] is the sum of c[s] over all subsets s of y, and Moebius
undoes it.  Over the integers they turn a multilinear polynomial's
coefficients into its value table and back.  Over GF(2) they coincide
and turn a Boolean function's algebraic normal form (ANF) into its
truth table, here on bit-packed rows: entry x is bit x % 64 of uint64
word x // 64.  Every truth table and LPTWY value table in the package
is built with these transforms, and `gaps` is the one place that reads
gaps off packed truth tables: brute force, the sampler and the
exhaustive family all call it.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

_ONES = (1 << 64) - 1
# packed truth tables built at once by `gaps`: bounds memory at every n,
# and a chunk that fits in a core's L2 cache keeps the transform fast
_CHUNK_BYTES = 1 << 19


def _butterflies(arr: np.ndarray, levels: range):
    # (low half, high half) view pairs of each level, along the last axis
    for b in levels:
        view = arr.reshape(*arr.shape[:-1], -1, 2, 1 << b)
        if b < 3:
            # numpy loops slowly over an inner axis of 1 to 4 elements;
            # one strided column at a time is several times faster
            for j in range(1 << b):
                yield view[..., 0, j], view[..., 1, j]
        else:
            yield view[..., 0, :], view[..., 1, :]


def zeta(arr: np.ndarray) -> np.ndarray:
    """In place along the last axis (length 2^m): arr[y] becomes the sum
    of arr[s] over all subsets s of y.  Integer dtypes wrap.  Returns arr.

    arr must be C-contiguous so that its reshapes are views.
    """
    m = arr.shape[-1].bit_length() - 1
    for low, high in _butterflies(arr, range(m)):
        high += low
    return arr


def mobius(arr: np.ndarray) -> np.ndarray:
    """In place inverse of zeta along the last axis.  Returns arr."""
    m = arr.shape[-1].bit_length() - 1
    for low, high in _butterflies(arr, range(m)):
        high -= low
    return arr


def words_for(n: int) -> int:
    """uint64 words in one packed table of 2^n bits (one word when n < 6)."""
    return max(1, (1 << n) >> 6)


def zeta_gf2(words: np.ndarray, n: int) -> np.ndarray:
    """In place GF(2) zeta of packed rows of 2^n bits (ANF to truth table)
    along the last axis of C-contiguous uint64 words; leading axes are a
    batch.  Below n = 6 a row is the low 2^n bits of one word, the rest
    zero.  Levels 0..5 shift and mask inside each word, levels 6..n-1 pair
    up words.  Returns words.
    """
    if words.shape[-1] != words_for(n):
        raise ValueError(f"rows of 2^{n} bits need {words_for(n)} words, got {words.shape[-1]}")
    tmp = np.empty_like(words)
    for b in range(min(n, 6)):
        # the bit positions of a word whose bit b is clear: 0x5555..., 0x3333..., ...
        lanes = np.uint64(_ONES // ((1 << (1 << b)) + 1))
        np.bitwise_and(words, lanes, out=tmp)
        np.left_shift(tmp, np.uint64(1 << b), out=tmp)
        words ^= tmp
    for low, high in _butterflies(words, range(n - 6)):
        high ^= low
    return words


def packed_truth_tables(sel: np.ndarray, masks: np.ndarray, n: int) -> np.ndarray:
    """Packed truth tables of functions given by their algebraic normal form.

    Row i of the (count, words_for(n)) result is the function whose ANF
    has the monomial with variable mask masks[j] wherever sel[i, j] is
    true.  A mask selected twice cancels mod 2, and mask 0 is the
    constant monomial 1; a row selecting nothing is the zero function.
    """
    words = np.empty((len(sel), words_for(n)), dtype=np.uint64)
    return _fill_truth_tables(words, sel, masks, n)


def _fill_truth_tables(words: np.ndarray, sel: np.ndarray, masks: np.ndarray,
                       n: int) -> np.ndarray:
    # packed_truth_tables(sel, masks, n), written over the C-contiguous
    # (len(sel), words_for(n)) uint64 buffer words
    by_word = np.argsort(masks >> 6, kind="stable")
    word = masks[by_word] >> 6
    starts = np.flatnonzero(np.diff(word, prepend=-1))
    bits = np.where(sel[:, by_word], np.uint64(1) << (masks[by_word] & 63).astype(np.uint64),
                    np.uint64(0))
    words.fill(0)
    if len(starts):
        words[:, word[starts]] = np.bitwise_xor.reduceat(bits, starts, axis=1)
    return zeta_gf2(words, n)


def gaps(sel: np.ndarray, masks: np.ndarray, n: int) -> np.ndarray:
    """int64 gap, 2^n minus twice the number of ones, of each function
    that packed_truth_tables(sel, masks, n) describes.

    Rows go through in chunks of as many packed tables as fit in
    _CHUNK_BYTES (at least one), all built in one reused buffer, so
    memory stays bounded at every n.
    """
    out = np.empty(len(sel), dtype=np.int64)
    step = max(1, _CHUNK_BYTES // (8 * words_for(n)))
    buf = np.empty((min(step, len(sel)), words_for(n)), dtype=np.uint64)
    for lo in range(0, len(sel), step):
        chunk = sel[lo : lo + step]
        tables = _fill_truth_tables(buf[: len(chunk)], chunk, masks, n)
        ones = np.bitwise_count(tables).sum(axis=1, dtype=np.int64)
        out[lo : lo + len(chunk)] = (1 << n) - 2 * ones
    return out


def term_masks(terms: Iterable[tuple[int, ...]]) -> np.ndarray:
    """int64 variable mask of each term in order, e.g. of a Poly3's terms."""
    out = []
    for term in terms:
        mask = 0
        for i in term:
            mask |= 1 << i
        out.append(mask)
    return np.array(out, dtype=np.int64)
