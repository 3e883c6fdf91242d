"""Shared numeric kernels: a safe sigmoid, stable softmax, the
sign-preserving stabilizer of relevance ratios, seeded randomness.

Everything runs in float64. The RNG is numpy's PCG64 behind a thin wrapper,
so identical seeds give identical draw sequences on every platform.
``SeededRng.uint32_stream`` and ``lemire_bounded`` reproduce, an array at a
time, the words and the rule numpy's scalar bounded-integer draws use, so a
batched sampler can return exactly what a loop of ``uniform_int`` calls
would.
"""

from __future__ import annotations

import numpy as np
# numpy loads numpy.random on first use; imported here, it is loaded with
# the package and not inside the first SeededRng
from numpy.random import PCG64, Generator

__all__ = ["sigmoid", "softmax", "esign", "lemire_bounded", "SeededRng"]


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically safe logistic function: 1 / (1 + e^-x) for x >= 0 and
    e^x / (1 + e^x) below, so exp never overflows."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    # both branches in place: three temporaries of x's size, not five
    np.divide(e, d, out=e)
    np.divide(1.0, d, out=d)
    return np.where(x >= 0, d, e)


def softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis with max-subtraction for stability; each
    row sums to 1."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise ValueError("softmax of empty vector")
    e = np.exp(x - np.max(x, axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def esign(a, eps: float) -> np.ndarray:
    """Sign-preserving stabilizer: -eps where a < 0, +eps otherwise; eps
    must be positive and finite."""
    if not 0 < eps < np.inf:
        raise ValueError("eps must be positive and finite")
    return np.where(np.asarray(a, dtype=np.float64) < 0, -eps, eps)


_WORD = np.uint64(1 << 32)


def lemire_bounded(words: np.ndarray, span) -> tuple[np.ndarray, np.ndarray]:
    """numpy's bounded-integer rule (Lemire) on uint64 arrays of 32-bit words.

    Returns ``words * span >> 32``, each a draw in [0, span), and a mask of
    the words numpy would have rejected and replaced by the next word. The
    rule holds for spans from 2 to 2**32 - 1; a span of 1 consumes no word.
    """
    span = np.asarray(span, dtype=np.uint64)
    scaled = words * span
    return scaled >> np.uint64(32), (scaled % _WORD) < _WORD % span


class SeededRng:
    """Deterministic random source (PCG64) shared by sampling and shuffling.

    Single-owner: not safe for concurrent mutation.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = Generator(PCG64(self.seed))

    def uniform_int(self, lo: int, hi: int) -> int:
        """Uniform integer in the inclusive range [lo, hi]."""
        if lo > hi:
            raise ValueError(f"empty range [{lo}, {hi}]")
        return int(self._gen.integers(lo, hi + 1))

    def uint32_stream(self, m: int) -> np.ndarray:
        """The next ``m`` words, as uint64, of the 32-bit stream that
        ``uniform_int`` draws from when its range has at least 2 values: the
        low half, then the high half, of each PCG64 output. The generator is
        left exactly as if scalar draws had consumed those words."""
        bitgen = self._gen.bit_generator
        state = bitgen.state
        head = [state["uinteger"]] if state["has_uint32"] else []
        n_words = max(m - len(head) + 1, 0) // 2
        raw = bitgen.random_raw(n_words)
        halves = np.empty(2 * n_words, dtype=np.uint64)
        halves[0::2] = raw % _WORD
        halves[1::2] = raw // _WORD
        out = np.concatenate([np.array(head, dtype=np.uint64), halves])[:m]
        # PCG64 keeps the high half of its last output for the next draw
        state = bitgen.state
        state["has_uint32"] = len(head) + 2 * n_words - m
        if n_words:
            state["uinteger"] = int(halves[-1])
        bitgen.state = state
        return out

    @property
    def state(self) -> dict:
        """The generator's full state, to save and restore."""
        return self._gen.bit_generator.state

    @state.setter
    def state(self, value: dict) -> None:
        self._gen.bit_generator.state = value

    def uniform(self, lo: float, hi: float, size=None) -> np.ndarray:
        return self._gen.uniform(lo, hi, size=size)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle driven by this generator."""
        for i in range(len(items) - 1, 0, -1):
            j = self.uniform_int(0, i)
            items[i], items[j] = items[j], items[i]
