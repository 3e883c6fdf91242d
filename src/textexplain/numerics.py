"""Shared numeric kernels: activations, stable softmax, seeded randomness.

Everything runs in float64. The RNG is numpy's PCG64 behind a thin wrapper,
so identical seeds give identical draw sequences on every platform.
"""

from __future__ import annotations

import numpy as np

__all__ = ["activation", "sigmoid", "softmax", "SeededRng"]


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically safe logistic function: 1 / (1 + e^-x) for x >= 0 and
    e^x / (1 + e^x) below, so exp never overflows."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


_ACTIVATIONS = {
    "sigmoid": sigmoid,
    "tanh": lambda x: np.tanh(np.asarray(x, dtype=np.float64)),
    "relu": lambda x: np.maximum(np.asarray(x, dtype=np.float64), 0.0),
}


def activation(kind: str, x: np.ndarray) -> np.ndarray:
    """Apply an elementwise nonlinearity; ``kind`` is sigmoid, tanh or relu."""
    try:
        fn = _ACTIVATIONS[kind]
    except KeyError:
        raise ValueError(f"unknown activation: {kind!r}") from None
    return fn(x)


def softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis with max-subtraction for stability; each
    row sums to 1."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise ValueError("softmax of empty vector")
    e = np.exp(x - np.max(x, axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


class SeededRng:
    """Deterministic random source (PCG64) shared by sampling and shuffling.

    Single-owner: not safe for concurrent mutation.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def uniform_int(self, lo: int, hi: int) -> int:
        """Uniform integer in the inclusive range [lo, hi]."""
        if lo > hi:
            raise ValueError(f"empty range [{lo}, {hi}]")
        return int(self._gen.integers(lo, hi + 1))

    def uniform(self, lo: float, hi: float, size=None) -> np.ndarray:
        return self._gen.uniform(lo, hi, size=size)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle driven by this generator."""
        for i in range(len(items) - 1, 0, -1):
            j = self.uniform_int(0, i)
            items[i], items[j] = items[j], items[i]
