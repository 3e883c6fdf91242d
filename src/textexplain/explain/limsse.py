"""Substring-surrogate explainer.

Samples contiguous substrings of the input uniformly (length first, then
start), queries the classifier on each substring as a standalone sequence,
and fits a linear surrogate over binary coverage vectors. The surrogate's
weights are the token relevances. Each distinct substring is scored once,
all substrings of one length in a single batched forward run. Three fitting
objectives:

    bb    logistic loss on "did the classifier predict k on the substring"
    ms_s  least squares on the unnormalized class score s(k, Z)
    ms_p  least squares on the class probability p(k | Z)

An intercept is fitted alongside the weights and discarded; a small ridge
keeps degenerate label distributions finite. Positions never covered by any
sample keep the prior value 0 exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from ..models import NetworkParams, embed, score_batch
from ..numerics import SeededRng, sigmoid, softmax
from ..relevance import RelevanceMap

DEFAULT_N_SAMPLES = 3000
DEFAULT_MAX_LEN = 6
DEFAULT_RIDGE_BB = 1e-4
DEFAULT_RIDGE_MS_PER_SAMPLE = 1e-6

VARIANTS = ("bb", "ms_s", "ms_p")


@dataclass
class SubstringSample:
    start: int          # 0-based
    length: int

    def coverage(self, t_len: int) -> np.ndarray:
        z = np.zeros(t_len)
        z[self.start:self.start + self.length] = 1.0
        return z


def sample_substrings(rng: SeededRng, t_len: int, n: int,
                      l_max: int = DEFAULT_MAX_LEN) -> list[SubstringSample]:
    """Length uniform on [1, min(l_max, T)], then start uniform over the
    valid positions."""
    if t_len < 1:
        raise ValueError("cannot sample substrings of an empty sequence")
    if n < 1 or l_max < 1:
        raise ValueError("n and l_max must be >= 1")
    out = []
    for _ in range(n):
        length = rng.uniform_int(1, min(l_max, t_len))
        start = rng.uniform_int(0, t_len - length)
        out.append(SubstringSample(start=start, length=length))
    return out


def _design(samples: list[SubstringSample], t_len: int) -> np.ndarray:
    """(N, T) coverage matrix: row i is samples[i].coverage(t_len)."""
    starts = np.array([s.start for s in samples])[:, None]
    ends = starts + np.array([s.length for s in samples])[:, None]
    pos = np.arange(t_len)
    return ((starts <= pos) & (pos < ends)).astype(np.float64)


def fit_magnitude(z: np.ndarray, y: np.ndarray,
                  ridge: float | None = None) -> np.ndarray:
    """Least-squares surrogate weights for real responses.

    ``z`` is the (N, T) coverage design. An unpenalized intercept column is
    added and discarded, so a constant shift of the responses moves only the
    intercept. ridge=0 requires a full-rank design.
    """
    n, t_len = z.shape
    if ridge is None:
        ridge = DEFAULT_RIDGE_MS_PER_SAMPLE * n
    a = np.hstack([z, np.ones((n, 1))])
    if ridge == 0.0:
        if np.linalg.matrix_rank(a) < t_len + 1:
            raise np.linalg.LinAlgError(
                "singular substring design; pass a positive ridge")
        v, *_ = np.linalg.lstsq(a, y, rcond=None)
        return v[:t_len]
    gram = a.T @ a
    gram[np.arange(t_len), np.arange(t_len)] += ridge
    v = np.linalg.solve(gram, a.T @ y)
    return v[:t_len]


def fit_blackbox(z: np.ndarray, labels: np.ndarray,
                 ridge: float = DEFAULT_RIDGE_BB, tol: float = 1e-6,
                 max_iter: int = 2000) -> np.ndarray:
    """Logistic surrogate weights for binary labels (prediction == k).

    Minimizes the negative log-likelihood of sigmoid(z . v) plus a ridge on
    the weights (the intercept is unpenalized), by deterministic L-BFGS to
    gradient norm ``tol`` or the iteration cap.
    """
    n, t_len = z.shape
    y = np.asarray(labels, dtype=np.float64)
    a = np.hstack([z, np.ones((n, 1))])

    def loss_grad(v):
        margins = a @ v
        p = sigmoid(margins)
        eps = 1e-12
        nll = -np.sum(y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps))
        grad = a.T @ (p - y)
        nll += ridge * np.dot(v[:t_len], v[:t_len])
        grad[:t_len] += 2 * ridge * v[:t_len]
        return nll, grad

    res = minimize(loss_grad, np.zeros(t_len + 1), jac=True, method="L-BFGS-B",
                   options={"gtol": tol, "maxiter": max_iter})
    v = res.x[:t_len]
    # uncovered positions feel only the ridge; their optimum is exactly 0
    v[z.sum(axis=0) == 0] = 0.0
    return v


def surrogate_fit(samples: list[SubstringSample], responses: np.ndarray,
                  variant: str, t_len: int,
                  ridge: float | None = None) -> np.ndarray:
    z = _design(samples, t_len)
    if variant == "bb":
        return fit_blackbox(z, responses,
                            **({} if ridge is None else {"ridge": ridge}))
    if variant in ("ms_s", "ms_p"):
        return fit_magnitude(z, responses, ridge=ridge)
    raise ValueError(f"unknown surrogate variant {variant!r}")


def _substring_responses(params: NetworkParams, ids: list[int], k: int,
                         variant: str, keys: set[tuple[int, int]],
                         ) -> dict[tuple[int, int], float]:
    """Response of each distinct (start, length) substring, scored as a
    standalone sequence; one batched forward run per substring length."""
    emb = embed(params, ids)
    by_len: dict[int, list[int]] = {}
    for start, length in sorted(keys):
        by_len.setdefault(length, []).append(start)
    out = {}
    for length, starts in by_len.items():
        windows = np.asarray(starts)[:, None] + np.arange(length)
        scores = score_batch(params, emb[windows])
        if variant == "bb":
            vals = np.argmax(softmax(scores), axis=1) == k
        elif variant == "ms_s":
            vals = scores[:, k]
        else:
            vals = softmax(scores)[:, k]
        out.update(((start, length), float(v)) for start, v in zip(starts, vals))
    return out


def limsse_explain(params: NetworkParams, ids, k: int, variant: str = "ms_s",
                   n: int = DEFAULT_N_SAMPLES, l_max: int = DEFAULT_MAX_LEN,
                   seed: int = 0) -> RelevanceMap:
    """Sample substrings, query the classifier on each as its own sequence,
    fit the surrogate, return its weights as the relevance map."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown surrogate variant {variant!r}")
    ids = list(ids)
    t_len = len(ids)
    rng = SeededRng(seed)
    samples = sample_substrings(rng, t_len, n, l_max)

    keys = [(s.start, s.length) for s in samples]
    resp = _substring_responses(params, ids, k, variant, set(keys))
    responses = np.array([resp[key] for key in keys])
    v = surrogate_fit(samples, responses, variant, t_len)
    return RelevanceMap(scores=v, k=k, method=f"limsse_{variant}")
