"""Substring-surrogate explainer.

Samples contiguous substrings of the input uniformly (length first, then
start), queries the classifier on each substring as a standalone sequence,
and fits a linear surrogate over binary coverage vectors. The surrogate's
weights are the token relevances.

One pass per document serves every asked variant (``limsse_maps``): one
draw, an array computation that returns exactly what a loop of scalar
draws would; one keying of the distinct (start, length) pairs; one
``models.score_rows`` call that scores each distinct substring once, as
index rows into the embeddings, the substrings of one length together in
batches of the one cell budget; one coverage design with a row per
distinct substring; and one fit per variant, which weights or gathers the
rows by how often they were drawn. Each variant's map is the one it would
get alone. Three fitting objectives:

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

from ..models import NetworkParams, check_class, embed, score_rows
from ..numerics import SeededRng, lemire_bounded, sigmoid, softmax
from ..relevance import RelevanceMap

DEFAULT_N_SAMPLES = 3000
DEFAULT_MAX_LEN = 6
DEFAULT_RIDGE_BB = 1e-4
# the ``bb`` fit's L-BFGS-B stop: projected gradient norm, iteration cap
BB_GTOL = 1e-6
BB_MAX_ITER = 2000
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


def draw_substrings(rng: SeededRng, t_len: int, n: int,
                    l_max: int = DEFAULT_MAX_LEN,
                    ) -> tuple[np.ndarray, np.ndarray]:
    """(starts, lengths) of ``n`` substrings: length uniform on
    [1, min(l_max, T)], then start uniform over the valid positions.

    Draw for draw, and in the generator state it leaves, this equals a loop
    of two ``rng.uniform_int`` calls per substring. For T > l_max every
    start range has at least two values, so each substring reads a fixed
    number of 32-bit words and the whole draw is one array computation. For
    T <= l_max (a one-value start range reads no word) and in the rare case
    where numpy would reject a word, the scalar loop runs.
    """
    if t_len < 1:
        raise ValueError("cannot sample substrings of an empty sequence")
    if n < 1 or l_max < 1:
        raise ValueError("n and l_max must be >= 1")
    n_len = min(l_max, t_len)
    if t_len > l_max:
        state = rng.state
        words = rng.uint32_stream(n * (1 + (n_len > 1))).reshape(n, -1)
        if n_len > 1:
            lengths, rejected = lemire_bounded(words[:, 0], n_len)
            lengths += np.uint64(1)
        else:  # a one-value length range reads no word
            lengths, rejected = np.ones(n, dtype=np.uint64), False
        starts, rejected_start = lemire_bounded(words[:, -1],
                                                t_len - lengths + 1)
        if not np.any(rejected | rejected_start):
            return starts.astype(np.int64), lengths.astype(np.int64)
        rng.state = state
    pairs = np.empty((n, 2), dtype=np.int64)
    for i in range(n):
        length = rng.uniform_int(1, n_len)
        pairs[i] = rng.uniform_int(0, t_len - length), length
    return pairs[:, 0], pairs[:, 1]


def sample_substrings(rng: SeededRng, t_len: int, n: int,
                      l_max: int = DEFAULT_MAX_LEN) -> list[SubstringSample]:
    """``draw_substrings`` as a list of samples."""
    starts, lengths = draw_substrings(rng, t_len, n, l_max)
    return [SubstringSample(start=s, length=l)
            for s, l in zip(starts.tolist(), lengths.tolist())]


def _design(starts: np.ndarray, lengths: np.ndarray,
            t_len: int) -> np.ndarray:
    """(N, T) coverage matrix: row i covers [starts[i], starts[i] +
    lengths[i])."""
    starts = starts[:, None]
    ends = starts + lengths[:, None]
    pos = np.arange(t_len)
    return ((starts <= pos) & (pos < ends)).astype(np.float64)


def fit_magnitude(z: np.ndarray, y: np.ndarray, ridge: float | None = None,
                  counts: np.ndarray | None = None) -> np.ndarray:
    """Least-squares surrogate weights for real responses.

    ``z`` is the (U, T) coverage design and ``counts`` how many samples
    each row stands for (default: one each), so the fit is the row-wise
    one over the rows repeated by count. An unpenalized intercept column is
    added and discarded, so a constant shift of the responses moves only the
    intercept. ridge=0 requires a full-rank design.
    """
    t_len = z.shape[1]
    c = np.ones(z.shape[0]) if counts is None else np.asarray(counts, float)
    if ridge is None:
        ridge = DEFAULT_RIDGE_MS_PER_SAMPLE * c.sum()
    a = np.hstack([z, np.ones((z.shape[0], 1))])
    if ridge == 0.0:
        if np.linalg.matrix_rank(a) < t_len + 1:
            raise np.linalg.LinAlgError(
                "singular substring design; pass a positive ridge")
        root = np.sqrt(c)
        v, *_ = np.linalg.lstsq(a * root[:, None], y * root, rcond=None)
        return v[:t_len]
    gram = a.T @ (a * c[:, None])
    gram[np.arange(t_len), np.arange(t_len)] += ridge
    v = np.linalg.solve(gram, a.T @ (c * y))
    return v[:t_len]


def fit_blackbox(z: np.ndarray, labels: np.ndarray,
                 ridge: float = DEFAULT_RIDGE_BB,
                 inv: np.ndarray | None = None) -> np.ndarray:
    """Logistic surrogate weights for binary labels (prediction == k).

    Minimizes the negative log-likelihood of sigmoid(z . v) plus a ridge on
    the weights (the intercept is unpenalized), by deterministic L-BFGS-B
    from v = 0. It stops at projected gradient norm ``BB_GTOL``, after
    ``BB_MAX_ITER`` iterations, or when an iteration lowers the objective
    by less than scipy's default relative ``ftol`` (about 2.2e-9). So the
    weights are where L-BFGS stopped, which can be a few percent of their
    peak away from the optimum.

    ``z`` holds the (U, T) distinct coverage rows and ``labels`` their
    labels; sample i is row ``inv[i]`` (default: each row once). The
    margins are one product over all samples, as in a row-wise fit; when
    every copy of a row got the same margin, the probability and log terms
    are computed once per distinct row and gathered per sample before the
    sums. So the objective and gradient are bitwise those of the row-wise
    fit over all samples, and so is the result.

    scipy.optimize is imported here, on the first fit: it is the only
    runtime use of scipy, and importing it takes about 0.6 s and 40 MB of
    resident memory that no other method needs.
    """
    from scipy.optimize import minimize

    t_len = z.shape[1]
    if inv is None:
        inv = np.arange(z.shape[0])
    a = np.hstack([z, np.ones((z.shape[0], 1))])[inv]
    y = np.asarray(labels, dtype=np.float64)[inv]
    first = np.unique(inv, return_index=True)[1]
    every = slice(None)
    eps = 1e-12

    def loss_grad(v):
        margins = a @ v
        # one probability per distinct row, unless BLAS gave two copies of
        # a row different bits
        rows, back = ((first, inv)
                      if np.array_equal(margins[first][inv], margins)
                      else (every, every))
        p, y_rows = sigmoid(margins[rows]), y[rows]
        terms = y_rows * np.log(p + eps) + (1 - y_rows) * np.log(1 - p + eps)
        nll = -np.sum(terms[back])
        grad = a.T @ (p - y_rows)[back]
        nll += ridge * np.dot(v[:t_len], v[:t_len])
        grad[:t_len] += 2 * ridge * v[:t_len]
        return nll, grad

    res = minimize(loss_grad, np.zeros(t_len + 1), jac=True, method="L-BFGS-B",
                   options={"gtol": BB_GTOL, "maxiter": BB_MAX_ITER})
    v = res.x[:t_len]
    # uncovered positions feel only the ridge; their optimum is exactly 0
    v[z.sum(axis=0) == 0] = 0.0
    return v


def limsse_maps(params: NetworkParams, ids, k: int, variants,
                n: int = DEFAULT_N_SAMPLES, l_max: int = DEFAULT_MAX_LEN,
                seed: int = 0) -> list[RelevanceMap]:
    """One map per asked variant, all from one pass over the document: one
    draw, each distinct substring scored once as a standalone sequence (one
    ``score_rows`` call over the (U, l_max) window array, the substrings
    sorted by length, then start), one coverage design, and one fit per
    variant of the responses it reads from those scores."""
    check_class(params, k)
    for variant in variants:
        if variant not in VARIANTS:
            raise ValueError(f"unknown surrogate variant {variant!r}")
    ids = list(ids)
    t_len = len(ids)
    starts, lengths = draw_substrings(SeededRng(seed), t_len, n, l_max)
    # sample i is distinct substring inv[i]
    keys, inv = np.unique((lengths - 1) * t_len + starts, return_inverse=True)
    starts, lengths = keys % t_len, keys // t_len + 1
    windows = starts[:, None] + np.arange(lengths.max(initial=0))
    scores = score_rows(params, embed(params, ids), windows, lengths)
    z = _design(starts, lengths, t_len)
    maps = []
    for variant in variants:
        if variant == "bb":
            labels = np.argmax(softmax(scores), axis=1) == k
            v = fit_blackbox(z, labels.astype(np.float64), inv=inv)
        else:
            y = scores[:, k] if variant == "ms_s" else softmax(scores)[:, k]
            v = fit_magnitude(z, y, counts=np.bincount(inv))
        maps.append(RelevanceMap(scores=v, k=k, method=f"limsse_{variant}"))
    return maps


def limsse_explain(params: NetworkParams, ids, k: int, variant: str = "ms_s",
                   n: int = DEFAULT_N_SAMPLES, l_max: int = DEFAULT_MAX_LEN,
                   seed: int = 0) -> RelevanceMap:
    """``limsse_maps`` of one variant: sample substrings, query the
    classifier on each as its own sequence, fit the surrogate, return its
    weights as the relevance map."""
    return limsse_maps(params, ids, k, [variant], n, l_max, seed)[0]
