"""Omission and occlusion explainers over N-gram windows.

For each token, every length-N window containing it is perturbed one at a
time: omission deletes the window from the embedding sequence, occlusion
replaces it with all-zero embedding rows. The token's relevance is the mean
drop in the unnormalized class score over its N windows. Windows reaching
past a sequence end are clipped to the valid span (the divisor stays N).

Each distinct clipped span is scored once: one ``np.unique`` over the
T + N - 1 windows' packed (lo, hi) keys gives the spans in (lo, hi) order
and each window's span. The unperturbed input and every perturbed one are
index rows into the embeddings with one all-zero row appended, scored in one
``models.score_rows`` call: the inputs of one length together, in batches
of the one cell budget. So an occlusion input shares
its batch with the unperturbed one (every input has length T), and an
omission input with the other spans of its kept length. A window's drop is
s_k minus its span's score, and the token relevances are N shifted sums of
the drops, vectors over t added in window-start order (t - N + 1 .. t).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..models import NetworkParams, check_class, embed, score_rows
from ..relevance import RelevanceMap


@dataclass
class PerturbConfig:
    mode: str = "omit"      # "omit" | "occlude"
    n: int = 1              # window length

    def validate(self) -> None:
        if self.mode not in ("omit", "occlude"):
            raise ValueError(f"unknown perturbation mode {self.mode!r}")
        if self.n < 1:
            raise ValueError("window length must be >= 1")

    @property
    def name(self) -> str:
        return f"{'omit' if self.mode == 'omit' else 'occ'}_{self.n}"


def _span_scores(params: NetworkParams, emb: np.ndarray, k: int,
                 lo: np.ndarray, hi: np.ndarray, mode: str) -> np.ndarray:
    """The unperturbed score s_k, then the score with each span [lo, hi)
    removed or zeroed.

    Row 0 of the index array is the unperturbed input and row j the input
    perturbed over [lo[j - 1], hi[j - 1]), as indices into ``emb`` with one
    all-zero row appended at T: occlusion points the span's positions at
    that row; omission reads position p < lo as p and p >= lo as
    p + (hi - lo), and keeps the first T - (hi - lo).
    """
    t_len = emb.shape[0]
    lo, hi = np.pad(np.stack([lo, hi]), ((0, 0), (1, 0)))[:, :, None]
    pos = np.arange(t_len)
    if mode == "occlude":
        idx, lengths = np.where((lo <= pos) & (pos < hi), t_len, pos), None
    else:
        idx, lengths = pos + (pos >= lo) * (hi - lo), t_len - (hi - lo)[:, 0]
    return score_rows(params, np.vstack([emb, np.zeros_like(emb[:1])]), idx,
                      lengths)[:, k]


def perturb_explain(params: NetworkParams, ids, k: int,
                    cfg: PerturbConfig) -> RelevanceMap:
    check_class(params, k)
    cfg.validate()
    emb = embed(params, ids)
    t_len = emb.shape[0]
    if t_len == 0:
        raise ValueError("empty input sequence")
    # the T + n - 1 windows, by start 1 - n .. T - 1, clipped to [0, T)
    start = np.arange(1 - cfg.n, t_len)
    keys, window = np.unique(np.maximum(start, 0) * (t_len + 1)
                             + np.minimum(start + cfg.n, t_len),
                             return_inverse=True)
    s = _span_scores(params, emb, k, keys // (t_len + 1), keys % (t_len + 1),
                     cfg.mode)
    drop = s[0] - s[1:][window]
    # token t's windows start at t - n + 1 .. t: n shifted sums, in that order
    scores = np.zeros(t_len)
    for j in range(cfg.n):
        scores += drop[j:j + t_len]
    return RelevanceMap(scores=scores / cfg.n, k=k, method=cfg.name)
