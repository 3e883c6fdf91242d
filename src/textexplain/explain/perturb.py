"""Omission and occlusion explainers over N-gram windows.

For each token, every length-N window containing it is perturbed one at a
time: omission deletes the window from the embedding sequence, occlusion
replaces it with all-zero embedding rows. The token's relevance is the mean
drop in the unnormalized class score over its N windows. Windows reaching
past a sequence end are clipped to the valid span (the divisor stays N).

Each distinct clipped span is scored once. The unperturbed input and every
perturbed one are index rows into the embeddings with one all-zero row
appended, scored in one ``models.score_rows`` call: the inputs of one length
together, in batches of the one cell budget. So an occlusion input shares
its batch with the unperturbed one (every input has length T), and an
omission input with the other spans of its kept length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..models import NetworkParams, embed, score_rows
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


def _clipped_spans(t_len: int, n: int) -> list[tuple[int, int]]:
    """Distinct [lo, hi) spans of the length-n windows, clipped to [0, T)."""
    return sorted({(max(start, 0), min(start + n, t_len))
                   for start in range(1 - n, t_len)})


def _span_scores(params: NetworkParams, emb: np.ndarray, k: int,
                 spans: list[tuple[int, int]], mode: str,
                 ) -> tuple[float, dict[tuple[int, int], float]]:
    """Unperturbed score s_k and the score with each span removed or zeroed.

    Row 0 of the index array is the unperturbed input and row j the input
    perturbed over ``spans[j - 1]`` = [lo, hi), as indices into ``emb``
    with one all-zero row appended at T: occlusion points the span's
    positions at that row; omission reads position p < lo as p and p >= lo
    as p + (hi - lo), and keeps the first T - (hi - lo).
    """
    t_len = emb.shape[0]
    lo, hi = np.array([(0, 0), *spans]).T[:, :, None]
    pos = np.arange(t_len)
    if mode == "occlude":
        idx, lengths = np.where((lo <= pos) & (pos < hi), t_len, pos), None
    else:
        idx, lengths = pos + (pos >= lo) * (hi - lo), t_len - (hi - lo)[:, 0]
    s = score_rows(params, np.vstack([emb, np.zeros_like(emb[:1])]), idx,
                   lengths)[:, k]
    return float(s[0]), dict(zip(spans, s[1:].tolist()))


def perturb_explain(params: NetworkParams, ids, k: int,
                    cfg: PerturbConfig) -> RelevanceMap:
    cfg.validate()
    emb = embed(params, ids)
    t_len = emb.shape[0]
    if t_len == 0:
        raise ValueError("empty input sequence")
    s_full, span_score = _span_scores(params, emb, k,
                                      _clipped_spans(t_len, cfg.n), cfg.mode)

    scores = np.zeros(t_len)
    for t in range(t_len):
        drop = 0.0
        # windows of length n starting at t-n+1 .. t, clipped to the sequence
        for start in range(t - cfg.n + 1, t + 1):
            span = (max(start, 0), min(start + cfg.n, t_len))
            drop += s_full - span_score[span]
        scores[t] = drop / cfg.n
    return RelevanceMap(scores=scores, k=k, method=cfg.name)
