"""Omission and occlusion explainers over N-gram windows.

For each token, every length-N window containing it is perturbed one at a
time: omission deletes the window from the embedding sequence, occlusion
replaces it with all-zero embedding rows. The token's relevance is the mean
drop in the unnormalized class score over its N windows. Windows reaching
past a sequence end are clipped to the valid span (the divisor stays N).

Each distinct clipped span is scored once. The perturbed inputs are grouped
by length, and every group is gathered from the embeddings and scored by
``models.score_rows`` in batches of the one cell budget; for occlusion
every input has length T, is gathered from the embeddings with one all-zero
row appended, and the unperturbed input is the group's first row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..models import NetworkParams, embed, empty_sequence_scores, score_rows
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
    """Unperturbed score s_k and the score with each span removed or zeroed."""
    t_len = emb.shape[0]
    positions = np.arange(t_len)
    if mode == "occlude":
        # row t_len of the table is the all-zero embedding
        idx = np.repeat(positions[None], len(spans) + 1, axis=0)
        for row, (lo, hi) in enumerate(spans, start=1):
            idx[row, lo:hi] = t_len
        s = score_rows(params, np.vstack([emb, np.zeros_like(emb[:1])]),
                       idx)[:, k]
        return float(s[0]), {span: float(v) for span, v in zip(spans, s[1:])}

    s_full = float(score_rows(params, emb, positions[None])[0, k])
    by_len: dict[int, list[tuple[int, int]]] = {}
    for lo, hi in spans:
        by_len.setdefault(t_len - (hi - lo), []).append((lo, hi))
    out = {}
    for kept_len, group in by_len.items():
        if kept_len == 0:
            s = np.full(len(group), empty_sequence_scores(params)[k])
        else:
            kept = np.stack([positions[(positions < lo) | (positions >= hi)]
                             for lo, hi in group])
            s = score_rows(params, emb, kept)[:, k]
        out.update((span, float(v)) for span, v in zip(group, s))
    return s_full, out


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
