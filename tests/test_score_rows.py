"""The one black-box scorer, ``models.score_rows``, equals the per-length
batches it stands for.

Rows of one length are scored together, in input order, in batches of at
most ``batch_rows``; a length-0 row scores as ``empty_sequence_scores``.
Since a row's last bits depend on its batch, the perturbation and LIMSSE
maps built on it are compared bitwise with a copy of the earlier grouping,
one ``score_rows`` call per equal-length group (omission's unperturbed input
alone, occlusion's beside its spans, substrings by ascending length).
"""

import numpy as np
import pytest

from textexplain import models
from textexplain.explain import ExplainOptions, explain_document
from textexplain.explain import limsse as limsse_module
from textexplain.explain import perturb as perturb_module
from textexplain.models import batch_rows, embed, empty_sequence_scores, \
    score_batch, score_rows

from conftest import rand_params

BLACK_BOX = ["omit_1", "omit_3", "omit_7", "occ_1", "occ_3", "occ_7",
             "limsse_bb", "limsse_ms_s", "limsse_ms_p"]
MODELS = [("GRU", "bi"), ("QLSTM", "uni"), ("CNN", "uni")]


def per_length_blocks(params, table, idx, lengths):
    """The (B, L, d_e) input stacks of each length in ascending order, its
    rows in input order, cut every ``batch_rows``; and, per length, the
    rows they hold."""
    blocks, rows_of = [], {}
    for length in sorted(set(lengths)):
        rows = [i for i, n in enumerate(lengths) if n == length]
        rows_of[length] = rows
        if length == 0:
            continue
        size = batch_rows(params, length)
        for lo in range(0, len(rows), size):
            blocks.append(np.stack([table[idx[i][:length]]
                                    for i in rows[lo:lo + size]]))
    return blocks, rows_of


@pytest.mark.parametrize("arch,direction", MODELS)
def test_mixed_lengths_are_per_length_score_batch_blocks(monkeypatch, arch,
                                                         direction):
    p = rand_params(arch, seed=3, scale=3.0, direction=direction)
    table = embed(p, list(range(1, 12)))
    # room for 3 rows of length 5 per batch, so that group takes 3 batches
    monkeypatch.setattr(models, "BATCH_CELLS",
                        3 * 5 * max(p.d_embed, p.d_hidden))
    lengths = [5, 0, 2, 5, 7, 5, 2, 5, 0, 5, 5, 1, 5, 5]
    rng = np.random.default_rng(0)
    # entries past a row's length point outside the table: never read
    idx = np.full((len(lengths), 7), len(table) + 100)
    for i, length in enumerate(lengths):
        idx[i, :length] = rng.integers(0, len(table), length)

    calls = []

    def recorded(params, embs):
        calls.append(embs.copy())
        return score_batch(params, embs)

    monkeypatch.setattr(models, "score_batch", recorded)
    got = score_rows(p, table, idx, lengths)

    blocks, rows_of = per_length_blocks(p, table, idx, lengths)
    assert len(calls) == len(blocks)
    for call, block in zip(calls, blocks):
        assert len(call) <= batch_rows(p, call.shape[1])
        assert call.shape == block.shape
        assert call.tobytes() == block.tobytes()
    assert [len(c) for c in calls if c.shape[1] == 5] == [3, 3, 2]
    for length, rows in rows_of.items():
        if length == 0:
            want = np.tile(empty_sequence_scores(p), (len(rows), 1))
        else:
            want = np.concatenate([
                score_batch(p, block) for block in blocks
                if block.shape[1] == length])
        assert got[rows].tobytes() == want.tobytes()


def test_lengths_default_to_the_index_width():
    p = rand_params("LSTM", seed=1, scale=3.0, direction="bi")
    table = embed(p, list(range(1, 9)))
    idx = np.array([[0, 1, 2, 3], [4, 5, 6, 7], [7, 0, 7, 0]])
    assert (score_rows(p, table, idx).tobytes()
            == score_rows(p, table, idx, [4, 4, 4]).tobytes()
            == score_batch(p, table[idx]).tobytes())


def equal_length_rows(params, table, idx):
    """One group of equal-length inputs, in batches of ``batch_rows``."""
    size = batch_rows(params, idx.shape[1])
    return np.concatenate([score_batch(params, table[idx[lo:lo + size]])
                           for lo in range(0, len(idx), size)])


def grouped_span_scores(params, emb, k, lo, hi, mode):
    """Span scores with one scoring call per equal-length group: s_k of
    the unperturbed input, then of each span [lo, hi)."""
    t_len = emb.shape[0]
    positions = np.arange(t_len)
    spans = list(zip(lo.tolist(), hi.tolist()))
    if mode == "occlude":
        idx = np.repeat(positions[None], len(spans) + 1, axis=0)
        for row, (a, b) in enumerate(spans, start=1):
            idx[row, a:b] = t_len
        return equal_length_rows(
            params, np.vstack([emb, np.zeros_like(emb[:1])]), idx)[:, k]
    out = np.empty(len(spans) + 1)
    out[0] = equal_length_rows(params, emb, positions[None])[0, k]
    by_len = {}
    for row, (a, b) in enumerate(spans, start=1):
        by_len.setdefault(t_len - (b - a), []).append(row)
    for kept_len, rows in by_len.items():
        if kept_len == 0:
            out[rows] = empty_sequence_scores(params)[k]
        else:
            kept = np.stack([positions[(positions < spans[r - 1][0])
                                       | (positions >= spans[r - 1][1])]
                             for r in rows])
            out[rows] = equal_length_rows(params, emb, kept)[:, k]
    return out


def grouped_substring_scores(params, table, windows, lengths):
    """Substring scores with one scoring call per length."""
    out = np.empty((len(lengths), len(params.b_cls)))
    for length in np.unique(lengths):
        rows = np.flatnonzero(lengths == length)
        out[rows] = equal_length_rows(params, table, windows[rows, :length])
    return out


@pytest.mark.parametrize("arch,direction", MODELS)
@pytest.mark.parametrize("t_len", [1, 2, 5, 6, 9, 30])
def test_black_box_maps_equal_the_per_group_scoring(monkeypatch, arch,
                                                    direction, t_len):
    """T <= 6 (LIMSSE's l_max) and the windows n > T included."""
    p = rand_params(arch, seed=t_len, scale=20.0, direction=direction)
    ids = [1 + (7 * i * i + 3 * i) % 19 for i in range(t_len)]
    opts = ExplainOptions(limsse_n=300, seed=3)
    got = explain_document(BLACK_BOX, p, ids, opts, 1)[1]
    monkeypatch.setattr(perturb_module, "_span_scores", grouped_span_scores)
    monkeypatch.setattr(limsse_module, "score_rows", grouped_substring_scores)
    want = explain_document(BLACK_BOX, p, ids, opts, 1)[1]
    for name, g, w in zip(BLACK_BOX, got, want):
        assert g.scores.tobytes() == w.scores.tobytes(), name
