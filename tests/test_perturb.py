import numpy as np
import pytest

from textexplain import models
from textexplain.explain import ExplainOptions, explain_document
from textexplain.explain.perturb import PerturbConfig, perturb_explain
from textexplain.models import embed, empty_sequence_scores, \
    forward_embedded, score_rows

from conftest import rand_params


def naive_perturb(params, ids, k, mode, n):
    """Brute-force oracle: enumerate every clipped window per token without
    caching or shared machinery."""
    emb = embed(params, ids)
    t_len = emb.shape[0]
    s_full = forward_embedded(params, emb).scores[k]
    out = np.zeros(t_len)
    for t in range(t_len):
        total = 0.0
        for start in range(t - n + 1, t + 1):
            lo, hi = max(start, 0), min(start + n, t_len)
            if lo >= hi:
                s = s_full
            elif mode == "omit":
                kept = np.concatenate([emb[:lo], emb[hi:]])
                if kept.shape[0] == 0:
                    s = empty_sequence_scores(params)[k]
                else:
                    s = forward_embedded(params, kept).scores[k]
            else:
                masked = emb.copy()
                masked[lo:hi] = 0.0
                s = forward_embedded(params, masked).scores[k]
            total += s_full - s
        out[t] = total / n
    return out


def test_config_names():
    assert PerturbConfig("omit", 1).name == "omit_1"
    assert PerturbConfig("occlude", 7).name == "occ_7"


def test_config_validation():
    with pytest.raises(ValueError):
        PerturbConfig("drop", 1).validate()
    with pytest.raises(ValueError):
        PerturbConfig("omit", 0).validate()


@pytest.mark.parametrize("arch", ["GRU", "LSTM", "QGRU", "QLSTM", "CNN"])
@pytest.mark.parametrize("mode", ["omit", "occlude"])
@pytest.mark.parametrize("n", [1, 3, 7])
def test_matches_naive_oracle(arch, mode, n):
    direction = "uni" if arch == "CNN" else "bi"
    p = rand_params(arch, seed=5, scale=3.0, direction=direction)
    ids = [1, 2, 3, 4, 5, 6, 7, 8]
    got = perturb_explain(p, ids, 1, PerturbConfig(mode, n)).scores
    want = naive_perturb(p, ids, 1, mode, n)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_omit_1_is_leave_one_out():
    p = rand_params("GRU", seed=2, scale=3.0)
    ids = [1, 2, 3, 4]
    emb = embed(p, ids)
    s_full = forward_embedded(p, emb).scores[0]
    expected = np.array([
        s_full - forward_embedded(
            p, np.delete(emb, t, axis=0)).scores[0]
        for t in range(4)])
    got = perturb_explain(p, ids, 0, PerturbConfig("omit", 1)).scores
    np.testing.assert_allclose(got, expected, atol=1e-14)


def test_occlusion_of_whole_sequence():
    """Window length >= T: every token shares the same clipped windows."""
    p = rand_params("LSTM", seed=3, scale=3.0)
    ids = [1, 2, 3]
    got = perturb_explain(p, ids, 0, PerturbConfig("occlude", 7)).scores
    want = naive_perturb(p, ids, 0, "occlude", 7)
    np.testing.assert_allclose(got, want, atol=1e-14)


def test_omission_to_empty_uses_empty_sequence_score():
    p = rand_params("CNN", seed=1, scale=2.0)
    ids = [1, 2]
    emb = embed(p, ids)
    s_full = forward_embedded(p, emb).scores[0]
    got = perturb_explain(p, ids, 0, PerturbConfig("omit", 2)).scores
    # window (0, 2) empties the document; each token also has one clipped
    # single-token window
    s_empty = empty_sequence_scores(p)[0]
    s_wo_0 = forward_embedded(p, emb[1:]).scores[0]
    s_wo_1 = forward_embedded(p, emb[:1]).scores[0]
    np.testing.assert_allclose(
        got,
        [((s_full - s_wo_0) + (s_full - s_empty)) / 2,
         ((s_full - s_empty) + (s_full - s_wo_1)) / 2],
        atol=1e-14)


def test_input_is_not_mutated():
    p = rand_params("GRU", seed=4, scale=2.0)
    ids = [1, 2, 3]
    emb_before = p.embedding.copy()
    perturb_explain(p, ids, 0, PerturbConfig("occlude", 3))
    np.testing.assert_array_equal(p.embedding, emb_before)


def test_empty_sequence_rejected():
    with pytest.raises(ValueError):
        perturb_explain(rand_params("GRU"), [], 0, PerturbConfig("omit", 1))


@pytest.mark.parametrize("arch,direction", [
    (arch, direction) for arch in ("GRU", "LSTM", "QGRU", "QLSTM", "CNN")
    for direction in ("uni", "bi") if (arch, direction) != ("CNN", "bi")])
def test_zero_relevance_for_irrelevant_token(arch, direction):
    """Occluding a token whose embedding row is already zero leaves the input
    unchanged, so its occlusion relevance is exactly zero."""
    p = rand_params(arch, seed=8, scale=3.0, direction=direction)
    p.embedding[5][:] = 0.0
    got = perturb_explain(p, [5, 1, 2], 0, PerturbConfig("occlude", 1)).scores
    assert got[0] == 0.0


@pytest.mark.parametrize("arch,direction", [("GRU", "bi"), ("QLSTM", "uni"),
                                            ("CNN", "uni")])
def test_scoring_keeps_to_the_batch_budget(arch, direction, monkeypatch):
    """With a budget of 4 rows, no scoring call of a perturbation or LIMSSE
    map runs more than ``batch_rows`` inputs, and the maps stay within
    1e-12 of their peak of the ones scored in one batch per length."""
    p = rand_params(arch, seed=3, scale=3.0, direction=direction)
    ids = [1 + (5 * i) % 17 for i in range(12)]
    names = ["omit_1", "omit_3", "occ_1", "occ_7", "limsse_ms_s",
             "limsse_bb"]
    opts = ExplainOptions(limsse_n=200, limsse_maxlen=4)
    calls = []
    real = models.score_batch

    def counting(params, embs):
        calls.append(len(embs))
        assert len(embs) <= models.batch_rows(params, embs.shape[1])
        return real(params, embs)

    monkeypatch.setattr(models, "score_batch", counting)
    whole = explain_document(names, p, ids, opts, 1)[1]
    n_whole = len(calls)
    width = max(p.d_embed, p.d_hidden)
    monkeypatch.setattr(models, "BATCH_CELLS", 4 * len(ids) * width)
    split = explain_document(names, p, ids, opts, 1)[1]
    # at the default budget, an occlusion map scores its 13 inputs of 12
    # tokens in one call
    assert len(calls) - n_whole > n_whole
    for name, a, b in zip(names, split, whole):
        gap = np.abs(a.scores - b.scores).max()
        assert gap <= 1e-12 * max(np.abs(b.scores).max(), 1e-300), name


def window_loop_perturb(params, ids, k, mode, n):
    """The span list, span dict and T·n window loop that the shifted sums
    replace: the distinct clipped spans sorted by (lo, hi) and scored in one
    ``score_rows`` call after the unperturbed input, then each token's
    drops added window by window from a running 0.0."""
    emb = embed(params, ids)
    t_len = emb.shape[0]
    spans = sorted({(max(start, 0), min(start + n, t_len))
                    for start in range(1 - n, t_len)})
    lo, hi = np.array([(0, 0), *spans]).T[:, :, None]
    pos = np.arange(t_len)
    if mode == "occlude":
        idx, lengths = np.where((lo <= pos) & (pos < hi), t_len, pos), None
    else:
        idx, lengths = pos + (pos >= lo) * (hi - lo), t_len - (hi - lo)[:, 0]
    s = score_rows(params, np.vstack([emb, np.zeros_like(emb[:1])]), idx,
                   lengths)[:, k]
    s_full, span_score = float(s[0]), dict(zip(spans, s[1:].tolist()))
    scores = np.zeros(t_len)
    for t in range(t_len):
        drop = 0.0
        for start in range(t - n + 1, t + 1):
            drop += s_full - span_score[(max(start, 0),
                                         min(start + n, t_len))]
        scores[t] = drop / n
    return scores


@pytest.mark.parametrize("arch,direction", [
    ("GRU", "bi"), ("LSTM", "uni"), ("QGRU", "bi"), ("QLSTM", "uni"),
    ("CNN", "uni")])
@pytest.mark.parametrize("t_len", [1, 2, 3, 6, 9, 20])
@pytest.mark.parametrize("rows", [None, 3])
def test_shifted_sums_equal_the_window_loop(monkeypatch, arch, direction,
                                            t_len, rows):
    """All six perturbation maps equal the window loop bitwise, for T = 1,
    T < n and T > n, at the default budget and at 3 rows a batch (so the
    spans' order within a length decides each batch's rows)."""
    p = rand_params(arch, seed=t_len, scale=3.0, direction=direction)
    if rows:
        monkeypatch.setattr(models, "BATCH_CELLS",
                            rows * t_len * max(p.d_embed, p.d_hidden))
    ids = [1 + (7 * i * i + 3 * i) % 19 for i in range(t_len)]
    for mode in ("omit", "occlude"):
        for n in (1, 3, 7):
            got = perturb_explain(p, ids, 1, PerturbConfig(mode, n)).scores
            want = window_loop_perturb(p, ids, 1, mode, n)
            assert got.tobytes() == want.tobytes(), (mode, n)
