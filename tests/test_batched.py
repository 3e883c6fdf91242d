"""Batched scoring equals one forward pass per input.

Property tests over every architecture and direction: the batched runner,
the batched reverse sweep (equal-length and ragged), batched training,
batched integrated gradients, the bucketed perturbation explainer and the
bucketed LIMSSE responses must agree with the one-input-at-a-time path
within 1e-12.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from textexplain.explain.gradient import integrated_gradients
from textexplain.explain import limsse as limsse_module
from textexplain.explain.perturb import PerturbConfig, perturb_explain
from textexplain.models import RelevanceRule, _run, embed, \
    embedding_gradients, forward, forward_embedded, score_batch, sweep
from textexplain.numerics import SeededRng, softmax
from textexplain.train import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, TrainConfig, \
    train

from conftest import keyword_corpus, rand_params
from test_perturb import naive_perturb

MODELS = [(arch, direction) for arch in ("GRU", "LSTM", "QGRU", "QLSTM", "CNN")
          for direction in ("uni", "bi") if (arch, direction) != ("CNN", "bi")]
MODEL_IDS = [f"{arch}-{direction}" for arch, direction in MODELS]

PROPERTY = settings(max_examples=30, deadline=None, derandomize=True)

models = st.sampled_from(MODELS)
seeds = st.integers(0, 1000)


def model(arch_dir, seed):
    arch, direction = arch_dir
    return rand_params(arch, seed=seed, scale=3.0, direction=direction)


def token_ids(t_len, seed):
    return [1 + (seed * 7 + 3 * i * i) % 19 for i in range(t_len)]


@PROPERTY
@given(models, seeds, st.integers(1, 40), st.integers(1, 9))
def test_forward_embedded_is_a_batch_row(arch_dir, seed, t_len, batch):
    p = model(arch_dir, seed)
    embs = np.stack([embed(p, token_ids(t_len, seed + b))
                     for b in range(batch)])
    doc, scores, dirs = _run(p, embs, keep=True)
    np.testing.assert_allclose(score_batch(p, embs), scores, rtol=0,
                               atol=1e-12)
    for b in range(batch):
        tr = forward_embedded(p, embs[b])
        np.testing.assert_allclose(tr.scores, scores[b], rtol=0, atol=1e-12)
        np.testing.assert_allclose(tr.doc_repr, doc[b], rtol=0, atol=1e-12)
        for i, d_tr in enumerate(tr.dirs.values()):
            row = dirs.at(i, b)
            for field in ("preact", "cand", "hidden", "cell"):
                got, want = getattr(row, field), getattr(d_tr, field)
                if want is None:
                    assert got is None
                else:
                    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            for name, gate in d_tr.gates.items():
                np.testing.assert_allclose(row.gates[name], gate, rtol=0,
                                           atol=1e-12)
            if d_tr.pool_argmax is not None:
                np.testing.assert_array_equal(row.pool_argmax,
                                              d_tr.pool_argmax)


@PROPERTY
@given(models, seeds, st.integers(1, 20), st.integers(1, 6))
def test_sweep_row_is_its_single_input_sweep(arch_dir, seed, t_len, batch):
    """Row b of a batched sweep equals the sweep of input b alone, and the
    batch's parameter gradients are the sum of the single-input ones."""
    p = model(arch_dir, seed)
    embs = np.stack([embed(p, token_ids(t_len, seed + b))
                     for b in range(batch)])
    dscores = np.random.default_rng(seed).normal(size=(batch, p.n_classes))
    doc, _, dirs = _run(p, embs, keep=True)
    demb, grads = sweep(p, dirs, dscores, doc=doc)
    total = np.zeros_like(grads)
    for b in range(batch):
        doc, _, dirs = _run(p, embs[b:b + 1], keep=True)
        one, one_grads = sweep(p, dirs, dscores[b:b + 1], doc=doc)
        np.testing.assert_allclose(demb[b], one[0], rtol=0, atol=1e-12)
        total += one_grads
    np.testing.assert_allclose(grads, total, rtol=0, atol=1e-12)


def ragged_stack(p, lengths, seed, fill):
    """Right-padded embeddings of one token sequence per length, with the
    padding set to ``fill`` (a scalar or a full-size array)."""
    t_max = max(lengths)
    embs = np.broadcast_to(fill, (len(lengths), t_max, p.d_embed)).copy()
    for b, t_len in enumerate(lengths):
        embs[b, :t_len] = embed(p, token_ids(t_len, seed + b))
    return embs


@pytest.mark.parametrize("arch_dir", MODELS, ids=MODEL_IDS)
@settings(max_examples=15, deadline=None, derandomize=True)
@given(seeds, st.lists(st.integers(1, 12), min_size=1, max_size=5))
def test_ragged_rows_are_their_single_input_runs(arch_dir, seed, lengths):
    """Each row of a ragged forward and sweep equals the B = 1 run of its
    real positions: scores, trace, real-position embedding gradients, and
    parameter gradients summed over rows. The padding gets exactly zero
    gradient, and its contents change no output."""
    p = model(arch_dir, seed)
    lengths = lengths + [1]
    embs = ragged_stack(p, lengths, seed, 0.0)
    dscores = np.random.default_rng(seed).normal(size=(len(lengths),
                                                       p.n_classes))
    doc, scores, dirs = _run(p, embs, keep=True, lengths=lengths)
    demb, grads = sweep(p, dirs, dscores, doc=doc)
    np.testing.assert_allclose(
        _run(p, embs, keep=False, lengths=lengths)[1], scores, rtol=0,
        atol=1e-12)
    total = np.zeros_like(grads)
    for b, t_len in enumerate(lengths):
        one_doc, one_scores, one_dirs = _run(p, embs[b:b + 1, :t_len],
                                             keep=True)
        one, one_grads = sweep(p, one_dirs, dscores[b:b + 1], doc=one_doc)
        np.testing.assert_allclose(scores[b], one_scores[0], rtol=0,
                                   atol=1e-12)
        np.testing.assert_allclose(demb[b, :t_len], one[0], rtol=0,
                                   atol=1e-12)
        assert np.all(demb[b, t_len:] == 0.0)
        for i in range(len(p.directions)):
            row, want = dirs.at(i, b), one_dirs.at(i, 0)
            for field in ("emb", "preact", "cand", "hidden"):
                np.testing.assert_allclose(getattr(row, field),
                                           getattr(want, field), rtol=0,
                                           atol=1e-12)
        total += one_grads
    np.testing.assert_allclose(grads, total, rtol=0, atol=1e-12)

    noise = np.random.default_rng(seed + 1).normal(scale=50.0,
                                                   size=embs.shape)
    filled = ragged_stack(p, lengths, seed, noise)
    doc2, scores2, dirs2 = _run(p, filled, keep=True, lengths=lengths)
    demb2, grads2 = sweep(p, dirs2, dscores, doc=doc2)
    np.testing.assert_array_equal(scores2, scores)
    np.testing.assert_array_equal(demb2, demb)
    np.testing.assert_array_equal(grads2, grads)


@pytest.mark.parametrize("arch_dir", MODELS, ids=MODEL_IDS)
@pytest.mark.parametrize("deeplift", [False, True], ids=["lrp", "deeplift"])
@settings(max_examples=10, deadline=None, derandomize=True)
@given(seeds, st.lists(st.integers(1, 12), min_size=1, max_size=5))
def test_ragged_rule_sweep_rows_are_their_single_input_sweeps(
        arch_dir, deeplift, seed, lengths):
    """Under an LRP or DeepLIFT rule, each row of a ragged sweep equals the
    rule sweep of its input alone within 1e-12 of the row's peak, and its
    padding gets exactly zero."""
    p = model(arch_dir, seed)
    lengths = lengths + [1]
    embs = ragged_stack(p, lengths, seed, 0.0)
    dscores = np.random.default_rng(seed).normal(size=(len(lengths),
                                                       p.n_classes))

    def rule_sweep(stack, row_lengths, ds):
        dirs = _run(p, stack, keep=True, lengths=row_lengths)[2]
        if deeplift:
            base = _run(p, np.zeros_like(stack), keep=True,
                        lengths=row_lengths)[2]
        else:
            # ε-LRP's reference: an all-zero activation trace
            base = dirs.take(range(len(ds)))
            for a in (base.hidden, base.cand, base.preact, base.cell):
                if a is not None:
                    a[...] = 0.0
        return sweep(p, dirs, ds, RelevanceRule(1e-3, base))[0]

    demb = rule_sweep(embs, lengths, dscores)
    for b, t_len in enumerate(lengths):
        one = rule_sweep(embs[b:b + 1, :t_len], None, dscores[b:b + 1])[0]
        peak = np.abs(one).max()
        assert np.abs(demb[b, :t_len] - one).max() <= 1e-12 * peak
        assert np.all(demb[b, t_len:] == 0.0)


def by_name(p):
    """Every weight array of ``p``, keyed by name, gate by gate."""
    named = {"embedding": p.embedding, "w_cls": p.w_cls, "b_cls": p.b_cls}
    for dname, layer in p.layers.items():
        named.update({f"{dname}.{wname}": w for wname, w in layer.items()})
    return named


def oracle_train(p, corpus, config):
    """Adam over per-example B = 1 sweeps, summed in example order, name by
    name on the per-gate arrays."""
    params = by_name(p)
    m = {n: np.zeros_like(w) for n, w in params.items()}
    v = {n: np.zeros_like(w) for n, w in params.items()}
    rng = SeededRng(config.seed)
    order = list(range(len(corpus)))
    step = 0
    for _ in range(config.epochs):
        rng.shuffle(order)
        for start in range(0, len(order), config.batch_size):
            batch = order[start:start + config.batch_size]
            acc = {n: np.zeros_like(w) for n, w in params.items()}
            for idx in batch:
                ids, label = corpus[idx]
                doc, scores, dirs = _run(p, embed(p, ids)[None], keep=True)
                dscores = softmax(scores)
                dscores[0, label] -= 1.0
                demb, grads = sweep(p, dirs, dscores, doc=doc)
                np.add.at(acc["embedding"], ids, demb[0])
                for name, g in by_name(p.like(grads)).items():
                    if name != "embedding":
                        acc[name] += g
            step += 1
            for name, w in params.items():
                g = acc[name] / len(batch)
                m[name] = ADAM_BETA1 * m[name] + (1 - ADAM_BETA1) * g
                v[name] = ADAM_BETA2 * v[name] + (1 - ADAM_BETA2) * g * g
                m_hat = m[name] / (1 - ADAM_BETA1 ** step)
                v_hat = v[name] / (1 - ADAM_BETA2 ** step)
                w -= config.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return p


@pytest.mark.parametrize("arch_dir", MODELS, ids=MODEL_IDS)
@settings(max_examples=3, deadline=None, derandomize=True)
@given(seeds)
def test_train_matches_per_example_oracle(arch_dir, seed):
    """Two epochs of ragged minibatch training equal the per-example loop
    within 1e-12 of each parameter array's largest entry."""
    corpus = keyword_corpus(11, SeededRng(seed), vocab_size=20, min_len=1,
                            max_len=12)
    config = TrainConfig(epochs=2, lr=0.01, batch_size=4, seed=seed)
    got = train(model(arch_dir, seed), corpus, config)
    want = oracle_train(model(arch_dir, seed), corpus, config)
    got = by_name(got)
    for name, w in by_name(want).items():
        np.testing.assert_allclose(got[name], w, rtol=0,
                                   atol=1e-12 * np.abs(w).max(),
                                   err_msg=name)


@PROPERTY
@given(models, seeds, st.integers(1, 12), st.integers(1, 60),
       st.sampled_from(["s", "p"]))
def test_integrated_gradients_is_the_mean_of_serial_gradients(
        arch_dir, seed, t_len, steps, output):
    p = model(arch_dir, seed)
    ids = token_ids(t_len, seed)
    emb = embed(p, ids)
    serial = np.zeros_like(emb)
    for m in range(1, steps + 1):
        serial += embedding_gradients(p, output=output, k=1,
                                      emb=emb * (m / steps))
    got = integrated_gradients(p, ids, output, 1, steps)
    np.testing.assert_allclose(got, serial / steps, rtol=0, atol=1e-12)


@PROPERTY
@given(models, seeds, st.integers(1, 40), st.sampled_from([1, 3, 7]),
       st.sampled_from(["omit", "occlude"]))
def test_perturbation_matches_per_span_oracle(arch_dir, seed, t_len, n, mode):
    p = model(arch_dir, seed)
    ids = token_ids(t_len, seed)
    got = perturb_explain(p, ids, 1, PerturbConfig(mode, n)).scores
    want = naive_perturb(p, ids, 1, mode, n)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@PROPERTY
@given(models, seeds, st.integers(1, 40), st.integers(1, 8))
def test_limsse_responses_match_per_substring_forward(arch_dir, seed, t_len,
                                                      l_max):
    """Every variant's fit gets, for each drawn substring, the response of
    that substring's own forward pass."""
    p = model(arch_dir, seed)
    ids = token_ids(t_len, seed)
    fits = []

    def fit(z, y, **kwargs):
        fits.append((z, y))
        return np.zeros(t_len)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(limsse_module, "fit_blackbox", fit)
        mp.setattr(limsse_module, "fit_magnitude", fit)
        limsse_module.limsse_maps(p, ids, 1, ["bb", "ms_s", "ms_p"], n=400,
                                  l_max=l_max, seed=seed)
    (z, bb), (_, ms_s), (_, ms_p) = fits
    for row, cover in enumerate(z):
        start, length = int(np.argmax(cover)), int(cover.sum())
        assert 1 <= length <= l_max
        assert np.all(cover[start:start + length] == 1.0)
        tr = forward(p, ids[start:start + length])
        assert bb[row] == float(tr.predicted == 1)
        assert abs(ms_s[row] - tr.scores[1]) <= 1e-12
        assert abs(ms_p[row] - tr.probs[1]) <= 1e-12
