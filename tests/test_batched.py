"""Batched scoring equals one forward pass per input.

Property tests over every architecture and direction: the batched runner,
the batched reverse sweep, batched integrated gradients, the bucketed
perturbation explainer and the bucketed LIMSSE responses must agree with the
one-input-at-a-time path within 1e-12.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from textexplain.explain.gradient import integrated_gradients
from textexplain.explain.limsse import _substring_responses
from textexplain.explain.perturb import PerturbConfig, perturb_explain
from textexplain.models import _run, embed, embedding_gradients, forward, \
    forward_embedded, score_batch, sweep

from conftest import rand_params
from test_perturb import naive_perturb

MODELS = [(arch, direction) for arch in ("GRU", "LSTM", "QGRU", "QLSTM", "CNN")
          for direction in ("uni", "bi") if (arch, direction) != ("CNN", "bi")]

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
        for dname, d_tr in tr.dirs.items():
            row = dirs[dname].row(b)
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
    demb, grads = sweep(p, doc, dirs, dscores, param_grads=True)
    total = {}
    for b in range(batch):
        doc, _, dirs = _run(p, embs[b:b + 1], keep=True)
        one, one_grads = sweep(p, doc, dirs, dscores[b:b + 1],
                               param_grads=True)
        np.testing.assert_allclose(demb[b], one[0], rtol=0, atol=1e-12)
        for name, g in one_grads.items():
            total[name] = total.get(name, 0.0) + g
    assert set(total) == set(grads)
    for name, g in grads.items():
        np.testing.assert_allclose(g, total[name], rtol=0, atol=1e-12)


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
@given(models, seeds, st.integers(1, 40), st.integers(1, 8),
       st.sampled_from(["bb", "ms_s", "ms_p"]))
def test_limsse_responses_match_per_substring_forward(arch_dir, seed, t_len,
                                                      l_max, variant):
    p = model(arch_dir, seed)
    ids = token_ids(t_len, seed)
    keys = {(start, length) for length in range(1, min(l_max, t_len) + 1)
            for start in range(t_len - length + 1)}
    got = _substring_responses(p, ids, 1, variant, keys)
    assert set(got) == keys
    for (start, length), value in got.items():
        tr = forward(p, ids[start:start + length])
        if variant == "bb":
            assert value == float(tr.predicted == 1)
        else:
            want = tr.scores[1] if variant == "ms_s" else tr.probs[1]
            assert abs(value - want) <= 1e-12
