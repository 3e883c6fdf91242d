"""Shared fixtures and independent oracles used across the test suite."""

from __future__ import annotations

import numpy as np
import pytest

import textexplain as tx
from textexplain import models as models_module
from textexplain.explain import gradient as gradient_module
from textexplain.numerics import SeededRng


def rand_params(arch: str, seed: int = 0, vocab_size: int = 20,
                d_embed: int = 4, d_hidden: int = 6, n_classes: int = 2,
                direction: str = "uni", kernel_width: int = 5,
                scale: float = 1.0, zero_bias: bool = False):
    """Random small model; ``scale`` inflates weights to get non-tiny
    activations, ``zero_bias`` zeroes every bias including the classifier."""
    rng = SeededRng(seed)
    p = tx.init_params(arch, vocab_size, d_embed, d_hidden, n_classes, rng,
                       direction=direction, kernel_width=kernel_width)
    if scale != 1.0:
        p.embedding *= scale
        p.w_cls *= scale
        for weights in p.layers.values():
            for name in weights:
                if weights[name].ndim > 1:
                    weights[name] *= scale
    if zero_bias:
        p.b_cls[:] = 0.0
        for weights in p.layers.values():
            for name in weights:
                if weights[name].ndim == 1:
                    weights[name][:] = 0.0
    return p


def forbid_forward(monkeypatch, check: str) -> None:
    """Make every forward fail: the runner that every batch of the
    white-box pass and the black-box scorer run."""
    def no_forward(*args, **kwargs):
        raise AssertionError(f"forward pass before the {check} check")

    monkeypatch.setattr(models_module, "_run", no_forward)
    monkeypatch.setattr(gradient_module, "_run", no_forward)


def keyword_corpus(n_docs: int, rng: SeededRng, vocab_size: int = 40,
                   keyword0: int = 1, keyword1: int = 2, min_len: int = 6,
                   max_len: int = 10) -> list[tuple[list[int], int]]:
    """Two-class task: the label is decided by which keyword appears."""
    docs = []
    for _ in range(n_docs):
        label = rng.uniform_int(0, 1)
        length = rng.uniform_int(min_len, max_len)
        ids = [rng.uniform_int(3, vocab_size - 1) for _ in range(length)]
        ids[rng.uniform_int(0, length - 1)] = keyword0 if label == 0 else keyword1
        docs.append((ids, label))
    return docs


# ---------------------------------------------------------------------------
# Straight-line scalar oracles (independent of the package's forward code)
# ---------------------------------------------------------------------------

def _sig(x):
    return 1.0 / (1.0 + np.exp(-x))


def oracle_lstm_states(w, emb):
    """Step-by-step scalar LSTM recursion with explicit loops."""
    t_len, _ = emb.shape
    d = w["b"].shape[0]
    h = np.zeros(d)
    c = np.zeros(d)
    hs, cs = [h.copy()], [c.copy()]
    for t in range(t_len):
        e = emb[t]
        i = _sig(w["Vi"] @ e + w["Ui"] @ h + w["bi"])
        f = _sig(w["Vf"] @ e + w["Uf"] @ h + w["bf"])
        o = _sig(w["Vo"] @ e + w["Uo"] @ h + w["bo"])
        g = np.tanh(w["V"] @ e + w["U"] @ h + w["b"])
        c = f * c + i * g
        h = o * np.tanh(c)
        hs.append(h.copy())
        cs.append(c.copy())
    return np.array(hs), np.array(cs)


def oracle_gru_states(w, emb):
    t_len, _ = emb.shape
    d = w["b"].shape[0]
    h = np.zeros(d)
    hs = [h.copy()]
    for t in range(t_len):
        e = emb[t]
        z = _sig(w["Vz"] @ e + w["Uz"] @ h + w["bz"])
        r = _sig(w["Vr"] @ e + w["Ur"] @ h + w["br"])
        g = np.tanh(w["V"] @ e + w["U"] @ (r * h) + w["b"])
        h = z * h + (1.0 - z) * g
        hs.append(h.copy())
    return np.array(hs)


def finite_diff_embedding_grads(params, emb, output, k, step=1e-5):
    """Central-difference gradient oracle over embedding entries."""
    from textexplain.models import forward_embedded

    def value(e):
        tr = forward_embedded(params, e)
        return tr.scores[k] if output == "s" else tr.probs[k]

    grads = np.zeros_like(emb)
    for t in range(emb.shape[0]):
        for j in range(emb.shape[1]):
            up = emb.copy()
            up[t, j] += step
            down = emb.copy()
            down[t, j] -= step
            grads[t, j] = (value(up) - value(down)) / (2 * step)
    return grads


@pytest.fixture(scope="session")
def tiny_keyword_models():
    """One small trained model per architecture on the keyword task."""
    from textexplain.train import TrainConfig, train

    corpus = keyword_corpus(150, SeededRng(11))
    models = {}
    for arch in tx.ARCHS:
        p = tx.init_params(arch, 40, 12, 12, 2, SeededRng(3), direction="uni")
        train(p, corpus, TrainConfig(epochs=5, seed=5))
        models[arch] = p
    return models
