"""Adam trainer minimizing categorical crossentropy.

Each example's gradients come from one forward trace and one exact reverse
sweep (``models.sweep``) of d(loss)/d(scores) = softmax - one-hot; they are
averaged over the batch in example order. No dropout or learning-rate
schedule; determinism comes from the seeded shuffle and fixed iteration
order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import NetworkParams, _run, embed, forward, get_param, \
    param_names, sweep
from .numerics import SeededRng, softmax


@dataclass
class TrainConfig:
    epochs: int = 10
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_size: int = 8
    seed: int = 0


def _example_grads(params: NetworkParams, ids: list[int],
                   label: int) -> dict[str, np.ndarray]:
    """Crossentropy gradients of every parameter (names as in
    ``param_names`` plus a dense ``"embedding"``) for one example."""
    doc, scores, dirs = _run(params, embed(params, ids)[None], keep=True)
    dscores = softmax(scores)
    dscores[0, label] -= 1.0
    demb, grads = sweep(params, doc, dirs, dscores, param_grads=True)
    emb_grad = np.zeros_like(params.embedding)
    np.add.at(emb_grad, ids, demb[0])
    grads["embedding"] = emb_grad
    return grads


def train(params: NetworkParams, corpus: list[tuple[list[int], int]],
          config: TrainConfig) -> NetworkParams:
    """Train in place and return ``params``.

    ``corpus`` is a list of (token id sequence, label) pairs.
    """
    if not corpus:
        raise ValueError("empty training corpus")
    n_classes = params.n_classes
    for ids, label in corpus:
        if not 0 <= label < n_classes:
            raise ValueError(f"label {label} out of range [0, {n_classes})")

    names = param_names(params) + ["embedding"]
    m = {n: np.zeros_like(get_param(params, n)) for n in names}
    v = {n: np.zeros_like(get_param(params, n)) for n in names}
    step = 0
    rng = SeededRng(config.seed)

    order = list(range(len(corpus)))
    for _ in range(config.epochs):
        rng.shuffle(order)
        for start in range(0, len(order), config.batch_size):
            batch = order[start:start + config.batch_size]
            acc: dict[str, np.ndarray] = {}
            for idx in batch:
                ids, label = corpus[idx]
                grads = _example_grads(params, ids, label)
                for name, g in grads.items():
                    if name in acc:
                        acc[name] += g
                    else:
                        acc[name] = g
            step += 1
            for name in names:
                g = acc[name] / len(batch)
                m[name] = config.beta1 * m[name] + (1 - config.beta1) * g
                v[name] = config.beta2 * v[name] + (1 - config.beta2) * g * g
                m_hat = m[name] / (1 - config.beta1 ** step)
                v_hat = v[name] / (1 - config.beta2 ** step)
                get_param(params, name)[...] -= (
                    config.lr * m_hat / (np.sqrt(v_hat) + config.adam_eps))
    return params


def loss_and_accuracy(params: NetworkParams,
                      corpus: list[tuple[list[int], int]]) -> tuple[float, float]:
    """Mean crossentropy and accuracy over the corpus from one forward pass
    per example (no parameter updates)."""
    total = 0.0
    hits = 0
    for ids, label in corpus:
        tr = forward(params, ids)
        total += -np.log(max(tr.probs[label], 1e-300))
        hits += tr.predicted == label
    return total / len(corpus), hits / len(corpus)


def mean_loss(params: NetworkParams,
              corpus: list[tuple[list[int], int]]) -> float:
    """Mean crossentropy over the corpus (no parameter updates)."""
    return loss_and_accuracy(params, corpus)[0]


def accuracy(params: NetworkParams,
             corpus: list[tuple[list[int], int]]) -> float:
    return loss_and_accuracy(params, corpus)[1]
