"""Adam trainer minimizing categorical crossentropy.

Each minibatch is one ragged batch: one forward trace and one exact reverse
sweep (``models.sweep``) of d(loss)/d(scores) = softmax - one-hot per row
give every parameter gradient summed over the batch, which is averaged.
Adam is elementwise, so it updates ``params.flat``, the one vector every
weight array views, in place. No dropout or learning-rate schedule;
determinism comes from the seeded shuffle and fixed iteration order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import NetworkParams, _run, batch_rows, sweep
from .numerics import SeededRng, softmax

# Adam's moment decay rates and denominator stabilizer
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    epochs: int = 10
    lr: float = 0.001
    batch_size: int = 8
    seed: int = 0


def _padded(params: NetworkParams, examples) -> tuple[np.ndarray,
                                                      np.ndarray, np.ndarray]:
    """Right-padded token ids (B, T_max), their embeddings and the row
    lengths of a list of (ids, label) examples."""
    lengths = np.array([len(ids) for ids, _ in examples])
    ids = np.zeros((len(examples), lengths.max()), dtype=int)
    for row, (seq, _) in enumerate(examples):
        ids[row, :len(seq)] = seq
    n = params.embedding.shape[0]
    if ids.min() < 0 or ids.max() >= n:
        raise ValueError(f"token id out of range [0, {n})")
    return ids, params.embedding[ids], lengths


def minibatch_grads(params: NetworkParams,
                    examples: list[tuple[list[int], int]]) -> np.ndarray:
    """Crossentropy gradient of every weight, in the layout of
    ``params.flat`` and summed over the examples of one minibatch: one
    ragged forward and one reverse sweep."""
    ids, embs, lengths = _padded(params, examples)
    doc, scores, dirs = _run(params, embs, keep=True, lengths=lengths)
    dscores = softmax(scores)
    dscores[np.arange(len(examples)), [label for _, label in examples]] -= 1.0
    demb, grads = sweep(params, dirs, dscores, doc=doc)
    real = np.arange(ids.shape[1]) < lengths[:, None]
    np.add.at(params.like(grads).embedding, ids[real], demb[real])
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

    m = np.zeros_like(params.flat)
    v = np.zeros_like(m)
    step = 0
    rng = SeededRng(config.seed)

    order = list(range(len(corpus)))
    for _ in range(config.epochs):
        rng.shuffle(order)
        for start in range(0, len(order), config.batch_size):
            batch = order[start:start + config.batch_size]
            examples = [corpus[idx] for idx in batch]
            step += 1
            g = minibatch_grads(params, examples) / len(batch)
            m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * g
            v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * g * g
            m_hat = m / (1 - ADAM_BETA1 ** step)
            v_hat = v / (1 - ADAM_BETA2 ** step)
            params.flat -= config.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return params


def loss_and_accuracy(params: NetworkParams,
                      corpus: list[tuple[list[int], int]]) -> tuple[float, float]:
    """Mean crossentropy and accuracy over the corpus (no parameter
    updates), scored in length-sorted ragged chunks (so the padding stays
    small) of at most ``models.batch_rows`` rows of the chunk's padded
    length; the losses are summed in corpus order."""
    order = sorted(range(len(corpus)), key=lambda i: len(corpus[i][0]))
    losses = np.zeros(len(corpus))
    hits = np.zeros(len(corpus), dtype=bool)
    lo = 0
    while lo < len(order):
        # the chunk's padded length is its last (longest) document's
        hi = lo + 1
        while (hi < len(order) and hi + 1 - lo
               <= batch_rows(params, len(corpus[order[hi]][0]))):
            hi += 1
        chunk = order[lo:hi]
        examples = [corpus[i] for i in chunk]
        _, embs, lengths = _padded(params, examples)
        probs = softmax(_run(params, embs, keep=False, lengths=lengths)[1])
        labels = np.array([label for _, label in examples])
        losses[chunk] = -np.log(np.maximum(
            probs[np.arange(len(chunk)), labels], 1e-300))
        hits[chunk] = np.argmax(probs, axis=1) == labels
        lo = hi
    return sum(losses.tolist()) / len(corpus), int(hits.sum()) / len(corpus)


def mean_loss(params: NetworkParams,
              corpus: list[tuple[list[int], int]]) -> float:
    """Mean crossentropy over the corpus (no parameter updates)."""
    return loss_and_accuracy(params, corpus)[0]


def accuracy(params: NetworkParams,
             corpus: list[tuple[list[int], int]]) -> float:
    return loss_and_accuracy(params, corpus)[1]
