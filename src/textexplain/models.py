"""Task classifiers: five architectures, forward traces, gradients, checkpoints.

Each network is an embedding matrix, a core layer (GRU, QGRU, LSTM, QLSTM or
CNN), and a dense classifier head with softmax. A QRNN (Bradbury et al., ICLR
2017) runs the gated pooling of its recurrent twin with other gate inputs, so
a GRU or LSTM is taken as a QRNN whose input kernel (its V) has width 1, plus
recurrent weights U; ``_GATES`` names every model's gates once. The four gated
models share one batch-first runner and the CNN has a branch of its own: a
(B, T, d_e) stack of inputs steps with (B, d) matmuls, and a convolution is
one matmul per kernel slice and gate over the whole batch. A bidirectional
model's two directions step together: the runner carries a leading
direction axis (D = 1 or 2), so each step makes one stacked matmul per
product, a gemm per direction. The stack may be ragged: right-padded rows
with their own ``lengths`` (training minibatches and corpus scoring use
this). One comparison with ``lengths`` per step holds each row's state from
its own last step on, and the sweep adds each row's seed at that step to
the running gradient, which is exactly zero over the row's padding.
With ``keep`` the runner records every intermediate quantity (gates,
pre-activations, cell/hidden states, pooling winners) of every row in one
stacked DirectionTrace, whose arrays carry a leading (direction, batch) axis
pair, as ``sweep`` reads it; the white-box explainers run every batch of
their rows this way. ``forward_embedded`` is the record of one input: a
ForwardTrace of its scores, prediction and per-direction views (``dirs``)
of the stacked trace. ``score_batch`` keeps only the running state and
returns the class scores of every row; ``score_rows``, the one scorer of
the black-box explainers, takes their inputs as index rows of any length
into a table and scores the rows of one length together, in batches of the
one cell budget; it rejects a non-finite score (``check_scores``), as the
white-box pass does for its first batch.

Exact gradients come from one reverse sweep over a batched trace (``sweep``),
with the same two branches and the same direction axis: given d(scores)
(B, K) it returns d(embeddings) (B, T, d_e) and, for training, every
parameter gradient summed over the batch. A GRU or LSTM steps back over t
with (B, d) matmuls through U; a QRNN carries its pooled state's gradient
back alone and then forms every pre-activation gradient at once;
convolutions are transposed as F shifted matmuls. The same sweep is the
relevance pass of ε-LRP and DeepLIFT: a ``RelevanceRule`` swaps its local
factors in the trailing rows it governs, so one sweep can give exact
gradients and relevance side by side, and this module alone knows how
gradients and relevance flow through each architecture.

Every weight of a model is a view into one flat float64 vector
(``NetworkParams.flat``): the embedding, the classifier and, per direction,
one block of the gates' input kernels, biases and U, each stacked in
``_GATES`` order; ``dir_stack`` views the directions' blocks at once, as
the runner and the sweep read them. The per-gate arrays that checkpoints
store by name (Vz, Uz, bz, ...) are views of the same memory; a parameter
gradient is one vector in the same layout, and the trainer updates ``flat``
in place.

Recurrences:
    GRU     h_t = z_t * h_{t-1} + (1 - z_t) * g_t,  g_t = tanh(V e_t + U (r_t * h_{t-1}) + b)
    LSTM    c_t = f_t * c_{t-1} + i_t * g_t,        h_t = o_t * tanh(c_t)
    QGRU /  same pooling recurrences, but gates and candidates come from a
    QLSTM   causal convolution over the (left-zero-padded) embeddings, not
            from V e_t + U h_{t-1}
    CNN     g_t = relu(conv(E)_t) with symmetric zero padding, h = max_t g_t

Convolution convention: kernel slice k multiplies e_{t-k}, i.e. for QRNNs
slice 0 is the current token and slice F-1 the oldest; for the CNN the slices
cover offsets -(F-1)/2 .. (F-1)/2 stored in order, so slice k+F' multiplies
e_{t-k}.
"""

from __future__ import annotations

import itertools
import json
import math
import zipfile
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .numerics import SeededRng, esign, sigmoid, softmax

ARCHS = ("GRU", "QGRU", "LSTM", "QLSTM", "CNN")

OOV_TOKEN = "<oov>"

CHECKPOINT_FORMAT = "textexplain-checkpoint"
CHECKPOINT_VERSION = 1


# ---------------------------------------------------------------------------
# Vocabulary
# ---------------------------------------------------------------------------

@dataclass
class Vocabulary:
    """Token/id bimap with a frequency-rank cutoff; rare tokens map to oov."""

    id_to_token: list[str]
    oov_id: int
    cutoff: int
    token_to_id: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}

    def __len__(self) -> int:
        return len(self.id_to_token)

    @classmethod
    def build(cls, token_lists, cutoff: int = 50000) -> "Vocabulary":
        """Keep the ``cutoff`` most frequent types; everything else is oov.

        Ties in frequency are broken by first occurrence so builds are
        deterministic.
        """
        counts = Counter(tok for tokens in token_lists for tok in tokens)
        # most_common keeps equal counts in first-occurrence order
        kept = [tok for tok, _ in counts.most_common(cutoff)]
        return cls(id_to_token=[OOV_TOKEN] + kept, oov_id=0, cutoff=cutoff)

    def encode(self, tokens) -> list[int]:
        return [self.token_to_id.get(t, self.oov_id) for t in tokens]

    def to_dict(self) -> dict:
        return {"tokens": self.id_to_token, "oov_id": self.oov_id,
                "cutoff": self.cutoff}

    @classmethod
    def from_dict(cls, d: dict) -> "Vocabulary":
        return cls(id_to_token=list(d["tokens"]), oov_id=int(d["oov_id"]),
                   cutoff=int(d["cutoff"]))


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

# Gate names per architecture, the candidate ("") last
_GATES = {
    "GRU": ("z", "r", ""),
    "LSTM": ("i", "f", "o", ""),
    "QGRU": ("z", ""),
    "QLSTM": ("i", "f", "o", ""),
    "CNN": ("",),
}


class GateStack(NamedTuple):
    """Every direction's weights, gates stacked in ``_GATES`` order: the
    input kernel (D, F, n·d, d_e), of width 1 for GRU and LSTM (their V),
    the bias (D, n·d) and, for GRU and LSTM, the recurrent weights U
    (D, n·d, d), else None."""

    kernel: np.ndarray
    bias: np.ndarray
    u: np.ndarray | None


class NetworkParams:
    """Architecture tag plus every weight of one classifier, as views into
    one float64 vector ``flat`` laid out by the shapes alone: ``embedding``
    (|V|, d_e), ``w_cls`` (K, d·n_dir), ``b_cls`` (K,), then per direction
    one block of gate weights. The direction blocks are consecutive and
    equal in size, so ``dir_stack`` views them all at once: a GateStack
    whose arrays carry a leading direction axis (D = 1 or 2), as the runner
    and the sweep step them. ``layers[dname]`` views the same memory gate by
    gate, by checkpoint name: Vn, Un and bn for a GRU or LSTM, Kn and bn
    otherwise. ``layers`` is built on first use, so that ``like`` (a
    gradient's layout, per training step) makes only the views the sweep
    writes. A given ``flat`` (a gradient, say) gets the arrays laid over it;
    by default they start at zero.
    """

    def __init__(self, arch: str, direction: str, vocab_size: int,
                 d_embed: int, d_hidden: int, n_classes: int,
                 kernel_width: int = 5, vocab: Vocabulary | None = None,
                 flat: np.ndarray | None = None):
        if arch not in ARCHS:
            raise ValueError(f"unknown architecture {arch!r}")
        if direction not in ("uni", "bi"):
            raise ValueError(f"unknown direction {direction!r}")
        if arch == "CNN" and direction == "bi":
            raise ValueError("CNN is unidirectional")
        if kernel_width < 1 or kernel_width % 2 == 0:
            raise ValueError("kernel width must be odd and positive")
        self.arch, self.direction = arch, direction
        self.kernel_width, self.vocab = kernel_width, vocab
        self.d_hidden = d_hidden        # per direction
        n, d = len(_GATES[arch]), d_hidden
        rec = arch in ("GRU", "LSTM")
        n_dir = len(self.directions)
        head = [(vocab_size, d_embed), (n_classes, d * n_dir), (n_classes,)]
        block = [(1 if rec else kernel_width, n * d, d_embed), (n * d,)]
        block += [(n * d, d)] if rec else []
        ends = list(itertools.accumulate(map(math.prod, head + block)))
        size = ends[2] + n_dir * (ends[-1] - ends[2])
        self.flat = np.zeros(size) if flat is None else flat
        self.embedding, self.w_cls, self.b_cls = [
            self.flat[end - math.prod(shape):end].reshape(shape)
            for shape, end in zip(head, ends)]
        dirs = self.flat[ends[2]:].reshape(n_dir, -1)
        self.dir_stack = GateStack(*[
            dirs[:, end - ends[2] - math.prod(shape):end - ends[2]].reshape(
                (n_dir,) + shape) for shape, end in zip(block, ends[3:])]
            + ([] if rec else [None]))
        self._layers: dict[str, dict[str, np.ndarray]] | None = None

    @property
    def layers(self) -> dict[str, dict[str, np.ndarray]]:
        """Per-direction dicts of per-gate views, by checkpoint name."""
        if self._layers is None:
            names, d = _GATES[self.arch], self.d_hidden
            kernel, bias, u = self.dir_stack
            self._layers = {}
            for i, dname in enumerate(self.directions):
                self._layers[dname] = w = {}
                for j, gate in enumerate(names):
                    rows = slice(j * d, (j + 1) * d)
                    if u is not None:
                        w["V" + gate] = kernel[i, 0, rows]
                        w["U" + gate] = u[i, rows]
                    else:
                        w["K" + gate] = kernel[i, :, rows]
                    w["b" + gate] = bias[i, rows]
        return self._layers

    def like(self, flat: np.ndarray) -> "NetworkParams":
        """The same layout over another flat vector (a gradient, say)."""
        return NetworkParams(self.arch, self.direction, *self.embedding.shape,
                             self.d_hidden, self.n_classes, self.kernel_width,
                             self.vocab, flat)

    def arrays(self) -> dict[str, np.ndarray]:
        """Every weight array by checkpoint name, per gate."""
        out = {"embedding": self.embedding, "w_cls": self.w_cls,
               "b_cls": self.b_cls}
        for dname in self.directions:
            for wname, arr in self.layers[dname].items():
                out[f"layers/{dname}/{wname}"] = arr
        return out

    @property
    def directions(self) -> tuple[str, ...]:
        return ("fwd", "bwd") if self.direction == "bi" else ("fwd",)

    @property
    def d_embed(self) -> int:
        return self.embedding.shape[1]

    @property
    def n_classes(self) -> int:
        return self.b_cls.shape[0]


def init_params(arch: str, vocab_size: int, d_embed: int, d_hidden: int,
                n_classes: int, rng: SeededRng, direction: str = "uni",
                kernel_width: int = 5,
                vocab: Vocabulary | None = None) -> NetworkParams:
    """Random uniform(-0.1, 0.1) weights, zero biases.

    ``d_hidden`` is the total document-representation width; bidirectional
    models get half per direction. The weights are drawn per direction gate
    by gate (kernel, then U), then the embedding, then ``w_cls``.
    """
    params = NetworkParams(
        arch, direction, vocab_size, d_embed,
        d_hidden // 2 if direction == "bi" else d_hidden, n_classes,
        kernel_width, vocab)
    if direction == "bi" and d_hidden % 2:
        raise ValueError("bidirectional hidden size must be even")
    drawn = [w for layer in params.layers.values()
             for name, w in layer.items() if name[0] != "b"]
    for w in drawn + [params.embedding, params.w_cls]:
        w[...] = rng.uniform(-0.1, 0.1, size=w.shape)
    return params


# ---------------------------------------------------------------------------
# Forward pass (plain numpy, batch-first, produces the trace)
# ---------------------------------------------------------------------------

@dataclass
class DirectionTrace:
    """Per-timestep record of every direction of a batched run, as the
    runner writes it: each array carries a leading (D, B) direction and
    batch axis (D = 1, or 2 for a bidirectional model), and each direction
    runs in its own order.

    State arrays are indexed 0..T (row 0 is the initial state); gate,
    pre-activation and candidate arrays use rows 1..T with row 0 unused.
    ``at(i, b)`` views direction i, row b, without the leading axes.
    """

    emb: np.ndarray                     # (D, B, T, d_e)
    gates: dict[str, np.ndarray]        # each (D, B, T+1, d)
    preact: np.ndarray                  # g' (D, B, T+1, d)
    cand: np.ndarray                    # g  (D, B, T+1, d)
    hidden: np.ndarray                  # (D, B, T+1, d)
    cell: np.ndarray | None = None      # (D, B, T+1, d), LSTM family
    pool_argmax: np.ndarray | None = None   # (D, B, d), CNN: winning t in 1..T
    lengths: np.ndarray | None = None   # (B,) of a ragged batch, else None

    def _map(self, f, emb: np.ndarray, lengths) -> "DirectionTrace":
        """``f`` of every array but ``emb``, given with ``lengths``."""
        return DirectionTrace(
            emb, {n: f(a) for n, a in self.gates.items()},
            *(None if a is None else f(a) for a in (
                self.preact, self.cand, self.hidden, self.cell,
                self.pool_argmax)), lengths)

    def at(self, i: int, b: int) -> "DirectionTrace":
        """Direction ``i``, batch row ``b``, its steps cut to the row's own
        length (``pool_argmax``, the one 3-d array, has no step axis)."""
        t_len = (self.emb.shape[2] if self.lengths is None
                 else int(self.lengths[b]))
        return self._map(lambda a: a[i, b, :t_len + 1] if a.ndim == 4
                         else a[i, b], self.emb[i, b, :t_len], None)

    def take(self, rows) -> "DirectionTrace":
        """The batch rows ``rows`` of every direction, gathered in that
        order (repeats allowed) into a batch of their own."""
        rows = np.asarray(rows, dtype=np.intp)
        return self._map(
            lambda a: a.take(rows, axis=1), self.emb.take(rows, axis=1),
            None if self.lengths is None else self.lengths.take(rows))


@dataclass
class ForwardTrace:
    """Everything one forward pass of one input computed. ``dirs`` holds
    each direction's ``at(i, 0)`` of the runner's stacked trace: views of
    its arrays, not copies.
    """

    embeddings: np.ndarray              # (T, d_e), input order
    dirs: dict[str, DirectionTrace]
    doc_repr: np.ndarray                # (d_h_total,)
    scores: np.ndarray                  # (K,)
    probs: np.ndarray                   # (K,)

    @property
    def length(self) -> int:
        return self.embeddings.shape[0]

    @property
    def predicted(self) -> int:
        return int(np.argmax(self.probs))


def check_class(params: NetworkParams, k: int) -> None:
    """Raise ValueError unless ``k`` is one of the model's classes."""
    if not 0 <= k < params.n_classes:
        raise ValueError(f"class {k} out of range [0, {params.n_classes})")


def check_scores(scores: np.ndarray) -> None:
    """Raise ValueError unless every class score is finite: a NaN or
    infinite score has no argmax or softmax to explain."""
    if not np.isfinite(scores).all():
        raise ValueError("the model's class scores are not finite")


def embed(params: NetworkParams, ids) -> np.ndarray:
    """Look up embedding rows; returns (T, d_e)."""
    ids = list(ids)
    n = params.embedding.shape[0]
    for i in ids:
        if not 0 <= i < n:
            raise ValueError(f"token id {i} out of range [0, {n})")
    if not ids:
        return np.zeros((0, params.d_embed))
    return params.embedding[np.asarray(ids, dtype=int)].copy()


def _pad_left(arch: str, f: int) -> int:
    """Zero rows before the input of a width-F convolution: causal, or
    centered for the CNN."""
    return (f - 1) // 2 if arch == "CNN" else f - 1


def _conv(kernel: np.ndarray, bias: np.ndarray, emb: np.ndarray,
          left: int, d: int) -> np.ndarray:
    """Zero-padded convolution over a (D, B, T, d_e) stack, direction i by
    (F, n·d, d_e) kernel i of the (D, F, n·d, d_e) ``kernel``; returns
    (n, D, B, T+1, d) with row 0 zero, one block per gate.

    ``left`` zero rows pad the front and F-1-left the back, so slice k of
    the kernel multiplies e_{t-k} (causal, left = F-1) or e_{t-k+F'}
    (centered, left = F'). The gates are convolved one at a time: per gate,
    each slice is one stacked matmul, a gemm per direction over every padded
    row of its batch, added to the bias in order.
    """
    n_dir, f, _, d_e = kernel.shape
    _, b, t_len, _ = emb.shape
    padded = np.zeros((n_dir, b, t_len + f - 1, d_e))
    padded[:, :, left:left + t_len] = emb
    flat = padded.reshape(n_dir, -1, d_e)
    kernel_t = kernel.swapaxes(2, 3)
    out = np.zeros((kernel.shape[2] // d, n_dir, b, t_len + 1, d))
    for j, acc in enumerate(out[..., 1:, :]):
        rows = slice(j * d, (j + 1) * d)
        acc += bias[:, None, None, rows]
        for k in range(f):
            proj = (flat @ kernel_t[:, k, :, rows]).reshape(
                n_dir, b, t_len + f - 1, d)
            acc += proj[:, :, f - 1 - k:f - 1 - k + t_len]
    return out


def _reverse_index(lengths: np.ndarray, t_len: int) -> np.ndarray:
    """(B, T) positions that reverse each row within its own length and keep
    its padding in place; the permutation is its own inverse."""
    t = np.arange(t_len)
    return np.where(t < lengths[:, None], lengths[:, None] - 1 - t, t)


def _run_directions(arch: str, w: GateStack, emb: np.ndarray,
                    keep: bool, lengths: np.ndarray | None = None,
                    ) -> tuple[np.ndarray, DirectionTrace | None]:
    """Run every direction of a model over a (D, B, T, d_e) stack of its
    inputs, each in that direction's order (D = 1, or 2 for a
    bidirectional model), with the (D, ...) weights ``w``.

    The directions step together: one step loop, in which every product is
    one stacked matmul, a gemm per direction. ``lengths`` (B,) marks a
    ragged batch whose padded positions the caller has zeroed: each step
    keeps the running state of the rows whose length reaches it, so each
    row's state is read at its own last step (the trace records the running
    states). Returns that final hidden state (D, B, d) and, when ``keep`` is
    true, the stacked DirectionTrace; otherwise only the running state is
    held.
    """
    n_dir, b, t_len, _ = emb.shape
    names = _GATES[arch]
    kernel, bias, u = w
    d = bias.shape[1] // len(names)
    if u is None:
        # the convolutions give every step's pre-activations at once
        pre = _conv(kernel, bias, emb, _pad_left(arch, kernel.shape[1]), d)

    if arch == "CNN":
        gp = pre[0]
        g = np.zeros_like(gp)
        g[..., 1:, :] = np.maximum(gp[..., 1:, :], 0.0)
        # argmax over the real steps t = 1..T, ties to the lowest t
        pool = g[..., 1:, :]
        if lengths is not None:
            real = np.arange(t_len) < lengths[:, None]
            pool = np.where(real[:, :, None], pool, -np.inf)
        arg = np.argmax(pool, axis=2) + 1
        pooled = np.take_along_axis(g, arg[:, :, None, :], axis=2)[:, :, 0]
        if not keep:
            return pooled, None
        h = np.zeros((n_dir, b, t_len + 1, d))
        h[:, np.arange(b), t_len if lengths is None else lengths] = pooled
        return pooled, DirectionTrace(emb=emb, gates={}, preact=gp, cand=g,
                                      hidden=h, pool_argmax=arg,
                                      lengths=lengths)

    # gated pooling, with sig[j] gate j at the step. A QRNN reads its gates
    # and candidate from the convolution; a GRU or LSTM forms them from
    # e_t V and h_{t-1} U, with the gates' V and U stacked side by side so
    # that a step is one matmul each (the GRU candidate's (r * h) U aside).
    lstm = arch in ("LSTM", "QLSTM")
    n_gate = (len(names) - 1) * d
    if u is None:
        for a in pre[:-1]:
            a[..., 1:, :] = sigmoid(a[..., 1:, :])
        cand = np.zeros((n_dir, b, t_len + 1, d))
        cand[..., 1:, :] = np.tanh(pre[-1, ..., 1:, :])
        sig_at = pre[:-1].transpose(3, 0, 1, 2, 4)
        g_at = cand.transpose(2, 0, 1, 3)
    else:
        v_in = kernel[:, 0].swapaxes(1, 2)
        b_gate, b_cand = bias[:, None, :n_gate], bias[:, None, n_gate:]
        u_h = (u if lstm else u[:, :n_gate]).swapaxes(1, 2)
        u_cand = u[:, n_gate:].swapaxes(1, 2)
    h = last = np.zeros((n_dir, b, d))
    c = np.zeros((n_dir, b, d))
    if keep:
        # each step's states (and a GRU's or LSTM's gates) go to row t
        states = np.zeros((2 if lstm else 1, n_dir, b, t_len + 1, d))
        if u is not None:
            pre = np.zeros((len(names), n_dir, b, t_len + 1, d))
            cand = np.zeros((n_dir, b, t_len + 1, d))
    for t in range(1, t_len + 1):
        if u is None:
            sig, g = sig_at[t], g_at[t]
        else:
            x = emb[:, :, t - 1] @ v_in
            hu = h @ u_h
            sig = sigmoid(x[..., :n_gate] + hu[..., :n_gate] + b_gate)
            sig = sig.reshape(n_dir, b, -1, d).transpose(2, 0, 1, 3)
            gp = x[..., n_gate:] + (hu[..., n_gate:] if lstm else
                                    (sig[1] * h) @ u_cand)
            gp = gp + b_cand
            g = np.tanh(gp)
            if keep:
                pre[:-1, ..., t, :] = sig
                pre[-1, ..., t, :] = gp
                cand[..., t, :] = g
        if lstm:
            c = sig[1] * c + sig[0] * g
            h = sig[2] * np.tanh(c)
        else:
            z = sig[0]
            h = z * h + (1.0 - z) * g
        # a ragged row's state is held from its own last step on
        last = h if lengths is None else np.where(lengths[:, None] >= t, h,
                                                  last)
        if keep:
            states[0, ..., t, :] = h
            if lstm:
                states[1, ..., t, :] = c
    if not keep:
        return last, None
    return last, DirectionTrace(
        emb=emb, gates=dict(zip(names, pre[:-1])), preact=pre[-1], cand=cand,
        hidden=states[0], cell=states[1] if lstm else None, lengths=lengths)


def _run(params: NetworkParams, embs: np.ndarray, keep: bool,
         lengths=None,
         ) -> tuple[np.ndarray, np.ndarray, DirectionTrace | None]:
    """Batched forward over (B, T, d_e): document representations (B, d_h),
    class scores (B, K) and, when ``keep``, the stacked trace of every
    direction.

    A bidirectional model's two directions run as one (2, B, T, d_e) stack,
    the backward one on each row reversed (``_run_directions``).
    ``lengths`` (B,) makes the stack ragged: row b holds ``lengths[b]`` real
    positions followed by padding, which is zeroed here so that its contents
    never reach a real row. The traces carry the lengths, so ``sweep`` gives
    the padding exactly zero gradient.
    """
    if embs.ndim != 3:
        raise ValueError("expected a (batch, length, width) input stack")
    b, t_len, d_e = embs.shape
    if t_len == 0:
        raise ValueError("empty input sequence")
    if d_e != params.d_embed:
        raise ValueError("embedding width mismatch")
    if lengths is not None:
        lengths = np.asarray(lengths, dtype=int)
        if lengths.shape != (b,):
            raise ValueError("expected one length per batch row")
        if lengths.min() < 1 or lengths.max() > t_len:
            raise ValueError(f"row lengths must lie in [1, {t_len}]")
        real = np.arange(t_len) < lengths[:, None]
        embs = np.where(real[:, :, None], embs, 0.0)
    if params.direction == "bi":
        stack = np.empty((2, b, t_len, d_e))
        stack[0] = embs
        stack[1] = (embs[:, ::-1] if lengths is None else embs[
            np.arange(b)[:, None], _reverse_index(lengths, t_len)])
    else:
        stack = embs[None]
    last, tr = _run_directions(params.arch, params.dir_stack, stack, keep,
                               lengths)
    doc = np.concatenate(last, axis=1)
    scores = doc @ params.w_cls.T + params.b_cls
    return doc, scores, tr


# Most cells (rows x length x width) one batched run holds: the white-box
# pass's rows, the perturbed inputs and substrings of ``score_rows`` and the
# chunks of corpus scoring are split into batches of at most this many, so
# that one batch's inputs stay within 2 MB of float64 whatever the row count.
# A white-box batch keeps several trace arrays per cell, and the sweep's:
# a full batch (204 rows at T = 80, d 16) traced a 67.5 MB peak on a GRU,
# 90.5 MB on a QLSTM, 98.9 MB on an LSTM-bi and 36.5 MB on the CNN
# (tracemalloc, one gradint_s_dot map at M = 1000), against 6-19 MB at the
# default M = 50.
BATCH_CELLS = 1 << 18


def batch_rows(params: NetworkParams, t_len: int) -> int:
    """How many rows of length ``t_len`` one batch of ``BATCH_CELLS``
    holds (at least one)."""
    width = max(params.d_embed, params.d_hidden)
    return max(1, BATCH_CELLS // max(1, t_len * width))


def scaled_rows(emb: np.ndarray, scales) -> np.ndarray:
    """The (B, T, d_e) stack of the inputs scales[b] * emb; a scale of 1
    gives emb bitwise."""
    return emb[None] * np.asarray(scales, dtype=float)[:, None, None]


def forward_embedded(params: NetworkParams, emb: np.ndarray) -> ForwardTrace:
    """Forward pass on an explicit embedding matrix (T, d_e), with every
    per-step quantity recorded."""
    doc, scores, tr = _run(params, scaled_rows(emb, (1.0,)), keep=True)
    return ForwardTrace(emb, {n: tr.at(i, 0)
                              for i, n in enumerate(params.directions)},
                        doc[0], scores[0], softmax(scores[0]))


def score_batch(params: NetworkParams, embs: np.ndarray) -> np.ndarray:
    """Class scores (B, K) of a (B, T, d_e) stack of equal-length inputs.

    Same runner as the white-box pass, but only the running state is kept, so
    a bucket of inputs costs O(B d) memory beyond its input projections.
    Rows of one call are computed alike; a row may differ from its B = 1
    run in the last bits, so compare scores from the same batch.
    """
    return _run(params, embs, keep=False)[1]


def score_rows(params: NetworkParams, table: np.ndarray, idx: np.ndarray,
               lengths=None) -> np.ndarray:
    """Class scores (N, K) of N inputs gathered from the (V, d_e)
    ``table``: input i is ``table[idx[i, :lengths[i]]]`` for an (N, W)
    index array ``idx`` (``lengths`` defaults to W for every row; entries
    past a row's length are never read). This is the one scorer of the
    black-box explainers' perturbed inputs and substrings.

    The inputs of one length are scored together, in their given order, in
    batches of at most ``batch_rows`` rows, so no batch's input stack
    exceeds ``BATCH_CELLS``; a length-0 input scores as
    ``empty_sequence_scores``. Since a row's last bits depend on its batch,
    the rows and order of each batch are the contract. A non-finite score
    raises ValueError (``check_scores``).
    """
    n, width = idx.shape
    lengths = np.full(n, width) if lengths is None else np.asarray(lengths)
    out = np.empty((n, len(params.b_cls)))
    out[lengths == 0] = empty_sequence_scores(params)
    for length in np.unique(lengths[lengths > 0]).tolist():
        rows = np.flatnonzero(lengths == length)
        size = batch_rows(params, length)
        for lo in range(0, len(rows), size):
            batch = rows[lo:lo + size]
            out[batch] = score_batch(params, table[idx[batch, :length]])
    check_scores(out)
    return out


def forward(params: NetworkParams, ids) -> ForwardTrace:
    """Forward pass on a token id sequence."""
    return forward_embedded(params, embed(params, ids))


def empty_sequence_scores(params: NetworkParams) -> np.ndarray:
    """Class scores of the length-zero input.

    The recurrent document representation of an empty sequence is the initial
    state (all zeros). For the CNN, every pooling window sees only padding,
    so each channel pools relu of its bias.
    """
    if params.arch == "CNN":
        doc = np.maximum(params.dir_stack.bias[0], 0.0)
    else:
        doc = np.zeros(params.w_cls.shape[1])
    return params.w_cls @ doc + params.b_cls


# ---------------------------------------------------------------------------
# Exact gradients (one batched reverse sweep over the recorded trace)
# ---------------------------------------------------------------------------

def _conv_transpose(kernel: np.ndarray, dout: np.ndarray,
                    left: int) -> np.ndarray:
    """Transpose of ``_conv``: (..., B, T, d) output gradients of steps
    1..T -> (..., B, T, d_e) input gradients, as F shifted matmuls (one,
    unpadded, for the width-1 kernel of a GRU or LSTM). ``kernel`` is
    (..., F, n·d, d_e), with the same leading (direction) axes as
    ``dout``."""
    f, d_e = kernel.shape[-3], kernel.shape[-1]
    slices = kernel[..., None, :, :, :]     # broadcast over the batch
    if f == 1:
        return dout @ slices[..., 0, :, :]
    t_len = dout.shape[-2]
    dpad = np.zeros(dout.shape[:-2] + (t_len + f - 1, d_e))
    for k in range(f):
        dpad[..., f - 1 - k:f - 1 - k + t_len, :] += (
            dout @ slices[..., k, :, :])
    return dpad[..., left:left + t_len, :]


def _conv_kernel_grad(dout: np.ndarray, emb: np.ndarray, f: int,
                      left: int) -> np.ndarray:
    """Gradient (F, d, d_e) of ``_conv``'s kernel, summed over the batch."""
    b, t_len, d = dout.shape
    d_e = emb.shape[2]
    padded = np.zeros((b, t_len + f - 1, d_e))
    padded[:, left:left + t_len] = emb
    g = dout.reshape(-1, d).T
    return np.stack([g @ padded[:, f - 1 - k:f - 1 - k + t_len].reshape(-1, d_e)
                     for k in range(f)])


@dataclass(frozen=True)
class RelevanceRule:
    """Turns ``sweep`` into DeepLIFT-Rescale against ``base``, the stacked
    trace of a reference input, and so into ε-LRP where ``base`` is an
    all-zero activation trace; ``eps`` > 0 and finite. The rule governs the
    batch rows from ``first`` on, and ``base`` holds one row for each of
    them; the rows before ``first`` get exact gradients in the same sweep.

    Both are gradient × input under a modified chain rule (Ancona et al.,
    ICLR 2018), so a rule changes only the local factors of the sweep,
    computed from the traces before its loops:

    1. sigmoid gates get a zero derivative: they act as weights;
    2. the derivative f'(z) of a tanh or relu becomes f(z) / stab(z), or
       Δf / stab(Δz) for DeepLIFT;
    3. a summed state a scales the gradient it passes back by a / stab(a),
       or Δa / stab(Δa): all of it for h_t, and for an LSTM-family c_t the
       part from c_{t+1} (on the path from h_t, tanh(c_t)'s rule 2 divides
       by stab(c_t) already).

    The caller seeds s_k / stab(s_k) (or its deltas' ratio) on class k and
    reads token t's relevance as e_t · demb_t.
    """

    eps: float
    base: DirectionTrace
    first: int = 0


class _Factors(NamedTuple):
    """Local factors of the sweep, (D, B, T, d) arrays over steps 1..T, or
    scalars (1.0) that hold for every row of a sweep with no rule."""

    gate: np.ndarray | float        # multiplies every sigmoid derivative;
                                    # per row (B, 1, 1) under a rule
    act: np.ndarray                 # the candidate's f'(z)
    h: np.ndarray | float | None    # scales d h_t; not the CNN's
    cell_act: np.ndarray | None     # tanh'(c_t), LSTM family
    c: np.ndarray | float | None    # scales d c_{t-1}, LSTM family


def _local_factors(tr: DirectionTrace, rule: RelevanceRule | None,
                   ) -> _Factors:
    """The exact derivatives of the stacked trace ``tr`` in every row (state
    factors 1.0), with the rule's factors written over them in the rows it
    governs: Δf / stab(Δz), a / stab(a) (or Δa / stab(Δa)) and a gate
    factor of 0."""
    cnn, lstm = tr.pool_argmax is not None, tr.cell is not None
    g = tr.cand[..., 1:, :]
    tc = np.tanh(tr.cell[..., 1:, :]) if lstm else None
    act = 1.0 * (tr.preact[..., 1:, :] > 0) if cnn else 1.0 - g * g
    cell_act = 1.0 - tc * tc if lstm else None
    if rule is None:
        return _Factors(1.0, act, 1.0, cell_act, 1.0)
    first, base = rule.first, rule.base

    def delta(name, f=lambda a: a):
        return f(getattr(tr, name)[:, first:]) - f(getattr(base, name))

    def ratio(num, den):
        return num / (den + esign(den, rule.eps))

    gate = np.ones((tr.emb.shape[1], 1, 1))
    gate[first:] = 0.0
    h = None if cnn else np.ones_like(g)
    c = np.ones_like(g) if lstm else None
    act[:, first:] = ratio(delta("cand"), delta("preact"))[..., 1:, :]
    if not cnn:
        dh = delta("hidden")
        h[:, first:] = ratio(dh, dh)[..., 1:, :]
    if lstm:
        dc = delta("cell")
        cell_act[:, first:] = ratio(delta("cell", np.tanh), dc)[..., 1:, :]
        c[:, first:] = ratio(dc, dc)[..., :-1, :]
    return _Factors(gate, act, h, cell_act, c)


def _sweep_directions(arch: str, w: GateStack, tr: DirectionTrace,
                      dh: np.ndarray, fac: _Factors,
                      grad: GateStack | None = None) -> np.ndarray:
    """Reverse sweep of every direction of a stacked batched trace.

    ``w`` and ``tr`` carry a leading direction axis (D = 1 or 2) as in
    ``_run_directions``, and the directions step back together: one step
    loop, whose products are stacked matmuls, a gemm per direction. ``dh``
    (D, B, d) is the gradient of the final hidden states (the pooled vector
    for the CNN), ``fac`` the local factors from ``_local_factors``.
    Returns the embedding gradients (D, B, T, d_e), each direction in its
    own order, and writes the gradients of ``w``, summed over the batch,
    into the (D, ...) ``grad`` when it is given, direction by direction.
    """
    emb = tr.emb
    n_dir, b, t_len, _ = emb.shape
    d = dh.shape[2]
    names = _GATES[arch]
    kernel, _, u = w
    h_prev = tr.hidden[..., :-1, :]

    if arch == "CNN":
        # the pooled value of each channel came from its argmax step (ties
        # went to the lowest t), where the relu passed it if it was active
        d_pre = np.zeros((n_dir, b, t_len, d))
        np.put_along_axis(d_pre, tr.pool_argmax[:, :, None, :] - 1,
                          dh[:, :, None, :], axis=2)
        d_pre *= fac.act
    else:
        # d_pre[j, ..., t-1, :] holds the gradient of gate j's
        # pre-activation at step t (the candidate last). Gates lead
        # (n, D, B, T, d) views that are interleaved in memory for a GRU or
        # LSTM, whose steps run one at a time, and gate by gate for a QRNN,
        # whose steps are filled at once.
        lstm = arch in ("LSTM", "QLSTM")
        n, n_gate = len(names), (len(names) - 1) * d
        rec = u is not None
        g = tr.cand[..., 1:, :]
        gates = [tr.gates[m][..., 1:, :] for m in names[:-1]]
        if rec:
            gates = np.concatenate(gates, axis=3).reshape(
                n_dir, b, t_len, n - 1, d).transpose(3, 0, 1, 2, 4)
            d_pre = np.zeros((n_dir, b, t_len, n, d)).transpose(3, 0, 1, 2, 4)
            u_gate, u_cand = u[:, :n_gate], u[:, n_gate:]
        else:
            gates = np.concatenate(gates).reshape(n - 1, n_dir, b, t_len, d)
            d_pre = np.zeros((n, n_dir, b, t_len, d))
        # the sigmoids' derivative, precomputed for the steps of a GRU or
        # LSTM. A QRNN, filled at once, multiplies by σ in ``fill`` and by
        # 1 - σ after it (and d h_T by o, tanh' and the rule in turn, below),
        # so that its gradients and trained weights keep their rounding.
        dsig = gates * (1.0 - gates) * fac.gate if rec else gates
        if lstm:
            i, o = gates[0], gates[2]
            c_prev = tr.cell[..., :-1, :]
            tc = np.tanh(tr.cell[..., 1:, :])
            carry = gates[1] * fac.c
        else:
            z = gates[0]
            keep = (1.0 - z) * fac.h
            carry = z * fac.h

        def fill(t, dh, dc):
            """Fill d_pre at step index t, or at every step for t = :, from
            the state gradients there; return a GRU's d(r * h_{t-1})."""
            p = d_pre[..., t, :]
            drh = None
            if lstm:
                p[0] = dc * g[..., t, :]
                p[1] = dc * c_prev[..., t, :]
                p[2] = dh * tc[..., t, :]
                p[3] = dc * i[..., t, :] * fac.act[..., t, :]
            else:
                dgp = dh * keep[..., t, :] * fac.act[..., t, :]
                p[0] = dh * (h_prev[..., t, :] - g[..., t, :])
                p[-1] = dgp
                if rec:
                    drh = dgp @ u_cand
                    p[1] = drh * h_prev[..., t, :]
            p[:-1] *= dsig[..., t, :]
            return drh

        # the classifier's gradient enters h_t at each row's own last step:
        # every step adds its slice of dhs to the running state gradient,
        # which is exactly zero over a ragged row's padding, so a row's
        # gradient at its last step is its seed bit for bit
        last = t_len if tr.lengths is None else tr.lengths
        dhs = np.zeros((n_dir, b, t_len, d))
        dhs[:, np.arange(b), last - 1] = dh
        if rec:
            if lstm:
                into_c = o * fac.cell_act * fac.h
            else:
                r = gates[1]
            flat = d_pre.transpose(1, 2, 3, 0, 4).reshape(n_dir, b, t_len, -1)
            dh = dc = 0.0
            for t in range(t_len - 1, -1, -1):
                dh = dh + dhs[..., t, :]
                if lstm:
                    dc = dc + dh * into_c[..., t, :]
                drh = fill(t, dh, dc)
                if lstm:
                    dc = dc * carry[..., t, :]
                    dh = flat[..., t, :] @ u
                else:
                    dh = (dh * carry[..., t, :] + drh * r[..., t, :]
                          + flat[..., t, :n_gate] @ u_gate)
        else:
            # a QRNN's h_t feeds no later step and its pooling is
            # elementwise: carry back the gradient of the pooled state alone
            # (h for QGRU, c for QLSTM), then fill every step at once.
            # dstate holds what enters that gradient at each step; step t
            # adds the gradient carried back from t + 1 to it in place.
            dstate = dhs * o * fac.cell_act * fac.h if lstm else dhs
            state = 0.0
            for t in range(t_len - 1, -1, -1):
                dstate[..., t, :] += state
                state = dstate[..., t, :] * carry[..., t, :]
            fill(slice(None), dhs, dstate)
            d_pre[:-1] *= (1.0 - gates) * fac.gate
        # a view for a GRU or LSTM, a copy for a QRNN
        d_pre = d_pre.transpose(1, 2, 3, 0, 4).reshape(n_dir, b, t_len, -1)

    f = kernel.shape[1]
    left = _pad_left(arch, f)
    demb = _conv_transpose(kernel, d_pre, left)
    if grad is None:
        return demb
    for j in range(n_dir):
        grad.kernel[j] = _conv_kernel_grad(d_pre[j], emb[j], f, left)
        grad.bias[j] = d_pre[j].sum(axis=(0, 1))
        if u is not None:
            # U is a width-1 kernel over h_{t-1}; a GRU's candidate sees r * h
            into = u.shape[1] if lstm else n_gate
            grad.u[j, :into] = _conv_kernel_grad(d_pre[j][..., :into],
                                                 h_prev[j], 1, 0)[0]
            if not lstm:
                grad.u[j, n_gate:] = _conv_kernel_grad(
                    d_pre[j][..., n_gate:], r[j] * h_prev[j], 1, 0)[0]
    return demb


def sweep(params: NetworkParams, dirs: DirectionTrace, dscores: np.ndarray,
          rule: RelevanceRule | None = None, doc: np.ndarray | None = None,
          ) -> tuple[np.ndarray, np.ndarray | None]:
    """The one reverse sweep over a batched forward of ``_run(...,
    keep=True)``: exact gradients, or relevance under ``rule`` in the rows
    it governs.

    ``dirs`` is that run's stacked trace, or rows gathered from it with
    ``take``; ``dscores`` (B, K) is the gradient of some function of each
    row's class scores. Every direction steps back in the one loop of
    ``_sweep_directions``. Returns the gradients of the input embeddings
    (B, T, d_e) and, when ``doc``, the run's document representations, is
    given, every parameter's gradient summed over the batch, as one vector
    in the layout of ``params.flat`` (else None); its embedding rows are
    zero, the caller's to scatter. The padded positions of a ragged run get
    exactly zero. A ``rule`` swaps the local factors of every step in its
    rows (see ``RelevanceRule``).
    """
    lone = len(dscores) == 1 and doc is None
    if lone:
        # BLAS takes gemv for a product of one row and gemm for more, and
        # their results differ in the last bits; a lone row runs twice, so
        # that a grad1_* or lrp map is bitwise the same alone or beside
        # names that add no row to the document's forward batch (grad1_*,
        # lrp, decomp). Beside gradint_* or deeplift, whose rows join that
        # batch, it may differ in the last bits
        dirs, dscores = dirs.take([0, 0]), np.concatenate([dscores] * 2)
        if rule is not None:
            rule = RelevanceRule(rule.eps, rule.base.take([0, 0]))
    ddoc = dscores @ params.w_cls
    b, n_dir = len(dscores), len(params.directions)
    grads = None
    if doc is not None:
        grads = params.like(np.zeros_like(params.flat))
        grads.w_cls[...] = dscores.T @ doc
        grads.b_cls[...] = dscores.sum(axis=0)
    de = _sweep_directions(
        params.arch, params.dir_stack, dirs,
        ddoc.reshape(b, n_dir, params.d_hidden).swapaxes(0, 1),
        _local_factors(dirs, rule), grads.dir_stack if grads else None)
    demb, lengths = 0.0 + de[0], dirs.lengths
    if n_dir == 2:
        demb = demb + (de[1][:, ::-1] if lengths is None else
                       de[1][np.arange(b)[:, None],
                             _reverse_index(lengths, de.shape[2])])
    if lengths is not None:
        real = np.arange(demb.shape[1]) < lengths[:, None]
        demb = np.where(real[:, :, None], demb, 0.0)
    return (demb[:1] if lone else demb), grads.flat if grads else None


def output_seeds(scores: np.ndarray, k: int, outputs) -> np.ndarray:
    """d(outputs)/d(scores) (B, K) of the rows of ``scores`` (B, K): row b
    seeds s_k with e_k or p_k with p_k (e_k - p), as ``outputs[b]`` ("s" or
    "p") names."""
    dscores = np.zeros_like(scores)
    dscores[:, k] = 1.0
    prob = np.array([o == "p" for o in outputs])
    if prob.any():
        probs = softmax(scores)
        dscores = np.where(prob[:, None],
                           probs[:, k:k + 1] * (dscores - probs), dscores)
    return dscores


def embedding_gradients(params: NetworkParams, ids=None, output: str = "s",
                        k: int = 0,
                        emb: np.ndarray | None = None) -> np.ndarray:
    """Gradient of s_k or p_k with respect to every embedding entry.

    ``emb`` may be one (T, d_e) input or a (B, T, d_e) stack of equal-length
    inputs; the result has the same shape. All rows take one batched forward
    and one reverse sweep, which is given no ``doc`` and so computes no
    parameter gradient; a lone input runs twice in it, as ``sweep`` says.
    """
    if output not in ("s", "p"):
        raise ValueError(f"unknown output {output!r}")
    check_class(params, k)
    if emb is None:
        emb = embed(params, ids)
    stack = emb if emb.ndim == 3 else emb[None]
    _, scores, dirs = _run(params, stack, keep=True)
    demb = sweep(params, dirs,
                 output_seeds(scores, k, [output] * len(stack)))[0]
    return demb if emb.ndim == 3 else demb[0]


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(file, params: NetworkParams) -> None:
    """Self-describing npz container; float64 arrays round-trip bitwise.
    ``file`` is a binary file object or a path, which is written exactly
    as given (``np.savez`` alone would add ``.npz`` to it)."""
    if not hasattr(file, "write"):
        with open(file, "wb") as fh:
            return save_checkpoint(fh, params)
    meta = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "arch": params.arch,
        "direction": params.direction,
        "kernel_width": params.kernel_width,
        "directions": list(params.directions),
        "vocab": params.vocab.to_dict() if params.vocab else None,
    }
    np.savez(file, meta=np.asarray(json.dumps(meta)), **params.arrays())


def load_checkpoint(path) -> NetworkParams:
    """Read a checkpoint. A file that is not one, a vocabulary that does not
    fit the embedding, and a missing, mis-shaped, unexpected or non-finite
    weight array (by name), raise ValueError."""
    try:
        data = np.load(path, allow_pickle=False)
    except (zipfile.BadZipFile, EOFError) as exc:
        raise ValueError(f"{path}: not a checkpoint file ({exc})")
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise ValueError(f"{path}: not a checkpoint file")
    with data:
        try:
            meta = json.loads(str(data["meta"]))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not a checkpoint file ({exc})")
        if (not isinstance(meta, dict)
                or meta.get("format") != CHECKPOINT_FORMAT):
            raise ValueError(f"{path}: not a checkpoint file")
        if meta.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version")
        arrays = {key: data[key] for key in data.files if key != "meta"}
    # the sizes come from the embedding, the classifier bias and the first
    # direction's candidate bias; every array is then checked against them
    sized = ("embedding", 2), ("b_cls", 1), ("layers/fwd/b", 1)
    for key, ndim in sized:
        if key not in arrays:
            raise ValueError(f"{path}: missing array {key}")
        if arrays[key].ndim != ndim:
            raise ValueError(f"{path}: {key} must have {ndim} dimension(s), "
                             f"got shape {arrays[key].shape}")
    (n_vocab, d_embed), (n_classes,), (d_hidden,) = (
        arrays[key].shape for key, _ in sized)
    vocab = Vocabulary.from_dict(meta["vocab"]) if meta.get("vocab") else None
    if vocab is not None and not 0 <= vocab.oov_id < len(vocab) <= n_vocab:
        raise ValueError(f"{path}: vocabulary ({len(vocab)} tokens, oov id "
                         f"{vocab.oov_id}) does not fit {n_vocab} embedding "
                         f"rows")
    try:
        params = NetworkParams(meta["arch"], meta["direction"], n_vocab,
                               d_embed, d_hidden, n_classes,
                               int(meta["kernel_width"]), vocab)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    want = params.arrays()
    extra = sorted(arrays.keys() - want.keys())
    if extra:
        raise ValueError(f"{path}: unexpected array {extra[0]}")
    for key, w in want.items():
        if key not in arrays:
            raise ValueError(f"{path}: missing array {key}")
        if arrays[key].shape != w.shape:
            raise ValueError(f"{path}: {key} has shape {arrays[key].shape}, "
                             f"expected {w.shape}")
        w[...] = arrays[key]
        if not np.all(np.isfinite(w)):
            raise ValueError(f"{path}: non-finite values in {key}")
    return params
