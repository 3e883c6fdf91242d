"""Task classifiers: five architectures, forward traces, gradients, checkpoints.

Each network is an embedding matrix, a core layer (GRU, QGRU, LSTM, QLSTM or
CNN), and a dense classifier head with softmax. The forward pass is batch-first:
one runner per architecture steps a (B, T, d_e) stack of inputs with (B, d)
matmuls, and the convolutions are one matmul per kernel slice over the whole
batch. The stack may be ragged: right-padded rows with their own ``lengths``,
each read out at its own last step (training minibatches and corpus scoring
use this). ``forward_embedded`` is its B = 1 case and records
every intermediate quantity (gates, pre-activations, cell/hidden states,
pooling winners) in a ForwardTrace, which is what the white-box explainers
consume. One document's trace is meant to be computed once and shared: it
keeps the runner's B = 1 arrays (``batch_dirs``) beside their row views
(``dirs``), so ``embedding_gradients(..., trace=...)`` runs only the sweep,
and ``check_trace`` tells whether a trace belongs to given parameters and
token ids. ``score_batch`` keeps only the running state and returns the class
scores of every row; the black-box explainers score their inputs with it in
equal-length buckets.

Exact gradients come from one reverse sweep per architecture over a batched
trace (``sweep``): given d(scores) (B, K) it returns d(embeddings)
(B, T, d_e) and, for training, every parameter gradient summed over the
batch. Recurrences step back over t with (B, d) matmuls; the convolutions
are transposed as F shifted matmuls, mirroring the forward. The same sweep
is the relevance pass of ε-LRP and DeepLIFT: a ``RelevanceRule`` swaps its
local factors, so this module alone knows how gradients and relevance flow
through each architecture.

Recurrences:
    GRU     h_t = z_t * h_{t-1} + (1 - z_t) * g_t,  g_t = tanh(V e_t + U (r_t * h_{t-1}) + b)
    LSTM    c_t = f_t * c_{t-1} + i_t * g_t,        h_t = o_t * tanh(c_t)
    QGRU /  same pooling recurrences, but gates and candidates come from a
    QLSTM   causal convolution over the (left-zero-padded) embeddings
    CNN     g_t = relu(conv(E)_t) with symmetric zero padding, h = max_t g_t

Convolution convention: kernel slice k multiplies e_{t-k}, i.e. for QRNNs
slice 0 is the current token and slice F-1 the oldest; for the CNN the slices
cover offsets -(F-1)/2 .. (F-1)/2 stored in order, so slice k+F' multiplies
e_{t-k}.
"""

from __future__ import annotations

import json
import zipfile
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
        counts: dict[str, int] = {}
        order: dict[str, int] = {}
        for tokens in token_lists:
            for tok in tokens:
                counts[tok] = counts.get(tok, 0) + 1
                order.setdefault(tok, len(order))
        ranked = sorted(counts, key=lambda t: (-counts[t], order[t]))
        kept = ranked[:cutoff]
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

# weight names per architecture, per direction
_LAYER_WEIGHTS = {
    "GRU": ("Vz", "Uz", "bz", "Vr", "Ur", "br", "V", "U", "b"),
    "LSTM": ("Vi", "Ui", "bi", "Vf", "Uf", "bf", "Vo", "Uo", "bo", "V", "U", "b"),
    "QGRU": ("Kz", "bz", "K", "b"),
    "QLSTM": ("Ki", "bi", "Kf", "bf", "Ko", "bo", "K", "b"),
    "CNN": ("K", "b"),
}


@dataclass
class NetworkParams:
    """Architecture tag plus every weight array of one classifier."""

    arch: str
    direction: str                      # "uni" or "bi" (CNN is always uni)
    embedding: np.ndarray               # (|V|, d_e)
    layers: dict[str, dict[str, np.ndarray]]   # direction name -> weights
    w_cls: np.ndarray                   # (K, d_h_total)
    b_cls: np.ndarray                   # (K,)
    kernel_width: int = 5
    vocab: Vocabulary | None = None

    @property
    def directions(self) -> tuple[str, ...]:
        return ("fwd", "bwd") if self.direction == "bi" else ("fwd",)

    @property
    def d_embed(self) -> int:
        return self.embedding.shape[1]

    @property
    def d_hidden(self) -> int:
        """Hidden size per direction."""
        return self.layers["fwd"]["b"].shape[0]

    @property
    def n_classes(self) -> int:
        return self.b_cls.shape[0]

    def validate(self) -> None:
        if self.arch not in ARCHS:
            raise ValueError(f"unknown architecture {self.arch!r}")
        if self.arch == "CNN" and self.direction == "bi":
            raise ValueError("CNN is unidirectional")
        if self.kernel_width < 1 or self.kernel_width % 2 == 0:
            raise ValueError("kernel width must be odd and positive")
        d_h = self.d_hidden
        if self.w_cls.shape != (self.n_classes, d_h * len(self.directions)):
            raise ValueError("classifier shape inconsistent with hidden size")
        for dname in self.directions:
            got = set(self.layers[dname])
            want = set(_LAYER_WEIGHTS[self.arch])
            if got != want:
                raise ValueError(f"layer weights {got} != expected {want}")


def init_params(arch: str, vocab_size: int, d_embed: int, d_hidden: int,
                n_classes: int, rng: SeededRng, direction: str = "uni",
                kernel_width: int = 5,
                vocab: Vocabulary | None = None) -> NetworkParams:
    """Random uniform(-0.1, 0.1) weights, zero biases.

    ``d_hidden`` is the total document-representation width; bidirectional
    models get half per direction.
    """
    if arch not in ARCHS:
        raise ValueError(f"unknown architecture {arch!r}")
    if direction == "bi":
        if arch == "CNN":
            raise ValueError("CNN is unidirectional")
        if d_hidden % 2:
            raise ValueError("bidirectional hidden size must be even")
        d_dir = d_hidden // 2
    else:
        d_dir = d_hidden

    def mat(*shape):
        return rng.uniform(-0.1, 0.1, size=shape)

    def make_layer():
        f, d, de = kernel_width, d_dir, d_embed
        shapes = {
            "GRU": {"Vz": (d, de), "Uz": (d, d), "bz": None,
                    "Vr": (d, de), "Ur": (d, d), "br": None,
                    "V": (d, de), "U": (d, d), "b": None},
            "LSTM": {"Vi": (d, de), "Ui": (d, d), "bi": None,
                     "Vf": (d, de), "Uf": (d, d), "bf": None,
                     "Vo": (d, de), "Uo": (d, d), "bo": None,
                     "V": (d, de), "U": (d, d), "b": None},
            "QGRU": {"Kz": (f, d, de), "bz": None, "K": (f, d, de), "b": None},
            "QLSTM": {"Ki": (f, d, de), "bi": None, "Kf": (f, d, de),
                      "bf": None, "Ko": (f, d, de), "bo": None,
                      "K": (f, d, de), "b": None},
            "CNN": {"K": (f, d, de), "b": None},
        }[arch]
        return {name: (np.zeros(d_dir) if shape is None else mat(*shape))
                for name, shape in shapes.items()}

    layers = {dname: make_layer()
              for dname in (("fwd", "bwd") if direction == "bi" else ("fwd",))}
    params = NetworkParams(
        arch=arch, direction=direction,
        embedding=mat(vocab_size, d_embed),
        layers=layers,
        w_cls=mat(n_classes, d_hidden),
        b_cls=np.zeros(n_classes),
        kernel_width=kernel_width,
        vocab=vocab,
    )
    params.validate()
    return params


# ---------------------------------------------------------------------------
# Forward pass (plain numpy, batch-first, produces the trace)
# ---------------------------------------------------------------------------

@dataclass
class DirectionTrace:
    """Per-timestep record for one direction, in that direction's order.

    State arrays are indexed 0..T (row 0 is the initial state); gate,
    pre-activation and candidate arrays use rows 1..T with row 0 unused.
    Inside the batched runner every array carries a leading batch axis.
    """

    emb: np.ndarray                     # (T, d_e)
    gates: dict[str, np.ndarray]        # each (T+1, d)
    preact: np.ndarray                  # g' (T+1, d)
    cand: np.ndarray                    # g  (T+1, d)
    hidden: np.ndarray                  # (T+1, d)
    cell: np.ndarray | None = None      # (T+1, d), LSTM family
    pool_argmax: np.ndarray | None = None   # (d,), CNN: winning t in 1..T
    lengths: np.ndarray | None = None   # (B,) of a ragged batch, else None

    def row(self, b: int) -> "DirectionTrace":
        """Batch row ``b`` of a batched trace, cut to its own length."""
        t_len = (self.emb.shape[1] if self.lengths is None
                 else int(self.lengths[b]))
        return DirectionTrace(
            emb=self.emb[b, :t_len],
            gates={n: a[b, :t_len + 1] for n, a in self.gates.items()},
            preact=self.preact[b, :t_len + 1], cand=self.cand[b, :t_len + 1],
            hidden=self.hidden[b, :t_len + 1],
            cell=None if self.cell is None else self.cell[b, :t_len + 1],
            pool_argmax=(None if self.pool_argmax is None
                         else self.pool_argmax[b]))


@dataclass
class ForwardTrace:
    """Everything one forward pass of one input computed.

    ``batch_dirs`` are the runner's direction traces with their batch axis
    of one, as ``sweep`` takes them. ``dirs`` holds their row 0, and
    ``doc_repr`` and ``scores`` are row 0 of the runner's outputs: views of
    the same arrays, not copies.
    """

    arch: str
    direction: str
    embeddings: np.ndarray              # (T, d_e), input order
    dirs: dict[str, DirectionTrace]
    doc_repr: np.ndarray                # (d_h_total,)
    scores: np.ndarray                  # (K,)
    probs: np.ndarray                   # (K,)
    batch_dirs: dict[str, DirectionTrace]   # (1, ...) arrays per direction

    @property
    def length(self) -> int:
        return self.embeddings.shape[0]

    @property
    def predicted(self) -> int:
        return int(np.argmax(self.probs))


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


def _conv(kernel: np.ndarray, bias: np.ndarray, emb: np.ndarray,
          left: int) -> np.ndarray:
    """Zero-padded convolution over a (B, T, d_e) batch; returns (B, T+1, d)
    with row 0 zero.

    ``left`` zero rows pad the front and F-1-left the back, so slice k of
    the kernel multiplies e_{t-k} (causal, left = F-1) or e_{t-k+F'}
    (centered, left = F'). Each slice is one matmul over every padded row of
    the batch; the slices are added to the bias in order.
    """
    f, d, d_e = kernel.shape
    b, t_len, _ = emb.shape
    padded = np.zeros((b, t_len + f - 1, d_e))
    padded[:, left:left + t_len] = emb
    flat = padded.reshape(-1, d_e)
    out = np.zeros((b, t_len + 1, d))
    acc = out[:, 1:]
    acc += bias
    for k in range(f):
        proj = (flat @ kernel[k].T).reshape(b, t_len + f - 1, d)
        acc += proj[:, f - 1 - k:f - 1 - k + t_len]
    return out


def _causal_conv(kernel: np.ndarray, bias: np.ndarray, emb: np.ndarray) -> np.ndarray:
    """Left-zero-padded convolution; (B, T, d_e) -> (B, T+1, d)."""
    return _conv(kernel, bias, emb, kernel.shape[0] - 1)


def _centered_conv(kernel: np.ndarray, bias: np.ndarray, emb: np.ndarray) -> np.ndarray:
    """Symmetric-zero-padded convolution; (B, T, d_e) -> (B, T+1, d)."""
    return _conv(kernel, bias, emb, (kernel.shape[0] - 1) // 2)


def _with_initial(steps: list[np.ndarray]) -> np.ndarray:
    """Stack per-step (B, d) arrays into (B, T+1, d) behind a zero row 0."""
    first = steps[0]
    out = np.zeros((first.shape[0], len(steps) + 1, first.shape[1]))
    out[:, 1:] = np.stack(steps, axis=1)
    return out


def _row_ends(lengths: np.ndarray | None, t_len: int) -> dict[int, np.ndarray]:
    """Rows of a ragged batch that end before step ``t_len``, keyed by their
    last step (1-based); empty for an equal-length batch."""
    ends: dict[int, list[int]] = {}
    if lengths is not None:
        for row, t in enumerate(lengths.tolist()):
            if t < t_len:
                ends.setdefault(t, []).append(row)
    return {t: np.array(rows) for t, rows in ends.items()}


def _reverse_index(lengths: np.ndarray, t_len: int) -> np.ndarray:
    """(B, T) positions that reverse each row within its own length and keep
    its padding in place; the permutation is its own inverse."""
    t = np.arange(t_len)
    return np.where(t < lengths[:, None], lengths[:, None] - 1 - t, t)


def _at_ends(state: np.ndarray, ends: dict[int, np.ndarray],
             held: dict[int, np.ndarray]) -> np.ndarray:
    """The running ``state`` after the last step, with the rows that ended
    earlier replaced by their ``held`` states."""
    if not ends:
        return state
    out = state.copy()
    for t, rows in ends.items():
        out[rows] = held[t]
    return out


def _run_direction(arch: str, w: dict[str, np.ndarray], emb: np.ndarray,
                   keep: bool, lengths: np.ndarray | None = None,
                   ) -> tuple[np.ndarray, DirectionTrace | None]:
    """Run one direction over a (B, T, d_e) batch.

    ``lengths`` (B,) marks a ragged batch whose padded positions the caller
    has zeroed; each row's state is read at its own last step. Returns that
    final hidden state (B, d) and, when ``keep`` is true, the batched
    DirectionTrace; otherwise only the running state is held.
    """
    b, t_len, _ = emb.shape
    d = w["b"].shape[0]
    ends = _row_ends(lengths, t_len)
    held: dict[int, np.ndarray] = {}

    if arch in ("GRU", "LSTM"):
        # input and recurrent weights of every gate stacked side by side, so
        # one step is one matmul each (the GRU candidate's U @ (r * h) aside)
        lstm = arch == "LSTM"
        gate_names = ("i", "f", "o") if lstm else ("z", "r")
        n_gate = len(gate_names) * d
        v_in = np.concatenate([w[f"V{g}"] for g in gate_names] + [w["V"]]).T
        u_in = np.concatenate([w[f"U{g}"] for g in gate_names]
                              + ([w["U"]] if lstm else [])).T
        b_gate = np.concatenate([w[f"b{g}"] for g in gate_names])
        h = np.zeros((b, d))
        c = np.zeros((b, d))
        recorded = []
        for t in range(t_len):
            x = emb[:, t] @ v_in
            hu = h @ u_in
            gates = sigmoid(x[:, :n_gate] + hu[:, :n_gate] + b_gate)
            if lstm:
                gp = x[:, n_gate:] + hu[:, n_gate:] + w["b"]
                g = np.tanh(gp)
                c = gates[:, d:2 * d] * c + gates[:, :d] * g
                h = gates[:, 2 * d:] * np.tanh(c)
            else:
                z, r = gates[:, :d], gates[:, d:]
                gp = x[:, n_gate:] + (r * h) @ w["U"].T + w["b"]
                g = np.tanh(gp)
                h = z * h + (1.0 - z) * g
            if t + 1 in ends:
                held[t + 1] = h[ends[t + 1]]
            if keep:
                recorded.append((gates, gp, g, h) + ((c,) if lstm else ()))
        h = _at_ends(h, ends, held)
        if not keep:
            return h, None
        gates_all, gp_all, g_all, h_all, *c_all = map(_with_initial,
                                                      zip(*recorded))
        return h, DirectionTrace(
            emb=emb,
            gates={n: gates_all[:, :, j * d:(j + 1) * d]
                   for j, n in enumerate(gate_names)},
            preact=gp_all, cand=g_all, hidden=h_all,
            cell=c_all[0] if lstm else None, lengths=lengths)

    if arch in ("QGRU", "QLSTM"):
        gate_names = ("z",) if arch == "QGRU" else ("i", "f", "o")
        gates = {}
        for n in gate_names:
            gates[n] = _causal_conv(w[f"K{n}"], w[f"b{n}"], emb)
            gates[n][:, 1:] = sigmoid(gates[n][:, 1:])
        gp = _causal_conv(w["K"], w["b"], emb)
        g = np.zeros_like(gp)
        g[:, 1:] = np.tanh(gp[:, 1:])
        h = np.zeros((b, d))
        c = np.zeros((b, d))
        hs, cs = [], []
        for t in range(1, t_len + 1):
            if arch == "QGRU":
                z = gates["z"][:, t]
                h = z * h + (1.0 - z) * g[:, t]
            else:
                c = gates["f"][:, t] * c + gates["i"][:, t] * g[:, t]
                h = gates["o"][:, t] * np.tanh(c)
            if t in ends:
                held[t] = h[ends[t]]
            if keep:
                hs.append(h)
                cs.append(c)
        h = _at_ends(h, ends, held)
        if not keep:
            return h, None
        return h, DirectionTrace(
            emb=emb, gates=gates, preact=gp, cand=g, hidden=_with_initial(hs),
            cell=_with_initial(cs) if arch == "QLSTM" else None,
            lengths=lengths)

    if arch == "CNN":
        gp = _centered_conv(w["K"], w["b"], emb)
        g = np.zeros_like(gp)
        g[:, 1:] = np.maximum(gp[:, 1:], 0.0)
        # argmax over the real steps t = 1..T, ties to the lowest t
        pool = g[:, 1:]
        if lengths is not None:
            real = np.arange(t_len) < lengths[:, None]
            pool = np.where(real[:, :, None], pool, -np.inf)
        arg = np.argmax(pool, axis=1) + 1
        pooled = np.take_along_axis(g, arg[:, None, :], axis=1)[:, 0]
        if not keep:
            return pooled, None
        h = np.zeros((b, t_len + 1, d))
        h[np.arange(b), t_len if lengths is None else lengths] = pooled
        return pooled, DirectionTrace(emb=emb, gates={}, preact=gp, cand=g,
                                      hidden=h, pool_argmax=arg,
                                      lengths=lengths)

    raise ValueError(f"unknown architecture {arch!r}")


def _run(params: NetworkParams, embs: np.ndarray, keep: bool,
         lengths=None,
         ) -> tuple[np.ndarray, np.ndarray, dict[str, DirectionTrace]]:
    """Batched forward over (B, T, d_e): document representations (B, d_h),
    class scores (B, K) and, when ``keep``, the batched direction traces.

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
    dirs: dict[str, DirectionTrace] = {}
    parts = []
    for dname in params.directions:
        if dname == "fwd":
            e_dir = embs
        elif lengths is None:
            e_dir = embs[:, ::-1].copy()
        else:
            e_dir = embs[np.arange(b)[:, None], _reverse_index(lengths, t_len)]
        last, tr = _run_direction(params.arch, params.layers[dname], e_dir,
                                  keep, lengths)
        parts.append(last)
        if keep:
            dirs[dname] = tr
    doc = np.concatenate(parts, axis=1)
    scores = doc @ params.w_cls.T + params.b_cls
    return doc, scores, dirs


def forward_embedded(params: NetworkParams, emb: np.ndarray) -> ForwardTrace:
    """Forward pass on an explicit embedding matrix (T, d_e): the batch of
    one of the batched runner, with every per-step quantity recorded."""
    doc, scores, dirs = _run(params, emb[None], keep=True)
    return ForwardTrace(arch=params.arch, direction=params.direction,
                        embeddings=emb,
                        dirs={n: tr.row(0) for n, tr in dirs.items()},
                        doc_repr=doc[0], scores=scores[0],
                        probs=softmax(scores[0]), batch_dirs=dirs)


def score_batch(params: NetworkParams, embs: np.ndarray) -> np.ndarray:
    """Class scores (B, K) of a (B, T, d_e) stack of equal-length inputs.

    Same runner as forward_embedded, but only the running state is kept, so
    a bucket of inputs costs O(B d) memory beyond its input projections.
    Rows of one call are computed alike; a row may differ from its B = 1
    run in the last bits, so compare scores from the same batch.
    """
    return _run(params, embs, keep=False)[1]


def forward(params: NetworkParams, ids) -> ForwardTrace:
    """Forward pass on a token id sequence."""
    return forward_embedded(params, embed(params, ids))


def check_trace(params: NetworkParams, ids, trace: ForwardTrace) -> None:
    """Raise ValueError unless ``trace`` can stand for ``forward(params,
    ids)``: same architecture and shapes, and embeddings equal to
    ``embed(params, ids)``."""
    if (trace.arch != params.arch or trace.direction != params.direction
            or trace.scores.shape != (params.n_classes,)
            or trace.doc_repr.shape != (params.w_cls.shape[1],)):
        raise ValueError(f"trace of a {trace.arch}-{trace.direction} model "
                         f"given for a {params.arch}-{params.direction} one")
    if not np.array_equal(trace.embeddings, embed(params, ids)):
        raise ValueError("trace is not the forward pass of these token ids "
                         "under these parameters")


def empty_sequence_scores(params: NetworkParams) -> np.ndarray:
    """Class scores of the length-zero input.

    The recurrent document representation of an empty sequence is the initial
    state (all zeros). For the CNN, every pooling window sees only padding,
    so each channel pools relu of its bias.
    """
    if params.arch == "CNN":
        doc = np.maximum(params.layers["fwd"]["b"], 0.0)
    else:
        doc = np.zeros(params.w_cls.shape[1])
    return params.w_cls @ doc + params.b_cls


# ---------------------------------------------------------------------------
# Exact gradients (one batched reverse sweep over the recorded trace)
# ---------------------------------------------------------------------------

def param_names(params: NetworkParams) -> list[str]:
    names = ["w_cls", "b_cls"]
    for dname in params.directions:
        names += [f"{dname}.{w}" for w in _LAYER_WEIGHTS[params.arch]]
    return names


def get_param(params: NetworkParams, name: str) -> np.ndarray:
    if name == "w_cls":
        return params.w_cls
    if name == "b_cls":
        return params.b_cls
    if name == "embedding":
        return params.embedding
    dname, wname = name.split(".")
    return params.layers[dname][wname]


def _conv_transpose(kernel: np.ndarray, dout: np.ndarray,
                    left: int) -> np.ndarray:
    """Transpose of ``_conv``: (B, T, d) output gradients of steps 1..T ->
    (B, T, d_e) input gradients, as F shifted matmuls."""
    f, _, d_e = kernel.shape
    b, t_len, _ = dout.shape
    dpad = np.zeros((b, t_len + f - 1, d_e))
    for k in range(f):
        dpad[:, f - 1 - k:f - 1 - k + t_len] += dout @ kernel[k]
    return dpad[:, left:left + t_len]


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


def _named(prefix: str, names, stacked: np.ndarray,
           axis: int = 0) -> dict[str, np.ndarray]:
    """Split the gradient of weights stacked along ``axis`` into named
    equal blocks."""
    return {prefix + n: block for n, block in
            zip(names, np.split(stacked, len(names), axis=axis))}


def _matmul_grad(d_pre: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """sum over batch and steps of d_pre (x) inputs: (n, m) weight gradient."""
    return d_pre.reshape(-1, d_pre.shape[2]).T @ inputs.reshape(
        -1, inputs.shape[2])


@dataclass(frozen=True)
class RelevanceRule:
    """Turns ``sweep`` into ε-LRP, or with ``base`` (the batched direction
    traces of a baseline input) into DeepLIFT-Rescale; ``eps`` > 0.

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
    base: dict[str, DirectionTrace] | None = None


class _Factors(NamedTuple):
    """Local factors of one direction's sweep, steps 1..T on axis 1."""

    gate: float                     # multiplies every sigmoid derivative
    act: np.ndarray                 # (B, T, d) the candidate's f'(z)
    h: np.ndarray | float | None    # scales d h_t; not the CNN's
    cell_act: np.ndarray | None     # (B, T, d) tanh'(c_t), LSTM family
    c: np.ndarray | float           # scales d c_{t-1}, LSTM family


def _local_factors(tr: DirectionTrace, rule: RelevanceRule | None,
                   base: DirectionTrace | None) -> _Factors:
    """The exact derivatives of ``tr`` (state factors 1.0), or their
    replacements under ``rule``; ``base`` is the baseline's trace of the
    same direction."""
    cnn, lstm = tr.pool_argmax is not None, tr.cell is not None
    if rule is None:
        g = tr.cand[:, 1:]
        tc = np.tanh(tr.cell[:, 1:]) if lstm else None
        return _Factors(1.0, tr.preact[:, 1:] > 0 if cnn else 1.0 - g * g,
                        1.0, 1.0 - tc * tc if lstm else None, 1.0)

    def delta(name, f=lambda a: a):
        a = f(getattr(tr, name))
        return a if base is None else a - f(getattr(base, name))

    def ratio(num, den):
        return num / (den + esign(den, rule.eps))

    dh = None if cnn else delta("hidden")
    dc = delta("cell") if lstm else None
    return _Factors(
        0.0, ratio(delta("cand"), delta("preact"))[:, 1:],
        None if cnn else ratio(dh, dh)[:, 1:],
        ratio(delta("cell", np.tanh), dc)[:, 1:] if lstm else None,
        ratio(dc, dc)[:, :-1] if lstm else None)


def _sweep_direction(arch: str, w: dict[str, np.ndarray], tr: DirectionTrace,
                     dh: np.ndarray, want_params: bool, fac: _Factors,
                     ) -> tuple[np.ndarray, dict[str, np.ndarray] | None]:
    """Reverse sweep of one direction of a batched trace.

    ``dh`` (B, d) is the gradient of the final hidden state (the pooled
    vector for the CNN), ``fac`` the local factors from ``_local_factors``.
    Returns the embedding gradients (B, T, d_e) in the direction's own order
    and, when ``want_params``, the gradients of every weight in ``w`` summed
    over the batch.
    """
    emb = tr.emb
    b, t_len, _ = emb.shape
    d = dh.shape[1]
    h_prev = tr.hidden[:, :-1]
    g = tr.cand[:, 1:]
    # a ragged row's state gradient enters at its own last step; until then
    # (over its padding) it is exactly zero
    ends = _row_ends(tr.lengths, t_len)
    d_end = dh
    if ends:
        dh = np.where((tr.lengths == t_len)[:, None], dh, 0.0)

    if arch in ("GRU", "LSTM"):
        # d_pre[:, t-1] holds the gradients of every pre-activation at step t,
        # in the stacked order of the forward's input weights
        lstm = arch == "LSTM"
        gate_names = ("i", "f", "o") if lstm else ("z", "r")
        names = gate_names + ("",)
        n_gate = len(gate_names) * d
        gates = np.concatenate([tr.gates[n][:, 1:] for n in gate_names], axis=2)
        dsig = gates * (1.0 - gates) * fac.gate
        v_in = np.concatenate([w[f"V{n}"] for n in names])
        u_in = np.concatenate([w[f"U{n}"] for n in gate_names]
                              + ([w["U"]] if lstm else []))
        d_pre = np.zeros((b, t_len, n_gate + d))
        if lstm:
            i, f, o = gates[..., :d], gates[..., d:2 * d], gates[..., 2 * d:]
            c_prev = tr.cell[:, :-1]
            tc = np.tanh(tr.cell[:, 1:])
            dc_from_h = o * fac.cell_act * fac.h
            carry = f * fac.c
            dc = np.zeros((b, d))
            for t in range(t_len - 1, -1, -1):
                if t + 1 in ends:
                    dh[ends[t + 1]] = d_end[ends[t + 1]]
                dc = dc + dh * dc_from_h[:, t]
                d_pre[:, t, :d] = dc * g[:, t]
                d_pre[:, t, d:2 * d] = dc * c_prev[:, t]
                d_pre[:, t, 2 * d:n_gate] = dh * tc[:, t]
                d_pre[:, t, :n_gate] *= dsig[:, t]
                d_pre[:, t, n_gate:] = dc * i[:, t] * fac.act[:, t]
                dc = dc * carry[:, t]
                dh = d_pre[:, t] @ u_in
        else:
            z, r = gates[..., :d], gates[..., d:]
            keep = (1.0 - z) * fac.h
            carry = z * fac.h
            for t in range(t_len - 1, -1, -1):
                if t + 1 in ends:
                    dh[ends[t + 1]] = d_end[ends[t + 1]]
                dgp = dh * keep[:, t] * fac.act[:, t]
                drh = dgp @ w["U"]
                d_pre[:, t, :d] = dh * (h_prev[:, t] - g[:, t]) * dsig[:, t, :d]
                d_pre[:, t, d:n_gate] = drh * h_prev[:, t] * dsig[:, t, d:]
                d_pre[:, t, n_gate:] = dgp
                dh = dh * carry[:, t] + drh * r[:, t] + d_pre[:, t, :n_gate] @ u_in
        demb = d_pre @ v_in
        if not want_params:
            return demb, None
        grads = {**_named("V", names, _matmul_grad(d_pre, emb)),
                 **_named("b", names, d_pre.sum(axis=(0, 1)))}
        if lstm:
            grads.update(_named("U", names, _matmul_grad(d_pre, h_prev)))
        else:
            grads.update(_named("U", gate_names, _matmul_grad(
                d_pre[..., :n_gate], h_prev)))
            grads["U"] = _matmul_grad(d_pre[..., n_gate:], r * h_prev)
        return demb, grads

    if arch in ("QGRU", "QLSTM"):
        # the pooling recurrence is elementwise: carry the state gradient
        # back over t, then form every pre-activation gradient at once
        if arch == "QGRU":
            z = tr.gates["z"][:, 1:]
            carry = z * fac.h
            dhs = np.zeros((b, t_len, d))
            for t in range(t_len - 1, -1, -1):
                if t + 1 in ends:
                    dh[ends[t + 1]] = d_end[ends[t + 1]]
                dhs[:, t] = dh
                dh = dh * carry[:, t]
            names = ("z", "")
            d_pre = np.concatenate(
                [dhs * (h_prev - g) * z * (1.0 - z) * fac.gate,
                 dhs * ((1.0 - z) * fac.h) * fac.act], axis=2)
        else:
            i, f, o = (tr.gates[n][:, 1:] for n in ("i", "f", "o"))
            rows = np.arange(b)
            last = t_len if tr.lengths is None else tr.lengths
            at_last = (rows, last - 1)
            tc = np.tanh(tr.cell[rows, last])
            o_last = o[at_last]
            carry = f * fac.c
            dcs = np.zeros((b, t_len, d))
            dc_end = (d_end * o_last * fac.cell_act[at_last]
                      * np.broadcast_to(fac.h, o.shape)[at_last])
            dc = np.where((last == t_len)[:, None], dc_end, 0.0) if ends \
                else dc_end
            for t in range(t_len - 1, -1, -1):
                if t + 1 in ends:
                    dc[ends[t + 1]] = dc_end[ends[t + 1]]
                dcs[:, t] = dc
                dc = dc * carry[:, t]
            do = np.zeros((b, t_len, d))
            do[at_last] = d_end * tc * o_last * (1.0 - o_last) * fac.gate
            names = ("i", "f", "o", "")
            d_pre = np.concatenate(
                [dcs * g * i * (1.0 - i) * fac.gate,
                 dcs * tr.cell[:, :-1] * f * (1.0 - f) * fac.gate,
                 do, dcs * i * fac.act], axis=2)
        kernel = np.concatenate([w[f"K{n}"] for n in names], axis=1)
        f_width = kernel.shape[0]
        demb = _conv_transpose(kernel, d_pre, f_width - 1)
        if not want_params:
            return demb, None
        k_grad = _conv_kernel_grad(d_pre, emb, f_width, f_width - 1)
        return demb, {**_named("b", names, d_pre.sum(axis=(0, 1))),
                      **_named("K", names, k_grad, axis=1)}

    if arch == "CNN":
        # the pooled value of each channel came from its argmax step (ties
        # went to the lowest t), where the relu passed it if it was active
        d_pre = np.zeros((b, t_len, d))
        np.put_along_axis(d_pre, tr.pool_argmax[:, None, :] - 1,
                          d_end[:, None, :], axis=1)
        d_pre *= fac.act
        f_width = w["K"].shape[0]
        half = (f_width - 1) // 2
        demb = _conv_transpose(w["K"], d_pre, half)
        if not want_params:
            return demb, None
        return demb, {"K": _conv_kernel_grad(d_pre, emb, f_width, half),
                      "b": d_pre.sum(axis=(0, 1))}

    raise ValueError(f"unknown architecture {arch!r}")


def sweep(params: NetworkParams, doc: np.ndarray,
          dirs: dict[str, DirectionTrace], dscores: np.ndarray,
          param_grads: bool = False, rule: RelevanceRule | None = None,
          ) -> tuple[np.ndarray, dict[str, np.ndarray] | None]:
    """The one reverse sweep over a batched forward of ``_run(...,
    keep=True)``: exact gradients, or relevance under ``rule``.

    ``doc`` and ``dirs`` are that run's document representations and traces,
    ``dscores`` (B, K) the gradient of some function of each row's class
    scores. Returns the gradients of the input embeddings (B, T, d_e) and,
    when ``param_grads``, a dict of every parameter's gradient (names as in
    ``param_names``) summed over the batch; embedding rows are the caller's
    to scatter. The padded positions of a ragged run get exactly zero. A
    ``rule`` swaps the local factors of every step (see ``RelevanceRule``).
    """
    ddoc = dscores @ params.w_cls
    d = params.d_hidden
    grads = ({"w_cls": dscores.T @ doc, "b_cls": dscores.sum(axis=0)}
             if param_grads else None)
    lengths = dirs["fwd"].lengths
    demb = 0.0
    for pos, dname in enumerate(params.directions):
        base = None if rule is None or rule.base is None else rule.base[dname]
        fac = _local_factors(dirs[dname], rule, base)
        de, wg = _sweep_direction(params.arch, params.layers[dname],
                                  dirs[dname], ddoc[:, pos * d:(pos + 1) * d],
                                  param_grads, fac)
        if dname == "bwd":
            de = (de[:, ::-1] if lengths is None else
                  de[np.arange(len(de))[:, None],
                     _reverse_index(lengths, de.shape[1])])
        demb = demb + de
        if param_grads:
            grads.update({f"{dname}.{n}": v for n, v in wg.items()})
    if lengths is not None:
        real = np.arange(demb.shape[1]) < lengths[:, None]
        demb = np.where(real[:, :, None], demb, 0.0)
    return demb, grads


def embedding_gradients(params: NetworkParams, ids=None, output: str = "s",
                        k: int = 0, emb: np.ndarray | None = None,
                        trace: ForwardTrace | None = None) -> np.ndarray:
    """Gradient of s_k or p_k with respect to every embedding entry.

    ``emb`` may be one (T, d_e) input or a (B, T, d_e) stack of equal-length
    inputs; the result has the same shape. All rows take one batched forward
    and one reverse sweep. Given the ``trace`` of one input, only the sweep
    runs, over ``trace.batch_dirs``; ``ids`` and ``emb`` are then unused.
    """
    if output not in ("s", "p"):
        raise ValueError(f"unknown output {output!r}")
    n_classes = params.n_classes
    if not 0 <= k < n_classes:
        raise ValueError(f"class {k} out of range [0, {n_classes})")
    if trace is not None:
        emb = trace.embeddings
        doc, scores = trace.doc_repr[None], trace.scores[None]
        dirs = trace.batch_dirs
    else:
        if emb is None:
            emb = embed(params, ids)
        doc, scores, dirs = _run(params, emb if emb.ndim == 3 else emb[None],
                                 keep=True)
    dscores = np.zeros_like(scores)
    dscores[:, k] = 1.0
    if output == "p":
        probs = softmax(scores)
        dscores = probs[:, k:k + 1] * (dscores - probs)
    demb, _ = sweep(params, doc, dirs, dscores)
    return demb if emb.ndim == 3 else demb[0]


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(path, params: NetworkParams) -> None:
    """Self-describing npz container; float64 arrays round-trip bitwise."""
    meta = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "arch": params.arch,
        "direction": params.direction,
        "kernel_width": params.kernel_width,
        "directions": list(params.directions),
        "vocab": params.vocab.to_dict() if params.vocab else None,
    }
    arrays = {"embedding": params.embedding, "w_cls": params.w_cls,
              "b_cls": params.b_cls}
    for dname in params.directions:
        for wname, arr in params.layers[dname].items():
            arrays[f"layers/{dname}/{wname}"] = arr
    np.savez(path, meta=np.asarray(json.dumps(meta)), **arrays)


def load_checkpoint(path) -> NetworkParams:
    """Read a checkpoint. A file that is not one, and a non-finite weight
    array (by name), raise ValueError."""
    try:
        data = np.load(path, allow_pickle=False)
    except (zipfile.BadZipFile, EOFError) as exc:
        raise ValueError(f"{path}: not a checkpoint file ({exc})")
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise ValueError(f"{path}: not a checkpoint file")
    with data:
        meta = json.loads(str(data["meta"]))
        if (not isinstance(meta, dict)
                or meta.get("format") != CHECKPOINT_FORMAT):
            raise ValueError(f"{path}: not a checkpoint file")
        if meta.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version")
        layers: dict[str, dict[str, np.ndarray]] = {}
        for key in data.files:
            if key.startswith("layers/"):
                _, dname, wname = key.split("/")
                layers.setdefault(dname, {})[wname] = data[key]
        vocab = (Vocabulary.from_dict(meta["vocab"])
                 if meta.get("vocab") else None)
        params = NetworkParams(
            arch=meta["arch"], direction=meta["direction"],
            embedding=data["embedding"], layers=layers,
            w_cls=data["w_cls"], b_cls=data["b_cls"],
            kernel_width=int(meta["kernel_width"]), vocab=vocab,
        )
    params.validate()
    for name in ["embedding"] + param_names(params):
        if not np.all(np.isfinite(get_param(params, name))):
            raise ValueError(f"{path}: non-finite values in {name}")
    return params
