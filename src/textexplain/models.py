"""Task classifiers: five architectures, forward traces, gradients, checkpoints.

Each network is an embedding matrix, a core layer (GRU, QGRU, LSTM, QLSTM or
CNN), and a dense classifier head with softmax. The forward pass is batch-first:
one runner per architecture steps a (B, T, d_e) stack of equal-length inputs
with (B, d) matmuls, and the convolutions are one matmul per kernel slice
over the whole batch. ``forward_embedded`` is its B = 1 case and records
every intermediate quantity (gates, pre-activations, cell/hidden states,
pooling winners) in a ForwardTrace, which is what the white-box explainers
consume. ``score_batch`` keeps only the running state and returns the class
scores of every row; the black-box explainers score their inputs with it in
equal-length buckets.

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
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Node, Tape
from .numerics import SeededRng, sigmoid, softmax

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

    def row(self, b: int) -> "DirectionTrace":
        """Batch row ``b`` of a batched trace."""
        return DirectionTrace(
            emb=self.emb[b], gates={n: a[b] for n, a in self.gates.items()},
            preact=self.preact[b], cand=self.cand[b], hidden=self.hidden[b],
            cell=None if self.cell is None else self.cell[b],
            pool_argmax=(None if self.pool_argmax is None
                         else self.pool_argmax[b]))


@dataclass
class ForwardTrace:
    arch: str
    direction: str
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


def _run_direction(arch: str, w: dict[str, np.ndarray], emb: np.ndarray,
                   keep: bool) -> tuple[np.ndarray, DirectionTrace | None]:
    """Run one direction over a (B, T, d_e) batch of equal-length inputs.

    Returns the final hidden state (B, d) and, when ``keep`` is true, the
    batched DirectionTrace; otherwise only the running state is held.
    """
    b, t_len, _ = emb.shape
    d = w["b"].shape[0]

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
            if keep:
                recorded.append((gates, gp, g, h) + ((c,) if lstm else ()))
        if not keep:
            return h, None
        gates_all, gp_all, g_all, h_all, *c_all = map(_with_initial,
                                                      zip(*recorded))
        return h, DirectionTrace(
            emb=emb,
            gates={n: gates_all[:, :, j * d:(j + 1) * d]
                   for j, n in enumerate(gate_names)},
            preact=gp_all, cand=g_all, hidden=h_all,
            cell=c_all[0] if lstm else None)

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
            if keep:
                hs.append(h)
                cs.append(c)
        if not keep:
            return h, None
        return h, DirectionTrace(
            emb=emb, gates=gates, preact=gp, cand=g, hidden=_with_initial(hs),
            cell=_with_initial(cs) if arch == "QLSTM" else None)

    if arch == "CNN":
        gp = _centered_conv(w["K"], w["b"], emb)
        g = np.zeros_like(gp)
        g[:, 1:] = np.maximum(gp[:, 1:], 0.0)
        # argmax over t = 1..T, ties to the lowest t
        arg = np.argmax(g[:, 1:], axis=1) + 1
        pooled = np.take_along_axis(g, arg[:, None, :], axis=1)[:, 0]
        if not keep:
            return pooled, None
        h = np.zeros((b, t_len + 1, d))
        h[:, t_len] = pooled
        return pooled, DirectionTrace(emb=emb, gates={}, preact=gp, cand=g,
                                      hidden=h, pool_argmax=arg)

    raise ValueError(f"unknown architecture {arch!r}")


def _run(params: NetworkParams, embs: np.ndarray, keep: bool,
         ) -> tuple[np.ndarray, np.ndarray, dict[str, DirectionTrace]]:
    """Batched forward over (B, T, d_e): document representations (B, d_h),
    class scores (B, K) and, when ``keep``, the batched direction traces."""
    if embs.ndim != 3:
        raise ValueError("expected a (batch, length, width) input stack")
    if embs.shape[1] == 0:
        raise ValueError("empty input sequence")
    if embs.shape[2] != params.d_embed:
        raise ValueError("embedding width mismatch")
    dirs: dict[str, DirectionTrace] = {}
    parts = []
    for dname in params.directions:
        e_dir = embs if dname == "fwd" else embs[:, ::-1].copy()
        last, tr = _run_direction(params.arch, params.layers[dname], e_dir,
                                  keep)
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
                        probs=softmax(scores[0]))


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
# Autodiff graph (gradients for explainers and the trainer)
# ---------------------------------------------------------------------------

@dataclass
class Graph:
    tape: Tape
    emb_nodes: list[Node]               # one leaf per timestep
    param_nodes: dict[str, Node]        # flat name -> leaf
    scores: Node                        # (K,)


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


def build_graph(params: NetworkParams, emb: np.ndarray) -> Graph:
    """Build the differentiable forward graph on an embedding matrix."""
    if emb.shape[0] == 0:
        raise ValueError("empty input sequence")
    tape = Tape()
    pn = {name: tape.leaf(get_param(params, name)) for name in param_names(params)}
    emb_nodes = [tape.leaf(emb[t]) for t in range(emb.shape[0])]

    parts = []
    for dname in params.directions:
        e_dir = emb_nodes if dname == "fwd" else emb_nodes[::-1]
        parts.append(_graph_direction(tape, params, pn, dname, e_dir))
    doc = parts[0] if len(parts) == 1 else tape.concat(parts[0], parts[1])
    scores = tape.add(tape.matvec(pn["w_cls"], doc), pn["b_cls"])
    return Graph(tape=tape, emb_nodes=emb_nodes, param_nodes=pn, scores=scores)


def _graph_direction(tape: Tape, params: NetworkParams,
                     pn: dict[str, Node], dname: str,
                     emb_nodes: list[Node]) -> Node:
    arch = params.arch
    t_len = len(emb_nodes)
    d = params.d_hidden
    ones = tape.leaf(np.ones(d))
    zeros = tape.leaf(np.zeros(d))

    def w(name):
        return pn[f"{dname}.{name}"]

    def dense(v_name, u_name, b_name, e_t, h_prev):
        return tape.add(tape.add(tape.matvec(w(v_name), e_t),
                                 tape.matvec(w(u_name), h_prev)), w(b_name))

    def conv_preacts(k_name, b_name):
        f = params.kernel_width
        outs = []
        for t in range(1, t_len + 1):
            acc = w(b_name)
            for k in range(f):
                src = t - k
                if src >= 1:
                    acc = tape.add(acc, tape.kernel_matvec(w(k_name), k,
                                                           emb_nodes[src - 1]))
            outs.append(acc)
        return outs

    if arch == "GRU":
        h = zeros
        for t in range(1, t_len + 1):
            e_t = emb_nodes[t - 1]
            z_t = tape.sigmoid(dense("Vz", "Uz", "bz", e_t, h))
            r_t = tape.sigmoid(dense("Vr", "Ur", "br", e_t, h))
            gp = tape.add(tape.add(tape.matvec(w("V"), e_t),
                                   tape.matvec(w("U"), tape.mul(r_t, h))),
                          w("b"))
            g_t = tape.tanh(gp)
            h = tape.add(tape.mul(z_t, h), tape.mul(tape.sub(ones, z_t), g_t))
        return h

    if arch == "LSTM":
        h, c = zeros, zeros
        for t in range(1, t_len + 1):
            e_t = emb_nodes[t - 1]
            i_t = tape.sigmoid(dense("Vi", "Ui", "bi", e_t, h))
            f_t = tape.sigmoid(dense("Vf", "Uf", "bf", e_t, h))
            o_t = tape.sigmoid(dense("Vo", "Uo", "bo", e_t, h))
            g_t = tape.tanh(dense("V", "U", "b", e_t, h))
            c = tape.add(tape.mul(f_t, c), tape.mul(i_t, g_t))
            h = tape.mul(o_t, tape.tanh(c))
        return h

    if arch == "QGRU":
        zp = conv_preacts("Kz", "bz")
        gp = conv_preacts("K", "b")
        h = zeros
        for t in range(1, t_len + 1):
            z_t = tape.sigmoid(zp[t - 1])
            g_t = tape.tanh(gp[t - 1])
            h = tape.add(tape.mul(z_t, h), tape.mul(tape.sub(ones, z_t), g_t))
        return h

    if arch == "QLSTM":
        ip = conv_preacts("Ki", "bi")
        fp = conv_preacts("Kf", "bf")
        op = conv_preacts("Ko", "bo")
        gp = conv_preacts("K", "b")
        h, c = zeros, zeros
        for t in range(1, t_len + 1):
            i_t = tape.sigmoid(ip[t - 1])
            f_t = tape.sigmoid(fp[t - 1])
            o_t = tape.sigmoid(op[t - 1])
            g_t = tape.tanh(gp[t - 1])
            c = tape.add(tape.mul(f_t, c), tape.mul(i_t, g_t))
            h = tape.mul(o_t, tape.tanh(c))
        return h

    if arch == "CNN":
        f = params.kernel_width
        half = (f - 1) // 2
        rows = []
        for t in range(1, t_len + 1):
            acc = w("b")
            for k in range(-half, half + 1):
                src = t - k
                if 1 <= src <= t_len:
                    acc = tape.add(acc, tape.kernel_matvec(w("K"), k + half,
                                                           emb_nodes[src - 1]))
            rows.append(tape.relu(acc))
        return tape.channel_max(rows)

    raise ValueError(f"unknown architecture {arch!r}")


def output_node(graph: Graph, output: str, k: int, label: int | None = None) -> Node:
    """Scalar node for the requested output channel."""
    n_classes = graph.scores.value.shape[0]
    if output in ("s", "p") and not 0 <= k < n_classes:
        raise ValueError(f"class {k} out of range [0, {n_classes})")
    if output == "s":
        return graph.tape.pick(graph.scores, k)
    if output == "p":
        return graph.tape.pick(graph.tape.softmax(graph.scores), k)
    if output == "crossentropy":
        if label is None:
            raise ValueError("crossentropy output needs a label")
        return graph.tape.cross_entropy(graph.scores, label)
    raise ValueError(f"unknown output {output!r}")


def embedding_gradients(params: NetworkParams, ids=None, output: str = "s",
                        k: int = 0, emb: np.ndarray | None = None) -> np.ndarray:
    """Gradient of s_k or p_k with respect to every embedding entry; (T, d_e)."""
    if emb is None:
        emb = embed(params, ids)
    graph = build_graph(params, emb)
    root = output_node(graph, output, k)
    graph.tape.backward(root)
    return np.stack([
        node.grad if node.grad is not None else np.zeros(params.d_embed)
        for node in graph.emb_nodes
    ])


def grads_from_graph(graph: Graph, params: NetworkParams,
                     ids: list[int]) -> dict[str, np.ndarray]:
    """Collect parameter gradients after backward(); embedding rows are
    scattered back into a dense (|V|, d_e) matrix."""
    grads = {}
    for name, node in graph.param_nodes.items():
        grads[name] = (node.grad if node.grad is not None
                       else np.zeros_like(node.value))
    emb_grad = np.zeros_like(params.embedding)
    for tok, node in zip(ids, graph.emb_nodes):
        if node.grad is not None:
            emb_grad[tok] += node.grad
    grads["embedding"] = emb_grad
    return grads


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
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["meta"]))
        if meta.get("format") != CHECKPOINT_FORMAT:
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
    return params
