"""Gradient × input explainers, and the one white-box pass they share.

The gradient methods are {plain, integrated} x {score, prob} x {L2, dot}.
ε-LRP and DeepLIFT are gradient × input too, under modified local factors
(Ancona et al., ICLR 2018), so every one of them reads one pass per
(document, model):

* one forward over a stack of rows: row 0 is the document, then the
  all-zero input if DeepLIFT is asked, then the integrated-gradient inputs
  (m/M) E, m = 1..M-1 (row 0 is the m = M input, since 1.0 * E == E);
* one exact sweep over the rows, gathered with repeats, that some method
  needs: one per (row, output s_k or p_k);
* one rule sweep (``models.RelevanceRule``) with one row per relevance
  method: DeepLIFT's reference is the all-zero input's row, LRP's an
  all-zero activation trace (ε-LRP is DeepLIFT-Rescale against it).

``forward_rows`` runs the forward and ``white_box_pass`` the sweeps; rows
its trace lacks run in further batches. Integrated-gradient rows past
``IG_BATCH_CELLS`` always do, so that no batch's trace exceeds a few MB.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..models import ForwardTrace, NetworkParams, RelevanceRule, _run, \
    embed, forward, forward_embedded, output_gradients, scaled_rows, sweep
from ..numerics import esign
from ..relevance import RelevanceMap


@dataclass
class GradConfig:
    variant: str = "grad1"      # "grad1" | "gradint"
    output: str = "s"           # "s" | "p"
    reduction: str = "dot"      # "l2" | "dot"
    steps: int = 50             # interpolation points for "gradint"

    def validate(self) -> None:
        if self.variant not in ("grad1", "gradint"):
            raise ValueError(f"unknown gradient variant {self.variant!r}")
        if self.output not in ("s", "p"):
            raise ValueError(f"unknown output {self.output!r}")
        if self.reduction not in ("l2", "dot"):
            raise ValueError(f"unknown reduction {self.reduction!r}")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")

    @property
    def name(self) -> str:
        return f"{self.variant}_{self.output}_{self.reduction}"


# Most cells (rows x length x width) one batch of integrated gradients
# holds; longer inputs are split into several batches so that the trace of
# one batch stays a few MB.
IG_BATCH_CELLS = 1 << 18

DEFAULT_EPS = 1e-3


def _batch_rows(params: NetworkParams, t_len: int) -> int:
    width = max(params.d_embed, params.d_hidden)
    return max(1, IG_BATCH_CELLS // max(1, t_len * width))


def forward_rows(names, params: NetworkParams, ids,
                 steps: int) -> ForwardTrace:
    """The forward trace of ``ids`` beside the rows the white-box ``names``
    read, in one batch: scale 0 (DeepLIFT's all-zero input), then as many
    integrated-gradient rows m/M (M = ``steps``) as fit the batch."""
    emb = embed(params, ids)
    extra = (0.0,) if "deeplift" in names else ()
    if any(n.startswith("gradint_") for n in names):
        room = _batch_rows(params, len(emb)) - 1 - len(extra)
        extra += tuple(m / steps for m in range(1, min(steps, room + 1)))
    return forward_embedded(params, emb, extra)


def check_white_box(params: NetworkParams, k: int, names,
                    eps: float = DEFAULT_EPS, steps: int = 50) -> None:
    """The checks of ``white_box_pass``'s arguments, made before any
    forward pass."""
    if not 0 <= k < params.n_classes:
        raise ValueError(f"class {k} out of range [0, {params.n_classes})")
    if eps <= 0 and ("lrp" in names or "deeplift" in names):
        raise ValueError("eps must be positive")
    if steps < 1 and any(n.startswith("gradint_") for n in names):
        raise ValueError("steps must be >= 1")


def white_box_pass(params: NetworkParams, trace: ForwardTrace, k: int,
                   names, eps: float = DEFAULT_EPS,
                   steps: int = 50) -> dict[str, np.ndarray]:
    """What the white-box ``names`` read for class k, from the document's
    ``trace`` and its rows:

    * ``"grad1_o"`` and ``"gradint_o"`` (o = s or p): the (T, d_e) gradient
      of o_k, and its mean over the M = ``steps`` scaled inputs, summed in
      the order m = 1..M;
    * ``"lrp"`` and ``"deeplift"``: the (T,) relevance e_t · demb_t.

    Needed rows the trace lacks run in batches of their own, each followed
    by its own exact sweep. The arguments must pass ``check_white_box``.
    """
    emb = trace.embeddings
    averaged = {n.split("_")[1] for n in names if n.startswith("gradint_")}
    plain = {n.split("_")[1] for n in names if n.startswith("grad1_")}
    # the scales of each output's exact rows, in the order m = 1..M (the
    # document, m = M, last); sorted outputs keep the row order repeatable
    need = {o: [m / steps for m in range(1, steps + 1)] if o in averaged
            else [1.0] for o in sorted(averaged | plain)}
    rules = [r for r in ("lrp", "deeplift") if r in names]
    have = set(trace.scales)
    missing = [a for a in dict.fromkeys(
        ([0.0] if "deeplift" in rules else [])
        + [a for scales in need.values() for a in scales]) if a not in have]
    size = _batch_rows(params, len(emb))

    def batches():
        yield (trace.batch_doc, trace.batch_scores, trace.batch_dirs,
               trace.scales)
        for lo in range(0, len(missing), size):
            scales = missing[lo:lo + size]
            yield _run(params, scaled_rows(emb, scales), keep=True) + (scales,)

    at_one = {}                         # output -> gradient of the document
    sums = {}                           # output -> sum over m < M
    zero = None
    for doc, scores, dirs, scales in batches():
        row = {}
        for b, a in enumerate(scales):
            row.setdefault(a, b)
        if "deeplift" in rules and zero is None and 0.0 in row:
            # DeepLIFT's reference traces, one row per rule
            zero = scores[row[0.0], k], {
                n: tr.take([row[0.0]] * len(rules)) for n, tr in dirs.items()}
        rows, outs, spans = [], [], []
        for output, scales in need.items():
            here = [a for a in scales if a in row]
            spans.append((output, len(rows), len(rows) + len(here),
                          1.0 in here))
            rows += [row[a] for a in here]
            outs += [output] * len(here)
        if not rows:
            continue
        rows = np.array(rows)
        demb = output_gradients(params, doc[rows], scores[rows],
                                {n: tr.take(rows) for n, tr in dirs.items()},
                                k, outs)
        for output, lo, hi, last_is_one in spans:
            if last_is_one:
                hi -= 1
                at_one[output] = demb[hi]
            if hi > lo:
                part = demb[lo:hi].sum(axis=0)
                sums[output] = part if output not in sums \
                    else sums[output] + part

    out = {f"grad1_{o}": at_one[o] for o in need}
    for o in averaged:
        total = at_one[o] if o not in sums else sums[o] + at_one[o]
        out[f"gradint_{o}"] = total / steps
    if rules:
        out.update(zip(rules, _rule_relevance(params, trace, k, rules, eps,
                                              zero)))
    return out


def _rule_relevance(params: NetworkParams, trace: ForwardTrace, k: int,
                    rules: list[str], eps: float, zero) -> list[np.ndarray]:
    """One rule sweep with a row of the document per rule; ``zero`` is the
    all-zero input's (s_k, direction traces of a row per rule) when DeepLIFT
    is asked."""
    n = len(rules)
    roots = np.array([trace.scores[k] - (zero[0] if r == "deeplift" else 0.0)
                      for r in rules])
    dscores = np.zeros((n, params.n_classes))
    dscores[:, k] = roots / (roots + esign(roots, eps))
    lrp_rows = [r == "lrp" for r in rules]
    base = {}
    for dname, tr in trace.batch_dirs.items():
        ref = tr.take([0] * n) if zero is None else zero[1][dname]
        for a in (ref.hidden, ref.cand, ref.preact, ref.cell):
            if a is not None:
                a[lrp_rows] = 0.0
        base[dname] = ref
    dirs = {dname: tr.take([0] * n) for dname, tr in trace.batch_dirs.items()}
    demb, _ = sweep(params, trace.batch_doc[[0] * n], dirs, dscores,
                    rule=RelevanceRule(eps, base))
    return [(trace.embeddings * d).sum(axis=1) for d in demb]


def integrated_gradients(params: NetworkParams, ids, output: str, k: int,
                         steps: int = 50) -> np.ndarray:
    """Average gradient over the scaled inputs (m/M) * E, m = 1..M.

    The baseline is the all-zero embedding matrix, so the interpolation is a
    pure scaling of the actual embeddings. The document and its scaled
    inputs run as the white-box pass's rows.
    """
    cfg = GradConfig("gradint", output, "dot", steps)
    cfg.validate()
    check_white_box(params, k, [cfg.name], steps=steps)
    trace = forward_rows([cfg.name], params, ids, steps)
    return white_box_pass(params, trace, k, [cfg.name],
                          steps=steps)[f"gradint_{output}"]


def reduce_gradients(grads: np.ndarray, emb: np.ndarray,
                     reduction: str) -> np.ndarray:
    """Per-token reduction of a (T, d_e) gradient matrix to a (T,) vector."""
    if grads.shape != emb.shape:
        raise ValueError("gradient/embedding shape mismatch")
    if reduction == "l2":
        return np.linalg.norm(grads, axis=1)
    if reduction == "dot":
        return np.einsum("td,td->t", emb, grads)
    raise ValueError(f"unknown reduction {reduction!r}")


def explain_gradient(params: NetworkParams, ids, k: int,
                     cfg: GradConfig) -> RelevanceMap:
    """One gradient map of ``ids``, from ``forward(params, ids)`` and the
    white-box pass."""
    cfg.validate()
    check_white_box(params, k, [cfg.name], steps=cfg.steps)
    trace = forward(params, ids)
    grads = white_box_pass(params, trace, k, [cfg.name], steps=cfg.steps)
    return RelevanceMap(
        scores=reduce_gradients(grads[f"{cfg.variant}_{cfg.output}"],
                                trace.embeddings, cfg.reduction),
        k=k, method=cfg.name)
