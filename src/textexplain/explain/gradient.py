"""Gradient × input explainers, and the one white-box pass they share.

The gradient methods are {plain, integrated} x {score, prob} x {L2, dot}.
ε-LRP and DeepLIFT are gradient × input too, under modified local factors
(Ancona et al., ICLR 2018), so every one of them reads one pass per
(document, model):

* one forward over a stack of rows into one stacked trace: row 0 is the
  document, then the all-zero input if DeepLIFT is asked, then the
  integrated-gradient inputs (m/M) E, m = 1..M-1 (row 0 is the m = M
  input, since 1.0 * E == E);
* one sweep over the rows, gathered with repeats, that some method needs:
  exact gradients for one row per (row, output s_k or p_k), then one row
  of the document per relevance method under a ``models.RelevanceRule``
  that governs those trailing rows alone. DeepLIFT's reference is the
  all-zero input's row, LRP's an all-zero activation trace (ε-LRP is
  DeepLIFT-Rescale against it).

``forward_rows`` runs the forward and ``white_box_pass`` the sweep; rows
its trace lacks run in further batches, each with one sweep of its own.
Integrated-gradient rows past ``IG_BATCH_CELLS`` always do, so that no
batch's trace exceeds a few MB. The relevance rows ride in the first
batch's sweep: if the trace lacks DeepLIFT's all-zero row, the further
batch that holds it runs its forward first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..models import DirectionTrace, ForwardTrace, NetworkParams, \
    RelevanceRule, _run, embed, forward_embedded, output_seeds, scaled_rows, \
    sweep
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
    if not 0 < eps < np.inf and ("lrp" in names or "deeplift" in names):
        raise ValueError("eps must be positive and finite")
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
    by its own sweep; the relevance rows ride in the trace's. The arguments
    must pass ``check_white_box``.
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
    chunks = [missing[lo:lo + size] for lo in range(0, len(missing), size)]

    def run(scales):
        _, scores, dirs = _run(params, scaled_rows(emb, scales), keep=True)
        return scores, dirs, scales

    own = trace.batch_scores, trace.batch_dirs, trace.scales
    # a missing all-zero row leads the first further batch, run ahead
    ahead = run(chunks[0]) if "deeplift" in rules and 0.0 not in have \
        else None
    if rules:
        base, seeds = _rule_rows(params, trace, k, rules, eps, ahead or own)

    def batches():
        yield own
        for i, scales in enumerate(chunks):
            yield ahead if i == 0 and ahead else run(scales)

    at_one = {}                         # output -> gradient of the document
    sums = {}                           # output -> sum over m < M
    out = {}
    for i, (scores, dirs, scales) in enumerate(batches()):
        row = {}
        for b, a in enumerate(scales):
            row.setdefault(a, b)
        rows, outs, spans = [], [], []
        for output, scales in need.items():
            here = [a for a in scales if a in row]
            spans.append((output, len(rows), len(rows) + len(here),
                          1.0 in here))
            rows += [row[a] for a in here]
            outs += [output] * len(here)
        ride = bool(rules) and i == 0
        if not rows and not ride:
            continue
        dscores = output_seeds(scores[rows], k, outs)
        rule = None
        if ride:
            # the document (row 0) once per relevance method, last
            rule = RelevanceRule(eps, base, first=len(rows))
            dscores = np.concatenate([dscores, seeds])
            rows += [0] * len(rules)
        demb = sweep(params, None, dirs.take(rows), dscores, rule=rule)[0]
        if rule:
            out.update((r, (emb * d).sum(axis=1))
                       for r, d in zip(rules, demb[rule.first:]))
        for output, lo, hi, last_is_one in spans:
            if last_is_one:
                hi -= 1
                at_one[output] = demb[hi]
            if hi > lo:
                part = demb[lo:hi].sum(axis=0)
                sums[output] = part if output not in sums \
                    else sums[output] + part

    out.update((f"grad1_{o}", at_one[o]) for o in need)
    for o in averaged:
        total = at_one[o] if o not in sums else sums[o] + at_one[o]
        out[f"gradint_{o}"] = total / steps
    return out


def _rule_rows(params: NetworkParams, trace: ForwardTrace, k: int,
               rules: list[str], eps: float,
               batch) -> tuple[DirectionTrace, np.ndarray]:
    """The reference trace of the relevance rows, one row per rule in
    ``rules``, and their seeds d(root)/d(scores). ``batch`` (scores,
    stacked trace, scales) holds the all-zero input's row when DeepLIFT is
    asked."""
    scores, dirs, scales = batch
    n = len(rules)
    zero = scales.index(0.0) if "deeplift" in rules else None
    roots = np.array([trace.scores[k] - (scores[zero, k] if r == "deeplift"
                                         else 0.0) for r in rules])
    seeds = np.zeros((n, params.n_classes))
    seeds[:, k] = roots / (roots + esign(roots, eps))
    base = (dirs.take([zero] * n) if zero is not None
            else trace.batch_dirs.take([0] * n))
    if "lrp" in rules:
        for a in (base.hidden, base.cand, base.preact, base.cell):
            if a is not None:
                a[:, rules.index("lrp")] = 0.0
    return base, seeds


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
    return white_box_pass(params, forward_rows([cfg.name], params, ids, steps),
                          k, [cfg.name], steps=steps)[f"gradint_{output}"]


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
    """One gradient map of ``ids``: ``catalog.explain`` of ``cfg.name``."""
    from .catalog import ExplainOptions, explain
    cfg.validate()
    return explain(cfg.name, params, ids, k,
                   ExplainOptions(int_steps=cfg.steps))
