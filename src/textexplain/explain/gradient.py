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

``row_plan`` names those rows and splits them into batches of at most
``models.batch_rows``, so that a batch's trace is bounded whatever M is (a
full batch at T = 80 traces 37-99 MB; see ``models.BATCH_CELLS``);
``document_trace`` runs the first batch, and ``white_box_pass`` runs the
others, each with one sweep of its own. The relevance rows ride in the
first batch's sweep. The plan forms each later batch's scales
``np.arange(lo, hi) / M`` when that batch runs, and the pass adds each
batch's gradient sum to one running sum per averaged output, so memory
does not grow with M.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..models import DirectionTrace, ForwardTrace, NetworkParams, \
    RelevanceRule, _run, batch_rows, embed, forward_embedded, output_seeds, \
    scaled_rows, sweep
from ..numerics import esign
from ..relevance import RelevanceMap
from .decomp import check_decomp


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


DEFAULT_EPS = 1e-3


def row_plan(names, params: NetworkParams, t_len: int, steps: int):
    """The scales of the rows the white-box ``names`` read, one forward
    batch at a time. The first holds the document (1.0), then DeepLIFT's
    all-zero input (0.0) if it is asked, then as many integrated-gradient
    rows m/M (M = ``steps``) as fit ``batch_rows``, as a tuple; the other
    m/M follow as ``np.arange(lo, hi) / M`` arrays of at most that many
    rows, each formed when the batch is asked for, so the plan holds one
    batch whatever M is."""
    first = (1.0, 0.0) if "deeplift" in names else (1.0,)
    last = steps if any(n.startswith("gradint_") for n in names) else 1
    size = batch_rows(params, t_len)
    # the first m outside the head batch
    head = min(max(len(first), size) - len(first) + 1, last)
    yield first + tuple(m / steps for m in range(1, head))
    for lo in range(head, last, size):
        yield np.arange(lo, min(lo + size, last)) / steps


def document_trace(names, params: NetworkParams, ids,
                   steps: int) -> ForwardTrace:
    """The forward trace of ``ids`` over ``row_plan``'s first batch for the
    white-box ``names``: row 0 is the document, so the trace's row-0
    fields read as ``forward(params, ids)``'s."""
    emb = embed(params, ids)
    return forward_embedded(params, emb,
                            next(row_plan(names, params, len(emb),
                                          steps))[1:])


def check_white_box(params: NetworkParams, k: int | None, names,
                    eps: float = DEFAULT_EPS, steps: int = 50) -> None:
    """The checks of ``white_box_pass``'s arguments, and that ``decomp``
    is defined for the model, made before any forward pass; a class ``k``
    of None (the prediction, not yet known) passes."""
    if k is not None and not 0 <= k < params.n_classes:
        raise ValueError(f"class {k} out of range [0, {params.n_classes})")
    if not 0 < eps < np.inf and ("lrp" in names or "deeplift" in names):
        raise ValueError("eps must be positive and finite")
    if steps < 1 and any(n.startswith("gradint_") for n in names):
        raise ValueError("steps must be >= 1")
    if "decomp" in names:
        check_decomp(params.arch)


def white_box_pass(params: NetworkParams, trace: ForwardTrace, k: int,
                   names, eps: float = DEFAULT_EPS,
                   steps: int = 50) -> dict[str, np.ndarray]:
    """What the white-box ``names`` read for class k, from the document's
    ``trace`` and its rows:

    * ``"grad1_o"`` and ``"gradint_o"`` (o = s or p): the (T, d_e) gradient
      of o_k, and its mean over the M = ``steps`` scaled inputs, summed in
      the order m = 1..M;
    * ``"lrp"`` and ``"deeplift"``: the (T,) relevance e_t · demb_t.

    ``trace`` is the ``document_trace`` of ``names`` and ``steps``: it
    holds ``row_plan``'s first batch, and each further batch runs with a
    sweep of its own; the relevance rows ride in the trace's. The arguments
    must pass ``check_white_box``.
    """
    emb = trace.embeddings
    plan = row_plan(names, params, len(emb), steps)
    head = next(plan)
    averaged = {n.split("_")[1] for n in names if n.startswith("gradint_")}
    # sorted outputs keep the row order repeatable
    outputs = sorted({n.split("_")[1] for n in names if n.startswith("grad")})
    rules = [r for r in ("lrp", "deeplift") if r in names]
    if not outputs and not rules:
        return {}

    def batches():
        # (scores, stacked trace, its integrated-gradient rows, its
        # document row)
        yield (trace.batch_scores, trace.batch_dirs,
               range(1 + ("deeplift" in names), len(head)), [0])
        for scales in plan:
            _, scores, dirs = _run(params, scaled_rows(emb, scales),
                                   keep=True)
            yield scores, dirs, range(len(scales)), []

    at_one = {}                         # output -> gradient of the document
    total = {}                          # output -> sum of its rows m < M
    out = {}
    for scores, dirs, ig, doc in batches():
        # per output, its scaled rows in the order m = 1..M, the document
        # (m = M, row 0) last
        here = [(list(ig) if o in averaged else []) + doc for o in outputs]
        rows = [b for h in here for b in h]
        dscores = output_seeds(scores[rows], k,
                               [o for o, h in zip(outputs, here) for _ in h])
        rule = None
        if rules and doc:
            # the document once per relevance method, last
            base, seeds = _rule_rows(params, trace, k, rules, eps)
            rule = RelevanceRule(eps, base, first=len(rows))
            dscores = np.concatenate([dscores, seeds])
            rows += [0] * len(rules)
        demb = sweep(params, None, dirs.take(rows), dscores, rule=rule)[0]
        *blocks, relevance = np.split(demb, np.cumsum([len(h) for h in here]))
        if rule:
            out.update((r, (emb * d).sum(axis=1))
                       for r, d in zip(rules, relevance))
        for o, block in zip(outputs, blocks):
            if doc:
                at_one[o], block = block[-1], block[:-1]
            if len(block):
                part = block.sum(axis=0)
                total[o] = total[o] + part if o in total else part

    out.update((f"grad1_{o}", at_one[o]) for o in outputs)
    out.update((f"gradint_{o}", (total[o] + at_one[o] if o in total
                                 else at_one[o]) / steps) for o in averaged)
    return out


def _rule_rows(params: NetworkParams, trace: ForwardTrace, k: int,
               rules: list[str],
               eps: float) -> tuple[DirectionTrace, np.ndarray]:
    """The reference trace of the relevance rows, one row per rule in
    ``rules``, and their seeds d(root)/d(scores). The trace's row 1 is the
    all-zero input when DeepLIFT is asked; LRP's reference starts from the
    document's row."""
    n = len(rules)
    zero = int("deeplift" in rules)
    roots = np.array([trace.scores[k] - (trace.batch_scores[zero, k]
                                         if r == "deeplift" else 0.0)
                      for r in rules])
    seeds = np.zeros((n, params.n_classes))
    seeds[:, k] = roots / (roots + esign(roots, eps))
    base = trace.batch_dirs.take([zero] * n)
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
    inputs run as the white-box pass's rows, from ``document_trace``.
    """
    cfg = GradConfig("gradint", output, "dot", steps)
    cfg.validate()
    check_white_box(params, k, [cfg.name], steps=steps)
    trace = document_trace([cfg.name], params, ids, steps)
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
    """One gradient map of ``ids``: ``catalog.explain`` of ``cfg.name``."""
    from .catalog import ExplainOptions, explain
    cfg.validate()
    return explain(cfg.name, params, ids, k,
                   ExplainOptions(int_steps=cfg.steps))
