"""Gradient × input explainers, and the one white-box pass they share.

The gradient methods are {plain, integrated} x {score, prob} x {L2, dot}.
ε-LRP and DeepLIFT are gradient × input too, under modified local factors
(Ancona et al., ICLR 2018), so every one of them, and cell decomposition,
reads one pass per (document, model), ``white_box_pass``:

* one forward over a stack of rows into one stacked trace: row 0 is the
  document (its scores give the prediction, and decomposition reads its
  net loads from its views), then the all-zero input if DeepLIFT is asked,
  then the integrated-gradient inputs (m/M) E, m = 1..M-1 (row 0 is the
  m = M input, since 1.0 * E == E);
* one sweep over the rows, gathered with repeats, that some method needs:
  exact gradients for one row per (row, output s_k or p_k), then one row
  of the document per relevance method under a ``models.RelevanceRule``
  that governs those trailing rows alone. DeepLIFT's reference is the
  all-zero input's row, LRP's an all-zero activation trace (ε-LRP is
  DeepLIFT-Rescale against it).

``row_plan`` names those rows and splits them into batches of at most
``models.batch_rows``, so that a batch's trace is bounded whatever M is (a
full batch at T = 80 traces 37-99 MB; see ``models.BATCH_CELLS``). The
pass is one loop over those batches, each one ``models._run`` and one
sweep of its own; the first batch's row 0 gives the prediction and
decomposition, the relevance rows ride in its sweep, and no trace leaves
the pass. The plan forms each later batch's scales
``np.arange(lo, hi) / M`` when that batch runs, and the pass adds each
batch's gradient sum to one running sum per averaged output, so memory
does not grow with M.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..models import DirectionTrace, NetworkParams, RelevanceRule, _run, \
    batch_rows, check_class, check_scores, embed, output_seeds, scaled_rows, \
    sweep
from ..numerics import esign, softmax
from ..relevance import RelevanceMap
from .decomp import check_decomp, decomp_scores


DEFAULT_EPS = 1e-3
DEFAULT_INT_STEPS = 50


@dataclass
class GradConfig:
    variant: str = "grad1"      # "grad1" | "gradint"
    output: str = "s"           # "s" | "p"
    reduction: str = "dot"      # "l2" | "dot"
    steps: int = DEFAULT_INT_STEPS  # interpolation points for "gradint"

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


def white_box_pass(params: NetworkParams, ids, k: int | None, names,
                   eps: float = DEFAULT_EPS, steps: int = DEFAULT_INT_STEPS
                   ) -> tuple[int, dict[str, np.ndarray]]:
    """The class explained, ``k`` or the prediction (row 0's) when ``k`` is
    None, and what the white-box ``names`` read for it:

    * each asked name's (T,) map;
    * ``"grad1_o"`` and ``"gradint_o"`` for each output o (s or p) a
      gradient name asks for: the (T, d_e) gradient of o_k, and its mean
      over the M = ``steps`` scaled inputs, summed in the order m = 1..M.

    The arguments, and that ``decomp`` is defined for the model, are
    checked before any forward pass. Each of ``row_plan``'s batches is one
    ``_run`` and one sweep. The first batch's row 0 gives the prediction
    and decomposition (a non-finite score in that batch raises
    ValueError), and the relevance rows ride in its sweep.
    """
    if k is not None:
        check_class(params, k)
    if not 0 < eps < np.inf and ("lrp" in names or "deeplift" in names):
        raise ValueError("eps must be positive and finite")
    if steps < 1 and any(n.startswith("gradint_") for n in names):
        raise ValueError("steps must be >= 1")
    if "decomp" in names:
        check_decomp(params.arch)
    emb = embed(params, ids)
    averaged = {n.split("_")[1] for n in names if n.startswith("gradint_")}
    # sorted outputs keep the row order repeatable
    outputs = sorted({n.split("_")[1] for n in names if n.startswith("grad")})
    rules = [r for r in ("lrp", "deeplift") if r in names]
    out = {}
    at_one = {}                         # output -> gradient of the document
    total = {}                          # output -> sum of its rows m < M
    for b, scales in enumerate(row_plan(names, params, len(emb), steps)):
        _, scores, dirs = _run(params, scaled_rows(emb, scales), keep=True)
        # the batch's integrated-gradient rows, and its document row
        ig, doc = range(len(scales)), []
        if b == 0:
            check_scores(scores)
            k = int(np.argmax(softmax(scores[0]))) if k is None else k
            if "decomp" in names:
                out["decomp"] = decomp_scores(params, dirs, k)
            if not outputs and not rules:
                return k, out
            ig, doc = range(1 + ("deeplift" in names), len(scales)), [0]
        # per output, its scaled rows in the order m = 1..M, the document
        # (m = M, row 0) last
        here = [(list(ig) if o in averaged else []) + doc for o in outputs]
        rows = [r for h in here for r in h]
        dscores = output_seeds(scores[rows], k,
                               [o for o, h in zip(outputs, here) for _ in h])
        rule = None
        if rules and doc:
            # the document once per relevance method, last
            base, seeds = _rule_rows(params, scores, dirs, k, rules, eps)
            rule = RelevanceRule(eps, base, first=len(rows))
            dscores = np.concatenate([dscores, seeds])
            rows += [0] * len(rules)
        demb = sweep(params, dirs.take(rows), dscores, rule)[0]
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
    for name in names:
        if name.startswith("grad"):
            variant, output, reduction = name.split("_")
            out[name] = reduce_gradients(out[f"{variant}_{output}"], emb,
                                         reduction)
    return k, out


def _rule_rows(params: NetworkParams, scores: np.ndarray,
               dirs: DirectionTrace, k: int, rules: list[str],
               eps: float) -> tuple[DirectionTrace, np.ndarray]:
    """The reference trace of the relevance rows, one row per rule in
    ``rules``, and their seeds d(root)/d(scores), from the head batch's
    ``scores`` and stacked trace ``dirs``. Its row 1 is the all-zero input
    when DeepLIFT is asked; LRP's reference starts from the document's
    row."""
    n = len(rules)
    zero = int("deeplift" in rules)
    roots = np.array([scores[0, k] - (scores[zero, k]
                                      if r == "deeplift" else 0.0)
                      for r in rules])
    seeds = np.zeros((n, params.n_classes))
    seeds[:, k] = roots / (roots + esign(roots, eps))
    base = dirs.take([zero] * n)
    if "lrp" in rules:
        for a in (base.hidden, base.cand, base.preact, base.cell):
            if a is not None:
                a[:, rules.index("lrp")] = 0.0
    return base, seeds


def integrated_gradients(params: NetworkParams, ids, output: str, k: int,
                         steps: int = DEFAULT_INT_STEPS) -> np.ndarray:
    """Average gradient over the scaled inputs (m/M) * E, m = 1..M.

    The baseline is the all-zero embedding matrix, so the interpolation is a
    pure scaling of the actual embeddings. The document and its scaled
    inputs run as the white-box pass's rows.
    """
    cfg = GradConfig("gradint", output, "dot", steps)
    cfg.validate()
    return white_box_pass(params, ids, k, [cfg.name],
                          steps=steps)[1][f"gradint_{output}"]


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
