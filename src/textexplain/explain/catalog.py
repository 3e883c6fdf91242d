"""Name-keyed dispatch over the full catalog of explanation methods.

The white-box methods of one (document, model) share one pass: one forward
and one sweep. ``document_trace`` runs the forward over the first batch of
the rows the asked methods read (``gradient.row_plan``): the document (row
0, whose scores give the prediction), DeepLIFT's all-zero input, and the
integrated-gradient inputs, into one stacked trace. ``explain_all`` then
runs one sweep (``gradient.white_box_pass``) over rows taken from it, which
give exact gradients for the gradient methods and, under a relevance rule
in the trailing rows, LRP and DeepLIFT; decomposition reads row 0's views.
Perturbation and LIMSSE score inputs of their own.

``explain_all`` takes the trace as an optional argument; with none it runs
``document_trace``. A trace that does not start with the plan's first batch
(a plain forward trace, or one built for another ``int_steps``) runs again
from the plan in one forward.
``explain`` is its one-name case, and so are ``lrp_explain``,
``deeplift_explain`` and ``explain_gradient``. A trace that does not belong to
``params`` and ``ids`` is rejected, so it can never yield a map of another
input.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..models import ForwardTrace, NetworkParams, check_trace, embed, \
    forward_embedded
from ..relevance import RelevanceMap
from .decomp import decomp_explain
from .gradient import DEFAULT_EPS, check_white_box, reduce_gradients, \
    row_plan, white_box_pass
from .limsse import DEFAULT_MAX_LEN, DEFAULT_N_SAMPLES, limsse_explain
from .perturb import PerturbConfig, perturb_explain

GRADIENT_METHODS = tuple(
    f"{variant}_{output}_{reduction}"
    for variant in ("grad1", "gradint")
    for output in ("s", "p")
    for reduction in ("l2", "dot")
)
PERTURB_METHODS = tuple(f"{mode}_{n}" for mode in ("omit", "occ")
                        for n in (1, 3, 7))
LIMSSE_METHODS = ("limsse_bb", "limsse_ms_s", "limsse_ms_p")

METHOD_NAMES = (GRADIENT_METHODS + ("lrp", "deeplift", "decomp")
                + PERTURB_METHODS + LIMSSE_METHODS)


@dataclass
class ExplainOptions:
    eps: float = DEFAULT_EPS
    int_steps: int = 50
    limsse_n: int = DEFAULT_N_SAMPLES
    limsse_maxlen: int = DEFAULT_MAX_LEN
    seed: int = 0


def check_names(names) -> None:
    """Raise ValueError on a name outside the catalog or named twice (an
    evaluation would count it twice per document)."""
    for i, name in enumerate(names):
        if name not in METHOD_NAMES:
            raise ValueError(f"unknown explanation method {name!r}")
        if name in names[:i]:
            raise ValueError(f"explanation method {name!r} named twice")


def _white_box(name: str) -> bool:
    return name in GRADIENT_METHODS or name in ("lrp", "deeplift", "decomp")


def document_trace(names, params: NetworkParams, ids,
                   opts: ExplainOptions | None = None) -> ForwardTrace:
    """The forward trace of ``ids`` over the first batch of the rows the
    white-box methods among ``names`` read (``gradient.row_plan``): row 0
    is the document, so the trace's row-0 fields read as
    ``forward(params, ids)``'s."""
    opts = opts or ExplainOptions()
    emb = embed(params, ids)
    return forward_embedded(params, emb, row_plan(
        names, params, len(emb), opts.int_steps)[0][1:])


def explain_all(names, params: NetworkParams, ids, k: int,
                opts: ExplainOptions | None = None,
                trace: ForwardTrace | None = None) -> list[RelevanceMap]:
    """One map per catalog name, for target class ``k``; the names must
    pass ``check_names``.

    ``trace``, when given, must be a forward trace of ``ids`` under
    ``params`` (``forward`` or ``document_trace``): its architecture and
    embeddings are checked (ValueError otherwise), and the white-box
    methods read it.
    """
    names = list(names)
    if not 0 <= k < params.n_classes:
        raise ValueError(f"class {k} out of range [0, {params.n_classes})")
    check_names(names)
    if trace is not None:
        check_trace(params, ids, trace)
    opts = opts or ExplainOptions()
    white = [name for name in names if _white_box(name)]
    maps = {}
    if white:
        check_white_box(params, k, white, opts.eps, opts.int_steps)
        if trace is None:
            trace = document_trace(white, params, ids, opts)
        if "decomp" in white:
            maps["decomp"] = decomp_explain(params, ids, k, trace=trace)
        raw = white_box_pass(params, trace, k, white, opts.eps,
                             opts.int_steps)
        for name in white:
            if name in GRADIENT_METHODS:
                variant, output, reduction = name.split("_")
                scores = reduce_gradients(raw[f"{variant}_{output}"],
                                          trace.embeddings, reduction)
                maps[name] = RelevanceMap(scores=scores, k=k, method=name)
            elif name != "decomp":
                maps[name] = RelevanceMap(scores=raw[name], k=k, method=name)
    return [maps[name] if name in maps else _black_box(name, params, ids, k,
                                                       opts)
            for name in names]


def _black_box(name: str, params: NetworkParams, ids, k: int,
               opts: ExplainOptions) -> RelevanceMap:
    if name in PERTURB_METHODS:
        mode, n = name.rsplit("_", 1)
        cfg = PerturbConfig(mode="omit" if mode == "omit" else "occlude",
                            n=int(n))
        return perturb_explain(params, ids, k, cfg)
    variant = name[len("limsse_"):]
    return limsse_explain(params, ids, k, variant=variant, n=opts.limsse_n,
                          l_max=opts.limsse_maxlen, seed=opts.seed)


def explain(name: str, params: NetworkParams, ids, k: int,
            opts: ExplainOptions | None = None,
            trace: ForwardTrace | None = None) -> RelevanceMap:
    """Run one explanation method by catalog name for target class ``k``:
    ``explain_all`` of that one name."""
    return explain_all([name], params, ids, k, opts, trace)[0]
