"""Name-keyed dispatch over the full catalog of explanation methods.

``explain_document`` is the one entry point per (document, model): it
gives the class explained and every asked map. The white-box methods share
one pass: ``gradient.document_trace`` runs one forward over the first batch
of the rows they read (``gradient.row_plan``): the document (row 0, whose
scores give the prediction), DeepLIFT's all-zero input, and the
integrated-gradient inputs, into one stacked trace. One sweep
(``gradient.white_box_pass``) over rows taken from it gives exact gradients
for the gradient methods and, under a relevance rule in the trailing rows,
LRP and DeepLIFT; decomposition reads row 0's views. With no class given,
the prediction is read from row 0 of the same trace. Perturbation scores
inputs of its own, and LIMSSE one draw of substrings for every asked
variant (``limsse.limsse_maps``).

``explain_all`` is ``explain_document`` for a given class, ``explain`` its
one-name case, and so are ``lrp_explain``, ``deeplift_explain`` and
``explain_gradient``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..models import NetworkParams
from ..relevance import RelevanceMap
from .decomp import decomp_explain
from .gradient import DEFAULT_EPS, check_white_box, document_trace, \
    reduce_gradients, white_box_pass
from .limsse import DEFAULT_MAX_LEN, DEFAULT_N_SAMPLES, limsse_maps
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


def explain_document(names, params: NetworkParams, ids,
                     opts: ExplainOptions | None = None,
                     k: int | None = None) -> tuple[int, list[RelevanceMap]]:
    """The class explained, ``k`` or the predicted class when ``k`` is
    None, and one map per catalog name for it; the names must pass
    ``check_names``. The arguments are checked before any forward pass."""
    names = list(names)
    check_names(names)
    opts = opts or ExplainOptions()
    white = [name for name in names if _white_box(name)]
    check_white_box(params, k, white, opts.eps, opts.int_steps)
    if white or k is None:
        trace = document_trace(white, params, ids, opts.int_steps)
        k = trace.predicted if k is None else k
    maps = {}
    if white:
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
    for name in names:
        if name in PERTURB_METHODS:
            mode, n = name.rsplit("_", 1)
            cfg = PerturbConfig(mode="omit" if mode == "omit" else "occlude",
                                n=int(n))
            maps[name] = perturb_explain(params, ids, k, cfg)
    limsse = [name for name in names if name in LIMSSE_METHODS]
    if limsse:
        variants = [name[len("limsse_"):] for name in limsse]
        maps.update(zip(limsse, limsse_maps(
            params, ids, k, variants, opts.limsse_n, opts.limsse_maxlen,
            opts.seed)))
    return k, [maps[name] for name in names]


def explain_all(names, params: NetworkParams, ids, k: int,
                opts: ExplainOptions | None = None) -> list[RelevanceMap]:
    """One map per catalog name, for target class ``k``:
    ``explain_document``'s maps."""
    return explain_document(names, params, ids, opts, k)[1]


def explain(name: str, params: NetworkParams, ids, k: int,
            opts: ExplainOptions | None = None) -> RelevanceMap:
    """Run one explanation method by catalog name for target class ``k``:
    ``explain_all`` of that one name."""
    return explain_all([name], params, ids, k, opts)[0]
