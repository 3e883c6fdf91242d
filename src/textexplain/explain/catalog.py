"""Name-keyed dispatch over the full catalog of explanation methods.

``explain_document`` is the one entry point per (document, model): it
gives the class explained and every asked map. The white-box methods
(gradient, LRP, DeepLIFT and decomposition) share one call,
``gradient.white_box_pass``: one forward over the rows they read, whose
row 0 gives the prediction when no class is given, and one sweep.
Perturbation scores inputs of its own, and LIMSSE one draw of substrings
for every asked variant (``limsse.limsse_maps``). Each explainer checks
its own arguments before its first forward pass.

``explain`` is ``explain_document`` of one name for a given class, and so
are ``lrp_explain``, ``deeplift_explain`` and ``explain_gradient``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..models import NetworkParams
from ..relevance import RelevanceMap
from .gradient import DEFAULT_EPS, DEFAULT_INT_STEPS, white_box_pass
from .limsse import DEFAULT_MAX_LEN, DEFAULT_N_SAMPLES, VARIANTS, limsse_maps
from .perturb import PerturbConfig, perturb_explain

GRADIENT_METHODS = tuple(
    f"{variant}_{output}_{reduction}"
    for variant in ("grad1", "gradint")
    for output in ("s", "p")
    for reduction in ("l2", "dot")
)
WHITE_BOX_METHODS = GRADIENT_METHODS + ("lrp", "deeplift", "decomp")
PERTURB_METHODS = {cfg.name: cfg for cfg in (
    PerturbConfig(mode, n) for mode in ("omit", "occlude") for n in (1, 3, 7))}
LIMSSE_METHODS = {f"limsse_{variant}": variant for variant in VARIANTS}

METHOD_NAMES = (*WHITE_BOX_METHODS, *PERTURB_METHODS, *LIMSSE_METHODS)


@dataclass
class ExplainOptions:
    eps: float = DEFAULT_EPS
    int_steps: int = DEFAULT_INT_STEPS
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


def explain_document(names, params: NetworkParams, ids,
                     opts: ExplainOptions | None = None,
                     k: int | None = None) -> tuple[int, list[RelevanceMap]]:
    """The class explained, ``k`` or the predicted class when ``k`` is
    None, and one map per catalog name for it; the names must pass
    ``check_names``. The white-box pass runs when a white-box name is
    asked or ``k`` is None; given ``k``, black-box names alone run no
    traced forward."""
    names = list(names)
    check_names(names)
    opts = opts or ExplainOptions()
    white = [name for name in names if name in WHITE_BOX_METHODS]
    maps = {}
    if white or k is None:
        k, raw = white_box_pass(params, ids, k, white, opts.eps,
                                opts.int_steps)
        maps = {name: RelevanceMap(scores=raw[name], k=k, method=name)
                for name in white}
    for name in names:
        if name in PERTURB_METHODS:
            maps[name] = perturb_explain(params, ids, k, PERTURB_METHODS[name])
    limsse = [name for name in names if name in LIMSSE_METHODS]
    if limsse:
        maps.update(zip(limsse, limsse_maps(
            params, ids, k, [LIMSSE_METHODS[name] for name in limsse],
            opts.limsse_n, opts.limsse_maxlen, opts.seed)))
    return k, [maps[name] for name in names]


def explain(name: str, params: NetworkParams, ids, k: int,
            opts: ExplainOptions | None = None) -> RelevanceMap:
    """Run one explanation method by catalog name for target class ``k``:
    ``explain_document`` of that one name."""
    return explain_document([name], params, ids, opts, k)[1][0]
