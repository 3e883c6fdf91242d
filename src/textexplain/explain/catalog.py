"""Name-keyed dispatch over the full catalog of explanation methods.

``explain`` takes the document's forward trace as an optional argument. A
caller that already ran ``forward(params, ids)`` for the prediction passes
that trace, and every white-box method reads it in place of its own forward
pass: plain gradients run only their reverse sweep, LRP and decomposition
only their backward pass, and DeepLIFT adds its baseline's forward pass.
Integrated gradients, perturbation and LIMSSE score inputs of their own and
ignore it. A trace that does not belong to ``params`` and ``ids`` is
rejected, so it can never yield a map of another input.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..models import ForwardTrace, NetworkParams, check_trace
from ..relevance import RelevanceMap
from .decomp import decomp_explain
from .gradient import GradConfig, explain_gradient
from .limsse import DEFAULT_MAX_LEN, DEFAULT_N_SAMPLES, limsse_explain
from .lrp import DEFAULT_EPS, deeplift_explain, lrp_explain
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


def explain(name: str, params: NetworkParams, ids, k: int,
            opts: ExplainOptions | None = None,
            trace: ForwardTrace | None = None) -> RelevanceMap:
    """Run one explanation method by catalog name for target class ``k``.

    ``trace``, when given, must be ``forward(params, ids)``: its
    architecture and embeddings are checked (ValueError otherwise), and the
    white-box methods reuse it.
    """
    if not 0 <= k < params.n_classes:
        raise ValueError(f"class {k} out of range [0, {params.n_classes})")
    if trace is not None:
        check_trace(params, ids, trace)
    opts = opts or ExplainOptions()
    if name in GRADIENT_METHODS:
        variant, output, reduction = name.split("_")
        cfg = GradConfig(variant=variant, output=output, reduction=reduction,
                         steps=opts.int_steps)
        return explain_gradient(params, ids, k, cfg, trace=trace)
    if name == "lrp":
        return lrp_explain(params, ids, k, eps=opts.eps, trace=trace)
    if name == "deeplift":
        return deeplift_explain(params, ids, k, eps=opts.eps, trace=trace)
    if name == "decomp":
        return decomp_explain(params, ids, k, trace=trace)
    if name in PERTURB_METHODS:
        mode, n = name.rsplit("_", 1)
        cfg = PerturbConfig(mode="omit" if mode == "omit" else "occlude",
                            n=int(n))
        return perturb_explain(params, ids, k, cfg)
    if name in LIMSSE_METHODS:
        variant = name[len("limsse_"):]
        return limsse_explain(params, ids, k, variant=variant,
                              n=opts.limsse_n, l_max=opts.limsse_maxlen,
                              seed=opts.seed)
    raise ValueError(f"unknown explanation method {name!r}")
