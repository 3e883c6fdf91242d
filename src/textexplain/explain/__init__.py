"""Explanation methods: gradient-based, relevance propagation, cell
decomposition, input perturbation, and substring-surrogate fitting."""

from .catalog import METHOD_NAMES, ExplainOptions, check_names, explain, \
    explain_document
from .gradient import GradConfig, explain_gradient, integrated_gradients, \
    reduce_gradients
from .lrp import deeplift_explain, esign, lrp_explain
from .decomp import decomp_explain, net_load
from .perturb import PerturbConfig, perturb_explain
from .limsse import SubstringSample, fit_blackbox, fit_magnitude, \
    limsse_explain, limsse_maps, sample_substrings

__all__ = [
    "METHOD_NAMES", "ExplainOptions", "check_names", "explain",
    "explain_document",
    "GradConfig", "explain_gradient", "integrated_gradients",
    "reduce_gradients",
    "deeplift_explain", "esign", "lrp_explain",
    "decomp_explain", "net_load",
    "PerturbConfig", "perturb_explain",
    "SubstringSample", "fit_blackbox", "fit_magnitude", "limsse_explain",
    "limsse_maps", "sample_substrings",
]
