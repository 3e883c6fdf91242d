"""Cell-decomposition explainer for gated (Q)RNNs.

Scores each timestep by how much of its state survives all future gating and
reaches the class score. For the LSTM family the surviving quantity is

    nl(t) = w_k . (o_T * tanh(prod_{j=t+1..T} f_j * c_t))

and for the GRU family

    nl(t) = w_k . (prod_{j=t+1..T} z_j * h_t)

with elementwise products. A token's relevance is the first difference
nl(t) - nl(t-1). The Q-variants use the same formulas over their
convolutionally computed gates. Not defined for the CNN.

Everything is read from the document's forward trace: the suffix products
are one reversed cumulative product over t and each series is one
matrix-vector product. The map is the white-box pass's (``decomp_scores``
of its head batch's row 0), so ``decomp_explain`` is ``catalog.explain`` of
one name, as ``lrp_explain`` and ``deeplift_explain`` are.
"""

from __future__ import annotations

import numpy as np

from ..models import DirectionTrace, ForwardTrace, NetworkParams
from ..relevance import RelevanceMap

_DECOMP_ARCHS = ("LSTM", "QLSTM", "GRU", "QGRU")


def _suffix_gate_products(gates: np.ndarray, t_len: int) -> np.ndarray:
    """prod[t] = elementwise product of gates[t+1..T]; prod[T] = ones."""
    prod = np.ones((t_len + 1, gates.shape[1]))
    # multiplied in the order gates[T], gates[T-1], ..., as the recursion
    # prod[t] = prod[t+1] * gates[t+1] would
    prod[:t_len] = np.cumprod(gates[t_len:0:-1], axis=0)[::-1]
    return prod


def check_decomp(arch: str) -> None:
    """Raise ValueError unless decomposition is defined for ``arch``."""
    if arch not in _DECOMP_ARCHS:
        raise ValueError(f"decomposition undefined for {arch}")


def _series(tr: DirectionTrace, params: NetworkParams, k: int,
            pos: int) -> np.ndarray:
    """nl(t), t = 0..T, of the direction at ``pos`` from its trace ``tr``
    of one row."""
    t_len = tr.emb.shape[0]
    d = params.d_hidden
    w_k = params.w_cls[k, pos * d:(pos + 1) * d]
    if params.arch in ("LSTM", "QLSTM"):
        prod = _suffix_gate_products(tr.gates["f"], t_len)
        o_last = tr.gates["o"][t_len]
        return (o_last * np.tanh(prod * tr.cell)) @ w_k
    prod = _suffix_gate_products(tr.gates["z"], t_len)
    return (prod * tr.hidden) @ w_k


def net_load_series(trace: ForwardTrace, params: NetworkParams, k: int,
                    dname: str) -> np.ndarray:
    """nl(t) for t = 0..T in one direction; nl(0) = 0 under zero init."""
    check_decomp(params.arch)
    return _series(trace.dirs[dname], params, k,
                   params.directions.index(dname))


def net_load(trace: ForwardTrace, params: NetworkParams, k: int,
             t: int, dname: str = "fwd") -> float:
    """Net load of step t (0 <= t <= T) for class k in one direction."""
    series = net_load_series(trace, params, k, dname)
    if not 0 <= t < series.shape[0]:
        raise ValueError(f"t={t} outside [0, {series.shape[0] - 1}]")
    return float(series[t])


def decomp_scores(params: NetworkParams, dirs: DirectionTrace,
                  k: int) -> np.ndarray:
    """First difference of the net-load series of row 0 of the stacked
    trace ``dirs``; bidirectional models sum the per-direction
    decompositions at the original token positions."""
    total = np.zeros(dirs.emb.shape[2])
    for i, dname in enumerate(params.directions):
        phi = np.diff(_series(dirs.at(i, 0), params, k, i))
        total += phi[::-1] if dname == "bwd" else phi
    return total


def decomp_explain(params: NetworkParams, ids, k: int) -> RelevanceMap:
    """The decomposition map of ``ids``: ``catalog.explain`` of
    ``"decomp"``."""
    from .catalog import explain
    return explain("decomp", params, ids, k)
