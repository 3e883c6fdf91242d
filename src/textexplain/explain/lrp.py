"""Relevance backpropagation explainers.

Both methods distribute the relevance of a neuron to its upstream neurons in
proportion to each input's contribution to the stabilized pre-activation:

    R(i) = sum_j R(j) * a_i w_ij / (a'_j + esign(a'_j))

Sigmoid gates are treated as timestep-specific weights, not as neurons: they
multiply numerators but never receive relevance themselves. The difference
variant starts from s(k, X) - s(k, X0) for an all-zero-embedding baseline X0
and replaces activations by their differences from the baseline forward pass
(gates stay at their actual-input values).

Both read the forward trace of the input, which the caller may pass in to
share one forward pass between the prediction and several methods; the
baseline forward pass of the difference variant is always run here.
"""

from __future__ import annotations

import numpy as np

from ..models import DirectionTrace, ForwardTrace, NetworkParams, \
    _conv_transpose, forward, forward_embedded
from ..relevance import RelevanceMap

DEFAULT_EPS = 1e-3


def esign(a, eps: float):
    """Sign-preserving stabilizer: -eps where a < 0, +eps otherwise."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    return np.where(np.asarray(a, dtype=np.float64) < 0, -eps, eps)


def _stab(a: np.ndarray, eps: float) -> np.ndarray:
    """a + esign(a, eps) for float64 ``a``; eps is checked once per map."""
    return a + np.where(a < 0, -eps, eps)


def relevance_dense(r_out: np.ndarray, a_in: np.ndarray, w: np.ndarray,
                    a_out_pre: np.ndarray, eps: float,
                    a_in_base: np.ndarray | None = None,
                    a_out_pre_base: np.ndarray | None = None) -> np.ndarray:
    """Backpropagate relevance through a dense layer out = w @ a_in + b.

    Passing baselines switches to the difference rule (numerators and
    denominators become deltas from the baseline forward pass).
    """
    if w.shape != (r_out.shape[0], a_in.shape[0]):
        raise ValueError("weight shape inconsistent with activations")
    num_in = a_in if a_in_base is None else a_in - a_in_base
    den = a_out_pre if a_out_pre_base is None else a_out_pre - a_out_pre_base
    return num_in * (w.T @ (r_out / (den + esign(den, eps))))


def _diff(tr: DirectionTrace, base: DirectionTrace | None):
    """(dh, dg, dgp, dc, dtanh_c): activations or their baseline deltas."""
    if base is None:
        dtc = None if tr.cell is None else np.tanh(tr.cell)
        return tr.hidden, tr.cand, tr.preact, tr.cell, dtc
    dh = tr.hidden - base.hidden
    dg = tr.cand - base.cand
    dgp = tr.preact - base.preact
    dc = None if tr.cell is None else tr.cell - base.cell
    dtc = (None if tr.cell is None
           else np.tanh(tr.cell) - np.tanh(base.cell))
    return dh, dg, dgp, dc, dtc


def _backprop_direction(arch: str, w: dict[str, np.ndarray],
                        tr: DirectionTrace, r_htop: np.ndarray, eps: float,
                        base: DirectionTrace | None) -> np.ndarray:
    """Returns per-token embedding relevance sums, shape (T,), in the
    direction's own order."""
    t_len = tr.emb.shape[0]
    dh, dg, dgp, dc, dtc = _diff(tr, base)

    def conv_relevance(rg, left):
        # per-token share of the conv candidates' relevance rg (rows 1..T):
        # e_t times the transposed convolution of rg / denominator
        q = rg[1:] / _stab(dgp[1:], eps)
        re = tr.emb * _conv_transpose(w["K"], q[None], left)[0]
        return re.sum(axis=1)

    if arch == "GRU":
        z, r = tr.gates["z"], tr.gates["r"]
        re = np.zeros_like(tr.emb)
        rh = r_htop
        for t in range(t_len, 0, -1):
            rg = rh * dg[t] * (1.0 - z[t]) / _stab(dh[t], eps)
            q = rg / _stab(dgp[t], eps)
            re[t - 1] = tr.emb[t - 1] * (w["V"].T @ q)
            rh = (rh * dh[t - 1] * z[t] / _stab(dh[t], eps)
                  + dh[t - 1] * r[t] * (w["U"].T @ q))
        return re.sum(axis=1)

    if arch == "LSTM":
        i, f, o = tr.gates["i"], tr.gates["f"], tr.gates["o"]
        re = np.zeros_like(tr.emb)
        rh = r_htop
        rc_next = np.zeros_like(r_htop)
        for t in range(t_len, 0, -1):
            rc = rh * dtc[t] * o[t] / _stab(dh[t], eps)
            if t < t_len:
                rc += rc_next * dc[t] * f[t + 1] / _stab(dc[t + 1], eps)
            rg = rc * dg[t] * i[t] / _stab(dc[t], eps)
            q = rg / _stab(dgp[t], eps)
            re[t - 1] = tr.emb[t - 1] * (w["V"].T @ q)
            rh = dh[t - 1] * (w["U"].T @ q)
            rc_next = rc
        return re.sum(axis=1)

    if arch == "QGRU":
        z = tr.gates["z"]
        d = dh.shape[1]
        rg = np.zeros((t_len + 1, d))
        rh = r_htop
        for t in range(t_len, 0, -1):
            rg[t] = rh * dg[t] * (1.0 - z[t]) / _stab(dh[t], eps)
            rh = rh * dh[t - 1] * z[t] / _stab(dh[t], eps)
        return conv_relevance(rg, w["K"].shape[0] - 1)

    if arch == "QLSTM":
        i, f, o = tr.gates["i"], tr.gates["f"], tr.gates["o"]
        d = dh.shape[1]
        rg = np.zeros((t_len + 1, d))
        rc_next = np.zeros(d)
        for t in range(t_len, 0, -1):
            rh = r_htop if t == t_len else 0.0
            rc = rh * dtc[t] * o[t] / _stab(dh[t], eps)
            if t < t_len:
                rc = rc + rc_next * dc[t] * f[t + 1] / _stab(dc[t + 1], eps)
            rg[t] = rc * dg[t] * i[t] / _stab(dc[t], eps)
            rc_next = rc
        return conv_relevance(rg, w["K"].shape[0] - 1)

    if arch == "CNN":
        d = dh.shape[1]
        rg = np.zeros((t_len + 1, d))
        cols = np.arange(d)
        rg[tr.pool_argmax, cols] = r_htop
        return conv_relevance(rg, (w["K"].shape[0] - 1) // 2)

    raise ValueError(f"unknown architecture {arch!r}")


def _explain(params: NetworkParams, ids, k: int, eps: float,
             use_baseline: bool, method: str,
             trace: ForwardTrace | None) -> RelevanceMap:
    n_classes = params.n_classes
    if not 0 <= k < n_classes:
        raise ValueError(f"class {k} out of range [0, {n_classes})")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if trace is None:
        trace = forward(params, ids)
    base: ForwardTrace | None = None
    if use_baseline:
        base = forward_embedded(params, np.zeros_like(trace.embeddings))

    s_k = trace.scores[k]
    if base is None:
        root = s_k
        doc = trace.doc_repr
        den = s_k
    else:
        root = s_k - base.scores[k]
        doc = trace.doc_repr - base.doc_repr
        den = root
    r_doc = root * doc * params.w_cls[k] / _stab(den, eps)

    d_dir = params.d_hidden
    total = np.zeros(trace.length)
    for pos, dname in enumerate(params.directions):
        r_htop = r_doc[pos * d_dir:(pos + 1) * d_dir]
        per_tok = _backprop_direction(
            params.arch, params.layers[dname], trace.dirs[dname], r_htop,
            eps, base.dirs[dname] if base is not None else None)
        if dname == "bwd":
            per_tok = per_tok[::-1]
        total += per_tok
    return RelevanceMap(scores=total, k=k, method=method)


def lrp_explain(params: NetworkParams, ids, k: int, eps: float = DEFAULT_EPS,
                trace: ForwardTrace | None = None) -> RelevanceMap:
    """Stabilized proportional relevance backpropagation of s(k, X).

    ``trace`` is ``forward(params, ids)`` if the caller has it."""
    return _explain(params, ids, k, eps, use_baseline=False, method="lrp",
                    trace=trace)


def deeplift_explain(params: NetworkParams, ids, k: int,
                     eps: float = DEFAULT_EPS,
                     trace: ForwardTrace | None = None) -> RelevanceMap:
    """Difference-from-baseline relevance backpropagation of
    s(k, X) - s(k, X0), baseline X0 = all-zero embeddings.

    ``trace`` is ``forward(params, ids)`` if the caller has it; the
    baseline's forward pass is run here."""
    return _explain(params, ids, k, eps, use_baseline=True, method="deeplift",
                    trace=trace)
