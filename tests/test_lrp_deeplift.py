import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import textexplain as tx
from textexplain.explain import lrp as lrp_module
from textexplain.explain.gradient import GradConfig, explain_gradient
from textexplain.explain.lrp import deeplift_explain, esign, lrp_explain
from textexplain.models import DirectionTrace, _conv_transpose, embed, \
    forward, forward_embedded

from conftest import rand_params


class TestEsign:
    def test_signs(self):
        out = esign(np.array([-2.0, -0.0, 0.0, 3.0]), 0.5)
        np.testing.assert_array_equal(out, [-0.5, 0.5, 0.5, 0.5])

    def test_nonpositive_eps_rejected(self):
        with pytest.raises(ValueError):
            esign(np.array([1.0]), 0.0)


def _positive_relu_cnn(seed=0):
    """Bias-free CNN whose selected windows have positive pre-activations,
    i.e. relu acts as the identity on the pooled path."""
    p = rand_params("CNN", seed=seed, scale=2.0, zero_bias=True)
    return p


class TestCnnEquivalences:
    def test_lrp_matches_grad_dot_on_relu_net(self):
        """On a piecewise-linear (relu, no tanh/sigmoid) network with tiny
        eps, proportional relevance equals gradient x input per token."""
        p = _positive_relu_cnn()
        ids = [1, 2, 3, 4, 5, 6, 7]
        lrp = lrp_explain(p, ids, 1, eps=1e-9)
        gd = explain_gradient(p, ids, 1, GradConfig("grad1", "s", "dot"))
        np.testing.assert_allclose(lrp.scores, gd.scores, rtol=1e-5,
                                   atol=1e-10)
        # identical rankings
        np.testing.assert_array_equal(np.argsort(lrp.scores),
                                      np.argsort(gd.scores))

    def test_deeplift_sum_to_delta_on_bias_free_relu_net(self):
        """Bias-free relu CNN: relevances sum to s(k, X) - s(k, baseline)."""
        p = _positive_relu_cnn(seed=4)
        ids = [1, 2, 3, 4, 5, 6]
        emb = embed(p, ids)
        delta = (forward_embedded(p, emb).scores[0]
                 - forward_embedded(p, np.zeros_like(emb)).scores[0])
        dl = deeplift_explain(p, ids, 0, eps=1e-9)
        assert abs(dl.scores.sum() - delta) <= 1e-6 * max(abs(delta), 1e-12)

    def test_deeplift_equals_lrp_when_baseline_is_dead(self):
        """With zero biases the all-zero baseline produces all-zero
        activations, so the difference rule reduces to the plain rule."""
        p = _positive_relu_cnn(seed=7)
        ids = [2, 4, 6, 8, 10]
        lrp = lrp_explain(p, ids, 1, eps=1e-7)
        dl = deeplift_explain(p, ids, 1, eps=1e-7)
        np.testing.assert_allclose(lrp.scores, dl.scores, atol=1e-12)

    def test_cnn_relevance_local_to_pooled_windows(self):
        """Tokens outside every selected window get exactly zero relevance."""
        p = rand_params("CNN", seed=2, scale=3.0, kernel_width=3)
        ids = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        tr = forward(p, ids)
        half = (p.kernel_width - 1) // 2
        covered = set()
        for t in tr.dirs["fwd"].pool_argmax:
            for off in range(-half, half + 1):
                covered.add(t + off)        # 1-based token positions
        r = lrp_explain(p, ids, 0).scores
        for t in range(1, len(ids) + 1):
            if t not in covered:
                assert r[t - 1] == 0.0


def _conv_relevance_loop(emb, kernel, q, offsets):
    """Reference: Re[t] = e_t * sum_k kernel[k].T @ q[t + off_k], where q is
    (T+1, d) with row 0 unused and kernel slice k multiplies e_{t-k}, so
    e_t feeds the candidates at steps t + off_k."""
    t_len = emb.shape[0]
    re = np.zeros_like(emb)
    for slot, off in enumerate(offsets):
        for t in range(1, t_len + 1):
            tgt = t + off
            if 1 <= tgt <= t_len:
                re[t - 1] += emb[t - 1] * (kernel[slot].T @ q[tgt])
    return re


@pytest.mark.parametrize("t_len", [1, 2, 4, 9])
@pytest.mark.parametrize("f_width", [1, 3, 5])
@pytest.mark.parametrize("centered", [False, True])
def test_conv_relevance_is_the_transposed_conv(t_len, f_width, centered):
    """LRP's convolution relevance, emb * transposed conv, equals the
    per-step loop for the causal (QRNN) and centered (CNN) offsets."""
    rng = np.random.default_rng(t_len * 10 + f_width)
    emb = rng.normal(size=(t_len, 3))
    kernel = rng.normal(size=(f_width, 4, 3))
    q = rng.normal(size=(t_len + 1, 4))
    half = (f_width - 1) // 2
    if centered:
        offsets, left = range(-half, half + 1), half
    else:
        offsets, left = range(f_width), f_width - 1
    got = emb * _conv_transpose(kernel, q[None, 1:], left)[0]
    np.testing.assert_allclose(got, _conv_relevance_loop(emb, kernel, q,
                                                         offsets),
                               rtol=0, atol=1e-12)


class TestGatesAsWeights:
    def test_saturated_gru_gate_blocks_relevance(self):
        """When z saturates to 1, every token's candidate is ignored by the
        forward pass and LRP assigns (near-)zero relevance everywhere."""
        p = rand_params("GRU", scale=2.0)
        p.layers["fwd"]["bz"][:] = 50.0
        r = lrp_explain(p, [1, 2, 3], 0).scores
        np.testing.assert_allclose(r, 0.0, atol=1e-8)

    def test_gates_receive_no_relevance_lstm_t1(self):
        """Single-step LSTM against a hand-derived scalar chain: the gates
        enter multiplicatively but the relevance flows h -> c -> g -> e."""
        p = rand_params("LSTM", d_embed=2, d_hidden=1, seed=9, scale=3.0)
        ids = [3]
        tr = forward(p, ids)
        eps = 1e-3
        w = p.layers["fwd"]
        e = tr.embeddings[0]
        h1 = tr.dirs["fwd"].hidden[1][0]
        c1 = tr.dirs["fwd"].cell[1][0]
        g1 = tr.dirs["fwd"].cand[1][0]
        gp1 = tr.dirs["fwd"].preact[1][0]
        i1 = tr.dirs["fwd"].gates["i"][1][0]
        o1 = tr.dirs["fwd"].gates["o"][1][0]
        s_k = tr.scores[0]

        def stab(a):
            return a + (eps if a >= 0 else -eps)

        r_h = s_k * h1 * p.w_cls[0, 0] / stab(s_k)
        r_c = r_h * np.tanh(c1) * o1 / stab(h1)
        r_g = r_c * g1 * i1 / stab(c1)
        q = r_g / stab(gp1)
        expected = e * (w["V"][0] * q)
        got = lrp_explain(p, ids, 0, eps=eps)
        np.testing.assert_allclose(got.scores, [expected.sum()], rtol=1e-10)


class TestGeneralProperties:
    @pytest.mark.parametrize("arch", tx.ARCHS)
    @pytest.mark.parametrize("fn", [lrp_explain, deeplift_explain])
    def test_shapes_and_determinism(self, arch, fn):
        direction = "uni" if arch == "CNN" else "bi"
        p = rand_params(arch, seed=1, scale=3.0, direction=direction)
        ids = [1, 2, 3, 4, 5]
        a = fn(p, ids, 1)
        b = fn(p, ids, 1)
        assert a.scores.shape == (5,)
        np.testing.assert_array_equal(a.scores, b.scores)
        assert np.all(np.isfinite(a.scores))

    @pytest.mark.parametrize("fn", [lrp_explain, deeplift_explain])
    def test_invalid_class(self, fn):
        with pytest.raises(ValueError):
            fn(rand_params("GRU"), [1, 2], 9)

    @pytest.mark.parametrize("k", [-1, 2])
    @pytest.mark.parametrize("fn", [lrp_explain, deeplift_explain])
    def test_invalid_class_rejected_before_any_forward_pass(
            self, fn, k, monkeypatch):
        def no_forward(*args):
            raise AssertionError("forward pass before the class check")

        monkeypatch.setattr(lrp_module, "forward", no_forward)
        monkeypatch.setattr(lrp_module, "forward_embedded", no_forward)
        with pytest.raises(ValueError, match="out of range"):
            fn(rand_params("GRU", n_classes=2), [1, 2], k)

    @pytest.mark.parametrize("eps", [0.0, -1e-3])
    @pytest.mark.parametrize("fn", [lrp_explain, deeplift_explain])
    def test_nonpositive_eps_rejected_before_any_forward_pass(
            self, fn, eps, monkeypatch):
        def no_forward(*args):
            raise AssertionError("forward pass before the eps check")

        monkeypatch.setattr(lrp_module, "forward", no_forward)
        monkeypatch.setattr(lrp_module, "forward_embedded", no_forward)
        with pytest.raises(ValueError, match="eps must be positive"):
            fn(rand_params("GRU"), [1, 2], 0, eps=eps)

    def test_zero_embedding_input_gives_zero_deeplift(self):
        """If the input equals the baseline, every delta is zero."""
        p = rand_params("GRU", seed=5, scale=3.0)
        p.embedding[7][:] = 0.0
        r = deeplift_explain(p, [7, 7, 7], 0).scores
        np.testing.assert_allclose(r, 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# Oracle: the per-document relevance pass that ``models.sweep`` under a
# ``RelevanceRule`` replaced, kept verbatim as an independent reference
# ---------------------------------------------------------------------------

def _stab(a: np.ndarray, eps: float) -> np.ndarray:
    """a + esign(a, eps) for float64 ``a``; eps is checked once per map."""
    return a + np.where(a < 0, -eps, eps)


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


def _oracle_map(params, ids, k, eps, use_baseline):
    """The per-document relevance pass's map (``_explain`` before the
    sweep took it over)."""
    trace = forward(params, ids)
    base = None
    if use_baseline:
        base = forward_embedded(params, np.zeros_like(trace.embeddings))
    s_k = trace.scores[k]
    if base is None:
        root, doc, den = s_k, trace.doc_repr, s_k
    else:
        root = s_k - base.scores[k]
        doc = trace.doc_repr - base.doc_repr
        den = root
    r_doc = root * doc * params.w_cls[k] / _stab(den, eps)
    d_dir = params.d_hidden
    total = np.zeros(trace.length)
    for pos, dname in enumerate(params.directions):
        per_tok = _backprop_direction(
            params.arch, params.layers[dname], trace.dirs[dname],
            r_doc[pos * d_dir:(pos + 1) * d_dir], eps,
            base.dirs[dname] if base is not None else None)
        if dname == "bwd":
            per_tok = per_tok[::-1]
        total += per_tok
    return total


ARCH_DIRS = [(arch, direction) for arch in tx.ARCHS
             for direction in (("uni",) if arch == "CNN" else ("uni", "bi"))]


@pytest.mark.parametrize("arch_dir", ARCH_DIRS)
@settings(max_examples=15, deadline=None, derandomize=True)
@given(t_len=st.integers(1, 15), k=st.sampled_from([0, 1]),
       eps=st.sampled_from([1e-3, 0.5]), kernel_width=st.sampled_from([3, 5]),
       seed=st.integers(0, 2 ** 16))
@example(t_len=1, k=0, eps=1e-3, kernel_width=5, seed=0)
def test_sweep_rules_match_the_per_document_pass(arch_dir, t_len, k, eps,
                                                  kernel_width, seed):
    """``lrp_explain`` and ``deeplift_explain`` (one rule sweep each) equal
    the per-document relevance pass within 1e-12 of each map's peak."""
    arch, direction = arch_dir
    p = rand_params(arch, seed=seed, scale=3.0, direction=direction,
                    kernel_width=kernel_width)
    ids = np.random.default_rng(seed).integers(0, 20, size=t_len).tolist()
    for fn, use_baseline in ((lrp_explain, False), (deeplift_explain, True)):
        want = _oracle_map(p, ids, k, eps, use_baseline)
        got = fn(p, ids, k, eps=eps).scores
        peak = np.abs(want).max()
        assert np.abs(got - want).max() <= 1e-12 * peak, fn.__name__


@pytest.mark.parametrize("arch_dir", ARCH_DIRS)
@pytest.mark.parametrize("t_len", [1, 2, 5, 12])
def test_relevance_is_conserved_on_bias_free_models(arch_dir, t_len):
    """With every bias zero and a tiny eps, LRP relevances sum to s_k and
    DeepLIFT relevances to s_k(X) - s_k(0), on every architecture."""
    arch, direction = arch_dir
    p = rand_params(arch, seed=t_len, zero_bias=True, scale=3.0,
                    direction=direction)
    ids = [(3 * t + 1) % 20 for t in range(t_len)]
    emb = embed(p, ids)
    s_k = forward_embedded(p, emb).scores[1]
    delta = s_k - forward_embedded(p, np.zeros_like(emb)).scores[1]
    lrp = lrp_explain(p, ids, 1, eps=1e-9).scores.sum()
    dl = deeplift_explain(p, ids, 1, eps=1e-9).scores.sum()
    assert abs(lrp - s_k) <= 1e-3 * abs(s_k)
    assert abs(dl - delta) <= 1e-3 * abs(delta)
