import numpy as np
import pytest

import textexplain as tx
from textexplain.explain import lrp as lrp_module
from textexplain.explain.gradient import GradConfig, explain_gradient
from textexplain.explain.lrp import deeplift_explain, esign, lrp_explain, \
    relevance_dense
from textexplain.models import _conv_transpose, embed, forward, \
    forward_embedded

from conftest import rand_params


class TestEsign:
    def test_signs(self):
        out = esign(np.array([-2.0, -0.0, 0.0, 3.0]), 0.5)
        np.testing.assert_array_equal(out, [-0.5, 0.5, 0.5, 0.5])

    def test_nonpositive_eps_rejected(self):
        with pytest.raises(ValueError):
            esign(np.array([1.0]), 0.0)


class TestRelevanceDense:
    def test_identity_layer_passthrough(self):
        r_out = np.array([2.0, -1.0])
        a_in = np.array([3.0, 4.0])
        w = np.eye(2)
        # pre-activation equals a_in; tiny eps barely perturbs the ratio
        got = relevance_dense(r_out, a_in, w, a_in, eps=1e-9)
        np.testing.assert_allclose(got, r_out, rtol=1e-8)

    def test_conservation_without_bias(self):
        """With zero bias the pre-activation is exactly sum_i a_i w_ij, so
        relevance is conserved up to the stabilizer."""
        rng = np.random.default_rng(0)
        a_in = rng.normal(size=5)
        w = rng.normal(size=(3, 5))
        pre = w @ a_in
        r_out = rng.normal(size=3)
        got = relevance_dense(r_out, a_in, w, pre, eps=1e-10)
        assert abs(got.sum() - r_out.sum()) < 1e-7

    def test_shape_check(self):
        with pytest.raises(ValueError):
            relevance_dense(np.zeros(3), np.zeros(4), np.zeros((3, 5)),
                            np.zeros(3), eps=1e-3)

    def test_difference_rule(self):
        a_in = np.array([1.0, 2.0])
        base = np.array([0.5, 0.5])
        w = np.array([[1.0, 1.0]])
        pre = w @ a_in
        pre_base = w @ base
        got = relevance_dense(np.array([2.0]), a_in, w, pre, eps=1e-12,
                              a_in_base=base, a_out_pre_base=pre_base)
        np.testing.assert_allclose(got, 2.0 * np.array([0.5, 1.5]) / 2.0,
                                   rtol=1e-9)


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
