import numpy as np
import pytest

from textexplain.explain.limsse import SubstringSample, _design, \
    fit_blackbox, fit_magnitude, limsse_explain, sample_substrings, \
    surrogate_fit
from textexplain.models import forward
from textexplain.numerics import SeededRng, sigmoid

from conftest import rand_params


class TestSampling:
    def test_samples_are_contiguous_and_in_bounds(self):
        t_len = 9
        for s in sample_substrings(SeededRng(0), t_len, 500, l_max=6):
            assert 1 <= s.length <= 6
            assert 0 <= s.start
            assert s.start + s.length <= t_len
            cov = s.coverage(t_len)
            on = np.flatnonzero(cov)
            assert on.size == s.length
            assert np.all(np.diff(on) == 1)

    @pytest.mark.parametrize("t_len", [1, 6, 80])
    def test_design_equals_stacked_coverage(self, t_len):
        samples = sample_substrings(SeededRng(t_len), t_len, 3000, l_max=6)
        z = _design(samples, t_len)
        assert z.dtype == np.float64
        assert np.array_equal(z, np.stack([s.coverage(t_len)
                                           for s in samples]))

    def test_length_capped_by_sequence(self):
        for s in sample_substrings(SeededRng(1), 3, 200, l_max=6):
            assert s.length <= 3

    def test_length_distribution_uniform(self):
        draws = sample_substrings(SeededRng(2), 20, 60_000, l_max=6)
        counts = np.bincount([s.length for s in draws], minlength=7)[1:]
        n = len(draws)
        sigma = np.sqrt(n * (1 / 6) * (5 / 6))
        assert np.all(np.abs(counts - n / 6) < 4 * sigma)

    def test_start_uniform_given_length(self):
        draws = [s for s in sample_substrings(SeededRng(3), 10, 60_000,
                                              l_max=6) if s.length == 4]
        counts = np.bincount([s.start for s in draws], minlength=7)
        n = len(draws)
        sigma = np.sqrt(n * (1 / 7) * (6 / 7))
        assert np.all(np.abs(counts - n / 7) < 4 * sigma)

    def test_deterministic(self):
        a = sample_substrings(SeededRng(5), 8, 50)
        b = sample_substrings(SeededRng(5), 8, 50)
        assert [(s.start, s.length) for s in a] == \
            [(s.start, s.length) for s in b]

    def test_errors(self):
        with pytest.raises(ValueError):
            sample_substrings(SeededRng(0), 0, 10)
        with pytest.raises(ValueError):
            sample_substrings(SeededRng(0), 5, 0)


def enumerate_all_substrings(t_len, l_max):
    out = []
    for length in range(1, min(l_max, t_len) + 1):
        for start in range(t_len - length + 1):
            out.append(SubstringSample(start=start, length=length))
    return out


class TestFitMagnitude:
    def test_exact_recovery_of_planted_linear_model(self):
        """Responses generated by a known additive model are recovered to
        machine precision when the design has full rank and ridge is 0."""
        rng = np.random.default_rng(0)
        t_len = 7
        v_true = rng.normal(size=t_len)
        intercept = 0.7
        samples = enumerate_all_substrings(t_len, 4)
        z = np.stack([s.coverage(t_len) for s in samples])
        y = z @ v_true + intercept
        got = fit_magnitude(z, y, ridge=0.0)
        np.testing.assert_allclose(got, v_true, atol=1e-9)

    def test_intercept_absorbs_constant_shift(self):
        rng = np.random.default_rng(1)
        samples = enumerate_all_substrings(6, 3)
        z = np.stack([s.coverage(6) for s in samples])
        y = rng.normal(size=z.shape[0])
        a = fit_magnitude(z, y)
        b = fit_magnitude(z, y + 100.0)
        np.testing.assert_allclose(a, b, atol=1e-6)

    def test_singular_design_rejected_at_zero_ridge(self):
        z = np.zeros((5, 4))
        z[:, 0] = 1.0
        with pytest.raises(np.linalg.LinAlgError):
            fit_magnitude(z, np.ones(5), ridge=0.0)

    def test_uncovered_positions_are_exactly_zero(self):
        rng = np.random.default_rng(2)
        z = np.zeros((30, 5))
        z[:, :3] = rng.integers(0, 2, size=(30, 3)).astype(float)
        y = rng.normal(size=30)
        got = fit_magnitude(z, y)
        assert got[3] == 0.0 and got[4] == 0.0


class TestFitBlackbox:
    def test_constant_labels_give_zero_weights(self):
        z = np.stack([s.coverage(5) for s in enumerate_all_substrings(5, 3)])
        got = fit_blackbox(z, np.ones(z.shape[0]))
        # the intercept absorbs the constant labels; slopes stay near zero
        np.testing.assert_allclose(got, 0.0, atol=1e-2)

    def test_single_token_design_matches_analytic_logit(self):
        """One covered position, balanced labels depending on coverage: the
        fitted slope approaches the log-odds separation (bounded by ridge)."""
        z = np.array([[1.0], [1.0], [0.0], [0.0]] * 50)
        y = np.array([1.0, 1.0, 0.0, 0.0] * 50)
        v = fit_blackbox(z, y, ridge=1e-4)
        # perfect separation: slope grows large and positive
        assert v[0] > 3.0

    def test_planted_logistic_model_recovered(self):
        rng = np.random.default_rng(3)
        t_len = 6
        v_true = np.array([2.5, -1.0, 0.0, 1.5, -2.0, 0.5])
        samples = enumerate_all_substrings(t_len, 4) * 40
        z = np.stack([s.coverage(t_len) for s in samples])
        probs = sigmoid(z @ v_true - 0.3)
        y = (rng.uniform(size=z.shape[0]) < probs).astype(float)
        got = fit_blackbox(z, y, ridge=1e-4)
        assert np.corrcoef(got, v_true)[0, 1] > 0.9

    def test_uncovered_positions_are_exactly_zero(self):
        z = np.zeros((40, 4))
        z[:, 0] = np.tile([1.0, 0.0], 20)
        y = z[:, 0]
        got = fit_blackbox(z, y)
        assert np.all(got[1:] == 0.0)


class TestSurrogateFit:
    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            surrogate_fit([], np.array([]), "ms_q", 3)


def keyword_detector_cnn():
    """Handcrafted CNN that scores class 1 by the presence of token 2 and
    class 0 by token 1."""
    p = rand_params("CNN", vocab_size=10, d_embed=4, d_hidden=2,
                    kernel_width=3, scale=0.0, zero_bias=True)
    p.embedding[:] = 0.0
    p.embedding[1, 0] = 1.0
    p.embedding[2, 1] = 1.0
    for name in p.layers["fwd"]:
        p.layers["fwd"][name][:] = 0.0
    # centre kernel slice reads the token's own embedding
    p.layers["fwd"]["K"][1, 0, 0] = 4.0     # channel 0 fires on token 1
    p.layers["fwd"]["K"][1, 1, 1] = 4.0     # channel 1 fires on token 2
    p.w_cls[:] = np.array([[1.0, 0.0], [0.0, 1.0]])
    p.b_cls[:] = 0.0
    return p


class TestLimsseExplain:
    def test_ms_s_pinpoints_keyword(self):
        p = keyword_detector_cnn()
        ids = [5, 5, 2, 5, 5, 5]
        r = limsse_explain(p, ids, 1, variant="ms_s", n=800, seed=0)
        assert int(np.argmax(r.scores)) == 2
        assert r.scores[2] > 1.0
        others = np.delete(r.scores, 2)
        assert np.all(np.abs(others) < 0.3)

    def test_ms_s_exact_on_keyword_free_document(self):
        """Without the keyword every substring scores exactly zero, so the
        fully enumerated least-squares surrogate is exactly zero too."""
        p = keyword_detector_cnn()
        ids = [5, 5, 5, 5]
        samples = enumerate_all_substrings(4, 4)
        z = np.stack([s.coverage(4) for s in samples])
        y = np.array([forward(p, ids[s.start:s.start + s.length]).scores[1]
                      for s in samples])
        got = fit_magnitude(z, y, ridge=0.0)
        np.testing.assert_allclose(got, 0.0, atol=1e-9)

    def test_bb_pinpoints_keyword(self):
        p = keyword_detector_cnn()
        # ties in prediction go to class 0, so substrings without token 2
        # predict 0 and those with it predict 1
        ids = [5, 2, 5, 5, 5]
        r = limsse_explain(p, ids, 1, variant="bb", n=800, seed=1)
        assert int(np.argmax(r.scores)) == 1

    def test_ms_p_pinpoints_keyword(self):
        p = keyword_detector_cnn()
        ids = [5, 5, 5, 2, 5]
        r = limsse_explain(p, ids, 1, variant="ms_p", n=800, seed=2)
        assert int(np.argmax(r.scores)) == 3

    def test_deterministic_given_seed(self):
        p = rand_params("GRU", seed=3, scale=3.0)
        a = limsse_explain(p, [1, 2, 3, 4], 0, n=100, seed=7)
        b = limsse_explain(p, [1, 2, 3, 4], 0, n=100, seed=7)
        np.testing.assert_array_equal(a.scores, b.scores)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            limsse_explain(rand_params("GRU"), [1, 2], 0, variant="xx")

    def test_method_names(self):
        p = rand_params("GRU", seed=1, scale=2.0)
        for variant in ("bb", "ms_s", "ms_p"):
            r = limsse_explain(p, [1, 2, 3], 0, variant=variant, n=50)
            assert r.method == f"limsse_{variant}"
