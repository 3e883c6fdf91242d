import numpy as np
import pytest

from textexplain.numerics import SeededRng, sigmoid, softmax


class TestActivation:
    def test_sigmoid_at_zero(self):
        assert sigmoid(np.array([0.0]))[0] == 0.5

    def test_against_high_precision_reference(self):
        import mpmath
        xs = np.array([-20.0, -3.3, -0.7, 0.0, 0.2, 4.1, 15.0])
        sig_ref = np.array([float(1 / (1 + mpmath.exp(-mpmath.mpf(x))))
                            for x in xs])
        np.testing.assert_allclose(sigmoid(xs), sig_ref, atol=1e-12)

    def test_sigmoid_equals_two_branch_form_bitwise(self):
        """The branch-free sigmoid gives exactly 1/(1+e^-x) for x >= 0 and
        e^x/(1+e^x) below, extremes included, on any array shape."""
        xs = np.concatenate([
            np.random.default_rng(0).normal(scale=30.0, size=5000),
            [0.0, -0.0, 1e-300, -1e-300, 40.0, -40.0, 745.0, -745.0,
             np.inf, -np.inf]])
        want = np.empty_like(xs)
        pos = xs >= 0
        want[pos] = 1.0 / (1.0 + np.exp(-xs[pos]))
        want[~pos] = np.exp(xs[~pos]) / (1.0 + np.exp(xs[~pos]))
        assert np.array_equal(sigmoid(xs), want)
        assert np.array_equal(sigmoid(xs.reshape(-1, 2)), want.reshape(-1, 2))

    def test_softmax_is_row_wise(self):
        x = np.random.default_rng(1).normal(scale=5.0, size=(7, 3))
        rows = np.stack([softmax(r) for r in x])
        assert np.array_equal(softmax(x), rows)


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax(np.array([0.0, 0.0])), [0.5, 0.5])

    def test_constant_input(self):
        for c in (-7.0, 0.0, 123.0):
            np.testing.assert_allclose(softmax(np.full(3, c)), np.full(3, 1 / 3),
                                       atol=1e-15)

    def test_closed_form(self):
        e = np.e
        np.testing.assert_allclose(softmax(np.array([1.0, 2.0])),
                                   [1 / (1 + e), e / (1 + e)], rtol=1e-14)

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        for size in (1, 5, 100, 10_000):
            x = rng.normal(scale=30.0, size=size)
            assert abs(softmax(x).sum() - 1.0) <= 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=9)
        for c in (-1e3, 0.37, 500.0):
            np.testing.assert_allclose(softmax(x + c), softmax(x), atol=1e-12)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            softmax(np.array([]))

    def test_extreme_inputs_stable(self):
        out = softmax(np.array([1e4, 0.0, -1e4]))
        assert np.all(np.isfinite(out))
        assert abs(out.sum() - 1.0) <= 1e-12


class TestSeededRng:
    def test_degenerate_range(self):
        assert SeededRng(0).uniform_int(5, 5) == 5

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            SeededRng(0).uniform_int(3, 2)

    def test_replay_determinism(self):
        a = SeededRng(42)
        b = SeededRng(42)
        draws_a = [a.uniform_int(0, 1000) for _ in range(50)]
        draws_b = [b.uniform_int(0, 1000) for _ in range(50)]
        assert draws_a == draws_b

    def test_uniformity_chi_square(self):
        rng = SeededRng(7)
        n = 100_000
        counts = np.zeros(6)
        for _ in range(n):
            counts[rng.uniform_int(1, 6) - 1] += 1
        expected = n / 6
        sigma = np.sqrt(n * (1 / 6) * (5 / 6))
        assert np.all(np.abs(counts - expected) < 3 * sigma)

    def test_shuffle_deterministic(self):
        items1 = list(range(20))
        items2 = list(range(20))
        SeededRng(9).shuffle(items1)
        SeededRng(9).shuffle(items2)
        assert items1 == items2
        assert sorted(items1) == list(range(20))
