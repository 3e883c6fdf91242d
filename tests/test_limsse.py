import itertools

import mpmath
import numpy as np
import pytest
from scipy.optimize import minimize

from textexplain.explain import ExplainOptions, explain_document
from textexplain.explain import limsse as limsse_module
from textexplain.explain.limsse import DEFAULT_N_SAMPLES, DEFAULT_RIDGE_BB, \
    SubstringSample, _design, draw_substrings, fit_blackbox, fit_magnitude, \
    limsse_explain, limsse_maps, sample_substrings
from textexplain.models import embed, forward, score_rows
from textexplain.numerics import SeededRng, lemire_bounded, sigmoid, softmax

from conftest import rand_params

MODELS = [(arch, direction) for arch in ("GRU", "LSTM", "QGRU", "QLSTM", "CNN")
          for direction in ("uni", "bi") if (arch, direction) != ("CNN", "bi")]
MODEL_IDS = [f"{arch}-{direction}" for arch, direction in MODELS]


def scalar_draws(rng, t_len, n, l_max):
    """The two-stage draw one ``uniform_int`` call at a time."""
    out = []
    for _ in range(n):
        length = rng.uniform_int(1, min(l_max, t_len))
        out.append((rng.uniform_int(0, t_len - length), length))
    return np.array(out).reshape(n, 2)


class TestBatchedDraw:
    @pytest.mark.parametrize("t_len", [1, 2, 6, 7, 80, 200])
    @pytest.mark.parametrize("l_max", [1, 6])
    def test_equals_scalar_loop_and_leaves_the_same_state(self, t_len, l_max):
        for seed in range(40):
            batched, scalar = SeededRng(seed), SeededRng(seed)
            # an odd number of earlier draws leaves half a PCG64 word pending
            for _ in range(seed % 3):
                batched.uniform_int(0, 9)
                scalar.uniform_int(0, 9)
            n = 1 + 23 * seed
            starts, lengths = draw_substrings(batched, t_len, n, l_max)
            want = scalar_draws(scalar, t_len, n, l_max)
            assert starts.dtype == lengths.dtype == np.int64
            assert np.array_equal(starts, want[:, 0])
            assert np.array_equal(lengths, want[:, 1])
            assert batched.state == scalar.state
            assert batched.uniform_int(0, 99) == scalar.uniform_int(0, 99)

    def test_lemire_rejection_falls_back_to_the_scalar_loop(self):
        """Seed 1056 draws a word numpy rejects at T = 200; the batched draw
        must then return what the scalar loop does."""
        t_len, n, seed = 200, 3000, 1056
        words = SeededRng(seed).uint32_stream(2 * n).reshape(n, 2)
        below_length, rejected = lemire_bounded(words[:, 0], 6)
        _, rejected_start = lemire_bounded(words[:, 1], t_len - below_length)
        assert np.any(rejected | rejected_start)
        batched, scalar = SeededRng(seed), SeededRng(seed)
        starts, lengths = draw_substrings(batched, t_len, n, 6)
        want = scalar_draws(scalar, t_len, n, 6)
        assert np.array_equal(np.stack([starts, lengths], axis=1), want)
        assert batched.state == scalar.state

    def test_sample_substrings_wraps_the_draw(self):
        got = sample_substrings(SeededRng(8), 30, 500, l_max=6)
        starts, lengths = draw_substrings(SeededRng(8), 30, 500, l_max=6)
        assert [(s.start, s.length) for s in got] == \
            list(zip(starts.tolist(), lengths.tolist()))
        assert all(type(s.start) is int for s in got)

    @pytest.mark.parametrize("t_len", [1, 6, 80])
    def test_distinct_pairs_reproduce_every_draw(self, monkeypatch, t_len):
        """The one pass scores each drawn (start, length) pair once, as a
        window of the document, sorted by length, then start; and the fit's
        rows, gathered per sample, are the design of every draw."""
        seen = {}

        def scoring(params, table, windows, lengths):
            seen.update(windows=windows, lengths=lengths)
            return score_rows(params, table, windows, lengths)

        def fit(z, labels, inv):
            seen.update(z=z, inv=inv)
            return np.zeros(t_len)

        monkeypatch.setattr(limsse_module, "score_rows", scoring)
        monkeypatch.setattr(limsse_module, "fit_blackbox", fit)
        ids = [1 + i % 19 for i in range(t_len)]
        limsse_maps(rand_params("GRU"), ids, 1, ["bb"], seed=t_len)
        starts, lengths = draw_substrings(SeededRng(t_len), t_len,
                                          DEFAULT_N_SAMPLES)
        windows = seen["windows"]
        assert list(zip(seen["lengths"].tolist(), windows[:, 0].tolist())) \
            == sorted(set(zip(lengths.tolist(), starts.tolist())))
        assert np.array_equal(windows, windows[:, :1]
                              + np.arange(min(t_len, 6)))
        assert np.array_equal(seen["z"][seen["inv"]],
                              _design(starts, lengths, t_len))


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
        z = _design(np.array([s.start for s in samples]),
                    np.array([s.length for s in samples]), t_len)
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


def row_wise_fit_blackbox(z, labels, ridge=DEFAULT_RIDGE_BB, tol=1e-6,
                          max_iter=2000):
    """Oracle: the logistic fit with every term computed over all N sample
    rows, as before the distinct-row path."""
    n, t_len = z.shape
    y = np.asarray(labels, dtype=np.float64)
    a = np.hstack([z, np.ones((n, 1))])

    def loss_grad(v):
        margins = a @ v
        p = sigmoid(margins)
        eps = 1e-12
        nll = -np.sum(y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps))
        grad = a.T @ (p - y)
        nll += ridge * np.dot(v[:t_len], v[:t_len])
        grad[:t_len] += 2 * ridge * v[:t_len]
        return nll, grad

    res = minimize(loss_grad, np.zeros(t_len + 1), jac=True, method="L-BFGS-B",
                   options={"gtol": tol, "maxiter": max_iter})
    v = res.x[:t_len]
    v[z.sum(axis=0) == 0] = 0.0
    return v


def distinct_draws(t_len, n, seed):
    """The distinct drawn (starts, lengths), sorted by length, then start,
    and which of them each sample is."""
    starts, lengths = draw_substrings(SeededRng(seed), t_len, n)
    keys, inv = np.unique(np.stack([lengths, starts], axis=1), axis=0,
                          return_inverse=True)
    return keys[:, 1], keys[:, 0], inv.ravel()


def distinct_design(t_len, n, seed):
    starts, lengths, inv = distinct_draws(t_len, n, seed)
    return _design(starts, lengths, t_len), inv


class TestDistinctRowFits:
    @pytest.mark.parametrize("t_len", [3, 12, 40])
    def test_blackbox_on_distinct_rows_is_bitwise_row_wise(self, t_len):
        z, inv = distinct_design(t_len, 1000, t_len)
        v_true = np.random.default_rng(t_len).normal(scale=2.0, size=t_len)
        labels = (z @ v_true > 0.5).astype(float)
        got = fit_blackbox(z, labels, inv=inv)
        assert np.array_equal(got, row_wise_fit_blackbox(z[inv], labels[inv]))

    def test_blackbox_copies_with_different_margins_fall_back(self,
                                                              monkeypatch):
        """When BLAS gives two copies of a row different bits, every sample
        row keeps its own margin, as in the row-wise fit."""
        class CopiesDiffer:
            """numpy, except that no two margin vectors compare equal."""
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def array_equal(a, b):
                return False

        sizes = []

        def recording_sigmoid(x):
            sizes.append(len(x))
            return sigmoid(x)

        z, inv = distinct_design(9, 400, 2)
        labels = (z[:, 4] > 0).astype(float)
        monkeypatch.setattr(limsse_module, "np", CopiesDiffer())
        monkeypatch.setattr(limsse_module, "sigmoid", recording_sigmoid)
        got = fit_blackbox(z, labels, inv=inv)
        monkeypatch.undo()
        assert set(sizes) == {len(inv)}
        assert np.array_equal(got, row_wise_fit_blackbox(z[inv], labels[inv]))

    @pytest.mark.parametrize("ridge", [None, 0.0, 0.5])
    def test_count_weighted_magnitude_equals_row_wise(self, ridge):
        z, inv = distinct_design(15, 3000, 4)
        y = np.random.default_rng(5).normal(size=z.shape[0])
        got = fit_magnitude(z, y, ridge=ridge, counts=np.bincount(inv))
        want = fit_magnitude(z[inv], y[inv], ridge=ridge)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


class TestLimsseMaps:
    def test_unknown_variant_before_any_draw(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew before the variant check")

        monkeypatch.setattr(limsse_module, "draw_substrings", no_draw)
        with pytest.raises(ValueError, match="ms_q"):
            limsse_maps(rand_params("GRU"), [1, 2, 3], 0, ["ms_s", "ms_q"])


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


def substring_responses(params, ids, k, variant, starts, lengths):
    """Each (start, length) substring's response, scored as a standalone
    sequence by one ``score_rows`` call over the window array."""
    windows = starts[:, None] + np.arange(lengths.max(initial=0))
    scores = score_rows(params, embed(params, ids), windows, lengths)
    if variant == "bb":
        return (np.argmax(softmax(scores), axis=1) == k).astype(np.float64)
    if variant == "ms_s":
        return scores[:, k]
    return softmax(scores)[:, k]


def row_wise_limsse(params, ids, k, variant, seed):
    """Oracle: scalar draws, one design row per sample and row-wise fits,
    scoring each distinct substring in the same length batches."""
    t_len = len(ids)
    draws = scalar_draws(SeededRng(seed), t_len, DEFAULT_N_SAMPLES, 6)
    keys = np.array(sorted(set(map(tuple, draws.tolist())),
                           key=lambda key: (key[1], key[0])))
    values = substring_responses(params, ids, k, variant, keys[:, 0],
                                 keys[:, 1])
    lookup = {tuple(key): value for key, value in zip(keys.tolist(), values)}
    y = np.array([lookup[tuple(row)] for row in draws.tolist()])
    z = _design(draws[:, 0], draws[:, 1], t_len)
    if variant == "bb":
        return row_wise_fit_blackbox(z, y)
    return fit_magnitude(z, y)


@pytest.mark.parametrize("arch_dir", MODELS, ids=MODEL_IDS)
def test_maps_match_the_row_wise_oracle(arch_dir):
    """limsse_bb maps are bitwise the row-wise fit's. limsse_ms_* maps agree
    to 1e-10 of the peak: the row-wise normal equations sum 3,000 rows and
    lie up to ~2e-11 of the peak from an extended-precision solve, which
    the count-weighted ones match to 1e-12 (see below). At T = 1 the one
    weight is 0 in exact arithmetic, so it is compared absolutely."""
    arch, direction = arch_dir
    p = rand_params(arch, seed=5, scale=3.0, direction=direction)
    for t_len in (1, 5, 7, 18, 80):
        ids = [1 + (7 * t_len + 3 * i * i) % 19 for i in range(t_len)]
        for variant in ("bb", "ms_s", "ms_p"):
            got = limsse_explain(p, ids, 1, variant=variant,
                                 seed=t_len).scores
            want = row_wise_limsse(p, ids, 1, variant, seed=t_len)
            if variant == "bb":
                assert np.array_equal(got, want), (t_len, variant)
            else:
                tol = 1e-12 if t_len == 1 else 1e-10 * np.max(np.abs(want))
                assert np.max(np.abs(got - want)) <= tol, (t_len, variant)


def extended_precision_fit(z, y, counts):
    """The count-weighted ridge normal equations, solved with 40 digits."""
    a = np.hstack([z, np.ones((z.shape[0], 1))])
    with mpmath.workdps(40):
        gram = mpmath.matrix((a.T @ (a * counts[:, None])).tolist())
        for j in range(z.shape[1]):
            gram[j, j] += mpmath.mpf(1e-6 * counts.sum())
        rhs = mpmath.matrix([mpmath.fsum(mpmath.mpf(int(c)) * mpmath.mpf(v)
                                         for c, v, on in zip(counts, y, col)
                                         if on)
                             for col in a.T])
        solution = mpmath.lu_solve(gram, rhs)
    return np.array(solution.tolist(), dtype=float)[:-1, 0]


@pytest.mark.parametrize("arch_dir", MODELS, ids=MODEL_IDS)
def test_ms_maps_near_extended_precision(arch_dir):
    """limsse_ms_* maps lie within 1e-12 of their peak from a 40-digit
    solve of the same count-weighted problem."""
    arch, direction = arch_dir
    p = rand_params(arch, seed=5, scale=3.0, direction=direction)
    for t_len in (5, 18):
        ids = [1 + (7 * t_len + 3 * i * i) % 19 for i in range(t_len)]
        starts, lengths, inv = distinct_draws(t_len, DEFAULT_N_SAMPLES, t_len)
        for variant in ("ms_s", "ms_p"):
            got = limsse_explain(p, ids, 1, variant=variant,
                                 seed=t_len).scores
            y = substring_responses(p, ids, 1, variant, starts, lengths)
            exact = extended_precision_fit(
                _design(starts, lengths, t_len), y, np.bincount(inv))
            assert np.max(np.abs(got - exact)) <= \
                1e-12 * np.max(np.abs(exact)), (t_len, variant)


VARIANT_SETS = [list(order) for size in (1, 2, 3)
                for subset in itertools.combinations(("bb", "ms_s", "ms_p"),
                                                     size)
                for order in dict.fromkeys([subset, subset[::-1]])]
BESIDE = ["omit_1", "occ_3", "lrp"]


def per_variant_limsse(params, ids, k, variant, opts):
    """One variant's map by a path of its own: its own draw, keying of the
    distinct substrings, scoring, design and fit."""
    t_len = len(ids)
    starts, lengths = draw_substrings(SeededRng(opts.seed), t_len,
                                      opts.limsse_n, opts.limsse_maxlen)
    keys, inv = np.unique((lengths - 1) * t_len + starts, return_inverse=True)
    starts, lengths = keys % t_len, keys // t_len + 1
    y = substring_responses(params, ids, k, variant, starts, lengths)
    z = _design(starts, lengths, t_len)
    if variant == "bb":
        return fit_blackbox(z, y, inv=inv)
    return fit_magnitude(z, y, counts=np.bincount(inv, minlength=len(keys)))


@pytest.mark.parametrize("arch,direction", [
    ("GRU", "bi"), ("LSTM", "uni"), ("QGRU", "bi"), ("QLSTM", "uni"),
    ("CNN", "uni")])
@pytest.mark.parametrize("t_len", [1, 2, 5, 6, 9, 30])
def test_shared_pass_maps_are_the_per_variant_maps(arch, direction, t_len):
    """Every set of LIMSSE names, in two orders, alone and beside other
    methods, gives each variant bitwise the map of its own path; T = 1 and
    T <= l_max included."""
    p = rand_params(arch, seed=t_len, scale=20.0, direction=direction)
    ids = [1 + (7 * i * i + 3 * i) % 19 for i in range(t_len)]
    opts = ExplainOptions(limsse_n=600, seed=t_len)
    k = 1
    want = {variant: per_variant_limsse(p, ids, k, variant, opts).tobytes()
            for variant in ("bb", "ms_s", "ms_p")}
    for variants in VARIANT_SETS:
        names = [f"limsse_{variant}" for variant in variants]
        for asked in (names, BESIDE + names):
            got = explain_document(asked, p, ids, opts, k)[1][-len(names):]
            for variant, m in zip(variants, got):
                assert m.method == f"limsse_{variant}"
                assert m.scores.tobytes() == want[variant], (asked, variant)


def test_one_draw_and_one_scoring_per_document(monkeypatch):
    """However many LIMSSE names are asked, a document makes one draw and
    one substring scoring; with none it makes neither."""
    calls = {"draw": 0, "score": 0}

    def counted(key, func):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return func(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(limsse_module, "draw_substrings",
                        counted("draw", draw_substrings))
    monkeypatch.setattr(limsse_module, "score_rows",
                        counted("score", score_rows))
    p = rand_params("QGRU", seed=2, scale=3.0, direction="bi")
    ids = [1 + (5 * i) % 19 for i in range(12)]
    opts = ExplainOptions(limsse_n=200)
    for variants in VARIANT_SETS + [[]]:
        names = [f"limsse_{variant}" for variant in variants]
        for asked in (names, BESIDE + names):
            calls.update(draw=0, score=0)
            if asked:
                explain_document(asked, p, ids, opts)
            assert calls == {"draw": int(bool(names)),
                             "score": int(bool(names))}, asked
