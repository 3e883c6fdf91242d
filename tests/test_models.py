import importlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import textexplain as tx
from textexplain.explain import explain_document
from textexplain.explain.catalog import GRADIENT_METHODS, ExplainOptions
from textexplain.models import NetworkParams, _run, embed, \
    embedding_gradients, empty_sequence_scores, forward, forward_embedded, \
    init_params, load_checkpoint, save_checkpoint, sweep
from textexplain.numerics import SeededRng
from textexplain.train import TrainConfig, minibatch_grads, train

from conftest import finite_diff_embedding_grads, oracle_gru_states, \
    oracle_lstm_states, rand_params


class TestEmbed:
    def test_empty_sequence(self):
        p = rand_params("GRU")
        e = embed(p, [])
        assert e.shape == (0, p.d_embed)

    def test_row_lookup(self):
        p = rand_params("GRU")
        e = embed(p, [3, 7, 3])
        np.testing.assert_array_equal(e[0], p.embedding[3])
        np.testing.assert_array_equal(e[1], p.embedding[7])
        np.testing.assert_array_equal(e[0], e[2])

    def test_out_of_range(self):
        p = rand_params("GRU", vocab_size=10)
        with pytest.raises(ValueError):
            embed(p, [10])
        with pytest.raises(ValueError):
            embed(p, [-1])


class TestForward:
    def test_lstm_zero_weights(self):
        p = rand_params("LSTM", scale=0.0)
        for w in p.layers.values():
            for name in w:
                w[name][:] = 0.0
        tr = forward(p, [1, 2, 3])
        for gate in ("i", "f", "o"):
            np.testing.assert_allclose(tr.dirs["fwd"].gates[gate][1:], 0.5)
        np.testing.assert_allclose(tr.dirs["fwd"].cand[1:], 0.0)
        np.testing.assert_allclose(tr.dirs["fwd"].cell, 0.0)
        np.testing.assert_allclose(tr.dirs["fwd"].hidden, 0.0)

    def test_gru_update_gate_short_circuit(self):
        p = rand_params("GRU")
        p.layers["fwd"]["bz"][:] = 50.0     # saturate z to 1
        tr = forward(p, [1, 2, 3, 4])
        np.testing.assert_allclose(tr.dirs["fwd"].hidden, 0.0, atol=1e-12)

    def test_lstm_matches_scalar_oracle(self):
        p = rand_params("LSTM", d_embed=3, d_hidden=4, seed=5, scale=3.0)
        ids = [1, 2, 3, 4, 5]
        tr = forward(p, ids)
        hs, cs = oracle_lstm_states(p.layers["fwd"], tr.embeddings)
        np.testing.assert_allclose(tr.dirs["fwd"].hidden, hs, atol=1e-12)
        np.testing.assert_allclose(tr.dirs["fwd"].cell, cs, atol=1e-12)

    def test_gru_matches_scalar_oracle(self):
        p = rand_params("GRU", d_embed=3, d_hidden=4, seed=6, scale=3.0)
        ids = [2, 4, 6, 8]
        tr = forward(p, ids)
        hs = oracle_gru_states(p.layers["fwd"], tr.embeddings)
        np.testing.assert_allclose(tr.dirs["fwd"].hidden, hs, atol=1e-12)

    def test_empty_input_rejected(self):
        for arch in tx.ARCHS:
            with pytest.raises(ValueError):
                forward(rand_params(arch), [])

    def test_determinism(self):
        p = rand_params("QLSTM", scale=2.0)
        a = forward(p, [1, 2, 3])
        b = forward(p, [1, 2, 3])
        assert np.array_equal(a.scores, b.scores)
        assert np.array_equal(a.dirs["fwd"].hidden, b.dirs["fwd"].hidden)

    def test_probs_sum_to_one(self):
        for arch in tx.ARCHS:
            tr = forward(rand_params(arch, n_classes=4, scale=4.0),
                         [1, 2, 3, 4, 5])
            assert abs(tr.probs.sum() - 1.0) <= 1e-12
            np.testing.assert_allclose(
                tr.probs, np.exp(tr.scores) / np.exp(tr.scores).sum())


class TestCnnPooling:
    def test_pooled_value_is_max_and_argmax_attains_it(self):
        p = rand_params("CNN", scale=5.0)
        tr = forward(p, [1, 2, 3, 4, 5, 6, 7, 8])
        d = tr.dirs["fwd"]
        g = d.cand[1:]
        np.testing.assert_array_equal(tr.doc_repr, g.max(axis=0))
        for ch in range(g.shape[1]):
            assert g[d.pool_argmax[ch] - 1, ch] == tr.doc_repr[ch]

    def test_empty_sequence_scores(self):
        p = rand_params("CNN")
        p.layers["fwd"]["b"][:] = np.linspace(-1, 1, p.d_hidden)
        s = empty_sequence_scores(p)
        doc = np.maximum(p.layers["fwd"]["b"], 0.0)
        np.testing.assert_allclose(s, p.w_cls @ doc + p.b_cls)

    def test_empty_sequence_scores_rnn(self):
        p = rand_params("LSTM")
        np.testing.assert_allclose(empty_sequence_scores(p), p.b_cls)


class TestQrnnCausality:
    @pytest.mark.parametrize("arch", ["QGRU", "QLSTM"])
    def test_gates_depend_only_on_recent_past(self, arch):
        p = rand_params(arch, scale=3.0)
        ids = [1, 2, 3, 4, 5, 6, 7, 8, 9]
        base = forward(p, ids)
        f_width = p.kernel_width
        t_perturb = 6                      # 1-based step to change
        changed = list(ids)
        changed[t_perturb - 1] = 15
        new = forward(p, changed)
        for t in range(1, len(ids) + 1):
            same = np.array_equal(base.dirs["fwd"].preact[t],
                                  new.dirs["fwd"].preact[t])
            if t < t_perturb or t > t_perturb + f_width - 1:
                assert same, f"step {t} should not see the perturbation"
            elif t == t_perturb:
                assert not same


class TestBidirectional:
    @pytest.mark.parametrize("arch", ["GRU", "LSTM", "QGRU", "QLSTM"])
    def test_halves_match_unidirectional_runs(self, arch):
        p = rand_params(arch, d_hidden=8, direction="bi", scale=3.0)
        ids = [1, 2, 3, 4, 5]
        tr = forward(p, ids)
        d = p.d_hidden

        def uni_from(layer):
            q = tx.init_params(arch, 20, p.d_embed, d, 2, SeededRng(0))
            for name, w in q.layers["fwd"].items():
                w[...] = layer[name]
            q.embedding[...] = p.embedding
            return q

        fwd_tr = forward(uni_from(p.layers["fwd"]), ids)
        bwd_tr = forward(uni_from(p.layers["bwd"]), ids[::-1])
        np.testing.assert_allclose(tr.doc_repr[:d], fwd_tr.doc_repr)
        np.testing.assert_allclose(tr.doc_repr[d:], bwd_tr.doc_repr)

    def test_odd_hidden_size_rejected(self):
        """A bidirectional model splits d_hidden between its directions."""
        with pytest.raises(ValueError, match="must be even"):
            init_params("GRU", 10, 4, 5, 2, SeededRng(0), direction="bi")

    @pytest.mark.parametrize("direction", ["bidirectional", "fwd", "", "Bi"])
    def test_unknown_direction_rejected(self, direction):
        """Only "uni" and "bi" name a direction; nothing else builds a
        model."""
        with pytest.raises(ValueError, match="unknown direction"):
            init_params("GRU", 10, 4, 6, 2, SeededRng(0), direction=direction)


class TestGuards:
    @pytest.mark.parametrize("arch, direction, width, message", [
        ("RNN", "uni", 5, "unknown architecture 'RNN'"),
        ("CNN", "bi", 5, "CNN is unidirectional"),
        ("QGRU", "uni", 4, "kernel width must be odd and positive"),
    ], ids=["unknown-arch", "bi-cnn", "even-width"])
    def test_network_params(self, arch, direction, width, message):
        with pytest.raises(ValueError) as exc:
            NetworkParams(arch, direction, 10, 4, 6, 2, width)
        assert str(exc.value) == message

    @pytest.mark.parametrize("shape, lengths, message", [
        ((5, 4), None, "expected a (batch, length, width) input stack"),
        ((2, 5, 3), None, "embedding width mismatch"),
        ((2, 5, 4), [5, 3, 2], "expected one length per batch row"),
    ], ids=["2-d", "width", "lengths"])
    def test_run(self, shape, lengths, message):
        p = rand_params("GRU", d_embed=4)
        with pytest.raises(ValueError) as exc:
            _run(p, np.zeros(shape), False, lengths)
        assert str(exc.value) == message


MODELS = [(arch, direction) for arch in tx.ARCHS
          for direction in ("uni", "bi") if (arch, direction) != ("CNN", "bi")]


class TestGradients:
    def test_bias_gradient_is_one_hot(self):
        p = rand_params("GRU", n_classes=3, scale=3.0)
        doc, _, dirs = _run(p, embed(p, [1, 2, 3])[None], keep=True)
        _, grads = sweep(p, dirs, np.array([[0.0, 0.0, 1.0]]), doc=doc)
        np.testing.assert_array_equal(p.like(grads).b_cls, [0.0, 0.0, 1.0])

    def test_constant_model_zero_gradients(self):
        p = rand_params("LSTM", scale=3.0)
        p.w_cls[:] = 0.0
        g = embedding_gradients(p, [1, 2, 3], output="s", k=0)
        np.testing.assert_array_equal(g, 0.0)

    @pytest.mark.parametrize("arch", tx.ARCHS)
    @pytest.mark.parametrize("output", ["s", "p"])
    def test_finite_difference_agreement(self, arch, output):
        direction = "uni" if arch == "CNN" else "bi"
        p = rand_params(arch, seed=17, scale=5.0, direction=direction)
        e = embed(p, [1, 2, 3, 4, 5])
        got = embedding_gradients(p, output=output, k=1, emb=e)
        want = finite_diff_embedding_grads(p, e, output, 1)
        mask = np.abs(got) > 1e-6
        rel = np.abs(got[mask] - want[mask]) / np.abs(got[mask])
        assert rel.max() < 1e-4

    def test_parameter_gradients_finite_difference(self):
        """The crossentropy gradient of a one-example minibatch, one flat
        vector in the layout of ``params.flat``, matches central differences
        in every entry, the embedding included, on all five architectures,
        uni and bi. Token 1 occurs twice, so its embedding row must
        accumulate both occurrences."""
        ids = [1, 2, 1, 3]
        step = 1e-6
        for seed, (arch, direction) in enumerate(MODELS):
            p = rand_params(arch, seed=seed, d_embed=3, d_hidden=4,
                            scale=3.0, direction=direction, kernel_width=3)
            grads = minibatch_grads(p, [(ids, 1)])
            assert grads.shape == p.flat.shape

            def loss():
                return -np.log(forward(p, ids).probs[1])

            fd = np.zeros_like(p.flat)
            for idx, orig in enumerate(p.flat.tolist()):
                p.flat[idx] = orig + step
                up = loss()
                p.flat[idx] = orig - step
                down = loss()
                p.flat[idx] = orig
                fd[idx] = (up - down) / (2 * step)
            fd_named = p.like(fd).arrays()
            for name, g in p.like(grads).arrays().items():
                np.testing.assert_allclose(
                    g, fd_named[name], rtol=1e-5, atol=1e-8,
                    err_msg=f"{arch}-{direction} {name}")

    def test_cnn_tied_pooling_routes_to_lowest_step(self):
        """With width-1 kernels a repeated token gives every channel the same
        value at each of its steps; the whole gradient goes to the first."""
        p = rand_params("CNN", seed=2, scale=3.0, kernel_width=1)
        p.layers["fwd"]["b"][:] = 0.5          # keep every channel active
        g = embedding_gradients(p, [4, 4, 4], output="s", k=1)
        want = p.layers["fwd"]["K"][0].T @ p.w_cls[1]
        np.testing.assert_allclose(g[0], want, rtol=1e-12, atol=1e-15)
        np.testing.assert_array_equal(g[1:], 0.0)

    def test_invalid_class_rejected(self):
        p = rand_params("GRU")
        with pytest.raises(ValueError):
            embedding_gradients(p, [1, 2], output="s", k=5)
        with pytest.raises(ValueError):
            embedding_gradients(p, [1, 2], output="crossentropy", k=0)


class TestTrain:
    def test_zero_epochs_is_noop(self):
        p = rand_params("GRU")
        before = p.w_cls.copy()
        train(p, [([1, 2, 3], 0)], TrainConfig(epochs=0))
        np.testing.assert_array_equal(p.w_cls, before)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            train(rand_params("GRU"), [], TrainConfig(epochs=1))

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError):
            train(rand_params("GRU", n_classes=2), [([1], 2)],
                  TrainConfig(epochs=1))

    @pytest.mark.parametrize("ids", [[1, 20], [-1, 2], []])
    def test_bad_document_rejected(self, ids):
        with pytest.raises(ValueError):
            train(rand_params("GRU", vocab_size=20), [([1, 2], 0), (ids, 1)],
                  TrainConfig(epochs=1))

    def test_overfits_single_example(self):
        p = rand_params("LSTM", d_embed=8, d_hidden=8)
        train(p, [([1, 2, 3, 4], 1)], TrainConfig(epochs=60, batch_size=1))
        assert forward(p, [1, 2, 3, 4]).predicted == 1

    def test_loss_and_accuracy_from_one_pass(self):
        from conftest import keyword_corpus
        from textexplain.train import loss_and_accuracy
        corpus = keyword_corpus(30, SeededRng(4))
        p = rand_params("QGRU", vocab_size=40, scale=3.0)
        train(p, corpus, TrainConfig(epochs=1))
        loss, acc = loss_and_accuracy(p, corpus)
        traces = [forward(p, ids) for ids, _ in corpus]
        two_pass_loss = np.mean([-np.log(tr.probs[label])
                                 for tr, (_, label) in zip(traces, corpus)])
        two_pass_acc = np.mean([tr.predicted == label
                                for tr, (_, label) in zip(traces, corpus)])
        assert abs(loss - two_pass_loss) <= 1e-12
        assert abs(acc - two_pass_acc) <= 1e-12
        assert 0.0 < acc < 1.0

    def test_loss_and_accuracy_chunks(self, monkeypatch):
        """A small cell budget splits the length-sorted corpus into several
        ragged runs; the result still equals one forward per document."""
        train_mod = importlib.import_module("textexplain.train")
        corpus = [([1, 2, 3], 0), ([4], 1), ([5, 6, 7, 8, 9, 1], 1),
                  ([2, 2], 0), ([3, 1, 4, 1, 5], 0)]
        p = rand_params("LSTM", direction="bi", scale=3.0)
        width = max(p.d_embed, p.d_hidden)
        monkeypatch.setattr(importlib.import_module("textexplain.models"),
                            "BATCH_CELLS", 2 * 5 * width)
        runs = []
        real = train_mod._run
        monkeypatch.setattr(train_mod, "_run", lambda *a, **kw: runs.append(
            list(kw["lengths"])) or real(*a, **kw))
        loss, acc = train_mod.loss_and_accuracy(p, corpus)
        assert runs == [[1, 2, 3], [5], [6]]
        traces = [forward(p, ids) for ids, _ in corpus]
        want = np.mean([-np.log(tr.probs[label])
                        for tr, (_, label) in zip(traces, corpus)])
        assert abs(loss - want) <= 1e-12
        assert acc == np.mean([tr.predicted == label
                               for tr, (_, label) in zip(traces, corpus)])

    def test_loss_decreases_over_epochs(self):
        from textexplain.train import mean_loss
        from conftest import keyword_corpus
        corpus = keyword_corpus(40, SeededRng(2))
        p = rand_params("GRU", vocab_size=40, d_embed=8, d_hidden=8)
        losses = [mean_loss(p, corpus)]
        for epoch in range(4):
            train(p, corpus, TrainConfig(epochs=1, seed=epoch))
            losses.append(mean_loss(p, corpus))
        assert losses[-1] < losses[0]


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        vocab = tx.Vocabulary.build([["a", "b", "a", "c"]], cutoff=10)
        p = rand_params("QLSTM", direction="bi", d_hidden=8, scale=3.0)
        p.vocab = vocab
        path = tmp_path / "model.npz"
        save_checkpoint(path, p)
        q = load_checkpoint(path)
        assert q.arch == p.arch and q.direction == p.direction
        assert q.kernel_width == p.kernel_width
        np.testing.assert_array_equal(q.embedding, p.embedding)
        np.testing.assert_array_equal(q.w_cls, p.w_cls)
        for dname in p.directions:
            for wname, arr in p.layers[dname].items():
                np.testing.assert_array_equal(q.layers[dname][wname], arr)
        assert q.vocab.id_to_token == vocab.id_to_token
        assert q.vocab.oov_id == vocab.oov_id

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_weights(self, tmp_path, value):
        p = rand_params("GRU")
        p.w_cls[1, 2] = value
        path = tmp_path / "model.npz"
        save_checkpoint(path, p)
        with pytest.raises(ValueError, match="w_cls"):
            load_checkpoint(path)

    def test_rejects_non_checkpoint(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, meta=np.asarray('{"format": "other"}'), x=np.ones(3))
        with pytest.raises(ValueError):
            load_checkpoint(path)


class TestVocabulary:
    def test_cutoff_maps_rare_tokens_to_oov(self):
        vocab = tx.Vocabulary.build(
            [["a", "a", "a", "b", "b", "c"]], cutoff=2)
        assert vocab.encode(["a", "b", "c"]) == [
            vocab.token_to_id["a"], vocab.token_to_id["b"], vocab.oov_id]

    def test_ids_dense(self):
        vocab = tx.Vocabulary.build([["x", "y", "z"]], cutoff=50)
        assert sorted(vocab.token_to_id.values()) == list(range(len(vocab)))
        assert vocab.oov_id < len(vocab)
        assert {"x", "y", "z"} <= set(vocab.token_to_id)

    def test_rank_is_count_descending_then_first_occurrence(self):
        """On 50 random corpora of few types (so counts tie often), the
        kept types are the rule's ranking cut at ``cutoff``, below and
        above the number of types; the corpus may be a one-pass
        generator."""
        rng = np.random.default_rng(0)
        for _ in range(50):
            types = [f"t{i}" for i in rng.permutation(8)[:rng.integers(1, 9)]]
            lists = [[types[j] for j in rng.integers(0, len(types), size)]
                     for size in rng.integers(0, 6, rng.integers(1, 6))]
            flat = [tok for tokens in lists for tok in tokens]
            count = {tok: flat.count(tok) for tok in flat}
            ranked = sorted(count, key=lambda t: (-count[t], flat.index(t)))
            for cutoff in range(len(ranked) + 2):
                vocab = tx.Vocabulary.build((t for t in lists), cutoff)
                assert vocab.id_to_token[1:] == ranked[:cutoff]
                assert vocab.oov_id == 0


# ---------------------------------------------------------------------------
# A GRU or LSTM without recurrent weights is a QRNN of kernel width 1
# ---------------------------------------------------------------------------

TWINS = [(rec, qrnn, direction)
         for rec, qrnn in (("GRU", "QGRU"), ("LSTM", "QLSTM"))
         for direction in ("uni", "bi")]
TWIN_METHODS = GRADIENT_METHODS + ("lrp", "deeplift", "decomp")


def width_one_twins(arch, qrnn, direction, seed):
    """A random ``arch`` model with every U zeroed, and the ``qrnn`` model
    of kernel width 1 with K = V[None] and the same biases, embedding and
    classifier."""
    rng = np.random.default_rng(seed)
    p = rand_params(arch, seed=seed, d_hidden=6, direction=direction,
                    scale=8.0)
    q = init_params(qrnn, p.embedding.shape[0], p.d_embed,
                    p.w_cls.shape[1], p.n_classes, SeededRng(0),
                    direction=direction, kernel_width=1)
    q.embedding[...], q.w_cls[...] = p.embedding, p.w_cls
    p.b_cls[:] = q.b_cls[:] = rng.uniform(-1, 1, p.n_classes)
    for dname, w in p.layers.items():
        for name in w:
            if name[0] == "U":
                w[name][:] = 0.0
            elif name[0] == "b":
                w[name][:] = rng.uniform(-1, 1, w[name].shape)
        for name, k in q.layers[dname].items():
            k[...] = w["V" + name[1:]][None] if name[0] == "K" else w[name]
    return p, q


def assert_near(got, want, what):
    """Equal within 1e-12 of ``want``'s peak."""
    err = np.max(np.abs(got - want), initial=0.0)
    assert err <= 1e-12 * np.max(np.abs(want), initial=0.0), (what, err)


@pytest.mark.parametrize("arch, qrnn, direction", TWINS)
@pytest.mark.parametrize("ragged", [False, True])
@settings(max_examples=4, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 16))
def test_recurrent_model_without_u_is_a_width_one_qrnn(arch, qrnn, direction,
                                                       ragged, seed):
    """Scores, sweep gradients (embeddings and the weights both models
    have, V = K[0] and b) and every white-box map agree."""
    p, q = width_one_twins(arch, qrnn, direction, seed)
    rng = np.random.default_rng(seed)
    embs = rng.normal(size=(4, 7, p.d_embed))
    lengths = [7, 3, 1, 6] if ragged else None
    dscores = rng.normal(size=(4, p.n_classes))
    got = {}
    for model in (p, q):
        doc, scores, dirs = _run(model, embs, keep=True, lengths=lengths)
        demb, grads = sweep(model, dirs, dscores, doc=doc)
        got[model.arch] = scores, demb, model.like(grads).arrays()
    (s_p, e_p, g_p), (s_q, e_q, g_q) = got[arch], got[qrnn]
    assert_near(s_q, s_p, "scores")
    assert_near(e_q, e_p, "embedding gradients")
    for name, g in g_q.items():
        head, _, wname = name.rpartition("/")
        shared = (g_p[f"{head}/V{wname[1:]}"][None] if wname[0] == "K"
                  else g_p[name])
        assert_near(g, shared, name)

    ids = list(rng.integers(0, p.embedding.shape[0], size=5))
    k = int(rng.integers(0, p.n_classes))
    opts = ExplainOptions(int_steps=6)
    for m_p, m_q in zip(explain_document(TWIN_METHODS, p, ids, opts, k)[1],
                        explain_document(TWIN_METHODS, q, ids, opts, k)[1]):
        assert_near(m_q.scores, m_p.scores, m_p.method)
