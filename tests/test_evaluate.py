import io

import numpy as np
import pytest

from textexplain.evaluate import AgreementSample, EvalRow, HybridDocument, \
    baseline_last, baseline_random, build_hybrid_docs, feat_of_pos, \
    format_report_tsv, hit_feat, hit_hybrid, hit_target, \
    parse_agreement_tsv, pointing_accuracy, random_hybrid_expectation, \
    run_agreement_eval, run_hybrid_eval
from textexplain.numerics import SeededRng
from textexplain.relevance import RelevanceMap, rmax


class TestRmax:
    def test_basic(self):
        assert rmax(np.array([0.1, 3.0, 2.0])) == 1

    def test_tie_breaks_low(self):
        assert rmax(np.array([5.0, 5.0, 5.0])) == 0

    def test_accepts_map(self):
        assert rmax(RelevanceMap(np.array([0.0, 1.0]), 0, "x")) == 1

    def test_empty(self):
        with pytest.raises(ValueError):
            rmax(np.array([]))


class TestPointingAccuracy:
    def test_ratio(self):
        assert pointing_accuracy(3, 4) == 0.75

    def test_no_possible(self):
        with pytest.raises(ValueError):
            pointing_accuracy(0, 0)


class TestFeatOfPos:
    def test_mapping(self):
        assert feat_of_pos("VBZ") == "Sg"
        assert feat_of_pos("NN") == "Sg"
        assert feat_of_pos("VBP") == "Pl"
        assert feat_of_pos("NNS") == "Pl"
        assert feat_of_pos("DT") is None
        assert feat_of_pos("JJ") is None


def _doc(labels):
    return HybridDocument(ids=list(range(len(labels))),
                          tokens=[f"w{i}" for i in range(len(labels))],
                          origin_labels=labels,
                          sentence_bounds=[0])


class TestHitHybrid:
    def test_hit(self):
        doc = _doc([0, 0, 1, 1])
        assert hit_hybrid(doc, 1, np.array([0.0, 0.0, 9.0, 1.0])) == 1

    def test_miss(self):
        doc = _doc([0, 0, 1, 1])
        assert hit_hybrid(doc, 0, np.array([0.0, 0.0, 9.0, 1.0])) == 0

    def test_skip_when_prediction_labels_nothing(self):
        doc = _doc([0, 0])
        assert hit_hybrid(doc, 1, np.array([1.0, 0.0])) is None

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            hit_hybrid(_doc([0, 1]), 0, np.array([1.0]))


SAMPLE = AgreementSample(tokens=["the", "dogs", "that", "bark"],
                         pos_tags=["DT", "NNS", "WDT", "VBP"],
                         subject_index=1, label="Pl")


class TestAgreementHits:
    def test_hit_target(self):
        assert hit_target(SAMPLE, np.array([0.0, 2.0, 1.0, 0.0])) == 1
        assert hit_target(SAMPLE, np.array([2.0, 0.0, 1.0, 0.0])) == 0

    def test_hit_feat_matches_predicted_number(self):
        # rmax on "dogs" (NNS -> Pl): hit iff prediction is Pl (class 1)
        rel = np.array([0.0, 2.0, 1.0, 0.0])
        assert hit_feat(SAMPLE, 1, rel) == 1
        assert hit_feat(SAMPLE, 0, rel) == 0

    def test_hit_feat_untagged_token_never_hits(self):
        rel = np.array([9.0, 0.0, 0.0, 0.0])     # rmax on "the" (DT)
        assert hit_feat(SAMPLE, 0, rel) == 0
        assert hit_feat(SAMPLE, 1, rel) == 0

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            AgreementSample(["a"], ["DT", "NN"], 0, "Sg")
        with pytest.raises(ValueError):
            AgreementSample(["a"], ["DT"], 1, "Sg")
        with pytest.raises(ValueError):
            AgreementSample(["a"], ["DT"], 0, "Dual")

    def test_label_id(self):
        assert AgreementSample(["a"], ["NN"], 0, "Sg").label_id == 0
        assert SAMPLE.label_id == 1


class TestBaselines:
    def test_random_one_hot_uniform(self):
        rng = SeededRng(0)
        counts = np.zeros(4)
        for _ in range(40_000):
            m = baseline_random(rng, 4)
            assert m.scores.sum() == 1.0 and m.scores.max() == 1.0
            counts[rmax(m)] += 1
        sigma = np.sqrt(40_000 * 0.25 * 0.75)
        assert np.all(np.abs(counts - 10_000) < 4 * sigma)

    def test_last(self):
        m = baseline_last(5)
        assert rmax(m) == 4

    def test_empty(self):
        with pytest.raises(ValueError):
            baseline_last(0)
        with pytest.raises(ValueError):
            baseline_random(SeededRng(0), 0)


class TestBuildHybridDocs:
    def _pool(self, n):
        return [([f"s{i}a", f"s{i}b"], [i % 7 + 1, (i + 1) % 7 + 1], i % 2)
                for i in range(n)]

    def test_grouping_and_leftover_discard(self):
        docs = build_hybrid_docs(self._pool(25), SeededRng(0), group_size=10)
        assert len(docs) == 2
        for doc in docs:
            assert len(doc.sentence_bounds) == 10
            assert len(doc.ids) == 20
            assert len(doc.origin_labels) == 20
            assert len(doc.tokens) == 20

    def test_deterministic(self):
        a = build_hybrid_docs(self._pool(30), SeededRng(3))
        b = build_hybrid_docs(self._pool(30), SeededRng(3))
        assert [d.ids for d in a] == [d.ids for d in b]

    def test_labels_follow_sentences(self):
        docs = build_hybrid_docs(self._pool(10), SeededRng(1))
        doc = docs[0]
        bounds = doc.sentence_bounds + [len(doc.ids)]
        for i, j in zip(bounds, bounds[1:]):
            assert len(set(doc.origin_labels[i:j])) == 1

    def test_too_few_sentences(self):
        with pytest.raises(ValueError):
            build_hybrid_docs(self._pool(5), SeededRng(0), group_size=10)


class TestParseAgreementTsv:
    def test_round_trip(self):
        text = "the dog runs\tDT NN VBZ\t2\tSg\n\nno cats sleep\tDT NNS VBP\t2\tPl\n"
        samples = parse_agreement_tsv(io.StringIO(text))
        assert len(samples) == 2
        assert samples[0].subject_index == 1
        assert samples[0].tokens == ["the", "dog", "runs"]
        assert samples[1].label == "Pl"

    def test_bad_column_count(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_agreement_tsv(["a b\tDT NN\t1\n"])

    def test_bad_subject(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_agreement_tsv(["a\tNN\t1\tSg\n", "b\tNN\tx\tSg\n"])

    def test_bad_label_reports_line(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_agreement_tsv(["a\tNN\t1\tNeut\n"])


class TestReportTsv:
    def test_format(self):
        rows = [EvalRow("lrp", "GRU", "hybrid_pointing", 3, 4)]
        out = format_report_tsv(rows)
        lines = out.strip().split("\n")
        assert lines[0].split("\t") == ["method", "arch", "metric", "hits",
                                        "possible", "accuracy"]
        assert lines[1] == "lrp\tGRU\thybrid_pointing\t3\t4\t0.750000"

    def test_zero_possible_marked_na(self):
        out = format_report_tsv([EvalRow("lrp", "GRU", "m", 0, 0)])
        assert out.strip().split("\n")[1].endswith("\tn/a")


class TestRunEvals:
    def _trained_gru(self):
        from conftest import keyword_corpus, rand_params
        from textexplain.train import TrainConfig, train
        import textexplain as tx
        corpus = keyword_corpus(120, SeededRng(4))
        p = rand_params("GRU", vocab_size=40, d_embed=8, d_hidden=8)
        train(p, corpus, TrainConfig(epochs=4, seed=1))
        return p

    def _docs(self, n_sent=30):
        rng = SeededRng(9)
        sentences = []
        for i in range(n_sent):
            label = i % 2
            ids = [rng.uniform_int(3, 39) for _ in range(4)]
            ids[rng.uniform_int(0, 3)] = 1 if label == 0 else 2
            toks = [f"t{j}" for j in ids]
            sentences.append((toks, ids, label))
        return build_hybrid_docs(sentences, SeededRng(2), group_size=10)

    def test_hybrid_bookkeeping(self):
        p = self._trained_gru()
        docs = self._docs()
        rows = run_hybrid_eval(p, docs, ["grad1_s_dot", "omit_1"])
        by_method = {r.method: r for r in rows}
        assert set(by_method) == {"grad1_s_dot", "omit_1", "random"}
        possible = {r.possible for r in rows}
        assert len(possible) == 1           # same skip set for every method
        for r in rows:
            assert 0 <= r.hits <= r.possible <= len(docs)

    def test_random_expectation_in_unit_interval(self):
        p = self._trained_gru()
        docs = self._docs()
        e = random_hybrid_expectation(p, docs)
        assert 0.0 < e < 1.0

    def test_agreement_bookkeeping(self):
        import textexplain as tx
        p = self._trained_gru()
        vocab_tokens = [[f"t{i}" for i in range(40)]]
        p.vocab = tx.Vocabulary.build(vocab_tokens, cutoff=1)
        samples = [
            AgreementSample([f"t{i}" for i in (1, 5, 6)],
                            ["NN", "DT", "JJ"], 0, "Sg"),
            AgreementSample([f"t{i}" for i in (2, 7)],
                            ["NNS", "DT"], 0, "Pl"),
            AgreementSample([f"t{i}" for i in (8, 1, 9)],
                            ["DT", "NN", "JJ"], 1, "Sg"),
        ]
        rows = run_agreement_eval(p, samples, ["grad1_s_l2"])
        by_key = {(r.method, r.metric): r for r in rows}
        assert len(rows) == 9               # 3 methods x 3 metrics
        for name in ("grad1_s_l2", "random", "last"):
            tgt = by_key[(name, "hit_target")]
            fc = by_key[(name, "hit_feat_correct")]
            fi = by_key[(name, "hit_feat_incorrect")]
            assert tgt.possible == fc.possible
            assert fc.possible + fi.possible == len(samples)

    def test_agreement_needs_vocab(self):
        p = self._trained_gru()
        p.vocab = None
        with pytest.raises(ValueError):
            run_agreement_eval(p, [SAMPLE], ["grad1_s_l2"])

    def test_agreement_needs_two_classes(self, monkeypatch):
        """A model with other than two classes is rejected by its class
        count before the first sample is run."""
        import textexplain as tx
        from conftest import rand_params
        from textexplain import evaluate
        p = rand_params("GRU", vocab_size=40, n_classes=3)
        p.vocab = tx.Vocabulary.build([[f"t{i}" for i in range(40)]],
                                      cutoff=40)

        def no_forward(*args):
            raise AssertionError("sample run before the class-count check")

        monkeypatch.setattr(evaluate, "forward", no_forward)
        with pytest.raises(ValueError, match="got 3 classes"):
            run_agreement_eval(p, [SAMPLE], ["grad1_s_l2"])
