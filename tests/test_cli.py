import json

import numpy as np
import pytest

from textexplain.cli import build_parser, main
from textexplain.explain import METHOD_NAMES, ExplainOptions, explain
from textexplain.models import forward, load_checkpoint, save_checkpoint
from textexplain.numerics import SeededRng


def write_corpus(path, n_docs, seed=0, n_sentences=2, sent_len=4):
    """Keyword corpus as JSONL: token 'yes' marks class 1, 'no' class 0."""
    rng = SeededRng(seed)
    filler = [f"w{i}" for i in range(30)]
    with open(path, "w", encoding="utf-8") as fh:
        for _ in range(n_docs):
            label = rng.uniform_int(0, 1)
            sentences = []
            for _ in range(n_sentences):
                sent = [filler[rng.uniform_int(0, 29)]
                        for _ in range(sent_len)]
                sentences.append(sent)
            si = rng.uniform_int(0, n_sentences - 1)
            ti = rng.uniform_int(0, sent_len - 1)
            sentences[si][ti] = "yes" if label == 1 else "no"
            fh.write(json.dumps({"label": label, "sentences": sentences})
                     + "\n")


@pytest.fixture(scope="module")
def trained_checkpoint(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    corpus = base / "corpus.jsonl"
    ckpt = base / "model.npz"
    write_corpus(corpus, 80)
    rc = main(["train", str(corpus), "--out", str(ckpt), "--arch", "GRU",
               "--d-embed", "8", "--d-hidden", "8", "--epochs", "4",
               "--seed", "0"])
    assert rc == 0
    return base, corpus, ckpt


class TestTrain:
    def test_checkpoint_loads(self, trained_checkpoint):
        _, _, ckpt = trained_checkpoint
        p = load_checkpoint(ckpt)
        assert p.arch == "GRU"
        assert p.vocab is not None

    def test_deterministic_given_seed(self, tmp_path, trained_checkpoint):
        base, corpus, ckpt = trained_checkpoint
        other = tmp_path / "again.npz"
        rc = main(["train", str(corpus), "--out", str(other), "--arch", "GRU",
                   "--d-embed", "8", "--d-hidden", "8", "--epochs", "4",
                   "--seed", "0"])
        assert rc == 0
        a = load_checkpoint(ckpt)
        b = load_checkpoint(other)
        np.testing.assert_array_equal(a.embedding, b.embedding)
        np.testing.assert_array_equal(a.w_cls, b.w_cls)

    def test_epoch_log(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, 20)
        log = tmp_path / "log.jsonl"
        rc = main(["train", str(corpus), "--out", str(tmp_path / "m.npz"),
                   "--epochs", "3", "--log", str(log)])
        assert rc == 0
        records = [json.loads(l) for l in log.read_text().splitlines()]
        assert [r["epoch"] for r in records] == [1, 2, 3]
        assert all("loss" in r and "accuracy" in r for r in records)

    def test_unknown_arch_is_data_error(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, 10)
        rc = main(["train", str(corpus), "--out", str(tmp_path / "m.npz"),
                   "--arch", "Transformer"])
        assert rc == 2

    def test_missing_corpus_is_data_error(self, tmp_path):
        rc = main(["train", str(tmp_path / "nope.jsonl"),
                   "--out", str(tmp_path / "m.npz")])
        assert rc == 2

    def test_malformed_json_is_data_error(self, tmp_path):
        corpus = tmp_path / "bad.jsonl"
        corpus.write_text("{not json}\n")
        rc = main(["train", str(corpus), "--out", str(tmp_path / "m.npz")])
        assert rc == 2


class TestExplain:
    def test_full_catalog_runs_and_decomp_error_is_recorded(self, tmp_path):
        """On a CNN checkpoint every method except decomp yields scores;
        decomp is recorded as an error and the run still exits 0."""
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, 40)
        ckpt = tmp_path / "cnn.npz"
        assert main(["train", str(corpus), "--out", str(ckpt), "--arch",
                     "CNN", "--d-embed", "8", "--d-hidden", "8",
                     "--epochs", "2"]) == 0
        docs = tmp_path / "docs.jsonl"
        write_corpus(docs, 2, seed=9)
        out = tmp_path / "rel.jsonl"
        rc = main(["explain", str(ckpt), str(docs), "--out", str(out),
                   "--methods", *METHOD_NAMES, "--limsse-n", "60",
                   "--int-steps", "3"])
        assert rc == 0
        records = [json.loads(l) for l in out.read_text().splitlines()]
        by_method = {}
        for r in records:
            by_method.setdefault(r["method"], []).append(r)
        assert set(by_method) == set(METHOD_NAMES)
        for name, rs in by_method.items():
            for r in rs:
                if name == "decomp":
                    assert "error" in r
                else:
                    assert len(r["scores"]) == len(r["tokens"])

    def test_fixed_k_and_html(self, trained_checkpoint, tmp_path):
        _, corpus, ckpt = trained_checkpoint
        out = tmp_path / "rel.jsonl"
        page = tmp_path / "rel.html"
        rc = main(["explain", str(ckpt), str(corpus), "--out", str(out),
                   "--html", str(page), "--k", "1",
                   "--methods", "grad1_s_dot"])
        assert rc == 0
        records = [json.loads(l) for l in out.read_text().splitlines()]
        assert all(r["k"] == 1 for r in records)
        assert "<span" in page.read_text()

    @pytest.mark.parametrize("k", ["5", "-1"])
    def test_out_of_range_k_is_usage_error(self, trained_checkpoint, tmp_path,
                                           capsys, k):
        """A 2-class model rejects --k outside [0, 2) before any document is
        explained: exit 1, one line on stderr, no output written."""
        _, corpus, ckpt = trained_checkpoint
        out = tmp_path / "rel.jsonl"
        rc = main(["explain", str(ckpt), str(corpus), "--out", str(out),
                   "--k", k, "--methods", "omit_1", "limsse_ms_s"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "out of range" in err
        assert not out.exists()

    def test_unknown_method_is_data_error(self, trained_checkpoint, tmp_path):
        _, corpus, ckpt = trained_checkpoint
        rc = main(["explain", str(ckpt), str(corpus),
                   "--methods", "shapley"])
        assert rc == 2


class TestEvalHybrid:
    def test_report_rows(self, trained_checkpoint, tmp_path):
        _, corpus, ckpt = trained_checkpoint
        out = tmp_path / "report.tsv"
        rc = main(["eval-hybrid", str(ckpt), str(corpus), "--out", str(out),
                   "--group-size", "10", "--methods", "grad1_s_dot",
                   "omit_1"])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("method\t")
        methods = {l.split("\t")[0] for l in lines[1:]}
        assert methods == {"grad1_s_dot", "omit_1", "random"}

    def test_too_few_sentences_is_data_error(self, trained_checkpoint,
                                             tmp_path):
        _, _, ckpt = trained_checkpoint
        corpus = tmp_path / "small.jsonl"
        write_corpus(corpus, 2)
        rc = main(["eval-hybrid", str(ckpt), str(corpus),
                   "--group-size", "10", "--methods", "grad1_s_dot"])
        assert rc == 2


class TestEvalAgreement:
    def test_report(self, trained_checkpoint, tmp_path):
        _, _, ckpt = trained_checkpoint
        tsv = tmp_path / "agree.tsv"
        tsv.write_text("the w1 yes\tDT NN VBZ\t2\tSg\n"
                       "w2 no w3\tNNS DT VBP\t1\tPl\n")
        out = tmp_path / "report.tsv"
        rc = main(["eval-agreement", str(ckpt), str(tsv), "--out", str(out),
                   "--methods", "grad1_s_l2"])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        # 3 methods (incl. random+last) x 3 metrics
        assert len(lines) == 1 + 9

    def test_bad_tsv_is_data_error(self, trained_checkpoint, tmp_path):
        _, _, ckpt = trained_checkpoint
        tsv = tmp_path / "bad.tsv"
        tsv.write_text("only two\tcolumns\n")
        rc = main(["eval-agreement", str(ckpt), str(tsv),
                   "--methods", "grad1_s_l2"])
        assert rc == 2


class TestRender:
    def test_round_trip_from_explain(self, trained_checkpoint, tmp_path):
        _, corpus, ckpt = trained_checkpoint
        rel = tmp_path / "rel.jsonl"
        assert main(["explain", str(ckpt), str(corpus), "--out", str(rel),
                     "--methods", "grad1_s_dot"]) == 0
        out = tmp_path / "heat.txt"
        assert main(["render", str(rel), "--out", str(out)]) == 0
        assert "\x1b[38;2;" in out.read_text()
        html_out = tmp_path / "heat.html"
        assert main(["render", str(rel), "--mode", "html", "--out",
                     str(html_out)]) == 0
        assert "<span" in html_out.read_text()

    def test_missing_file_is_data_error(self, tmp_path):
        assert main(["render", str(tmp_path / "nope.jsonl")]) == 2


class TestUsageErrors:
    def test_no_command(self):
        assert main([]) == 1

    def test_unknown_flag(self):
        assert main(["render", "x.jsonl", "--nope"]) == 1

    def test_missing_required_flag(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, 5)
        assert main(["train", str(corpus)]) == 1


class TestParserReuse:
    def test_successive_calls_do_not_leak(self, trained_checkpoint, tmp_path):
        """main parses with one parser per process, yet each call sees only
        its own flags: values and subcommands of the calls before it do not
        become the next call's defaults."""
        assert build_parser() is build_parser()
        _, corpus, ckpt = trained_checkpoint
        docs = tmp_path / "docs.jsonl"
        write_corpus(docs, 4, seed=4)
        assert main(["train", str(corpus), "--out", str(tmp_path / "l.npz"),
                     "--arch", "LSTM", "--direction", "bi", "--d-embed", "6",
                     "--d-hidden", "4", "--epochs", "1", "--seed", "3"]) == 0
        assert main(["explain", str(ckpt), str(docs), "--out",
                     str(tmp_path / "fixed.jsonl"), "--k", "0", "--methods",
                     "lrp", "deeplift", "--eps", "0.5"]) == 0
        plain = tmp_path / "plain.jsonl"
        assert main(["explain", str(ckpt), str(docs), "--out",
                     str(plain)]) == 0
        params = load_checkpoint(ckpt)
        records = [json.loads(l) for l in plain.read_text().splitlines()]
        assert [r["method"] for r in records] == ["grad1_s_dot", "lrp"] * 4
        for r in records:
            ids = params.vocab.encode(r["tokens"])
            assert r["k"] == forward(params, ids).predicted
            want = explain(r["method"], params, ids, r["k"], ExplainOptions())
            assert r["scores"] == [float(v) for v in want.scores]
        assert any(r["k"] != 0 for r in records)     # a leaked --k shows

        default = tmp_path / "default.npz"
        assert main(["train", str(corpus), "--out", str(default),
                     "--epochs", "1"]) == 0
        p = load_checkpoint(default)
        assert (p.arch, p.direction, p.d_embed, p.d_hidden) == (
            "GRU", "uni", 16, 16)
        args = build_parser().parse_args(["explain", "a", "b"])
        assert (list(args.methods), args.eps, args.k) == (
            ["grad1_s_dot", "lrp"], 1e-3, None)


class TestOptionValidation:
    """Bad numeric flags end in exit 1 with one line on stderr, before any
    input file is read: the files named here do not exist."""

    @pytest.mark.parametrize("command", ["explain", "eval-hybrid",
                                         "eval-agreement"])
    @pytest.mark.parametrize("flag", [["--eps", "0"], ["--eps", "-1"],
                                      ["--eps", "nan"], ["--int-steps", "0"],
                                      ["--int-steps", "-3"],
                                      ["--limsse-n", "0"],
                                      ["--limsse-maxlen", "0"]])
    def test_explain_options(self, tmp_path, capsys, command, flag):
        out = tmp_path / "out"
        rc = main([command, str(tmp_path / "model.npz"),
                   str(tmp_path / "docs"), "--out", str(out), *flag])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and flag[0] in err
        assert not out.exists()

    @pytest.mark.parametrize("flag", [["--batch-size", "0"],
                                      ["--d-hidden", "0"],
                                      ["--d-embed", "0"],
                                      ["--epochs", "-1"],
                                      ["--lr", "nan"], ["--lr", "inf"],
                                      ["--lr", "0"], ["--lr", "-0.1"],
                                      ["--vocab-cutoff", "0"],
                                      ["--kernel-width", "4"],
                                      ["--kernel-width", "0"],
                                      ["--kernel-width", "-3"]])
    def test_train_options(self, tmp_path, capsys, flag):
        out = tmp_path / "m.npz"
        rc = main(["train", str(tmp_path / "c.jsonl"), "--out", str(out),
                   *flag])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and flag[0] in err
        assert not out.exists()

    def test_group_size(self, tmp_path, capsys):
        rc = main(["eval-hybrid", str(tmp_path / "m.npz"),
                   str(tmp_path / "c.jsonl"), "--group-size", "0"])
        assert rc == 1
        assert capsys.readouterr().err.count("\n") == 1


class TestDataErrors:
    @pytest.mark.parametrize("record", [
        {"label": 1, "sentences": "abc"},
        {"label": 1, "sentences": ["a", "b"]},
        {"label": 1, "sentences": [["a", 2]]},
        {"label": True, "sentences": [["a"]]},
        {"label": 1.5, "sentences": [["a"]]},
        {"label": "x", "sentences": [["a"]]},
        [1, 2],
    ])
    def test_corpus_schema(self, tmp_path, capsys, record):
        """A record that is not an int label over a list of lists of str
        is a data error naming the file and line."""
        corpus = tmp_path / "c.jsonl"
        corpus.write_text(json.dumps({"label": 0, "sentences": [["a"]]})
                          + "\n" + json.dumps(record) + "\n")
        out = tmp_path / "m.npz"
        assert main(["train", str(corpus), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{corpus}:2:" in err
        assert not out.exists()

    def test_non_finite_checkpoint(self, trained_checkpoint, tmp_path,
                                   capsys):
        _, corpus, ckpt = trained_checkpoint
        params = load_checkpoint(ckpt)
        params.w_cls[0, 0] = np.nan
        bad = tmp_path / "nan.npz"
        save_checkpoint(bad, params)
        rc = main(["explain", str(bad), str(corpus), "--methods", "lrp"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "w_cls" in err

    @pytest.mark.parametrize("command", ["explain", "eval-hybrid",
                                         "eval-agreement"])
    def test_missing_checkpoint(self, trained_checkpoint, tmp_path, capsys,
                                command):
        _, corpus, _ = trained_checkpoint
        rc = main([command, str(tmp_path / "nope.npz"), str(corpus)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "nope.npz" in err

    def test_render_record_without_tokens(self, tmp_path, capsys):
        rel = tmp_path / "rel.jsonl"
        rel.write_text(json.dumps({"doc": 0, "method": "lrp",
                                   "scores": [0.5, -1.0]}) + "\n")
        assert main(["render", str(rel)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "tokens" in err

    @pytest.mark.parametrize("line", [
        "3",
        '{"scores": [1, null], "tokens": ["a", "b"]}',
        '{"scores": [1, 1e999], "tokens": ["a", "b"]}',
        '{"scores": [1, 2], "tokens": "ab"}',
        '{"scores": [1, 2], "tokens": ["a"]}',
    ], ids=["not-object", "null-score", "inf-score", "string-tokens",
            "length-mismatch"])
    def test_render_bad_record(self, tmp_path, capsys, line):
        """A record that is not an object, or a map whose scores are not
        finite numbers or whose tokens are not one string per score, is a
        data error naming the file and record; nothing is rendered."""
        rel = tmp_path / "rel.jsonl"
        rel.write_text(json.dumps({"doc": 0, "method": "lrp", "error": "x"})
                       + "\n" + line + "\n")
        assert main(["render", str(rel)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and f"{rel}: record 2:" in err

    @pytest.mark.parametrize("write", [
        lambda path, good: path.write_bytes(b"PK\x03\x04 not a zip archive"),
        lambda path, good: np.savez(path, meta=np.asarray(json.dumps([1]))),
        lambda path, good: np.savez(path, **{
            **good, "meta": np.asarray(str(good["meta"]).replace(
                '"kernel_width": 5', '"kernel_width": null'))}),
    ], ids=["bad-zip", "meta-not-object", "kernel-width-null"])
    def test_corrupt_checkpoint(self, trained_checkpoint, tmp_path, capsys,
                                write):
        _, corpus, ckpt = trained_checkpoint
        bad = tmp_path / "bad.npz"
        with np.load(ckpt) as good:
            write(bad, dict(good))
        rc = main(["explain", str(bad), str(corpus), "--methods", "lrp"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "bad.npz" in err

    def test_agreement_on_a_three_class_model(self, trained_checkpoint,
                                              tmp_path, capsys):
        """The agreement game scores Sg/Pl predictions only; a model with
        another class count (here one that predicts class 2) is a data
        error, not an IndexError."""
        _, _, ckpt = trained_checkpoint
        params = load_checkpoint(ckpt)
        params.w_cls = np.vstack([params.w_cls, params.w_cls[:1]])
        params.b_cls = np.append(params.b_cls, 100.0)
        three = tmp_path / "three.npz"
        save_checkpoint(three, params)
        tsv = tmp_path / "agree.tsv"
        tsv.write_text("w1 w2 yes\tNN DT VBZ\t1\tSg\n")
        assert main(["eval-agreement", str(three), str(tsv)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and "3 classes" in err
