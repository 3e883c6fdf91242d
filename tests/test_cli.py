import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from textexplain import cli, models
from textexplain.explain import gradient
from textexplain.cli import _options_from, build_parser, main
from textexplain.explain import METHOD_NAMES, ExplainOptions, explain
from textexplain.models import Vocabulary, forward, init_params, \
    load_checkpoint, save_checkpoint
from textexplain.numerics import SeededRng
from textexplain.train import TrainConfig, train


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


def html_maps(page):
    """The (doctype count, captions) of an HTML heatmap page."""
    return page.count("<!DOCTYPE html>"), [
        line.split("</h3>")[0].split("<h3>")[-1]
        for line in page.splitlines() if "<h3>" in line]


def _save_with_vocab(path, good, edit):
    """Save the arrays of ``good`` under a copy of its meta whose vocabulary
    dict ``edit`` changed in place."""
    meta = json.loads(str(good["meta"]))
    edit(meta["vocab"])
    np.savez(path, **{**good, "meta": np.asarray(json.dumps(meta))})


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

    def test_deterministic_given_seed(self, tmp_path):
        """Two seeded runs on a corpus of mixed lengths (ragged minibatches)
        write the same epoch log and the same weights, every one of them,
        for a unidirectional and a bidirectional model."""
        corpus, short = tmp_path / "c.jsonl", tmp_path / "short.jsonl"
        write_corpus(corpus, 24)
        write_corpus(short, 16, seed=1, n_sentences=1, sent_len=3)
        corpus.write_text(corpus.read_text() + short.read_text())
        for direction in ("uni", "bi"):
            runs = []
            for run in range(2):
                out, log = (tmp_path / f"{direction}{run}.{ext}"
                            for ext in ("npz", "jsonl"))
                assert main(["train", str(corpus), "--out", str(out),
                             "--log", str(log), "--arch", "GRU",
                             "--direction", direction, "--d-embed", "8",
                             "--d-hidden", "8", "--epochs", "3",
                             "--seed", "0"]) == 0
                runs.append((log.read_text(), load_checkpoint(out).flat))
            (log_a, flat_a), (log_b, flat_b) = runs
            assert log_a.count("\n") == 3 and log_a == log_b
            np.testing.assert_array_equal(flat_a, flat_b)

    def test_three_class_corpus(self, tmp_path):
        """A corpus labelled 0, 1 and 2 trains a three-class model, which
        explains class 2."""
        corpus, out = tmp_path / "c.jsonl", tmp_path / "m.npz"
        corpus.write_text("".join(
            json.dumps({"label": lab, "sentences": [[f"w{i}", f"k{lab}"]]})
            + "\n" for i, lab in enumerate([0, 1, 2, 2, 1, 0])))
        assert main(["train", str(corpus), "--out", str(out),
                     "--epochs", "1"]) == 0
        assert load_checkpoint(out).n_classes == 3
        assert main(["explain", str(out), str(corpus), "--k", "2",
                     "--methods", "lrp", "omit_1"]) == 0

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

    def test_diverging_run_is_usage_error(self, tmp_path, capsys):
        """--lr 1e308 overflows in the first epoch: one error line naming
        the epoch, exit 1, no numpy warning, no checkpoint, no log record."""
        corpus, out, log = (tmp_path / f for f in ("c.jsonl", "m.npz",
                                                   "log.jsonl"))
        write_corpus(corpus, 20)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["train", str(corpus), "--out", str(out), "--lr",
                       "1e308", "--log", str(log)])
        assert rc == 1 and caught == []
        assert capsys.readouterr().err == (
            "error: training diverged in epoch 1 (loss nan); try a smaller "
            "--lr\n")
        assert not out.exists() and log.read_text() == ""

    def test_non_finite_weights_end_the_run(self, tmp_path, capsys,
                                            monkeypatch):
        """Weights the loss does not read (the out-of-vocabulary row of a
        corpus with none) are checked too: a run whose second epoch leaves
        one infinite stops there, after logging the first."""
        def second_epoch_breaks(params, corpus, config):
            train(params, corpus, config)
            if config.seed == 2:
                params.embedding[0, 0] = np.inf

        monkeypatch.setattr(cli, "train", second_epoch_breaks)
        corpus, out, log = (tmp_path / f for f in ("c.jsonl", "m.npz",
                                                   "log.jsonl"))
        write_corpus(corpus, 20)
        rc = main(["train", str(corpus), "--out", str(out), "--epochs", "3",
                   "--log", str(log)])
        err = capsys.readouterr().err.splitlines()
        assert rc == 1 and len(err) == 2
        assert err[0].startswith("epoch 1: loss=")
        assert err[1].startswith("error: training diverged in epoch 2 (loss ")
        assert "nan" not in err[1] and not out.exists()
        assert [json.loads(line)["epoch"]
                for line in log.read_text().splitlines()] == [1]

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

    def test_a_method_the_model_cannot_run_shares_the_forward(
            self, tmp_path, monkeypatch):
        """With ``decomp`` asked of a CNN, the other methods still share
        one forward per document, of 51 rows: the document, the all-zero
        input and 49 integrated-gradient inputs."""
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, 8)
        ckpt = tmp_path / "cnn.npz"
        assert main(["train", str(corpus), "--out", str(ckpt), "--arch",
                     "CNN", "--d-embed", "8", "--d-hidden", "8",
                     "--epochs", "1"]) == 0
        docs = tmp_path / "docs.jsonl"
        write_corpus(docs, 3, seed=4)
        runs = []
        real = models._run

        def counting(params, embs, **kwargs):
            runs.append(len(embs))
            return real(params, embs, **kwargs)

        for module in (models, gradient):
            monkeypatch.setattr(module, "_run", counting)
        out = tmp_path / "rel.jsonl"
        methods = ["gradint_s_dot", "deeplift", "decomp"]
        assert main(["explain", str(ckpt), str(docs), "--out", str(out),
                     "--methods", *methods]) == 0
        assert runs == [51] * 3
        records = [json.loads(l) for l in out.read_text().splitlines()]
        assert [(r["doc"], r["method"]) for r in records] == [
            (doc, name) for doc in range(3) for name in methods]
        for r in records:
            assert ("error" in r) == (r["method"] == "decomp")

    def test_fixed_k_and_html(self, trained_checkpoint, tmp_path):
        _, corpus, ckpt = trained_checkpoint
        out = tmp_path / "rel.jsonl"
        page = tmp_path / "rel.html"
        rc = main(["explain", str(ckpt), str(corpus), "--out", str(out),
                   "--html", str(page), "--k", "1",
                   "--methods", "grad1_s_dot", "lrp"])
        assert rc == 0
        records = [json.loads(l) for l in out.read_text().splitlines()]
        assert all(r["k"] == 1 for r in records)
        html = page.read_text()
        assert "<span" in html
        # one page, one caption per map, and what render writes of the JSONL
        assert html_maps(html) == (1, [f"doc {r['doc']} / {r['method']}"
                                       for r in records])
        rendered = tmp_path / "rendered.html"
        assert main(["render", str(out), "--mode", "html", "--out",
                     str(rendered)]) == 0
        assert rendered.read_bytes() == page.read_bytes()

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

    def test_bad_html_path_writes_no_map(self, trained_checkpoint, tmp_path,
                                         capsys):
        """Both output paths are checked before the first document is
        explained: a bad --html leaves no map in --out or on stdout."""
        _, corpus, ckpt = trained_checkpoint
        maps = tmp_path / "maps.jsonl"
        bad = str(tmp_path / "missing" / "page.html")
        argv = ["explain", str(ckpt), str(corpus), "--methods", "lrp",
                "--html", bad]
        assert main(argv + ["--out", str(maps)]) == 2
        assert not maps.exists()
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 2 and bad in err

    def test_no_non_empty_document_is_data_error(self, trained_checkpoint,
                                                 tmp_path, capsys):
        """A corpus whose documents are all empty exits 2 with train's
        one-line error and writes nothing; in a mixed corpus the empty
        documents are skipped."""
        _, _, ckpt = trained_checkpoint
        empty = [{"label": 0, "sentences": []},
                 {"label": 1, "sentences": [[]]}]
        docs = tmp_path / "docs.jsonl"
        docs.write_text("".join(json.dumps(d) + "\n" for d in empty))
        out = tmp_path / "rel.jsonl"
        argv = ["explain", str(ckpt), str(docs), "--methods", "lrp"]
        assert main(argv + ["--out", str(out)]) == 2
        assert not out.exists()
        assert main(argv) == 2
        assert main(["train", str(docs), "--out",
                     str(tmp_path / "m.npz")]) == 2
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err.splitlines() == [
            "error: corpus contains no non-empty documents"] * 3

        mixed = empty + [{"label": 1, "sentences": [["yes", "w1"]]}]
        docs.write_text("".join(json.dumps(d) + "\n" for d in mixed))
        assert main(argv + ["--out", str(out)]) == 0
        records = [json.loads(l) for l in out.read_text().splitlines()]
        assert [(r["doc"], r["tokens"]) for r in records] == [
            (2, ["yes", "w1"])]

    def test_unknown_method_is_data_error(self, trained_checkpoint, tmp_path):
        _, corpus, ckpt = trained_checkpoint
        rc = main(["explain", str(ckpt), str(corpus),
                   "--methods", "shapley"])
        assert rc == 2

    @pytest.mark.parametrize("command", ["explain", "eval-hybrid",
                                         "eval-agreement"])
    def test_repeated_method_is_data_error(self, tmp_path, capsys, command):
        """A method named twice is rejected before the checkpoint, which
        does not exist here, is read."""
        out = tmp_path / "out"
        rc = main([command, str(tmp_path / "model.npz"),
                   str(tmp_path / "docs"), "--out", str(out),
                   "--methods", "lrp", "omit_1", "lrp"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "'lrp' named twice" in err
        assert not out.exists()


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

    @pytest.mark.parametrize("text", ["", "\n\n"], ids=["empty", "blank"])
    def test_no_sample_is_data_error(self, trained_checkpoint, tmp_path,
                                     capsys, text):
        _, _, ckpt = trained_checkpoint
        tsv, out = tmp_path / "agree.tsv", tmp_path / "report.tsv"
        tsv.write_text(text)
        rc = main(["eval-agreement", str(ckpt), str(tsv), "--out", str(out),
                   "--methods", "lrp"])
        assert rc == 2 and not out.exists()
        assert capsys.readouterr().err == f"error: {tsv}: no samples\n"

    def test_bad_tsv_is_data_error(self, trained_checkpoint, tmp_path,
                                   capsys):
        _, _, ckpt = trained_checkpoint
        tsv = tmp_path / "bad.tsv"
        tsv.write_text("only two\tcolumns\n")
        rc = main(["eval-agreement", str(ckpt), str(tsv),
                   "--methods", "grad1_s_l2"])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {tsv}:1: expected 4 tab-separated columns, got 2\n")

    def test_bad_tsv_row_is_named_by_its_line(self, trained_checkpoint,
                                              tmp_path, capsys):
        """A bad row after a good one, in a CRLF file, and a bad subject
        index are each named ``PATH:N``, as every other input is."""
        _, _, ckpt = trained_checkpoint
        tsv = tmp_path / "two.tsv"
        for text, error in [
                ("a b\tDT NN\t1\tSg\r\nonly two\tcolumns\r\n",
                 "2: expected 4 tab-separated columns, got 2"),
                ("\na b\tDT NN\tx\tSg\n", "2: bad subject index 'x'"),
                ("a b\tDT NN\t1\tSg\n\na\tNN\t1\tNeut\n",
                 "3: bad number label 'Neut'")]:
            tsv.write_bytes(text.encode())
            rc = main(["eval-agreement", str(ckpt), str(tsv),
                       "--methods", "grad1_s_l2"])
            assert rc == 2
            assert capsys.readouterr().err == f"error: {tsv}:{error}\n"


class TestRender:
    def test_round_trip_from_explain(self, trained_checkpoint, tmp_path):
        _, corpus, ckpt = trained_checkpoint
        rel = tmp_path / "rel.jsonl"
        page = tmp_path / "explain.html"
        assert main(["explain", str(ckpt), str(corpus), "--out", str(rel),
                     "--html", str(page), "--methods", "grad1_s_dot"]) == 0
        out = tmp_path / "heat.txt"
        assert main(["render", str(rel), "--out", str(out)]) == 0
        assert "\x1b[38;2;" in out.read_text()
        html_out = tmp_path / "heat.html"
        assert main(["render", str(rel), "--mode", "html", "--out",
                     str(html_out)]) == 0
        html = html_out.read_text()
        assert "<span" in html
        records = [json.loads(l) for l in rel.read_text().splitlines()]
        assert html_maps(html) == (1, [f"doc {r['doc']} / grad1_s_dot"
                                       for r in records])
        assert html_out.read_bytes() == page.read_bytes()

    def test_missing_file_is_data_error(self, tmp_path):
        assert main(["render", str(tmp_path / "nope.jsonl")]) == 2


class TestUsageErrors:
    """argparse's errors end like the flag checks: exit 1 and one
    ``error: …`` line on stderr, no usage block."""

    def test_no_command(self, capsys):
        assert main([]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")

    def test_unknown_flag(self, capsys):
        assert main(["render", "x.jsonl", "--nope"]) == 1
        assert capsys.readouterr().err == (
            "error: unrecognized arguments: --nope\n")

    def test_missing_required_flag(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, 5)
        assert main(["train", str(corpus)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--out" in err

    @pytest.mark.parametrize("flag", [["--epochs", "abc"],
                                      ["--direction", "sideways"]],
                             ids=["epochs-abc", "direction-sideways"])
    def test_bad_flag_value(self, tmp_path, capsys, flag):
        out = tmp_path / "m.npz"
        assert main(["train", str(tmp_path / "c.jsonl"), "--out", str(out),
                     *flag]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and flag[0] in err and flag[1] in err
        assert not out.exists()

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "usage: textexplain" in capsys.readouterr().out


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


class TestParserDefaults:
    @pytest.mark.parametrize("command", ["explain", "eval-hybrid",
                                         "eval-agreement"])
    def test_method_flags_default_to_the_library_options(self, command):
        args = build_parser().parse_args([command, "model.npz", "input"])
        assert _options_from(args) == ExplainOptions()

    def test_train_flags_default_to_the_library_config(self):
        args = build_parser().parse_args(["train", "c.jsonl", "--out", "m"])
        config = TrainConfig()
        assert ((args.epochs, args.batch_size, args.lr)
                == (config.epochs, config.batch_size, config.lr))


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
                                      ["--kernel-width", "-3"],
                                      ["--direction", "bi", "--arch", "CNN"],
                                      ["--direction", "bi",
                                       "--d-hidden", "3"]])
    def test_train_options(self, tmp_path, capsys, flag):
        out = tmp_path / "m.npz"
        rc = main(["train", str(tmp_path / "c.jsonl"), "--out", str(out),
                   *flag])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and flag[0] in err
        assert not out.exists()

    @pytest.mark.parametrize("command, files, flags", [
        ("train", ["c.jsonl"], ["--out", "m.npz", "--seed", "-1"]),
        ("explain", ["m.npz", "docs"],
         ["--methods", "limsse_ms_s", "--seed", "-3"]),
        ("eval-hybrid", ["m.npz", "c.jsonl"], ["--seed", "-1"]),
        ("eval-agreement", ["m.npz", "a.tsv"], ["--seed", "-1"]),
    ], ids=["train", "explain", "eval-hybrid", "eval-agreement"])
    def test_negative_seed(self, tmp_path, capsys, command, files, flags):
        rc = main([command, *(str(tmp_path / f) for f in files), *flags])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--seed" in err

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
        '{"scores": [1, 2],',
    ], ids=["not-object", "null-score", "inf-score", "string-tokens",
            "length-mismatch", "invalid-json"])
    def test_render_bad_record(self, tmp_path, capsys, line):
        """A line that is not a JSON object, or a map whose scores are not
        finite numbers or whose tokens are not one string per score, is a
        data error naming the file and line, as the corpus reader does;
        nothing is rendered."""
        rel = tmp_path / "rel.jsonl"
        rel.write_text(json.dumps({"doc": 0, "method": "lrp", "error": "x"})
                       + "\n" + line + "\n")
        assert main(["render", str(rel)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and f"{rel}:2:" in err

    @pytest.mark.parametrize("write", [
        lambda path, good: path.write_bytes(b"PK\x03\x04 not a zip archive"),
        lambda path, good: np.savez(path, meta=np.asarray(json.dumps([1]))),
        lambda path, good: np.savez(path, **{
            **good, "meta": np.asarray(str(good["meta"]).replace(
                '"kernel_width": 5', '"kernel_width": null'))}),
        lambda path, good: np.savez(path, **{
            **good, "meta": np.asarray(str(good["meta"]).replace(
                '"direction": "uni"', '"direction": "bidirectional"'))}),
        lambda path, good: np.savez(path, **{
            **good, "meta": np.asarray("{'format': 1}")}),
        lambda path, good: _save_with_vocab(
            path, good, lambda v: v["tokens"].extend(
                f"extra{i}" for i in range(21))),
        lambda path, good: _save_with_vocab(
            path, good, lambda v: v.update(oov_id=len(v["tokens"]))),
    ], ids=["bad-zip", "meta-not-object", "kernel-width-null",
            "unknown-direction", "meta-not-json", "vocab-over-embedding",
            "oov-id-out-of-range"])
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

    @pytest.mark.parametrize("write, message", [
        (lambda path, good: np.save(path.with_suffix(".npy"), good["b_cls"])
         or path.with_suffix(".npy").rename(path), "not a checkpoint file"),
        (lambda path, good: np.savez(path, **{
            **good, "meta": np.asarray(str(good["meta"]).replace(
                '"version": 1', '"version": 2'))}),
         "unsupported checkpoint version"),
        (lambda path, good: np.savez(path, **{
            k: a for k, a in good.items() if k != "b_cls"}),
         "missing array b_cls"),
        (lambda path, good: np.savez(path, **{
            **good, "embedding": np.zeros(3)}),
         "embedding must have 2 dimension(s), got shape (3,)"),
        (lambda path, good: np.savez(path, **good, extra=np.zeros(2)),
         "unexpected array extra"),
    ], ids=["npy-file", "version-2", "no-b-cls", "1-d-embedding",
            "extra-array"])
    def test_checkpoint_layout_errors(self, trained_checkpoint, tmp_path,
                                      capsys, write, message):
        """A checkpoint that is a .npy file, of another version, or whose
        arrays are missing, mis-shaped or one too many, is a data error
        naming the path."""
        _, corpus, ckpt = trained_checkpoint
        bad = tmp_path / "bad.npz"
        with np.load(ckpt) as good:
            write(bad, dict(good))
        rc = main(["explain", str(bad), str(corpus), "--methods", "lrp"])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"

    def test_out_directory_is_reported_before_the_corpus(
            self, tmp_path, capsys, monkeypatch):
        """train --out naming an existing directory fails before the
        corpus is read."""
        read = []
        monkeypatch.setattr(cli, "_read_corpus", read.append)
        assert main(["train", str(tmp_path / "c.jsonl"),
                     "--out", str(tmp_path)]) == 2
        assert read == []
        assert capsys.readouterr().err == (
            f"error: cannot write checkpoint {tmp_path}: is a directory\n")

    def test_negative_label(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text(json.dumps({"label": -1, "sentences": [["a"]]})
                          + "\n")
        assert main(["train", str(corpus), "--out",
                     str(tmp_path / "m.npz")]) == 2
        assert capsys.readouterr().err == (
            f"error: {corpus}: negative label -1\n")

    @pytest.mark.parametrize("command", ["eval-hybrid", "eval-agreement"])
    def test_method_the_model_cannot_run(self, tmp_path, capsys, command):
        """``decomp`` on a CNN is rejected as soon as the checkpoint loads,
        before the corpus or TSV is read (here it does not exist)."""
        vocab = Vocabulary.build([["yes", "no"]])
        ckpt = tmp_path / "cnn.npz"
        save_checkpoint(ckpt, init_params("CNN", len(vocab), 4, 4, 2,
                                          SeededRng(0), vocab=vocab))
        rc = main([command, str(ckpt), str(tmp_path / "missing"),
                   "--methods", "lrp", "decomp"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: decomposition undefined for CNN\n"

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

    @pytest.mark.parametrize("command", [
        "explain --out", "explain --html", "train --out", "train --log",
        "render --out", "eval-hybrid --out", "eval-agreement --out"])
    def test_unwritable_output(self, trained_checkpoint, tmp_path, capsys,
                               command):
        """An output path in a missing directory is a data error naming
        the path, not a traceback; train fails before it trains."""
        _, corpus, ckpt = trained_checkpoint
        name, flag = command.split()
        bad = str(tmp_path / "missing" / "out")
        rel = tmp_path / "rel.jsonl"
        rel.write_text(json.dumps({"scores": [1.0], "tokens": ["a"]}) + "\n")
        tsv = tmp_path / "agree.tsv"
        tsv.write_text("w1 w2 yes\tNN DT VBZ\t1\tSg\n")
        argv = {
            "explain": ["explain", str(ckpt), str(corpus), "--methods",
                        "lrp"],
            "train": ["train", str(corpus), "--out", str(tmp_path / "m.npz"),
                      "--epochs", "1"],
            "render": ["render", str(rel)],
            "eval-hybrid": ["eval-hybrid", str(ckpt), str(corpus),
                            "--methods", "lrp"],
            "eval-agreement": ["eval-agreement", str(ckpt), str(tsv),
                               "--methods", "lrp"],
        }[name]
        assert main(argv + [flag, bad]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and bad in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, runner", [
        ("eval-hybrid", "run_hybrid_eval"),
        ("eval-agreement", "run_agreement_eval")])
    def test_unwritable_report_scores_nothing(self, trained_checkpoint,
                                              tmp_path, capsys, monkeypatch,
                                              command, runner):
        """The evaluations check --out before the first document."""
        _, corpus, ckpt = trained_checkpoint
        scored = []
        monkeypatch.setattr(cli, runner, lambda *a, **k: scored.append(a))
        tsv = tmp_path / "agree.tsv"
        tsv.write_text("w1 w2 yes\tNN DT VBZ\t1\tSg\n")
        data = corpus if command == "eval-hybrid" else tsv
        bad = str(tmp_path / "missing" / "x.tsv")
        assert main([command, str(ckpt), str(data), "--methods", "lrp",
                     "--out", bad]) == 2
        assert scored == []
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and bad in err

    @pytest.mark.parametrize("arch, direction, key, edit", [
        ("QLSTM", "uni", "layers/fwd/Ki", lambda w: w[:, :2]),
        ("CNN", "uni", "layers/fwd/K", lambda w: w[:3]),
        ("GRU", "uni", "layers/fwd/Uz", lambda w: w[:3, :3]),
        ("LSTM", "bi", "layers/bwd/Vi", None),
    ], ids=["qlstm-gate-rows", "cnn-kernel-width", "gru-u-shape",
            "lstm-bi-no-bwd"])
    def test_mis_shaped_or_missing_weight(self, trained_checkpoint, tmp_path,
                                          capsys, arch, direction, key, edit):
        """A weight whose shape disagrees with the model the other arrays
        and the metadata describe (a CNN kernel of width 3 under
        kernel_width 5, say), or a missing one (every layers/bwd/* of a
        bidirectional LSTM), is a data error naming the array."""
        _, corpus, _ = trained_checkpoint
        vocab = Vocabulary.build([["yes", "no"]])
        good = tmp_path / "good.npz"
        save_checkpoint(good, init_params(arch, len(vocab), 4, 8, 2,
                                          SeededRng(0), direction=direction,
                                          vocab=vocab))
        with np.load(good) as data:
            arrays = dict(data)
        if edit is None:
            arrays = {k: a for k, a in arrays.items()
                      if not k.startswith("layers/bwd/")}
        else:
            arrays[key] = edit(arrays[key])
        bad = tmp_path / "bad.npz"
        np.savez(bad, **arrays)
        rc = main(["explain", str(bad), str(corpus), "--methods",
                   "grad1_s_dot"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and key in err and "bad.npz" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("labels, missing", [
        ([0, 10 ** 15], 1), ([0, 2, 2], 1), ([3, 2, 1], 0)])
    def test_corpus_labels_skip_a_class(self, tmp_path, capsys, labels,
                                        missing):
        """Every class up to the largest label needs a document; a label
        of 10**15 is rejected before any array is made."""
        corpus = tmp_path / "c.jsonl"
        corpus.write_text("".join(
            json.dumps({"label": lab, "sentences": [["a", "b"]]}) + "\n"
            for lab in labels))
        out = tmp_path / "m.npz"
        assert main(["train", str(corpus), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"label {missing}," in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        *(["explain", "--methods", name, *k]
          for name in ("limsse_bb", "lrp", "omit_1", "occ_3", "limsse_ms_s")
          for k in ([], ["--k", "0"])),
        ["eval-hybrid", "--group-size", "1", "--methods", "limsse_bb"],
        ["eval-agreement", "--methods", "limsse_bb"],
    ], ids=lambda argv: "-".join(argv).replace("--", ""))
    def test_non_finite_class_scores(self, tmp_path, capsys, argv):
        """A model whose finite weights overflow scores NaN on every input
        (a width-1 CNN kernel with rows [1e308, -1e308] over embeddings of
        1e308): the class scores are checked where the explainers read
        them, so every command exits 2 with one line, writes nothing and
        lets no numpy warning through."""
        vocab = Vocabulary.build([["a", "no", "b", "yes"]])
        params = init_params("CNN", len(vocab), 2, 2, 2, SeededRng(0),
                             kernel_width=1, vocab=vocab)
        params.embedding[:] = 1e308
        params.dir_stack.kernel[...] = [1e308, -1e308]
        # inf - inf, should the kernel's sums round to inf rather than NaN
        params.w_cls[:] = [[1.0, -1.0], [-1.0, 1.0]]
        ckpt = tmp_path / "nan.npz"
        save_checkpoint(ckpt, params)
        corpus = tmp_path / "c.jsonl"
        corpus.write_text("".join(json.dumps({"label": lab, "sentences": [
            ["a", word]]}) + "\n" for lab, word in ((0, "no"), (1, "yes"))))
        tsv = tmp_path / "agree.tsv"
        tsv.write_text("a no\tDT NN\t1\tSg\nb yes\tDT NN\t1\tPl\n")
        data = tsv if argv[0] == "eval-agreement" else corpus
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main([argv[0], str(ckpt), str(data), *argv[1:],
                       "--out", str(out)])
        assert rc == 2 and caught == []
        assert capsys.readouterr().err == (
            "error: the model's class scores are not finite\n")
        assert not out.exists()

    def test_unwritable_log_is_reported_before_the_corpus(self, tmp_path,
                                                          capsys,
                                                          monkeypatch):
        """train checks --log next to --out: a missing corpus is not what
        is reported, and an existing one is not read."""
        bad = str(tmp_path / "missing" / "log.jsonl")
        argv = ["--out", str(tmp_path / "m.npz"), "--log", bad]
        assert main(["train", str(tmp_path / "nope.jsonl"), *argv]) == 2
        read = []
        monkeypatch.setattr(cli, "_read_corpus", read.append)
        corpus = tmp_path / "c.jsonl"
        write_corpus(corpus, 4)
        assert main(["train", str(corpus), *argv]) == 2
        assert read == []
        assert capsys.readouterr().err == (
            f"error: cannot write {bad}: no directory {tmp_path / 'missing'}"
            "\n") * 2

    def test_unwritable_render_out_is_reported_before_the_input(
            self, tmp_path, capsys, monkeypatch):
        """render checks --out before it reads its input: a missing input
        is not what is reported, and an existing one is not read."""
        bad = str(tmp_path / "missing" / "heat.html")
        assert main(["render", str(tmp_path / "nope.jsonl"),
                     "--out", bad]) == 2
        read = []
        monkeypatch.setattr(cli, "_read_jsonl", read.append)
        rel = tmp_path / "rel.jsonl"
        rel.write_text(json.dumps({"scores": [1.0], "tokens": ["a"]}) + "\n")
        assert main(["render", str(rel), "--out", bad]) == 2
        assert read == []
        assert capsys.readouterr().err == (
            f"error: cannot write {bad}: no directory {tmp_path / 'missing'}"
            "\n") * 2

    @pytest.mark.parametrize("command", ["train", "explain", "render",
                                         "eval-agreement"])
    def test_a_byte_that_is_not_utf8_names_its_line(
            self, trained_checkpoint, tmp_path, capsys, command):
        """A byte that is not UTF-8 on line 2 of a corpus, relevance file
        or agreement TSV is a data error naming that line."""
        _, _, ckpt = trained_checkpoint
        bad = tmp_path / "bad.in"
        first = {"eval-agreement": b"w1 w2 yes\tNN DT VBZ\t1\tSg",
                 "render": json.dumps({"scores": [1.0], "tokens": ["a"]})
                 .encode()}.get(command, b'{"label": 0, "sentences": [["a"]]}')
        bad.write_bytes(first + b"\r\n\xff\n")
        argv = {
            "train": ["train", str(bad), "--out", str(tmp_path / "m.npz")],
            "explain": ["explain", str(ckpt), str(bad), "--methods", "lrp"],
            "render": ["render", str(bad)],
            "eval-agreement": ["eval-agreement", str(ckpt), str(bad),
                               "--methods", "lrp"],
        }[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{bad}:2: not UTF-8 text" in err

    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_line_ends_read_as_text_mode(self, trained_checkpoint, tmp_path,
                                         capsys, end):
        """Lines ending in \\r\\n or \\r read as lines ending in \\n:
        the same agreement report and the same heatmaps."""
        _, _, ckpt = trained_checkpoint
        rows = ["the w1 yes\tDT NN VBZ\t2\tSg",
                "w2 no w3\tNNS DT VBP\t1\tPl"]
        maps = [json.dumps({"scores": [1.0, -2.0], "tokens": ["a", "b"]}),
                json.dumps({"error": "x"})]
        outputs = []
        for sep in ("\n", end):
            tsv, rel = tmp_path / "agree.tsv", tmp_path / "rel.jsonl"
            tsv.write_bytes((sep.join(rows) + sep).encode())
            rel.write_bytes((sep.join(maps) + sep).encode())
            assert main(["eval-agreement", str(ckpt), str(tsv),
                         "--methods", "grad1_s_l2"]) == 0
            assert main(["render", str(rel)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_one_label_binary_corpus_trains(self, tmp_path):
        """A sample of a two-class corpus may hold label 0 or 1 alone."""
        for label in (0, 1):
            corpus = tmp_path / f"c{label}.jsonl"
            corpus.write_text(json.dumps({"label": label,
                                          "sentences": [["a"]]}) + "\n")
            out = tmp_path / f"m{label}.npz"
            assert main(["train", str(corpus), "--out", str(out),
                         "--epochs", "1"]) == 0
            assert load_checkpoint(out).n_classes == 2, label

    def test_record_without_label_or_sentences(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text(json.dumps({"label": 0, "sentences": [["a"]]})
                          + "\n" + json.dumps({"label": 1}) + "\n")
        assert main(["train", str(corpus), "--out",
                     str(tmp_path / "m.npz")]) == 2
        assert capsys.readouterr().err == (
            f"error: {corpus}:2: need 'label' and 'sentences'\n")

    def test_blank_lines_are_an_empty_corpus(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text("\n  \n\t\n")
        assert main(["train", str(corpus), "--out",
                     str(tmp_path / "m.npz")]) == 2
        assert capsys.readouterr().err == f"error: {corpus}: empty corpus\n"

    def test_blank_lines_between_records_keep_line_numbers(self, tmp_path,
                                                           capsys):
        """Blank lines are skipped, and a bad line after them is named by
        its own number in the file."""
        corpus = tmp_path / "c.jsonl"
        corpus.write_text(json.dumps({"label": 0, "sentences": [["a"]]})
                          + "\n\n   \n" + json.dumps([1]) + "\n")
        assert main(["train", str(corpus), "--out",
                     str(tmp_path / "m.npz")]) == 2
        assert capsys.readouterr().err == (
            f"error: {corpus}:4: expected a JSON object\n")

    def test_checkpoint_without_vocabulary(self, tmp_path, capsys):
        ckpt, corpus = tmp_path / "m.npz", tmp_path / "c.jsonl"
        save_checkpoint(ckpt, init_params("GRU", 5, 4, 4, 2, SeededRng(0)))
        write_corpus(corpus, 2)
        assert main(["explain", str(ckpt), str(corpus)]) == 2
        assert capsys.readouterr().err == (
            "error: checkpoint has no vocabulary\n")


def run_cli_process(argv, stdout=subprocess.PIPE):
    """``python -m textexplain.cli argv`` in a fresh interpreter that
    imports this textexplain."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "textexplain.cli", *map(str, argv)],
        env={**os.environ, "PYTHONPATH": path}, stdout=stdout,
        stderr=subprocess.PIPE, text=True, timeout=300)


needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"),
                                    reason="no /dev/full on this system")


class TestWriter:
    """Every file the CLI writes goes through one writer: it writes
    exactly the path it is given, and a failed write, standard output
    included, is one error line with exit code 2."""

    def test_out_without_suffix_is_written_exactly(self, tmp_path):
        corpus, out = tmp_path / "c.jsonl", tmp_path / "model"
        write_corpus(corpus, 8)
        assert main(["train", str(corpus), "--out", str(out),
                     "--epochs", "1"]) == 0
        assert out.is_file() and not (tmp_path / "model.npz").exists()
        assert main(["explain", str(out), str(corpus), "--methods", "lrp",
                     "--out", str(tmp_path / "maps.jsonl")]) == 0

    def test_log_holds_the_epochs_run_so_far(self, tmp_path, monkeypatch):
        """Each epoch starts with a log of exactly the epochs before it."""
        corpus, log = tmp_path / "c.jsonl", tmp_path / "log.jsonl"
        write_corpus(corpus, 8)
        seen = []

        def reading_train(*args, **kwargs):
            seen.append(log.read_text())
            return train(*args, **kwargs)

        monkeypatch.setattr(cli, "train", reading_train)
        assert main(["train", str(corpus), "--out", str(tmp_path / "m.npz"),
                     "--epochs", "3", "--log", str(log)]) == 0
        lines = log.read_text().splitlines(keepends=True)
        assert len(lines) == 3
        assert seen == ["".join(lines[:epoch]) for epoch in range(3)]

    @needs_dev_full
    def test_a_full_log_device_ends_in_one_error_line(self, tmp_path):
        corpus, out = tmp_path / "c.jsonl", tmp_path / "m.npz"
        write_corpus(corpus, 4)
        proc = run_cli_process(["train", corpus, "--out", out, "--epochs",
                                "2", "--log", "/dev/full"])
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines()[-1].startswith(
            "error: cannot write /dev/full:")
        assert not out.exists()

    @needs_dev_full
    def test_a_full_standard_output_is_one_error_line(self,
                                                      trained_checkpoint):
        _, corpus, ckpt = trained_checkpoint
        with open("/dev/full", "w") as full:
            proc = run_cli_process(["explain", ckpt, corpus, "--methods",
                                    "lrp"], stdout=full)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith("error: cannot write standard output:")
