"""Command-line orchestration: train, explain, eval-hybrid, eval-agreement,
render.

Corpus files are JSON lines: {"label": int, "sentences": [[token, ...], ...]}
(tokenization happens upstream). Exit codes: 0 success, 1 usage error,
2 data error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .evaluate import build_hybrid_docs, format_report_tsv, \
    parse_agreement_tsv, run_agreement_eval, run_hybrid_eval
from .explain import METHOD_NAMES, ExplainOptions, explain
from .models import ARCHS, Vocabulary, forward, init_params, \
    load_checkpoint, save_checkpoint
from .numerics import SeededRng
from .render import colorize, emit_ansi, emit_html
from .train import TrainConfig, loss_and_accuracy, train


class UsageError(Exception):
    """An option the loaded data cannot honour; maps to exit code 1."""


class DataError(Exception):
    """Bad or unreadable input data; maps to exit code 2."""


def _read_corpus(path: str) -> list[dict]:
    docs = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    doc = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise DataError(f"{path}:{lineno}: invalid JSON: {exc}")
                if (not isinstance(doc, dict) or "label" not in doc
                        or "sentences" not in doc):
                    raise DataError(
                        f"{path}:{lineno}: need 'label' and 'sentences'")
                _check_record(doc, f"{path}:{lineno}")
                docs.append(doc)
    except OSError as exc:
        raise DataError(f"cannot read corpus {path}: {exc}")
    if not docs:
        raise DataError(f"{path}: empty corpus")
    return docs


def _check_record(doc: dict, where: str) -> None:
    label, sentences = doc["label"], doc["sentences"]
    if not isinstance(label, int) or isinstance(label, bool):
        raise DataError(f"{where}: 'label' must be an integer, got {label!r}")
    if not (isinstance(sentences, list) and all(
            isinstance(sent, list)
            and all(isinstance(tok, str) for tok in sent)
            for sent in sentences)):
        raise DataError(f"{where}: 'sentences' must be a list of lists of "
                        f"strings")


def _doc_tokens(doc: dict) -> list[str]:
    return [tok for sent in doc["sentences"] for tok in sent]


def _add_method_flags(p: argparse.ArgumentParser) -> None:
    # a tuple: the parser and its defaults live as long as the process
    p.add_argument("--methods", nargs="+", default=("grad1_s_dot", "lrp"),
                   metavar="NAME",
                   help=f"explanation methods; known: {', '.join(METHOD_NAMES)}")
    p.add_argument("--eps", type=float, default=1e-3,
                   help="relevance-propagation stabilizer (default 0.001)")
    p.add_argument("--int-steps", type=int, default=50,
                   help="integration points for gradint methods (default 50)")
    p.add_argument("--limsse-n", type=int, default=3000,
                   help="substring samples per document (default 3000)")
    p.add_argument("--limsse-maxlen", type=int, default=6,
                   help="maximum substring length (default 6)")


# smallest value each numeric flag accepts; main() checks them before any
# file is read
_FLAG_MINIMUMS = {"d_embed": 1, "d_hidden": 1, "epochs": 0, "batch_size": 1,
                  "group_size": 1, "int_steps": 1, "limsse_n": 1,
                  "limsse_maxlen": 1, "vocab_cutoff": 1, "kernel_width": 1}

# flags that must be a positive finite number
_POSITIVE_FLAGS = ("eps", "lr")


def _check_flags(args) -> None:
    for name, low in _FLAG_MINIMUMS.items():
        value = getattr(args, name, low)
        if value < low:
            raise UsageError(f"--{name.replace('_', '-')} must be at least "
                             f"{low}, got {value}")
    for name in _POSITIVE_FLAGS:
        value = getattr(args, name, 1.0)
        if not (math.isfinite(value) and value > 0):
            raise UsageError(f"--{name} must be a positive number, "
                             f"got {value}")
    width = getattr(args, "kernel_width", 1)
    if width % 2 == 0:
        raise UsageError(f"--kernel-width must be odd, got {width}")


def _options_from(args) -> ExplainOptions:
    return ExplainOptions(eps=args.eps, int_steps=args.int_steps,
                          limsse_n=args.limsse_n,
                          limsse_maxlen=args.limsse_maxlen,
                          seed=args.seed)


def _check_methods(names) -> None:
    for name in names:
        if name not in METHOD_NAMES:
            raise DataError(f"unknown explanation method {name!r}")


def _load_model(path: str):
    """A checkpoint that carries its vocabulary."""
    try:
        params = load_checkpoint(path)
    except (OSError, KeyError, TypeError) as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}")
    if params.vocab is None:
        raise DataError("checkpoint has no vocabulary")
    return params


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_train(args) -> int:
    if args.arch not in ARCHS:
        raise DataError(f"unknown architecture {args.arch!r}")
    docs = _read_corpus(args.corpus)
    labels = [int(d["label"]) for d in docs]
    n_classes = max(labels) + 1
    vocab = Vocabulary.build((_doc_tokens(d) for d in docs),
                             cutoff=args.vocab_cutoff)
    corpus = [(vocab.encode(_doc_tokens(d)), lab)
              for d, lab in zip(docs, labels)]
    corpus = [(ids, lab) for ids, lab in corpus if ids]
    if not corpus:
        raise DataError("corpus contains no non-empty documents")

    rng = SeededRng(args.seed)
    params = init_params(args.arch, len(vocab), args.d_embed, args.d_hidden,
                         n_classes, rng, direction=args.direction,
                         kernel_width=args.kernel_width, vocab=vocab)
    log_fh = open(args.log, "w", encoding="utf-8") if args.log else None

    def log_epoch(epoch):
        loss, acc = loss_and_accuracy(params, corpus)
        record = {"epoch": epoch, "loss": loss, "accuracy": acc}
        print(f"epoch {epoch}: loss={loss:.4f} accuracy={acc:.4f}",
              file=sys.stderr)
        if log_fh:
            log_fh.write(json.dumps(record) + "\n")

    try:
        for epoch in range(1, args.epochs + 1):
            # one optimizer epoch at a time so metrics can be logged between
            train(params, corpus,
                  TrainConfig(epochs=1, lr=args.lr, batch_size=args.batch_size,
                              seed=args.seed + epoch))
            log_epoch(epoch)
    finally:
        if log_fh:
            log_fh.close()
    save_checkpoint(args.out, params)
    return 0


def cmd_explain(args) -> int:
    _check_methods(args.methods)
    params = _load_model(args.checkpoint)
    if args.k is not None and not 0 <= args.k < params.n_classes:
        raise UsageError(f"--k {args.k} out of range: the model has "
                         f"{params.n_classes} classes")
    docs = _read_corpus(args.docs)
    opts = _options_from(args)

    records = []
    for doc_idx, doc in enumerate(docs):
        tokens = _doc_tokens(doc)
        if not tokens:
            continue
        ids = params.vocab.encode(tokens)
        trace = forward(params, ids)
        k = trace.predicted if args.k is None else args.k
        for name in args.methods:
            try:
                rel = explain(name, params, ids, k, opts, trace=trace)
            except ValueError as exc:
                records.append({"doc": doc_idx, "method": name,
                                "error": str(exc)})
                continue
            records.append({"doc": doc_idx, "method": name, "k": int(k),
                            "tokens": tokens,
                            "scores": [float(v) for v in rel.scores]})
    out = "\n".join(json.dumps(r) for r in records) + "\n"
    _write_output(args.out, out)
    if args.html:
        pages = []
        for r in records:
            if "scores" in r:
                colored = colorize(np.asarray(r["scores"]), r["tokens"])
                pages.append(f"<h3>doc {r['doc']} / {r['method']}</h3>"
                             + emit_html(colored))
        Path(args.html).write_text("\n".join(pages), encoding="utf-8")
    return 0


def cmd_eval_hybrid(args) -> int:
    _check_methods(args.methods)
    params = _load_model(args.checkpoint)
    docs = _read_corpus(args.corpus)
    sentences = []
    for doc in docs:
        for sent in doc["sentences"]:
            if sent:
                sentences.append((list(sent), params.vocab.encode(sent),
                                  int(doc["label"])))
    try:
        hybrids = build_hybrid_docs(sentences, SeededRng(args.seed),
                                    group_size=args.group_size)
    except ValueError as exc:
        raise DataError(str(exc))
    rows = run_hybrid_eval(params, hybrids, args.methods,
                           _options_from(args), baseline_seed=args.seed)
    _write_output(args.out, format_report_tsv(rows))
    return 0


def cmd_eval_agreement(args) -> int:
    _check_methods(args.methods)
    params = _load_model(args.checkpoint)
    try:
        with open(args.tsv, encoding="utf-8") as fh:
            samples = parse_agreement_tsv(fh)
    except OSError as exc:
        raise DataError(f"cannot read {args.tsv}: {exc}")
    except ValueError as exc:
        raise DataError(f"{args.tsv}: {exc}")
    rows = run_agreement_eval(params, samples, args.methods,
                              _options_from(args), baseline_seed=args.seed)
    _write_output(args.out, format_report_tsv(rows))
    return 0


def cmd_render(args) -> int:
    try:
        with open(args.relevance, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh if line.strip()]
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read {args.relevance}: {exc}")
    chunks = []
    for index, r in enumerate(records, start=1):
        where = f"{args.relevance}: record {index}"
        if not isinstance(r, dict):
            raise DataError(f"{where}: expected a JSON object")
        if "scores" not in r:
            continue
        _check_rendered(r, where)
        colored = colorize(np.asarray(r["scores"], dtype=float), r["tokens"])
        if args.mode == "ansi":
            chunks.append(emit_ansi(colored))
        else:
            chunks.append(emit_html(colored))
    _write_output(args.out, "".join(chunks))
    return 0


def _check_rendered(r: dict, where: str) -> None:
    """A map record to render: finite scores, one string token each."""
    scores, tokens = r["scores"], r.get("tokens")
    if not (isinstance(scores, list) and all(
            type(v) in (int, float) and abs(v) <= sys.float_info.max
            for v in scores)):
        raise DataError(f"{where}: 'scores' must be a list of finite numbers")
    if tokens is None:
        raise DataError(f"{where}: has scores but no tokens")
    if not (isinstance(tokens, list) and len(tokens) == len(scores)
            and all(isinstance(tok, str) for tok in tokens)):
        raise DataError(f"{where}: 'tokens' must be a list of one string "
                        f"per score")


def _write_output(path: str | None, text: str) -> None:
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged and gives each call a fresh namespace."""
    p = _Parser(prog="textexplain",
                description="Train small text classifiers, explain their "
                            "predictions, and score explanations with "
                            "pointing games.")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train a classifier on a JSONL corpus")
    t.add_argument("corpus")
    t.add_argument("--out", required=True, help="checkpoint path (.npz)")
    t.add_argument("--arch", default="GRU", help=f"one of {', '.join(ARCHS)}")
    t.add_argument("--direction", default="uni", choices=("uni", "bi"))
    t.add_argument("--d-embed", type=int, default=16)
    t.add_argument("--d-hidden", type=int, default=16)
    t.add_argument("--kernel-width", type=int, default=5)
    t.add_argument("--vocab-cutoff", type=int, default=50000)
    t.add_argument("--epochs", type=int, default=10)
    t.add_argument("--batch-size", type=int, default=8)
    t.add_argument("--lr", type=float, default=0.001)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--log", help="JSONL per-epoch metrics log")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("explain", help="write relevance maps for documents")
    e.add_argument("checkpoint")
    e.add_argument("docs", help="JSONL documents to explain")
    e.add_argument("--out", help="output JSONL (default stdout)")
    e.add_argument("--html", help="also write an HTML heatmap page")
    e.add_argument("--k", type=int, default=None,
                   help="fixed target class (default: predicted class)")
    e.add_argument("--seed", type=int, default=0)
    _add_method_flags(e)
    e.set_defaults(func=cmd_explain)

    h = sub.add_parser("eval-hybrid",
                       help="hybrid-document pointing-game evaluation")
    h.add_argument("checkpoint")
    h.add_argument("corpus", help="JSONL corpus supplying labeled sentences")
    h.add_argument("--out", help="report TSV (default stdout)")
    h.add_argument("--group-size", type=int, default=10,
                   help="sentences per hybrid document (default 10)")
    h.add_argument("--seed", type=int, default=0)
    _add_method_flags(h)
    h.set_defaults(func=cmd_eval_hybrid)

    a = sub.add_parser("eval-agreement",
                       help="subject/number pointing-game evaluation")
    a.add_argument("checkpoint")
    a.add_argument("tsv", help="tokens TAB POS tags TAB subject index TAB "
                               "Sg|Pl, one sample per line")
    a.add_argument("--out", help="report TSV (default stdout)")
    a.add_argument("--seed", type=int, default=0)
    _add_method_flags(a)
    a.set_defaults(func=cmd_eval_agreement)

    r = sub.add_parser("render", help="render relevance JSONL as a heatmap")
    r.add_argument("relevance", help="JSONL produced by the explain command")
    r.add_argument("--mode", choices=("ansi", "html"), default="ansi")
    r.add_argument("--out", help="output path (default stdout)")
    r.set_defaults(func=cmd_render)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _check_flags(args)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
