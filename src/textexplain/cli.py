"""Command-line orchestration: train, explain, eval-hybrid, eval-agreement,
render.

Corpus files are JSON lines: {"label": int, "sentences": [[token, ...], ...]}
(tokenization happens upstream). Corpora, relevance files and agreement TSVs
are read by one line reader, which names a bad line ``path:line``, a line
that is not UTF-8 included. Every file the commands write, and standard
output, goes through one writer, ``_write_output``: it writes exactly the
path it is given (a checkpoint too, as bytes; ``train`` rewrites its log
whole after each epoch), and a failed write is one data error naming where.
``explain --html`` and ``render`` write heatmaps through one renderer,
whose HTML is one page with a ``doc D / METHOD`` caption over each map.

Exit codes: 0 success, 1 usage error, 2 data error. Either error prints one
``error: …`` line on stderr: argparse's errors raise ``UsageError`` like the
flag checks do, and each command runs with numpy's warnings off, so a NaN
or an overflow surfaces as the data error that checks for it.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from .evaluate import build_hybrid_docs, format_report_tsv, \
    parse_agreement_row, run_agreement_eval, run_hybrid_eval
from .explain import METHOD_NAMES, ExplainOptions, check_names, \
    explain_document
from .explain.decomp import check_decomp
from .models import ARCHS, Vocabulary, init_params, load_checkpoint, \
    save_checkpoint
from .numerics import SeededRng
from .render import colorize, emit_ansi, html_page
from .train import TrainConfig, loss_and_accuracy, train


# glibc's mallopt parameter for the free space kept at the heap top, and the
# amount kept: more than the 0.8-1.9 MB of arrays one explanation pass
# allocates and frees
_M_TOP_PAD = -2
_TOP_PAD_BYTES = 16 << 20


class UsageError(Exception):
    """A bad command line, or an option the loaded data cannot honour;
    maps to exit code 1."""


def _read_lines(path: str):
    """Each line of a UTF-8 text file, without its end (\\n, \\r\\n or \\r,
    as text mode reads them), with its ``path:line``. A line that is not
    UTF-8 is a ValueError naming it."""
    try:
        with open(path, "rb") as fh:
            lines = (line for raw in fh for line in raw.splitlines())
            for lineno, line in enumerate(lines, start=1):
                where = f"{path}:{lineno}"
                try:
                    text = line.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise ValueError(f"{where}: not UTF-8 text ({exc})")
                yield text, where
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}")


def _read_jsonl(path: str) -> list[tuple[dict, str]]:
    """Each non-blank line's JSON object, with its ``path:line``."""
    records = []
    for line, where in _read_lines(path):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{where}: invalid JSON: {exc}")
        if not isinstance(record, dict):
            raise ValueError(f"{where}: expected a JSON object")
        records.append((record, where))
    return records


def _read_corpus(path: str) -> list[dict]:
    """The documents of a corpus file: an int label over a list of lists
    of str each."""
    docs = []
    for doc, where in _read_jsonl(path):
        if "label" not in doc or "sentences" not in doc:
            raise ValueError(f"{where}: need 'label' and 'sentences'")
        label, sentences = doc["label"], doc["sentences"]
        if not isinstance(label, int) or isinstance(label, bool):
            raise ValueError(f"{where}: 'label' must be an integer, "
                             f"got {label!r}")
        if not (isinstance(sentences, list) and all(
                isinstance(sent, list)
                and all(isinstance(tok, str) for tok in sent)
                for sent in sentences)):
            raise ValueError(f"{where}: 'sentences' must be a list of lists "
                             f"of strings")
        docs.append(doc)
    if not docs:
        raise ValueError(f"{path}: empty corpus")
    return docs


def _doc_tokens(doc: dict) -> list[str]:
    return [tok for sent in doc["sentences"] for tok in sent]


def _add_method_flags(p: argparse.ArgumentParser) -> None:
    defaults = ExplainOptions()
    # a tuple: the parser and its defaults live as long as the process
    p.add_argument("--methods", nargs="+", default=("grad1_s_dot", "lrp"),
                   metavar="NAME",
                   help=f"explanation methods; known: {', '.join(METHOD_NAMES)}")
    p.add_argument("--eps", type=float, default=defaults.eps,
                   help="relevance stabilizer (default %(default)s)")
    p.add_argument("--int-steps", type=int, default=defaults.int_steps,
                   help="gradint integration points (default %(default)s)")
    p.add_argument("--limsse-n", type=int, default=defaults.limsse_n,
                   help="substring samples per document (default %(default)s)")
    p.add_argument("--limsse-maxlen", type=int, default=defaults.limsse_maxlen,
                   help="maximum substring length (default %(default)s)")


# smallest value each numeric flag accepts; main() checks them before any
# file is read
_FLAG_MINIMUMS = {"d_embed": 1, "d_hidden": 1, "epochs": 0, "batch_size": 1,
                  "group_size": 1, "int_steps": 1, "limsse_n": 1,
                  "limsse_maxlen": 1, "vocab_cutoff": 1, "kernel_width": 1,
                  "seed": 0}

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
    if getattr(args, "direction", "uni") == "bi":
        if args.arch == "CNN":
            raise UsageError("--direction bi needs a recurrent --arch, "
                             "got CNN")
        if args.d_hidden % 2:
            raise UsageError(f"--direction bi needs an even --d-hidden "
                             f"(half per direction), got {args.d_hidden}")


def _options_from(args) -> ExplainOptions:
    return ExplainOptions(eps=args.eps, int_steps=args.int_steps,
                          limsse_n=args.limsse_n,
                          limsse_maxlen=args.limsse_maxlen,
                          seed=args.seed)


def _load_model(path: str, methods=()):
    """A checkpoint that carries its vocabulary and can run ``methods``."""
    try:
        params = load_checkpoint(path)
    except (OSError, KeyError, TypeError) as exc:
        raise ValueError(f"cannot read checkpoint {path}: {exc}")
    if params.vocab is None:
        raise ValueError("checkpoint has no vocabulary")
    if "decomp" in methods:
        check_decomp(params.arch)
    return params


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_train(args) -> int:
    if args.arch not in ARCHS:
        raise ValueError(f"unknown architecture {args.arch!r}")
    _check_writable(args.out, "checkpoint ")
    _check_writable(args.log)
    docs = _read_corpus(args.corpus)
    labels = [int(d["label"]) for d in docs]
    n_classes = _class_count(labels, args.corpus)
    vocab = Vocabulary.build((_doc_tokens(d) for d in docs),
                             cutoff=args.vocab_cutoff)
    corpus = [(vocab.encode(_doc_tokens(d)), lab)
              for d, lab in zip(docs, labels)]
    corpus = [(ids, lab) for ids, lab in corpus if ids]
    if not corpus:
        raise ValueError("corpus contains no non-empty documents")

    rng = SeededRng(args.seed)
    params = init_params(args.arch, len(vocab), args.d_embed, args.d_hidden,
                         n_classes, rng, direction=args.direction,
                         kernel_width=args.kernel_width, vocab=vocab)
    # the log is rewritten whole after each epoch, so it holds exactly the
    # epochs run, and a run that diverges in epoch 1 leaves it empty
    log = []
    if args.log:
        _write_output(args.log, "")
    for epoch in range(1, args.epochs + 1):
        # one optimizer epoch at a time, so metrics are logged between
        train(params, corpus,
              TrainConfig(epochs=1, lr=args.lr, batch_size=args.batch_size,
                          seed=args.seed + epoch))
        # a diverging run overflows silently (main ignores numpy's
        # warnings); this rejects it
        loss, acc = loss_and_accuracy(params, corpus)
        if not (math.isfinite(loss) and np.isfinite(params.flat).all()):
            raise UsageError(f"training diverged in epoch {epoch} (loss "
                             f"{loss}); try a smaller --lr")
        print(f"epoch {epoch}: loss={loss:.4f} accuracy={acc:.4f}",
              file=sys.stderr)
        log.append(json.dumps({"epoch": epoch, "loss": loss,
                               "accuracy": acc}) + "\n")
        if args.log:
            _write_output(args.log, "".join(log))
    checkpoint = io.BytesIO()
    save_checkpoint(checkpoint, params)
    _write_output(args.out, checkpoint.getvalue())
    return 0


def _class_count(labels: list[int], path: str) -> int:
    """max label + 1. Every class from 0 up needs a document, except that
    labels 0 and 1 always make a two-class model: a small sample of a
    binary corpus may hold one of them only."""
    present = set(labels)
    if min(present) < 0:
        raise ValueError(f"{path}: negative label {min(present)}")
    if max(present) <= 1:
        return 2
    # a gap, if any, lies below len(present): that many distinct labels
    # without one are exactly 0..len(present) - 1
    for cls in range(len(present)):
        if cls not in present:
            raise ValueError(f"{path}: no document has label {cls}, but "
                             f"labels go up to {max(present)}")
    return len(present)


def cmd_explain(args) -> int:
    check_names(args.methods)
    _check_writable(args.out)
    _check_writable(args.html)
    params = _load_model(args.checkpoint)
    if args.k is not None and not 0 <= args.k < params.n_classes:
        raise UsageError(f"--k {args.k} out of range: the model has "
                         f"{params.n_classes} classes")
    docs = _read_corpus(args.docs)
    if not any(map(_doc_tokens, docs)):
        raise ValueError("corpus contains no non-empty documents")
    opts = _options_from(args)
    # a method the model cannot run gets an error record per document
    errors = {}
    if "decomp" in args.methods:
        try:
            check_decomp(params.arch)
        except ValueError as exc:
            errors["decomp"] = str(exc)
    runnable = [name for name in args.methods if name not in errors]

    records = []
    for doc_idx, doc in enumerate(docs):
        tokens = _doc_tokens(doc)
        if not tokens:
            continue
        ids = params.vocab.encode(tokens)
        k, rels = explain_document(runnable, params, ids, opts, args.k)
        maps = dict(zip(runnable, rels))
        for name in args.methods:
            record = {"doc": doc_idx, "method": name}
            if name in errors:
                record["error"] = errors[name]
            else:
                record.update(k=int(k), tokens=tokens,
                              scores=[float(v) for v in maps[name].scores])
            records.append(record)
    out = "\n".join(json.dumps(r) for r in records) + "\n"
    _write_output(args.out, out)
    if args.html:
        _write_output(args.html, _render(
            [r for r in records if "scores" in r], "html"))
    return 0


def cmd_eval_hybrid(args) -> int:
    check_names(args.methods)
    _check_writable(args.out)
    params = _load_model(args.checkpoint, args.methods)
    docs = _read_corpus(args.corpus)
    sentences = []
    for doc in docs:
        for sent in doc["sentences"]:
            if sent:
                sentences.append((list(sent), params.vocab.encode(sent),
                                  int(doc["label"])))
    hybrids = build_hybrid_docs(sentences, SeededRng(args.seed),
                                group_size=args.group_size)
    rows = run_hybrid_eval(params, hybrids, args.methods,
                           _options_from(args), baseline_seed=args.seed)
    _write_output(args.out, format_report_tsv(rows))
    return 0


def cmd_eval_agreement(args) -> int:
    check_names(args.methods)
    _check_writable(args.out)
    params = _load_model(args.checkpoint, args.methods)
    samples = []
    for line, where in _read_lines(args.tsv):
        try:
            samples.append(parse_agreement_row(line))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}")
    samples = [sample for sample in samples if sample is not None]
    if not samples:
        raise ValueError(f"{args.tsv}: no samples")
    rows = run_agreement_eval(params, samples, args.methods,
                              _options_from(args), baseline_seed=args.seed)
    _write_output(args.out, format_report_tsv(rows))
    return 0


def cmd_render(args) -> int:
    _check_writable(args.out)
    records = []
    for r, where in _read_jsonl(args.relevance):
        if "scores" in r:
            _check_rendered(r, where)
            records.append(r)
    _write_output(args.out, _render(records, args.mode))
    return 0


def _render(records: list[dict], mode: str) -> str:
    """The heatmaps of map records: ANSI text, one map a line, or one HTML
    page whose maps are captioned ``doc D / METHOD`` from the record's
    ``doc`` and ``method``, those it has."""
    maps = []
    for r in records:
        caption = [f"doc {r['doc']}"] if "doc" in r else []
        caption += [str(r["method"])] if "method" in r else []
        maps.append((" / ".join(caption), colorize(
            np.asarray(r["scores"], dtype=float), r["tokens"])))
    if mode == "ansi":
        return "".join(emit_ansi(colored) for _, colored in maps)
    return html_page(maps)


def _check_rendered(r: dict, where: str) -> None:
    """A map record to render: finite scores, one string token each."""
    scores, tokens = r["scores"], r.get("tokens")
    if not (isinstance(scores, list) and all(
            type(v) in (int, float) and abs(v) <= sys.float_info.max
            for v in scores)):
        raise ValueError(f"{where}: 'scores' must be a list of finite numbers")
    if tokens is None:
        raise ValueError(f"{where}: has scores but no tokens")
    if not (isinstance(tokens, list) and len(tokens) == len(scores)
            and all(isinstance(tok, str) for tok in tokens)):
        raise ValueError(f"{where}: 'tokens' must be a list of one string "
                         f"per score")


def _check_writable(path: str | None, what: str = "") -> None:
    """Fail before any work when ``path`` cannot be written: its directory
    is missing or it is a directory. No path means standard output."""
    if not path:
        return
    target = Path(path)
    if not target.parent.is_dir():
        raise ValueError(f"cannot write {what}{path}: "
                         f"no directory {target.parent}")
    if target.is_dir():
        raise ValueError(f"cannot write {what}{path}: is a directory")


def _write_output(path: str | None, data: str | bytes) -> None:
    """The one writer: ``data`` to exactly ``path``, text as UTF-8 and
    bytes as they are; with no path, text to standard output. A failed
    write is one data error naming where."""
    try:
        if not path:
            sys.stdout.write(data)
            sys.stdout.flush()
        elif isinstance(data, bytes):
            Path(path).write_bytes(data)
        else:
            Path(path).write_text(data, encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write {path or 'standard output'}: {exc}")


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged and gives each call a fresh namespace."""
    p = _Parser(prog="textexplain",
                description="Train small text classifiers, explain their "
                            "predictions, and score explanations with "
                            "pointing games.")
    sub = p.add_subparsers(dest="command", required=True)

    config = TrainConfig()
    t = sub.add_parser("train", help="train a classifier on a JSONL corpus")
    t.add_argument("corpus")
    t.add_argument("--out", required=True, help="checkpoint path (.npz)")
    t.add_argument("--arch", default="GRU", help=f"one of {', '.join(ARCHS)}")
    t.add_argument("--direction", default="uni", choices=("uni", "bi"))
    t.add_argument("--d-embed", type=int, default=16)
    t.add_argument("--d-hidden", type=int, default=16)
    t.add_argument("--kernel-width", type=int, default=5)
    t.add_argument("--vocab-cutoff", type=int, default=50000)
    t.add_argument("--epochs", type=int, default=config.epochs)
    t.add_argument("--batch-size", type=int, default=config.batch_size)
    t.add_argument("--lr", type=float, default=config.lr)
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


@functools.lru_cache(maxsize=None)
def _keep_heap_top() -> None:
    """Have glibc keep 16 MiB of freed heap top, once per process. Without
    it, glibc returns the heap top to the kernel after almost every pass
    and the next pass page-faults it in again. Where the C library has no
    ``mallopt`` this does nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TOP_PAD, _TOP_PAD_BYTES)


def main(argv=None) -> int:
    _keep_heap_top()
    try:
        args = build_parser().parse_args(argv)
        _check_flags(args)
        # a NaN or an overflow ends in a data error, not a numpy warning
        with np.errstate(all="ignore"):
            return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy's names the allocation; a bare MemoryError has no message
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
