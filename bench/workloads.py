"""The benchmark workloads: set-up, work units, output checks, references.

A work unit is one input scored on every model of the workload (eval
workloads) or one ``train`` subcommand run per architecture (train_keyword).
Each (input, model) pair is timed on its own. An operation is one (input,
model, method) explanation or one training run; it fails if it raises or its
output breaks the bookkeeping checks below.

``reference`` runs the same pipeline on a fixed seed and small fixed probes;
``compare_reference`` matches it against ``reference.json``, recorded on the
unoptimised code.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from textexplain import cli, evaluate, models
from textexplain.explain import catalog
from textexplain.numerics import SeededRng

import inputs

D_EMBED = 16
D_HIDDEN = 16
TRAIN_SEED = 7          # corpus and initialisation of the eval models
REFERENCE_SEED = 1801
MAP_TOL = 1e-9           # max |got - want| / max |want| of a relevance map
MAP_TOL_ITERATIVE = 1e-6  # limsse_bb: L-BFGS to gradient norm 1e-6
LOSS_TOL = 1e-9          # relative, per-epoch training loss

HYBRID_METHODS = ("omit_1", "occ_3", "limsse_ms_s", "limsse_bb", "lrp")
AGREEMENT_METHODS = ("grad1_s_dot", "grad1_p_l2", "gradint_s_dot", "lrp",
                     "deeplift", "decomp")
ALL_METHODS = tuple(dict.fromkeys(HYBRID_METHODS + AGREEMENT_METHODS))


@dataclass
class Model:
    name: str
    params: object
    methods: tuple[str, ...]


@dataclass
class UnitResult:
    latencies: list[tuple[str, float]] = field(default_factory=list)
    work: int = 0            # pairs scored, or examples x epochs trained
    attempted: int = 0
    failed: int = 0
    evaluated: int = 0       # (input, model) pairs scored
    skipped: int = 0         # pairs the pointing game skipped
    seconds: float = 0.0     # wall time of the whole unit


def run_cli(argv: list[str]) -> None:
    """Run one ``textexplain`` subcommand in-process; its stderr (per-epoch
    log lines) is captured, and a non-zero exit raises."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"textexplain {argv[0]} exited {code}: "
                           f"{err.getvalue().strip()}")


def train_model(corpus: Path, out: Path, arch: str, direction: str,
                epochs: int, seed: int, lr: float = 0.001,
                log: Path | None = None) -> None:
    argv = ["train", str(corpus), "--out", str(out), "--arch", arch,
            "--direction", direction, "--d-embed", str(D_EMBED),
            "--d-hidden", str(D_HIDDEN), "--epochs", str(epochs),
            "--lr", str(lr), "--seed", str(seed)]
    if log is not None:
        argv += ["--log", str(log)]
    run_cli(argv)


def train_models(specs, corpus: Path, workdir: Path, epochs: int, seed: int,
                 lr: float, methods) -> list[Model]:
    out = []
    for arch, direction in specs:
        ckpt = workdir / f"{arch}-{direction}.npz"
        train_model(corpus, ckpt, arch, direction, epochs, seed, lr)
        allowed = tuple(m for m in methods
                        if not (m == "decomp" and arch == "CNN"))
        out.append(Model(f"{arch}-{direction}", models.load_checkpoint(ckpt),
                         allowed))
    return out


def report_failure(what: str) -> None:
    print(f"operation failed: {what}\n{traceback.format_exc()}",
          file=sys.stderr)


def probe_maps(model: Model, ids: list[int]) -> dict[str, list[float]]:
    k = models.forward(model.params, ids).predicted
    opts = catalog.ExplainOptions(seed=REFERENCE_SEED)
    return {m: [float(v) for v in
                catalog.explain(m, model.params, ids, k, opts).scores]
            for m in model.methods}


def rows_record(rows) -> list[list]:
    return [[r.method, r.metric, r.hits, r.possible] for r in rows]


# ---------------------------------------------------------------------------
# train_keyword
# ---------------------------------------------------------------------------

@dataclass
class TrainState:
    seed: int
    corpus: Path
    workdir: Path


class TrainKeyword:
    name = "train_keyword"
    archs = ("GRU", "QGRU", "LSTM", "QLSTM", "CNN")
    n_docs = 40
    epochs = 2
    unit_seconds = 3.0       # one round of 5 archs on the unoptimised code

    def setup(self, seed: int, workdir: Path) -> TrainState:
        docs = inputs.keyword_corpus(seed, self.n_docs, 6, 40)
        corpus = workdir / "corpus.jsonl"
        inputs.write_jsonl(corpus, docs)
        warm = workdir / "warm.jsonl"
        inputs.write_jsonl(warm, docs[:4])
        for arch in self.archs:
            train_model(warm, workdir / "warm.npz", arch, "uni", 1, seed)
        return TrainState(seed, corpus, workdir)

    def n_units(self, state: TrainState) -> int:
        return 1                 # every round trains the same corpus

    def run_unit(self, state: TrainState, index: int,
                 tracer=None) -> UnitResult:
        res = UnitResult()
        for arch in self.archs:
            if tracer is not None:
                tracer.doc = f"round{index}/{arch}"
            log = state.workdir / f"{arch}.log.jsonl"
            res.attempted += 1
            try:
                t0 = perf_counter()
                train_model(state.corpus, state.workdir / f"{arch}.npz",
                            arch, "uni", self.epochs, state.seed, log=log)
                res.latencies.append((arch, perf_counter() - t0))
                records = [json.loads(line) for line in
                           log.read_text(encoding="utf-8").splitlines()]
                if (len(records) != self.epochs or not all(
                        math.isfinite(r["loss"]) for r in records)):
                    raise ValueError(f"bad training log {records}")
            except Exception:
                report_failure(f"train {arch}")
                res.failed += 1
                continue
            res.work += self.n_docs * self.epochs
        return res

    def reference(self, state: TrainState, workdir: Path) -> dict:
        docs = inputs.keyword_corpus(REFERENCE_SEED, 12, 6, 40)
        corpus = workdir / "ref.jsonl"
        inputs.write_jsonl(corpus, docs)
        logs, maps = {}, {}
        for arch in self.archs:
            ckpt = workdir / f"ref-{arch}.npz"
            log = workdir / f"ref-{arch}.log"
            train_model(corpus, ckpt, arch, "uni", self.epochs,
                        REFERENCE_SEED, log=log)
            logs[arch] = [[r["loss"], r["accuracy"]] for r in
                          map(json.loads, log.read_text(encoding="utf-8")
                              .splitlines())]
            model = Model(arch, models.load_checkpoint(ckpt),
                          ("lrp", "grad1_s_dot"))
            maps[arch] = [probe_maps(model, model.params.vocab.encode(
                [t for s in d["sentences"] for t in s])) for d in docs[:2]]
        return {"logs": logs, "maps": maps}


# ---------------------------------------------------------------------------
# Pointing-game workloads
# ---------------------------------------------------------------------------

@dataclass
class EvalState:
    seed: int
    models: list[Model]
    items: dict[str, list]       # model name -> hybrid docs or samples
    opts: catalog.ExplainOptions


class EvalWorkload:
    """Shared loop of the pointing-game workloads. The models are trained
    once per set-up on a fixed corpus (``TRAIN_SEED``), so every seed scores
    the same models; the seed picks the scored inputs."""

    specs: tuple
    methods: tuple
    n_reference: int
    epochs, lr = 2, 0.05

    def setup(self, seed: int, workdir: Path) -> EvalState:
        corpus = workdir / "train.jsonl"
        inputs.write_jsonl(corpus, self.training_docs())
        trained = train_models(self.specs, corpus, workdir, self.epochs,
                               TRAIN_SEED, self.lr, self.methods)
        items = self.items(seed, trained, workdir)
        for model in trained:                    # warm-up call
            models.forward(model.params, self.ids(model,
                                                  items[model.name][0]))
        return EvalState(seed, trained, items,
                         catalog.ExplainOptions(seed=seed))

    def n_units(self, state: EvalState) -> int:
        return len(state.items[state.models[0].name])

    def run_unit(self, state: EvalState, index: int,
                 tracer=None) -> UnitResult:
        res = UnitResult()
        for model in state.models:
            if tracer is not None:
                tracer.doc = f"{index}/{model.name}"
            res.attempted += len(model.methods)
            try:
                t0 = perf_counter()
                rows = self.score(model, [state.items[model.name][index]],
                                  state.opts, state.seed + index)
                res.latencies.append((model.name, perf_counter() - t0))
                scored = self.check(rows, model.methods)
            except Exception:
                report_failure(f"{self.name} input {index} on {model.name}")
                res.failed += len(model.methods)
                continue
            res.evaluated += scored
            res.skipped += 1 - scored
            res.work += scored
        return res

    def reference(self, state: EvalState, workdir: Path) -> dict:
        """Rows of the first reference inputs and maps of the probes, on the
        models of ``state``."""
        items = self.items(REFERENCE_SEED, state.models, workdir)
        opts = catalog.ExplainOptions(seed=REFERENCE_SEED)
        rows, maps = {}, {}
        for model in state.models:
            mine = items[model.name]
            rows[model.name] = rows_record(self.score(
                model, mine[:self.n_reference], opts, REFERENCE_SEED))
            maps[model.name] = [probe_maps(model, ids)
                                for ids in self.probes(model, mine)]
        return {"rows": rows, "maps": maps}


class HybridBlackbox(EvalWorkload):
    name = "hybrid_blackbox"
    specs = (("GRU", "uni"), ("QLSTM", "uni"), ("CNN", "uni"), ("LSTM", "bi"))
    methods = HYBRID_METHODS
    n_train, n_pool, group_size = 24, 60, 10
    n_reference = 1
    unit_seconds = 3.0       # one T ~ 80 document on 4 models, unoptimised

    def training_docs(self) -> list[dict]:
        return inputs.sentence_docs(TRAIN_SEED, self.n_train)

    def items(self, seed: int, trained, workdir: Path) -> dict:
        """Hybrid documents per model, built from a JSONL sentence pool as
        the eval-hybrid subcommand builds them."""
        pool_path = workdir / f"pool-{seed}.jsonl"
        inputs.write_jsonl(pool_path, inputs.sentence_docs(seed, self.n_pool))
        pool = [json.loads(line) for line in
                pool_path.read_text(encoding="utf-8").splitlines()]
        out = {}
        for model in trained:
            vocab = model.params.vocab
            sentences = [(sent, vocab.encode(sent), int(doc["label"]))
                         for doc in pool for sent in doc["sentences"]]
            out[model.name] = evaluate.build_hybrid_docs(
                sentences, SeededRng(seed), group_size=self.group_size)
        return out

    def ids(self, model: Model, doc) -> list[int]:
        return doc.ids

    def score(self, model: Model, docs, opts, baseline_seed: int):
        return evaluate.run_hybrid_eval(model.params, docs,
                                        list(model.methods), opts,
                                        baseline_seed=baseline_seed)

    def check(self, rows, methods) -> int:
        return check_hybrid_rows(rows, methods)

    def probes(self, model: Model, docs) -> list[list[int]]:
        """The first two sentences of the first document (T ~ 16)."""
        return [docs[0].ids[:docs[0].sentence_bounds[2]]]


def check_hybrid_rows(rows, methods) -> int:
    """Rows of one document: every method and the random baseline share
    possible in {0, 1}; returns it (0 = the game skipped the document)."""
    by_method = {r.method: r for r in rows}
    possible = by_method["random"].possible
    if possible not in (0, 1) or set(by_method) != {*methods, "random"}:
        raise ValueError(f"inconsistent hybrid rows {rows}")
    for r in rows:
        if r.possible != possible or not 0 <= r.hits <= r.possible:
            raise ValueError(f"inconsistent hybrid row {r}")
    return possible


class AgreementWhitebox(EvalWorkload):
    name = "agreement_whitebox"
    specs = (("GRU", "bi"), ("LSTM", "bi"), ("QGRU", "uni"), ("CNN", "uni"))
    methods = AGREEMENT_METHODS
    n_train, n_eval = 33, 44     # whole blocks of the 11 lengths 5..15
    n_reference = 4
    unit_seconds = 0.65      # one T in [5, 15] sample on 4 models

    def training_docs(self) -> list[dict]:
        return inputs.agreement_training_docs(
            inputs.agreement_samples(TRAIN_SEED, self.n_train))

    def items(self, seed: int, trained, workdir: Path) -> dict:
        """Samples read back through the agreement TSV parser."""
        tsv = workdir / f"agreement-{seed}.tsv"
        inputs.write_agreement_tsv(tsv, inputs.agreement_samples(
            seed, self.n_eval))
        with open(tsv, encoding="utf-8") as fh:
            parsed = evaluate.parse_agreement_tsv(fh)
        return {model.name: parsed for model in trained}

    def ids(self, model: Model, sample) -> list[int]:
        return model.params.vocab.encode(sample.tokens)

    def score(self, model: Model, samples, opts, baseline_seed: int):
        return evaluate.run_agreement_eval(model.params, samples,
                                           list(model.methods), opts,
                                           baseline_seed=baseline_seed)

    def check(self, rows, methods) -> int:
        check_agreement_rows(rows, methods)
        return 1

    def probes(self, model: Model, samples) -> list[list[int]]:
        return [self.ids(model, s) for s in samples[:2]]


def check_agreement_rows(rows, methods) -> None:
    """Rows of one sample: each method counts it once under hit_target and
    hit_feat_correct (correct prediction) or once under hit_feat_incorrect,
    the same way for every method and both baselines."""
    per_method: dict[str, dict[str, int]] = {}
    for r in rows:
        if not 0 <= r.hits <= r.possible:
            raise ValueError(f"inconsistent agreement row {r}")
        per_method.setdefault(r.method, {})[r.metric] = r.possible
    if set(per_method) != {*methods, "random", "last"}:
        raise ValueError(f"missing agreement rows {rows}")
    shapes = {tuple(sorted(p.items())) for p in per_method.values()}
    valid = {(("hit_feat_correct", 1), ("hit_feat_incorrect", 0),
              ("hit_target", 1)),
             (("hit_feat_correct", 0), ("hit_feat_incorrect", 1),
              ("hit_target", 0))}
    if len(shapes) != 1 or not shapes <= valid:
        raise ValueError(f"inconsistent agreement rows {rows}")


WORKLOADS = {w.name: w for w in (TrainKeyword(), HybridBlackbox(),
                                 AgreementWhitebox())}


# ---------------------------------------------------------------------------
# Reference comparison
# ---------------------------------------------------------------------------

def _map_error(got: list[float], want: list[float]) -> float:
    if len(got) != len(want):
        return math.inf
    diff = np.max(np.abs(np.asarray(got) - np.asarray(want)))
    return float(diff / max(np.max(np.abs(want)), 1e-300))


def compare_reference(got: dict, want: dict) -> tuple[int, list[str]]:
    """(operations compared, mismatch messages). One operation per
    (model, method) row set, per (model, method, probe) map and per
    training log."""
    attempted, problems = 0, []
    for name, logs in want.get("logs", {}).items():
        attempted += 1
        g = got["logs"].get(name, [])
        ok = len(g) == len(logs) and all(
            ga == wa and abs(gl - wl) <= LOSS_TOL * max(1.0, abs(wl))
            for (gl, ga), (wl, wa) in zip(g, logs))
        if not ok:
            problems.append(f"training log of {name}: {g} != {logs}")
    for name, rows in want.get("rows", {}).items():
        g = got["rows"].get(name, [])
        for method in dict.fromkeys(r[0] for r in rows):
            attempted += 1
            gm = [r for r in g if r[0] == method]
            wm = [r for r in rows if r[0] == method]
            if gm != wm:
                problems.append(f"pointing rows {name}/{method}: "
                                f"{gm} != {wm}")
    for name, probes in want.get("maps", {}).items():
        for i, per_method in enumerate(probes):
            for method, w in per_method.items():
                attempted += 1
                tol = MAP_TOL_ITERATIVE if method == "limsse_bb" else MAP_TOL
                try:
                    err = _map_error(got["maps"][name][i][method], w)
                except (KeyError, IndexError):
                    err = math.inf
                if not err <= tol:
                    problems.append(f"relevance map {name}/{method}/probe{i}:"
                                    f" relative error {err:.3g} > {tol:g}")
    return attempted, problems
