"""Pointing-game evaluation harnesses.

Two paradigms:

* Hybrid documents: shuffle a pool of labeled sentences, concatenate S at a
  time, classify each hybrid, and award a hit when the maximally relevant
  token originates from a sentence whose label matches the prediction.
  Documents whose predicted class labels none of their tokens are skipped.

* Morphosyntactic agreement: given a verb's left context with POS tags and
  the subject position, award hit_target when the maximally relevant token is
  the subject (on correct predictions) and hit_feat when it is a noun/verb
  carrying the predicted number, partitioned by prediction correctness.

Both make one ``explain_document`` call per document, with no class
given. It makes one white-box pass (``gradient.white_box_pass``), also
when only black-box methods are asked: one forward of the document beside
every baseline and interpolation row the asked methods read, whose row 0
gives the prediction, and one sweep, whose trailing rows carry the
relevance rules. Every map is for the predicted class, so a skipped hybrid
document is explained before the skip.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .explain import ExplainOptions, check_names, explain_document
from .models import NetworkParams, forward
from .numerics import SeededRng
from .relevance import RelevanceMap, rmax

NUMBER_CLASSES = ("Sg", "Pl")       # class ids 0 and 1

_POS_TO_NUMBER = {"VBZ": "Sg", "NN": "Sg", "VBP": "Pl", "NNS": "Pl"}


# ---------------------------------------------------------------------------
# Samples
# ---------------------------------------------------------------------------

@dataclass
class HybridDocument:
    ids: list[int]                      # token ids, concatenated sentences
    tokens: list[str]
    origin_labels: list[int]            # per-token source-document label
    sentence_bounds: list[int]          # start index of each sentence

    def __post_init__(self):
        if len(self.ids) != len(self.origin_labels):
            raise ValueError("each token needs exactly one origin label")


@dataclass
class AgreementSample:
    tokens: list[str]
    pos_tags: list[str]
    subject_index: int                  # 0-based position of the subject
    label: str                          # "Sg" | "Pl"

    def __post_init__(self):
        if len(self.tokens) != len(self.pos_tags):
            raise ValueError("token/POS length mismatch")
        if not 0 <= self.subject_index < len(self.tokens):
            raise ValueError("subject index out of range")
        if self.label not in NUMBER_CLASSES:
            raise ValueError(f"bad number label {self.label!r}")

    @property
    def label_id(self) -> int:
        return NUMBER_CLASSES.index(self.label)


@dataclass
class EvalRow:
    method: str
    arch: str
    metric: str
    hits: int
    possible: int

    @property
    def accuracy(self) -> float:
        return pointing_accuracy(self.hits, self.possible)


# ---------------------------------------------------------------------------
# Primitive metrics
# ---------------------------------------------------------------------------

def pointing_accuracy(hits: int, possible: int) -> float:
    if possible < 1:
        raise ValueError("no possible hit points")
    return hits / possible


def feat_of_pos(tag: str) -> str | None:
    """Number feature of a POS tag: Sg for VBZ/NN, Pl for VBP/NNS, else None."""
    return _POS_TO_NUMBER.get(tag)


def hit_hybrid(doc: HybridDocument, predicted: int,
               rel: RelevanceMap | np.ndarray) -> int | None:
    """1/0 hit, or None when the document is skipped (prediction matches no
    token's origin label, so no hit is possible)."""
    scores = getattr(rel, "scores", rel)
    if len(scores) != len(doc.ids):
        raise ValueError("relevance/document length mismatch")
    if predicted not in doc.origin_labels:
        return None
    return int(doc.origin_labels[rmax(scores)] == predicted)


def hit_target(sample: AgreementSample, rel) -> int:
    scores = getattr(rel, "scores", rel)
    if len(scores) != len(sample.tokens):
        raise ValueError("relevance/sample length mismatch")
    return int(rmax(scores) == sample.subject_index)


def hit_feat(sample: AgreementSample, predicted: int, rel) -> int:
    scores = getattr(rel, "scores", rel)
    if len(scores) != len(sample.tokens):
        raise ValueError("relevance/sample length mismatch")
    feat = feat_of_pos(sample.pos_tags[rmax(scores)])
    return int(feat == NUMBER_CLASSES[predicted])


def baseline_random(rng: SeededRng, t_len: int) -> RelevanceMap:
    """One-hot map at a uniformly random position."""
    if t_len < 1:
        raise ValueError("empty sequence")
    scores = np.zeros(t_len)
    scores[rng.uniform_int(0, t_len - 1)] = 1.0
    return RelevanceMap(scores=scores, k=-1, method="random")


def baseline_last(t_len: int) -> RelevanceMap:
    """One-hot map at the final position."""
    if t_len < 1:
        raise ValueError("empty sequence")
    scores = np.zeros(t_len)
    scores[-1] = 1.0
    return RelevanceMap(scores=scores, k=-1, method="last")


# ---------------------------------------------------------------------------
# Hybrid document experiment
# ---------------------------------------------------------------------------

def build_hybrid_docs(sentences: list[tuple[list[str], list[int], int]],
                      rng: SeededRng, group_size: int = 10,
                      ) -> list[HybridDocument]:
    """Shuffle the sentence pool and concatenate ``group_size`` at a time.

    ``sentences`` holds (tokens, token ids, label) triples; the leftover
    group smaller than ``group_size`` is discarded.
    """
    if len(sentences) < group_size:
        raise ValueError(
            f"need at least {group_size} sentences, got {len(sentences)}")
    pool = list(sentences)
    rng.shuffle(pool)
    docs = []
    for i in range(0, len(pool) - group_size + 1, group_size):
        group = pool[i:i + group_size]
        ids: list[int] = []
        tokens: list[str] = []
        labels: list[int] = []
        bounds: list[int] = []
        for toks, tok_ids, label in group:
            bounds.append(len(ids))
            tokens.extend(toks)
            ids.extend(tok_ids)
            labels.extend([label] * len(tok_ids))
        docs.append(HybridDocument(ids=ids, tokens=tokens,
                                   origin_labels=labels,
                                   sentence_bounds=bounds))
    return docs


def run_hybrid_eval(params: NetworkParams, docs: list[HybridDocument],
                    methods: list[str], opts: ExplainOptions | None = None,
                    baseline_seed: int = 0) -> list[EvalRow]:
    """Pointing-game accuracies per method, plus the random baseline."""
    opts = opts or ExplainOptions()
    check_names(methods)
    rng = SeededRng(baseline_seed)
    counters = {name: [0, 0] for name in list(methods) + ["random"]}
    for doc in docs:
        predicted, rels = explain_document(methods, params, doc.ids, opts)
        if predicted not in doc.origin_labels:
            continue
        for name, rel in zip(methods, rels):
            counters[name][0] += hit_hybrid(doc, predicted, rel)
            counters[name][1] += 1
        rel = baseline_random(rng, len(doc.ids))
        counters["random"][0] += hit_hybrid(doc, predicted, rel)
        counters["random"][1] += 1
    return [EvalRow(method=name, arch=params.arch, metric="hybrid_pointing",
                    hits=h, possible=p)
            for name, (h, p) in counters.items()]


def random_hybrid_expectation(params: NetworkParams,
                              docs: list[HybridDocument]) -> float:
    """Analytic pointing accuracy of the uniform-position baseline: the mean
    fraction of tokens whose origin label equals the prediction, over the
    non-skipped documents."""
    fractions = []
    for doc in docs:
        predicted = forward(params, doc.ids).predicted
        if predicted not in doc.origin_labels:
            continue
        match = sum(1 for lab in doc.origin_labels if lab == predicted)
        fractions.append(match / len(doc.origin_labels))
    if not fractions:
        raise ValueError("all documents skipped")
    return float(np.mean(fractions))


# ---------------------------------------------------------------------------
# Morphosyntactic agreement experiment
# ---------------------------------------------------------------------------

def run_agreement_eval(params: NetworkParams, samples: list[AgreementSample],
                       methods: list[str],
                       opts: ExplainOptions | None = None,
                       baseline_seed: int = 0) -> list[EvalRow]:
    """hit_target on correct predictions and hit_feat split by prediction
    correctness, per method plus random and last baselines."""
    opts = opts or ExplainOptions()
    check_names(methods)
    if params.vocab is None:
        raise ValueError("agreement evaluation needs a checkpoint vocabulary")
    if params.n_classes != len(NUMBER_CLASSES):
        raise ValueError(f"agreement evaluation needs a 2-class (Sg/Pl) "
                         f"model, got {params.n_classes} classes")
    rng = SeededRng(baseline_seed)
    all_methods = list(methods) + ["random", "last"]
    counters = {(name, metric): [0, 0]
                for name in all_methods
                for metric in ("hit_target", "hit_feat_correct",
                               "hit_feat_incorrect")}

    for sample in samples:
        ids = params.vocab.encode(sample.tokens)
        predicted, rels = explain_document(methods, params, ids, opts)
        correct = predicted == sample.label_id
        rels += [baseline_random(rng, len(ids)), baseline_last(len(ids))]
        for name, rel in zip(all_methods, rels):
            if correct:
                c = counters[(name, "hit_target")]
                c[0] += hit_target(sample, rel)
                c[1] += 1
                c = counters[(name, "hit_feat_correct")]
            else:
                c = counters[(name, "hit_feat_incorrect")]
            c[0] += hit_feat(sample, predicted, rel)
            c[1] += 1
    return [EvalRow(method=name, arch=params.arch, metric=metric,
                    hits=h, possible=p)
            for (name, metric), (h, p) in counters.items()]


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def parse_agreement_row(line: str) -> AgreementSample | None:
    """One row: tokens (space-joined) TAB POS tags TAB 1-based subject index
    TAB number label, with or without its line end (\\n or \\r\\n); None
    for a blank line."""
    line = line.rstrip("\r\n")
    if not line:
        return None
    parts = line.split("\t")
    if len(parts) != 4:
        raise ValueError(f"expected 4 tab-separated columns, got {len(parts)}")
    try:
        subject = int(parts[2])
    except ValueError:
        raise ValueError(f"bad subject index {parts[2]!r}") from None
    return AgreementSample(tokens=parts[0].split(), pos_tags=parts[1].split(),
                           subject_index=subject - 1, label=parts[3])


def parse_agreement_tsv(lines) -> list[AgreementSample]:
    """The samples of the non-blank ``lines`` (``parse_agreement_row``); a
    bad row is a ValueError that names it ``line N``."""
    samples = []
    for lineno, line in enumerate(lines, start=1):
        try:
            sample = parse_agreement_row(line)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if sample is not None:
            samples.append(sample)
    return samples


def format_report_tsv(rows: list[EvalRow]) -> str:
    out = ["method\tarch\tmetric\thits\tpossible\taccuracy"]
    for r in rows:
        acc = f"{r.accuracy:.6f}" if r.possible else "n/a"
        out.append(f"{r.method}\t{r.arch}\t{r.metric}\t{r.hits}\t"
                   f"{r.possible}\t{acc}")
    return "\n".join(out) + "\n"
