"""Seeded input generators for the benchmark workloads.

Every generator draws from its own ``random.Random(seed)``, so the same seed
gives the same inputs on every platform and the program under test only sees
the generated files, never the seed.

* Keyword corpus: two-class JSONL documents whose label is decided by which of
  two keywords appears once among filler tokens.
* Hybrid sentence pool: short labelled sentences; a document of two sentences
  carries its class keyword in one of them.
* Agreement samples: the left context of a verb with POS tags and a 1-based
  subject index. Opposite-number attractor nouns sit between the subject and
  the verb, and the last noun always has the opposite number, so it does not
  give the label away.

Lengths come from a fixed, shuffled multiset (``spread_lengths``): the mix of
lengths is the same for every seed, which keeps run-to-run cost comparable.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

KEYWORDS = ("alpha", "omega")            # class 0, class 1
FILLER = tuple(f"w{i:03d}" for i in range(150))

NOUNS = ("dog", "cat", "author", "pilot", "farmer", "teacher", "senator",
         "doctor", "key", "road", "painter", "nurse")
VERBS = ("like", "see", "help", "know", "meet", "call")
ADJECTIVES = ("old", "young", "tall", "quiet", "clever", "small")
PREPOSITIONS = ("near", "behind", "beside", "with", "of", "for")
ADVERBS = ("today", "then", "surely")
NUMBERS = ("Sg", "Pl")


def spread_lengths(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    """``n`` lengths spread evenly over [lo, hi], in shuffled order."""
    width = hi - lo + 1
    lengths = [lo + (i * width) // n for i in range(n)]
    rng.shuffle(lengths)
    return lengths


def _split(tokens: list[str], size: int) -> list[list[str]]:
    return [tokens[i:i + size] for i in range(0, len(tokens), size)]


def keyword_corpus(seed: int, n_docs: int, lo: int, hi: int) -> list[dict]:
    """Documents of ``lo``..``hi`` tokens with exactly one class keyword."""
    rng = random.Random(seed)
    docs = []
    for length in spread_lengths(rng, n_docs, lo, hi):
        label = rng.randrange(2)
        tokens = [rng.choice(FILLER) for _ in range(length)]
        tokens[rng.randrange(length)] = KEYWORDS[label]
        docs.append({"label": label, "sentences": _split(tokens, 8)})
    return docs


def sentence_docs(seed: int, n_docs: int, lo: int = 7,
                  hi: int = 9) -> list[dict]:
    """Two-sentence documents; one sentence holds the class keyword."""
    rng = random.Random(seed)
    lengths = spread_lengths(rng, 2 * n_docs, lo, hi)
    docs = []
    for i in range(n_docs):
        label = rng.randrange(2)
        sentences = [[rng.choice(FILLER) for _ in range(length)]
                     for length in lengths[2 * i:2 * i + 2]]
        sent = sentences[rng.randrange(2)]
        sent[rng.randrange(len(sent))] = KEYWORDS[label]
        docs.append({"label": label, "sentences": sentences})
    return docs


def _noun(number: str) -> tuple[str, str]:
    return ("NN", "") if number == "Sg" else ("NNS", "s")


def agreement_sample(rng: random.Random, length: int) -> tuple[list[str],
                                                               list[str],
                                                               int, str]:
    """(tokens, tags, 1-based subject index, number) of ``length`` tokens.

    Layout: adverbs, then ``the [adj] SUBJECT``, then attractor phrases
    (``prep the [adj] noun`` or ``that the noun verb``) up to the verb.
    """
    if length < 5:
        raise ValueError("agreement samples need at least 5 tokens")
    number = rng.choice(NUMBERS)
    other = NUMBERS[1 - NUMBERS.index(number)]
    core_len = 3 if length - 3 >= 3 and rng.random() < 0.5 else 2
    remaining = length - core_len
    shapes = []                      # phrase lengths, 3 or 4
    while remaining >= 3:
        size = rng.choice([s for s in (3, 4) if s <= remaining])
        shapes.append(size)
        remaining -= size
    tokens = [rng.choice(ADVERBS) for _ in range(remaining)]
    tags = ["RB"] * remaining

    tokens.append("the")
    tags.append("DT")
    if core_len == 3:
        tokens.append(rng.choice(ADJECTIVES))
        tags.append("JJ")
    tag, suffix = _noun(number)
    tokens.append(rng.choice(NOUNS) + suffix)
    tags.append(tag)
    subject = len(tokens)

    for i, size in enumerate(shapes):
        last = i == len(shapes) - 1
        noun_number = other if last else rng.choice(NUMBERS)
        tag, suffix = _noun(noun_number)
        noun = rng.choice(NOUNS) + suffix
        if size == 4 and rng.random() < 0.5:
            verb = rng.choice(VERBS)
            if noun_number == "Sg":
                verb, verb_tag = verb + "s", "VBZ"
            else:
                verb_tag = "VBP"
            tokens += ["that", "the", noun, verb]
            tags += ["WDT", "DT", tag, verb_tag]
        elif size == 4:
            tokens += [rng.choice(PREPOSITIONS), "the",
                       rng.choice(ADJECTIVES), noun]
            tags += ["IN", "DT", "JJ", tag]
        else:
            tokens += [rng.choice(PREPOSITIONS), "the", noun]
            tags += ["IN", "DT", tag]
    return tokens, tags, subject, number


def agreement_samples(seed: int, n: int, lo: int = 5, hi: int = 15) -> list:
    """``n`` samples whose lengths cover [lo, hi] evenly in every block of
    (hi - lo + 1) consecutive samples."""
    rng = random.Random(seed)
    width = hi - lo + 1
    lengths: list[int] = []
    while len(lengths) < n:
        lengths += spread_lengths(rng, width, lo, hi)
    return [agreement_sample(rng, length) for length in lengths[:n]]


def write_jsonl(path: Path, docs: list[dict]) -> None:
    path.write_text("".join(json.dumps(d) + "\n" for d in docs),
                    encoding="utf-8")


def write_agreement_tsv(path: Path, samples: list) -> None:
    lines = [f"{' '.join(toks)}\t{' '.join(tags)}\t{subject}\t{number}\n"
             for toks, tags, subject, number in samples]
    path.write_text("".join(lines), encoding="utf-8")


def agreement_training_docs(samples: list) -> list[dict]:
    """Classification documents (label = verb number) for training."""
    return [{"label": NUMBERS.index(number), "sentences": [toks]}
            for toks, _, _, number in samples]
