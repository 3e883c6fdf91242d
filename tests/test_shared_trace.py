"""One forward trace per document, shared by the prediction and every
white-box method.

One ``explain_document`` call must give the maps each method gives run
alone, and the evaluations must give the rows of a per-method loop that
explains each document once per method.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import textexplain as tx
from textexplain import evaluate
from textexplain.evaluate import AgreementSample, build_hybrid_docs, \
    hit_feat, hit_hybrid, hit_target, run_agreement_eval, run_hybrid_eval
from textexplain.explain import ExplainOptions, explain, explain_document
from textexplain.explain.gradient import reduce_gradients
from textexplain.models import _run, embed, embedding_gradients, forward
from textexplain.numerics import SeededRng

from conftest import rand_params

MODELS = [(arch, direction) for arch in ("GRU", "LSTM", "QGRU", "QLSTM", "CNN")
          for direction in ("uni", "bi") if (arch, direction) != ("CNN", "bi")]

TRACE_METHODS = ("grad1_s_dot", "grad1_s_l2", "grad1_p_dot", "grad1_p_l2",
                 "lrp", "deeplift", "decomp")

OPTS = ExplainOptions(int_steps=3, limsse_n=40, limsse_maxlen=3)


def model(arch_dir, seed):
    arch, direction = arch_dir
    return rand_params(arch, seed=seed, scale=3.0, direction=direction)


def token_ids(t_len, seed):
    return [1 + (seed * 7 + 3 * i * i) % 19 for i in range(t_len)]


def methods_for(params, names):
    return [m for m in names if not (m == "decomp" and params.arch == "CNN")]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(MODELS), st.integers(0, 1000), st.integers(1, 15),
       st.integers(0, 1))
def test_shared_trace_maps_equal_the_traceless_maps(arch_dir, seed, t_len, k):
    """The maps of one ``explain_document`` call, which share one trace,
    equal each method run alone within 1e-12 of the map's peak, and a plain
    gradient run alone is bitwise a standalone ``embedding_gradients``
    run."""
    p = model(arch_dir, seed)
    ids = token_ids(t_len, seed)
    names = methods_for(p, TRACE_METHODS)
    _, shared = explain_document(names, p, ids, OPTS, k)
    for name, rel in zip(names, shared):
        alone = explain(name, p, ids, k, OPTS).scores
        assert np.abs(rel.scores - alone).max() <= \
            1e-12 * np.abs(alone).max(), name
        if name.startswith("grad1_"):
            _, output, reduction = name.split("_")
            grads = embedding_gradients(p, ids, output=output, k=k)
            want = reduce_gradients(grads, embed(p, ids), reduction)
            assert np.array_equal(alone, want), name


@pytest.mark.parametrize("arch_dir", [("GRU", "bi"), ("CNN", "uni")])
def test_trace_rows_are_views_of_the_batched_run(arch_dir):
    """Each direction's row-0 trace, which ``forward_embedded`` keeps as
    ``dirs`` and decomposition reads, views the runner's stacked trace."""
    p = model(arch_dir, 2)
    batched = _run(p, embed(p, token_ids(6, 2))[None], keep=True)[2]
    for i in range(len(p.directions)):
        tr = batched.at(i, 0)
        assert batched.hidden.shape[1] == 1
        assert np.shares_memory(tr.hidden, batched.hidden[i])
        assert np.shares_memory(tr.cand, batched.cand[i])
        for gate, a in tr.gates.items():
            assert np.shares_memory(a, batched.gates[gate][i])


# ---------------------------------------------------------------------------
# Evaluations
# ---------------------------------------------------------------------------

EVAL_METHODS = TRACE_METHODS + ("gradint_s_dot", "omit_1", "limsse_ms_s")


def with_vocab(p):
    p.vocab = tx.Vocabulary.build([[f"t{i}" for i in range(1, 20)]],
                                  cutoff=19)
    return p


def agreement_samples(seed, n):
    rng = SeededRng(seed)
    tags = ("NN", "NNS", "VBZ", "VBP", "DT", "JJ")
    out = []
    for _ in range(n):
        t_len = rng.uniform_int(2, 9)
        tokens = [f"t{rng.uniform_int(1, 19)}" for _ in range(t_len)]
        pos = [tags[rng.uniform_int(0, len(tags) - 1)] for _ in range(t_len)]
        out.append(AgreementSample(tokens, pos, rng.uniform_int(0, t_len - 1),
                                   ("Sg", "Pl")[rng.uniform_int(0, 1)]))
    return out


def hybrid_docs(seed):
    rng = SeededRng(seed)
    sentences = []
    for i in range(12):
        ids = [rng.uniform_int(1, 19) for _ in range(rng.uniform_int(1, 4))]
        sentences.append(([f"t{j}" for j in ids], ids, i % 2))
    return build_hybrid_docs(sentences, SeededRng(seed), group_size=3)


def oracle_agreement(p, samples, methods):
    """Per-method loop over the samples; every map is computed without a
    trace."""
    rows = {}
    for name in methods:
        counts = {m: [0, 0] for m in ("hit_target", "hit_feat_correct",
                                      "hit_feat_incorrect")}
        for sample in samples:
            ids = p.vocab.encode(sample.tokens)
            predicted = forward(p, ids).predicted
            rel = explain(name, p, ids, predicted, OPTS)
            if predicted == sample.label_id:
                counts["hit_target"][0] += hit_target(sample, rel)
                counts["hit_target"][1] += 1
                c = counts["hit_feat_correct"]
            else:
                c = counts["hit_feat_incorrect"]
            c[0] += hit_feat(sample, predicted, rel)
            c[1] += 1
        rows.update({(name, m): tuple(c) for m, c in counts.items()})
    return rows


def oracle_hybrid(p, docs, methods):
    rows = {}
    for name in methods:
        hits = possible = 0
        for doc in docs:
            predicted = forward(p, doc.ids).predicted
            if predicted not in doc.origin_labels:
                continue
            rel = explain(name, p, doc.ids, predicted, OPTS)
            hits += hit_hybrid(doc, predicted, rel)
            possible += 1
        rows[(name, "hybrid_pointing")] = (hits, possible)
    return rows


def baseline_rows(rows, methods):
    return {(r.method, r.metric): (r.hits, r.possible) for r in rows
            if r.method not in methods}


@pytest.mark.parametrize("arch_dir", MODELS,
                         ids=[f"{a}-{d}" for a, d in MODELS])
def test_eval_rows_equal_the_traceless_per_method_oracle(arch_dir):
    p = with_vocab(model(arch_dir, 3))
    methods = methods_for(p, EVAL_METHODS)

    samples = agreement_samples(3, 8)
    rows = run_agreement_eval(p, samples, methods, OPTS)
    got = {(r.method, r.metric): (r.hits, r.possible) for r in rows}
    want = oracle_agreement(p, samples, methods)
    assert {key: got[key] for key in want} == want
    assert (baseline_rows(rows, methods)
            == baseline_rows(run_agreement_eval(p, samples, [], OPTS), []))

    docs = hybrid_docs(3)
    rows = run_hybrid_eval(p, docs, methods, OPTS)
    got = {(r.method, r.metric): (r.hits, r.possible) for r in rows}
    want = oracle_hybrid(p, docs, methods)
    assert {key: got[key] for key in want} == want
    assert (baseline_rows(rows, methods)
            == baseline_rows(run_hybrid_eval(p, docs, [], OPTS), []))

