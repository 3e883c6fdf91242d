"""One white-box pass per (document, model): one forward over the document's
rows and one sweep (``gradient.white_box_pass``,
``catalog.explain_document``).

Every map is checked against an oracle that shares none of the pass's
batching: standalone gradients, serial integrated-gradient steps, the
per-document relevance pass kept in ``test_lrp_deeplift`` and the net-load
series of a plain forward trace.
"""

import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import textexplain as tx
from textexplain import models
from textexplain.evaluate import AgreementSample, run_agreement_eval
from textexplain.explain import ExplainOptions, explain, explain_document
from textexplain.explain.decomp import net_load_series
from textexplain.explain import gradient
from textexplain.explain.gradient import reduce_gradients, white_box_pass
from textexplain.models import batch_rows, embed, embedding_gradients, \
    forward, forward_embedded
from textexplain.numerics import SeededRng, softmax

from conftest import rand_params
from test_lrp_deeplift import _oracle_map

ARCH_DIRS = [(arch, direction) for arch in tx.ARCHS
             for direction in (("uni",) if arch == "CNN" else ("uni", "bi"))]
ARCH_IDS = [f"{a}-{d}" for a, d in ARCH_DIRS]

WHITE_BOX = tuple(f"{v}_{o}_{r}" for v in ("grad1", "gradint")
                  for o in ("s", "p") for r in ("l2", "dot")) + (
    "lrp", "deeplift", "decomp")


def _decomp_oracle(p, ids, k):
    trace = forward(p, ids)
    total = np.zeros(len(ids))
    for dname in p.directions:
        phi = np.diff(net_load_series(trace, p, k, dname))
        total += phi[::-1] if dname == "bwd" else phi
    return total


def _oracle(name, p, ids, k, opts):
    if name in ("lrp", "deeplift"):
        return _oracle_map(p, ids, k, opts.eps, name == "deeplift")
    if name == "decomp":
        return _decomp_oracle(p, ids, k)
    variant, output, reduction = name.split("_")
    emb = embed(p, ids)
    if variant == "grad1":
        grads = embedding_gradients(p, ids, output=output, k=k)
    else:
        steps = opts.int_steps
        grads = sum(embedding_gradients(p, output=output, k=k,
                                        emb=emb * (m / steps))
                    for m in range(1, steps + 1)) / steps
    return reduce_gradients(grads, emb, reduction)


@pytest.mark.parametrize("arch_dir", ARCH_DIRS, ids=ARCH_IDS)
@settings(max_examples=12, deadline=None, derandomize=True)
@given(t_len=st.integers(1, 15), k=st.sampled_from([0, 1]),
       steps=st.sampled_from([1, 3, 7]),
       chosen=st.lists(st.sampled_from(WHITE_BOX), min_size=1, unique=True),
       seed=st.integers(0, 2 ** 16))
@example(t_len=1, k=0, steps=3, chosen=list(WHITE_BOX), seed=0)
def test_explain_all_matches_the_oracles(arch_dir, t_len, k, steps, chosen,
                                         seed):
    """``explain_document`` for a given class, one white-box pass, equals
    every method's oracle within 1e-12 of the map's peak."""
    arch, direction = arch_dir
    names = [n for n in chosen if not (n == "decomp" and arch == "CNN")]
    if not names:
        return
    p = rand_params(arch, seed=seed, scale=3.0, direction=direction)
    ids = np.random.default_rng(seed).integers(0, 20, size=t_len).tolist()
    opts = ExplainOptions(int_steps=steps)
    got_k, got = explain_document(names, p, ids, opts, k)
    assert got_k == k
    for name, rel in zip(names, got):
        want = _oracle(name, p, ids, k, opts)
        assert rel.method == name and rel.k == k
        assert np.abs(rel.scores - want).max() <= 1e-12 * np.abs(want).max(), \
            name


def _recorded_runs(monkeypatch):
    """The outputs of every ``_run`` the white-box pass makes from now on:
    (document representations, scores, stacked trace) per batch, the head
    batch first in each pass."""
    runs = []

    def recorded(*args, **kwargs):
        runs.append(models._run(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(gradient, "_run", recorded)
    return runs


def test_document_trace_rows(monkeypatch):
    """The pass's head batch: row 0 is the document, then the all-zero
    input, then the scaled inputs m/M; row 0's scores read as
    ``forward``'s, and the class the pass explains with none given is
    row 0's prediction."""
    p = rand_params("GRU", seed=1, scale=3.0, direction="bi")
    ids = [1, 2, 3, 4]
    runs = _recorded_runs(monkeypatch)
    k, _ = white_box_pass(p, ids, None, ["gradint_s_dot", "deeplift"],
                          steps=4)
    [(_, scores, dirs)] = runs
    emb = embed(p, ids)
    scales = (1.0, 0.0, 0.25, 0.5, 0.75)
    assert dirs.emb.shape[1] == len(scales)
    for b, scale in enumerate(scales):
        np.testing.assert_array_equal(dirs.emb[0, b], emb * scale)
    plain = forward(p, ids)
    assert k == int(np.argmax(softmax(scores[0]))) == plain.predicted
    np.testing.assert_allclose(scores[0], plain.scores, rtol=0, atol=1e-13)
    assert np.shares_memory(dirs.at(1, 0).hidden, dirs.hidden[1])
    # methods that read row 0 alone add no rows
    runs.clear()
    explain_document(["grad1_p_l2", "lrp", "decomp", "omit_1"], p, ids,
                     ExplainOptions(int_steps=50))
    [(_, scores, _)] = runs
    assert scores.shape[0] == 1


def list_plan(names, params, t_len, steps):
    """``row_plan`` as one list of scale tuples, every m/M formed before
    the first batch runs."""
    first = (1.0, 0.0) if "deeplift" in names else (1.0,)
    integrated = any(n.startswith("gradint_") for n in names)
    rows = first + tuple(m / steps for m in range(1, steps) if integrated)
    size = batch_rows(params, t_len)
    head = max(len(first), size)
    return [rows[:head]] + [rows[lo:lo + size]
                            for lo in range(head, len(rows), size)]


@pytest.mark.parametrize("cells", [None, 300, 2000])
@pytest.mark.parametrize("t_len", [1, 5, 80])
@pytest.mark.parametrize("steps", [1, 2, 50, 333])
def test_row_plan_batches_equal_the_list_plan(monkeypatch, cells, t_len,
                                              steps):
    """The head batch is the same tuple, and each later batch's
    ``np.arange(lo, hi) / M`` holds the list plan's scales bitwise, with
    and without DeepLIFT's zero row and the integrated-gradient rows; a
    lowered budget (1 to 66 rows a batch here) cuts the plan into more
    batches."""
    p = rand_params("GRU", seed=1)
    if cells:
        monkeypatch.setattr(models, "BATCH_CELLS", cells)
    for names in (["grad1_s_dot"], ["gradint_s_dot"], ["deeplift"],
                  ["lrp", "deeplift", "gradint_p_l2"],
                  ["gradint_s_l2", "grad1_p_dot", "decomp"]):
        got = list(gradient.row_plan(names, p, t_len, steps))
        want = list_plan(names, p, t_len, steps)
        assert isinstance(got[0], tuple) and got[0] == want[0], names
        assert ([np.asarray(b, dtype=float).tobytes() for b in got]
                == [np.asarray(b, dtype=float).tobytes() for b in want]), \
            names


def test_integrated_gradients_add_the_batch_sums_in_plan_order(monkeypatch):
    """Under a budget of 7 rows a batch, ``gradint_s`` is the sum of each
    batch's scaled-row gradients, added batch by batch in plan order, then
    the document's gradient, over M: bitwise what a list of the batch sums
    reduced at the end gives."""
    p = rand_params("LSTM", seed=2, scale=3.0, direction="bi")
    ids = [1, 2, 3, 4, 5]
    monkeypatch.setattr(models, "BATCH_CELLS",
                        7 * len(ids) * max(p.d_embed, p.d_hidden))
    sweeps = []

    def recorded(*args, **kwargs):
        out = models.sweep(*args, **kwargs)
        sweeps.append(out[0])
        return out

    monkeypatch.setattr(gradient, "sweep", recorded)
    names, steps = ["gradint_s_dot", "grad1_s_l2"], 50
    got = white_box_pass(p, ids, 1, names, steps=steps)[1]
    # the head batch's rows m = 1..6, then the document's row
    assert [len(d) for d in sweeps] == [7] + [7] * 6 + [1]
    parts = [sweeps[0][:-1].sum(axis=0)] + [d.sum(axis=0) for d in sweeps[1:]]
    want = reduce(np.add, parts + [sweeps[0][-1]]) / steps
    assert got["gradint_s"].tobytes() == want.tobytes()
    assert got["grad1_s"].tobytes() == sweeps[0][-1].tobytes()


def test_white_box_memory_does_not_grow_with_int_steps(monkeypatch):
    """With 256 rows a batch, the traced peak of an integrated-gradient
    map at M = 10^5 is within 1 MB of M = 10^4: the plan forms each
    batch's scales when it runs, and the pass keeps one running sum."""
    p = rand_params("GRU", seed=1)
    ids = [1, 2, 3]
    monkeypatch.setattr(models, "BATCH_CELLS",
                        256 * len(ids) * max(p.d_embed, p.d_hidden))

    def peak(steps):
        tracemalloc.start()
        try:
            explain_document(["gradint_s_dot"], p, ids,
                             ExplainOptions(int_steps=steps), k=0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(10 ** 5) - peak(10 ** 4) < 1 << 20


@pytest.mark.parametrize("arch_dir", ARCH_DIRS, ids=ARCH_IDS)
def test_one_method_alone_reads_its_document_trace(arch_dir):
    """Run alone, each white-box method's map is bitwise what the pass
    of its own name gives, and what that pass's raw gradient and the
    document's embeddings give (a gradient name's reduction of the (T, d_e)
    gradient), or for decomposition the summed first differences of the
    net-load series of ``forward``'s trace."""
    arch, direction = arch_dir
    p = rand_params(arch, seed=6, scale=3.0, direction=direction)
    ids = [4, 8, 15, 16, 2, 3]
    opts = ExplainOptions(int_steps=7)
    for name in WHITE_BOX:
        if name == "decomp" and arch == "CNN":
            continue
        raw = white_box_pass(p, ids, 1, [name], steps=7)[1]
        if name == "decomp":
            want = _decomp_oracle(p, ids, 1)
        else:
            variant, *rest = name.split("_")
            want = raw[name] if not rest else reduce_gradients(
                raw[f"{variant}_{rest[0]}"], embed(p, ids), rest[1])
        np.testing.assert_array_equal(raw[name], want, err_msg=name)
        np.testing.assert_array_equal(
            explain(name, p, ids, 1, opts).scores, want, err_msg=name)


@pytest.mark.parametrize("arch_dir", ARCH_DIRS, ids=ARCH_IDS)
def test_explain_document_explains_the_predicted_class(arch_dir):
    """With no class given, ``explain_document`` explains the class
    ``forward`` predicts, and its maps are bitwise its maps for that class
    given."""
    arch, direction = arch_dir
    p = rand_params(arch, seed=8, scale=3.0, direction=direction,
                    n_classes=3)
    opts = ExplainOptions(int_steps=5, limsse_n=30, limsse_maxlen=3)
    names = [n for n in WHITE_BOX + ("omit_3", "occ_1", "limsse_ms_s")
             if not (n == "decomp" and arch == "CNN")]
    rng = np.random.default_rng(8)
    # the first input of each predicted class, among inputs of 1 to 14 tokens
    by_class = {}
    for t_len in list(range(1, 15)) * 4:
        ids = rng.integers(0, 20, size=t_len).tolist()
        by_class.setdefault(forward(p, ids).predicted, ids)
    assert len(by_class) > 1, "every input predicted the same class"
    for predicted, ids in by_class.items():
        k, got = explain_document(names, p, ids, opts)
        assert k == predicted
        want = explain_document(names, p, ids, opts, k)[1]
        for name, a, b in zip(names, got, want):
            assert a.k == k and a.method == name
            np.testing.assert_array_equal(a.scores, b.scores, err_msg=name)


# ---------------------------------------------------------------------------
# One forward and two sweeps per (sample, model)
# ---------------------------------------------------------------------------

AGREEMENT_MODELS = (("GRU", "bi"), ("LSTM", "bi"), ("QGRU", "uni"),
                    ("CNN", "uni"))
AGREEMENT_METHODS = ("grad1_s_dot", "grad1_p_l2", "gradint_s_dot", "lrp",
                     "deeplift", "decomp")


def _agreement_samples(n):
    rng = SeededRng(5)
    tags = ("NN", "NNS", "VBZ", "VBP", "DT", "JJ")
    out = []
    for _ in range(n):
        t_len = rng.uniform_int(5, 15)
        tokens = [f"t{rng.uniform_int(1, 19)}" for _ in range(t_len)]
        pos = [tags[rng.uniform_int(0, len(tags) - 1)] for _ in range(t_len)]
        out.append(AgreementSample(tokens, pos, rng.uniform_int(0, t_len - 1),
                                   ("Sg", "Pl")[rng.uniform_int(0, 1)]))
    return out


def test_agreement_makes_one_forward_and_two_sweeps_per_sample(monkeypatch):
    """Each (sample, model) of the agreement game with the benchmark's
    white-box methods runs one forward and at most two sweeps."""
    calls = {"_run": 0, "sweep": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    real = {name: getattr(models, name) for name in calls}
    for module in (models, gradient):
        for name in calls:
            monkeypatch.setattr(module, name, counting(name, real[name]))
    for arch, direction in AGREEMENT_MODELS:
        p = rand_params(arch, seed=4, scale=3.0, direction=direction)
        p.vocab = tx.Vocabulary.build([[f"t{i}" for i in range(1, 20)]],
                                      cutoff=19)
        methods = [m for m in AGREEMENT_METHODS
                   if not (m == "decomp" and arch == "CNN")]
        for sample in _agreement_samples(6):
            calls.update({"_run": 0, "sweep": 0})
            run_agreement_eval(p, [sample], methods, ExplainOptions())
            assert calls["_run"] == 1, arch
            assert calls["sweep"] <= 2, arch


# ---------------------------------------------------------------------------
# Integrated-gradient completeness on every architecture
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("arch_dir", ARCH_DIRS, ids=ARCH_IDS)
@settings(max_examples=48, deadline=None, derandomize=True)
@given(t_len=st.integers(1, 9), k=st.sampled_from([0, 1]),
       seed=st.integers(0, 2 ** 16))
def test_integrated_gradients_are_complete(arch_dir, t_len, k, seed):
    """The ``gradint_s_dot`` map of 500 steps sums to s_k(X) - s_k(0)
    within 1% of max(|delta|, 1e-3)."""
    arch, direction = arch_dir
    p = rand_params(arch, seed=seed, scale=3.0, direction=direction)
    ids = np.random.default_rng(seed).integers(0, 20, size=t_len).tolist()
    emb = embed(p, ids)
    delta = (forward_embedded(p, emb).scores[k]
             - forward_embedded(p, np.zeros_like(emb)).scores[k])
    rel = explain("gradint_s_dot", p, ids, k, ExplainOptions(int_steps=500))
    assert abs(rel.scores.sum() - delta) <= 0.01 * max(abs(delta), 1e-3)
