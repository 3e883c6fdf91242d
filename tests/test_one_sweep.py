"""One forward and one reverse sweep per (document, model).

The white-box pass runs the exact-gradient rows and the relevance rows
(``lrp``, ``deeplift``) in one sweep: a ``RelevanceRule`` governs the
trailing rows alone. A bidirectional model's directions step together,
through (D, ...) stacked weights that view ``params.flat``. Every map of the
shared pass must equal the same method run alone, on every architecture and
direction: for a given class, for the class ``forward`` predicts (which the
pass reads from its own row 0) and when the integrated-gradient rows spill
into further batches.
"""

import numpy as np
import pytest

import textexplain as tx
from textexplain import models
from textexplain.evaluate import run_agreement_eval
from textexplain.explain import ExplainOptions, explain, explain_document
from textexplain.explain import gradient
from textexplain.models import RelevanceRule, _run, embed, forward, \
    init_params, output_seeds, sweep
from textexplain.numerics import SeededRng

from conftest import rand_params
from test_white_box_pass import AGREEMENT_METHODS, AGREEMENT_MODELS, \
    _agreement_samples

ARCH_DIRS = [(arch, direction) for arch in tx.ARCHS
             for direction in (("uni",) if arch == "CNN" else ("uni", "bi"))]
ARCH_IDS = [f"{a}-{d}" for a, d in ARCH_DIRS]

METHODS = ["grad1_s_dot", "grad1_p_l2", "gradint_s_dot", "lrp", "deeplift"]
# the names whose rows add nothing to the document's forward batch
ONE_ROW = ["grad1_s_l2", "grad1_s_dot", "grad1_p_l2", "grad1_p_dot", "lrp",
           "decomp"]

OPTS = ExplainOptions(int_steps=9)


def _inputs(arch_dir, seed, t_len):
    arch, direction = arch_dir
    p = rand_params(arch, seed=seed, scale=3.0, direction=direction)
    ids = np.random.default_rng(seed).integers(0, 20, size=t_len).tolist()
    return p, ids


def _assert_each_equals_alone(p, ids, k=None):
    """Every map of one ``explain_document`` call equals its method run
    alone; returns the class explained."""
    k, got = explain_document(METHODS, p, ids, OPTS, k)
    for name, rel in zip(METHODS, got):
        want = explain(name, p, ids, k, OPTS).scores
        gap = np.abs(rel.scores - want).max()
        assert gap <= 1e-12 * np.abs(want).max(), name
    return k


@pytest.mark.parametrize("arch_dir", ARCH_DIRS, ids=ARCH_IDS)
@pytest.mark.parametrize("t_len", [1, 6, 13])
def test_one_sweep_maps_equal_each_method_alone(arch_dir, t_len):
    """The exact and the relevance rows share one sweep, and every map
    equals its method run alone."""
    p, ids = _inputs(arch_dir, t_len, t_len)
    _assert_each_equals_alone(p, ids, 1)


@pytest.mark.parametrize("arch_dir", ARCH_DIRS, ids=ARCH_IDS)
@pytest.mark.parametrize("t_len", [1, 7])
def test_a_forward_trace_gives_the_same_maps(arch_dir, t_len):
    """With no class given, the pass explains the class ``forward``
    predicts, read from its own row 0, and the maps equal each method run
    alone for that class."""
    p, ids = _inputs(arch_dir, 20 + t_len, t_len)
    assert _assert_each_equals_alone(p, ids) == forward(p, ids).predicted


@pytest.mark.parametrize("arch_dir", ARCH_DIRS, ids=ARCH_IDS)
@pytest.mark.parametrize("from_forward", [False, True])
def test_spilled_integrated_gradient_rows_give_the_same_maps(
        arch_dir, from_forward, monkeypatch):
    """With a batch budget of a few rows, the integrated-gradient rows of a
    15-token input spill into further batches, each with its own sweep,
    for a given class and for the class ``forward`` predicts."""
    p, ids = _inputs(arch_dir, 40, 15)
    width = max(p.d_embed, p.d_hidden)
    monkeypatch.setattr(models, "BATCH_CELLS", 4 * len(ids) * width)
    assert models.batch_rows(p, len(ids)) == 4
    k = _assert_each_equals_alone(p, ids, None if from_forward else 1)
    assert k == (forward(p, ids).predicted if from_forward else 1)


@pytest.mark.parametrize("arch_dir", ARCH_DIRS, ids=ARCH_IDS)
def test_a_one_row_set_gives_each_map_bitwise_alone(arch_dir):
    """The document runs alone in its forward batch for these names, and a
    sweep of one row runs it twice, so each map of one call is bitwise the
    map of its name run alone."""
    names = [n for n in ONE_ROW
             if not (arch_dir[0] == "CNN" and n == "decomp")]
    for seed in range(3):
        for t_len in (1, 2, 6, 13):
            p, ids = _inputs(arch_dir, seed, t_len)
            for k in (None, 1):
                explained, got = explain_document(names, p, ids, OPTS, k)
                for name, rel in zip(names, got):
                    want = explain(name, p, ids, explained, OPTS).scores
                    assert rel.scores.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("arch_dir", ARCH_DIRS, ids=ARCH_IDS)
@pytest.mark.parametrize("t_len", [1, 6, 13])
def test_mixed_sweep_rows_are_the_exact_and_the_rule_sweeps(arch_dir, t_len):
    """A sweep of exact rows, then an ``lrp`` and a ``deeplift`` row under a
    rule that governs them: its exact rows are bitwise the rule-free sweep
    of those rows, and its rule rows the sweep under the rule alone."""
    for seed in (0, 1):
        p, ids = _inputs(arch_dir, seed, t_len)
        emb = embed(p, ids)
        _, scores, dirs = _run(p, np.stack([emb, 0.0 * emb, 0.5 * emb]),
                               keep=True)
        rows = [2, 0, 2, 0]
        for k in (0, 1):
            dscores = output_seeds(scores[rows], k, ["s", "s", "p", "p"])
            base, seeds = gradient._rule_rows(p, scores, dirs, k,
                                              ["lrp", "deeplift"], 1e-3)
            mixed = sweep(p, dirs.take(rows + [0, 0]),
                          np.concatenate([dscores, seeds]),
                          RelevanceRule(1e-3, base, first=len(rows)))[0]
            exact = sweep(p, dirs.take(rows), dscores)[0]
            ruled = sweep(p, dirs.take([0, 0]), seeds,
                          RelevanceRule(1e-3, base))[0]
            assert mixed[:len(rows)].tobytes() == exact.tobytes()
            assert mixed[len(rows):].tobytes() == ruled.tobytes()


def _count_calls(monkeypatch):
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
    return calls


def test_agreement_makes_one_forward_and_one_sweep_per_sample(monkeypatch):
    """Each (sample, model) of the agreement game with the benchmark's
    white-box methods runs one forward and one sweep."""
    calls = _count_calls(monkeypatch)
    for arch, direction in AGREEMENT_MODELS:
        p = rand_params(arch, seed=4, scale=3.0, direction=direction)
        p.vocab = tx.Vocabulary.build([[f"t{i}" for i in range(1, 20)]],
                                      cutoff=19)
        methods = [m for m in AGREEMENT_METHODS
                   if not (m == "decomp" and arch == "CNN")]
        for sample in _agreement_samples(4):
            calls.update({"_run": 0, "sweep": 0})
            run_agreement_eval(p, [sample], methods, ExplainOptions())
            assert calls == {"_run": 1, "sweep": 1}, arch


def test_one_sweep_holds_the_exact_and_the_relevance_rows(monkeypatch):
    """The agreement method set sweeps 53 rows: 49 integrated-gradient
    rows, the document under s and under p, then ``lrp`` and ``deeplift``
    under a rule that governs the last two."""
    seen = []
    real = models.sweep

    def spy(params, dirs, dscores, rule=None, doc=None):
        seen.append((len(dscores), rule and rule.first))
        return real(params, dirs, dscores, rule, doc)

    monkeypatch.setattr(gradient, "sweep", spy)
    p, ids = _inputs(("GRU", "bi"), 3, 8)
    explain_document(METHODS, p, ids, k=1)
    assert seen == [(53, 51)]


@pytest.mark.parametrize("arch", ["GRU", "LSTM", "QGRU", "QLSTM"])
def test_direction_stacks_view_the_flat_vector(arch):
    """A bidirectional model's (D, ...) weight stacks are strided views of
    ``params.flat``, and each direction's per-gate ``layers`` are views of
    them."""
    p = init_params(arch, 9, 3, 4, 3, SeededRng(1), direction="bi",
                    kernel_width=3)
    for name, both in p.dir_stack._asdict().items():
        if both is None:
            continue
        assert both.shape[0] == 2
        assert np.shares_memory(both, p.flat)
    blocks = [a for a in p.dir_stack if a is not None]
    for i, dname in enumerate(p.directions):
        for one in p.layers[dname].values():
            assert any(np.shares_memory(one, a[i]) for a in blocks)
    p.flat[:] = np.arange(p.flat.size)
    gate = models._GATES[arch][0]
    kernel = ("V" if arch in ("GRU", "LSTM") else "K") + gate
    assert p.dir_stack.bias[1, 0] == p.layers["bwd"]["b" + gate][0]
    p.dir_stack.kernel[1, 0, 0, 0] = -1.0
    assert p.layers["bwd"][kernel].flat[0] == -1.0
