"""Self-test of the benchmark tracer: a missed import site must fail here
instead of silently undercounting forward passes.

    python3 -m pytest -q bench/test_tracer.py
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import pytest  # noqa: E402

import textexplain as tx  # noqa: E402
from textexplain import models  # noqa: E402
from textexplain.explain import limsse, perturb  # noqa: E402
from textexplain.numerics import SeededRng  # noqa: E402

import tracer as tracing  # noqa: E402

T_LEN = 9


@pytest.fixture
def params():
    return tx.init_params("GRU", 20, 4, 6, 2, SeededRng(0))


@pytest.fixture
def ids():
    rng = SeededRng(1)
    return [rng.uniform_int(1, 19) for _ in range(T_LEN)]


@pytest.fixture
def tracer():
    t = tracing.Tracer()
    t.install()
    yield t
    t.uninstall()


def forward_passes(t: tracing.Tracer) -> int:
    return sum(1 for s in t.spans if s[0] == "models.forward_embedded")


@pytest.mark.parametrize("mode", ["omit", "occlude"])
@pytest.mark.parametrize("n", [1, 3, 7])
def test_perturb_records_one_forward_per_distinct_span(tracer, params, ids,
                                                       mode, n):
    spans = {(max(start, 0), min(start + n, T_LEN))
             for t in range(T_LEN) for start in range(t - n + 1, t + 1)}
    perturb.perturb_explain(params, ids, 1, perturb.PerturbConfig(mode, n))
    assert forward_passes(tracer) == len(spans) + 1


def test_catalog_perturb_matches_direct_call(tracer, params, ids):
    tx.explain("occ_3", params, ids, 0)
    names = [s[0] for s in tracer.spans]
    assert names[0] == "explain.occ_3"
    assert forward_passes(tracer) == T_LEN + 2 + 1


@pytest.mark.parametrize("variant", ["bb", "ms_s"])
def test_limsse_records_one_forward_per_distinct_substring(tracer, params,
                                                           ids, variant):
    samples = limsse.sample_substrings(SeededRng(4), T_LEN, 300, 4)
    distinct = {(s.start, s.length) for s in samples}
    tx.explain(f"limsse_{variant}", params, ids, 0,
               tx.ExplainOptions(limsse_n=300, limsse_maxlen=4, seed=4))
    assert forward_passes(tracer) == len(distinct)
    assert sum(s[0] == "models.forward" for s in tracer.spans) == len(distinct)
    assert sum(s[0] == "explain.limsse.surrogate_fit"
               for s in tracer.spans) == 1
    top = tracer.spans[0]
    assert top[0] == f"explain.limsse_{variant}" and top[5] == {"samples": 300}


def test_gradient_spans_nest_under_the_method(tracer, params, ids):
    tx.explain("gradint_s_dot", params, ids, 0, tx.ExplainOptions(int_steps=5))
    spans = tracer.spans
    assert spans[0][0] == "explain.gradint_s_dot"
    grads = [s for s in spans if s[0] == "models.embedding_gradients"]
    assert len(grads) == 5 and all(spans[g[3]] is spans[0] for g in grads)
    assert sum(s[0] == "autodiff.Tape.backward" for s in spans) == 5


def test_uninstall_restores_every_import_site(params, ids):
    originals = (models.forward_embedded, perturb.forward_embedded,
                 limsse.forward, models.Tape.backward)
    t = tracing.Tracer()
    t.install()
    assert perturb.forward_embedded is not originals[1]
    t.uninstall()
    assert (models.forward_embedded, perturb.forward_embedded,
            limsse.forward, models.Tape.backward) == originals
    tx.explain("omit_1", params, ids, 0)
    assert t.spans == []


def test_missing_targets_are_reported_absent(params, ids):
    t = tracing.Tracer(tracing.TARGETS + (
        tracing.Target("textexplain.models", "no_such_function", "gone.fn"),
        tracing.Target("textexplain.no_such_module", "f", "gone.module"),
        tracing.Target("textexplain.autodiff", "Tape.no_such", "gone.method"),
    ))
    t.install()
    try:
        tx.explain("lrp", params, ids, 0)
    finally:
        t.uninstall()
    assert t.absent == ["gone.fn", "gone.module", "gone.method"]
    assert forward_passes(t) == 1


def test_self_time_subtracts_direct_children():
    spans = [["a", 0.0, 10.0, -1, None, None],
             ["b", 1.0, 4.0, 0, None, None],
             ["c", 2.0, 3.0, 1, None, None],
             ["d", 5.0, 9.0, 0, None, None]]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_layer_metrics_count_forward_work(tracer, params, ids):
    tx.explain("omit_1", params, ids, 0)
    tx.explain("limsse_ms_s", params, ids, 0,
               tx.ExplainOptions(limsse_n=100, limsse_maxlen=3))
    m = tracing.layer_metrics(tracer.spans, ("omit_1", "limsse_ms_s"))
    fwd = forward_passes(tracer)
    assert m["models.forward_embedded.calls"] == (fwd, "count")
    assert m["explain.omit_1.calls"] == (1, "count")
    assert m["explain.perturb.forwards_per_window"][0] == (T_LEN + 1) / T_LEN
    distinct = fwd - (T_LEN + 1)
    assert m["explain.limsse.forwards_per_sample"][0] == distinct / 100
    flop = tracing.forward_flop(params, 1)
    assert flop == 6 * 6 * (4 + 6) + 2 * 2 * 6
