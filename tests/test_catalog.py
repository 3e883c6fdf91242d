import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from textexplain import models
from textexplain.explain import METHOD_NAMES, ExplainOptions, PerturbConfig, \
    decomp_explain, explain, explain_document, limsse_explain, \
    perturb_explain
from textexplain.explain import gradient

from conftest import forbid_forward, rand_params
from test_white_box_pass import WHITE_BOX

# explainers called directly, outside the catalog
ENTRIES = {
    "perturb_explain": lambda p, ids, k: perturb_explain(
        p, ids, k, PerturbConfig("occlude", 3)),
    "decomp_explain": decomp_explain,
    **{f"limsse_explain({v})": lambda p, ids, k, v=v: limsse_explain(
        p, ids, k, v, n=10) for v in ("bb", "ms_s", "ms_p")},
}


@pytest.mark.parametrize("k", [-1, 2, 5])
@pytest.mark.parametrize("name", METHOD_NAMES + tuple(ENTRIES))
def test_target_class_out_of_range_is_rejected(monkeypatch, name, k):
    """Every catalog method and every explainer entry rejects a class
    outside [0, K) before any forward pass."""
    p = rand_params("GRU", n_classes=2)
    forbid_forward(monkeypatch, "class")
    with pytest.raises(ValueError, match="out of range"):
        if name in ENTRIES:
            ENTRIES[name](p, [1, 2, 3], k)
        else:
            explain(name, p, [1, 2, 3], k, ExplainOptions(limsse_n=10))


@pytest.mark.parametrize("names", [
    ["grad1_s_dot"], ["lrp", "omit_1"], ["decomp", "deeplift", "limsse_bb"],
    ["gradint_p_l2"], ["omit_3"], ["occ_1", "limsse_ms_s", "limsse_ms_p"],
])
@pytest.mark.parametrize("k", [None, 1])
def test_explain_document_runs_at_most_one_traced_forward(monkeypatch,
                                                          names, k):
    """One traced forward (the white-box pass's head batch) per call when
    a white-box name is asked or no class is given, and none when the
    class is given and only black-box names are asked."""
    traced = []
    real = models._run

    def counting(params, embs, keep, *args, **kwargs):
        if keep:
            traced.append(len(embs))
        return real(params, embs, keep, *args, **kwargs)

    for module in (models, gradient):
        monkeypatch.setattr(module, "_run", counting)
    p = rand_params("LSTM", seed=2, direction="bi")
    got, _ = explain_document(names, p, [1, 5, 2, 7, 3],
                              ExplainOptions(limsse_n=40), k)
    white = not set(names).isdisjoint(WHITE_BOX)
    assert len(traced) == (1 if white or k is None else 0)
    assert got == (k if k is not None else models.forward(
        p, [1, 5, 2, 7, 3]).predicted)


MODELS = [(arch, direction) for arch in ("GRU", "LSTM", "QGRU", "QLSTM", "CNN")
          for direction in ("uni", "bi") if (arch, direction) != ("CNN", "bi")]
OPTS = ExplainOptions(limsse_n=200)


@pytest.mark.parametrize("arch_dir", MODELS,
                         ids=[f"{a}-{d}" for a, d in MODELS])
@settings(max_examples=4, deadline=None, derandomize=True)
@given(seed=st.integers(0, 1000), t_len=st.integers(1, 12))
@example(seed=0, t_len=1)
def test_every_method_gives_a_finite_reproducible_map(arch_dir, seed, t_len):
    """Every catalog method (decomp is not defined for the CNN) maps a
    document of T tokens to T finite scores, bitwise the same on a second
    seeded call."""
    arch, direction = arch_dir
    p = rand_params(arch, seed=seed, scale=3.0, direction=direction)
    ids = [1 + (seed * 7 + 3 * i * i) % 19 for i in range(t_len)]
    for name in METHOD_NAMES:
        if name == "decomp" and arch == "CNN":
            continue
        first = explain(name, p, ids, 1, OPTS).scores
        assert first.shape == (t_len,), name
        assert np.all(np.isfinite(first)), name
        assert np.array_equal(explain(name, p, ids, 1, OPTS).scores, first), \
            name
