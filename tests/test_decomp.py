import numpy as np
import pytest

from textexplain.explain.catalog import explain_document
from textexplain.explain.decomp import _suffix_gate_products, \
    decomp_explain, net_load, net_load_series
from textexplain.models import forward

from conftest import forbid_forward, rand_params

GATED = ("LSTM", "QLSTM", "GRU", "QGRU")


def naive_net_load(trace, params, k, t, dname="fwd"):
    """O(T) recomputation with explicit loops, independent of the package's
    suffix-product code."""
    tr = trace.dirs[dname]
    t_len = tr.emb.shape[0]
    pos = params.directions.index(dname)
    d = params.d_hidden
    w_k = params.w_cls[k, pos * d:(pos + 1) * d]
    if params.arch in ("LSTM", "QLSTM"):
        carried = tr.cell[t].copy()
        for j in range(t + 1, t_len + 1):
            carried = carried * tr.gates["f"][j]
        return float(w_k @ (tr.gates["o"][t_len] * np.tanh(carried)))
    carried = tr.hidden[t].copy()
    for j in range(t + 1, t_len + 1):
        carried = carried * tr.gates["z"][j]
    return float(w_k @ carried)


def loop_suffix_products(gates, t_len):
    """prod[t] = prod[t+1] * gates[t+1], one step at a time."""
    prod = np.ones((t_len + 1, gates.shape[1]))
    for t in range(t_len - 1, -1, -1):
        prod[t] = prod[t + 1] * gates[t + 1]
    return prod


def loop_net_load_series(trace, params, k, dname):
    """One dot product per step over the loop's suffix products."""
    tr = trace.dirs[dname]
    t_len = tr.emb.shape[0]
    pos = params.directions.index(dname)
    d = params.d_hidden
    w_k = params.w_cls[k, pos * d:(pos + 1) * d]
    if params.arch in ("LSTM", "QLSTM"):
        prod = loop_suffix_products(tr.gates["f"], t_len)
        o_last = tr.gates["o"][t_len]
        return np.array([w_k @ (o_last * np.tanh(prod[t] * tr.cell[t]))
                         for t in range(t_len + 1)])
    prod = loop_suffix_products(tr.gates["z"], t_len)
    return np.array([w_k @ (prod[t] * tr.hidden[t])
                     for t in range(t_len + 1)])


@pytest.mark.parametrize("t_len", [1, 2, 7, 15])
@pytest.mark.parametrize("direction", ["uni", "bi"])
@pytest.mark.parametrize("arch", GATED)
def test_vectorised_series_match_the_step_loop(arch, direction, t_len):
    """Suffix products equal the loop bitwise; the series within 1e-12."""
    p = rand_params(arch, seed=t_len, scale=3.0, direction=direction,
                    n_classes=3)
    tr = forward(p, [1 + (5 * i + 2) % 19 for i in range(t_len)])
    for dname in p.directions:
        for gate in tr.dirs[dname].gates.values():
            np.testing.assert_array_equal(_suffix_gate_products(gate, t_len),
                                          loop_suffix_products(gate, t_len))
        for k in range(3):
            np.testing.assert_allclose(
                net_load_series(tr, p, k, dname),
                loop_net_load_series(tr, p, k, dname), rtol=0, atol=1e-12)


class TestNetLoad:
    @pytest.mark.parametrize("arch", GATED)
    def test_matches_naive_oracle(self, arch):
        p = rand_params(arch, seed=3, scale=3.0)
        ids = [1, 2, 3, 4, 5, 6]
        tr = forward(p, ids)
        series = net_load_series(tr, p, 1, "fwd")
        for t in range(len(ids) + 1):
            assert abs(series[t] - naive_net_load(tr, p, 1, t)) < 1e-12

    @pytest.mark.parametrize("arch", GATED)
    def test_final_step_recovers_class_score_minus_bias(self, arch):
        """nl(T) feeds the full final state into w_k, i.e. s_k - b_k for a
        unidirectional model."""
        p = rand_params(arch, seed=2, scale=3.0)
        ids = [1, 2, 3, 4]
        tr = forward(p, ids)
        nl_t = net_load(tr, p, 0, len(ids))
        assert abs(nl_t - (tr.scores[0] - p.b_cls[0])) < 1e-12

    @pytest.mark.parametrize("arch", GATED)
    def test_zero_init_gives_zero_net_load_at_origin(self, arch):
        p = rand_params(arch, seed=1, scale=3.0)
        tr = forward(p, [1, 2, 3])
        assert net_load(tr, p, 0, 0) == 0.0

    def test_out_of_range_step(self):
        p = rand_params("GRU")
        tr = forward(p, [1, 2])
        with pytest.raises(ValueError):
            net_load(tr, p, 0, 3)

    def test_gru_saturated_update_gate_preserves_net_load(self):
        """With z = 1 the state is carried unchanged, so every step has the
        same net load."""
        p = rand_params("GRU", scale=2.0)
        p.layers["fwd"]["bz"][:] = 60.0
        tr = forward(p, [1, 2, 3, 4])
        series = net_load_series(tr, p, 0, "fwd")
        np.testing.assert_allclose(series, series[0], atol=1e-12)


class TestDecompExplain:
    @pytest.mark.parametrize("arch", GATED)
    @pytest.mark.parametrize("direction", ["uni", "bi"])
    def test_telescoping(self, arch, direction):
        """Relevances sum to nl(T) - nl(0) over each direction, i.e. to the
        class score minus its bias."""
        p = rand_params(arch, seed=6, scale=3.0, direction=direction,
                        d_hidden=8)
        ids = [1, 2, 3, 4, 5]
        r = decomp_explain(p, ids, 1)
        tr = forward(p, ids)
        assert abs(r.scores.sum() - (tr.scores[1] - p.b_cls[1])) < 1e-9

    def test_matches_manual_first_differences(self):
        p = rand_params("LSTM", seed=4, scale=3.0)
        ids = [2, 4, 6]
        tr = forward(p, ids)
        expected = [net_load(tr, p, 0, t) - net_load(tr, p, 0, t - 1)
                    for t in range(1, 4)]
        np.testing.assert_allclose(decomp_explain(p, ids, 0).scores, expected,
                                   atol=1e-14)

    def test_cnn_rejected(self):
        with pytest.raises(ValueError):
            decomp_explain(rand_params("CNN"), [1, 2, 3], 0)

    @pytest.mark.parametrize("k", [None, 0])
    def test_cnn_rejected_before_any_forward_pass(self, k, monkeypatch):
        """The catalog checks the architecture with its other arguments,
        before the document trace is run."""
        forbid_forward(monkeypatch, "decomp")
        with pytest.raises(ValueError, match="undefined for CNN"):
            explain_document(["gradint_s_dot", "decomp"], rand_params("CNN"),
                             [1, 2, 3], k=k)

    def test_bidirectional_positions_align(self):
        """A backward-only contribution at original position t must land at
        index t after the reversal."""
        p = rand_params("GRU", seed=9, scale=3.0, direction="bi", d_hidden=8)
        # silence the forward half of the classifier
        p.w_cls[:, :p.d_hidden] = 0.0
        ids = [1, 2, 3, 4]
        r_bi = decomp_explain(p, ids, 0).scores
        tr = forward(p, ids)
        series = net_load_series(tr, p, 0, "bwd")
        np.testing.assert_allclose(r_bi, np.diff(series)[::-1], atol=1e-14)
