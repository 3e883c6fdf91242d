"""Every weight is a view into one flat vector, and checkpoints keep their
per-gate format.

``NetworkParams.flat`` holds the embedding, the classifier and each
direction's stacked gate blocks; the per-gate ``layers`` arrays are views of
the same memory. That must hold for parameters made by ``init_params``, read
by ``load_checkpoint`` and updated by ``train``. The golden checkpoints were
written by ``save_checkpoint(init_params(...))`` of the per-gate code (commit
d6bc182), so loading them, and drawing them again, pins the checkpoint
format and the draw order.
"""

import io
from pathlib import Path

import numpy as np
import pytest

from textexplain.models import init_params, load_checkpoint, save_checkpoint
from textexplain.numerics import SeededRng
from textexplain.train import TrainConfig, train

from conftest import keyword_corpus

GOLDEN = Path(__file__).parent / "golden"

MODELS = [(arch, direction) for arch in ("GRU", "LSTM", "QGRU", "QLSTM", "CNN")
          for direction in ("uni", "bi") if (arch, direction) != ("CNN", "bi")]
MODEL_IDS = [f"{arch}-{direction}" for arch, direction in MODELS]

# file -> init_params arguments and keywords it was written with
GOLDEN_INITS = {
    "gru_bi_init.npz": (("GRU", 7, 3, 4, 2, 5),
                        {"direction": "bi", "kernel_width": 3}),
    "qlstm_uni_init.npz": (("QLSTM", 6, 3, 4, 3, 6),
                           {"direction": "uni", "kernel_width": 3}),
}


def golden_init(name):
    (arch, n_vocab, d_embed, d_hidden, n_classes, seed), kw = GOLDEN_INITS[name]
    return init_params(arch, n_vocab, d_embed, d_hidden, n_classes,
                       SeededRng(seed), **kw)


def assert_views_of_flat(p):
    """The classifier, embedding and stacked blocks tile ``p.flat`` in that
    order, and the per-gate views cover each block once."""
    stacked = [a[i] for i in range(len(p.directions))
               for a in p.dir_stack if a is not None]
    blocks = [p.embedding, p.w_cls, p.b_cls] + stacked
    for a in blocks + list(p.arrays().values()):
        assert np.shares_memory(a, p.flat)
    kept = p.flat.copy()
    p.flat[:] = np.arange(p.flat.size)
    assert np.array_equal(np.concatenate([a.ravel() for a in blocks]), p.flat)
    per_name = np.concatenate([a.ravel() for a in p.arrays().values()])
    assert np.array_equal(np.sort(per_name), p.flat)
    p.flat[:] = kept


def assert_bitwise(got: dict, want: dict):
    assert list(got) == list(want)
    for key, a in want.items():
        assert got[key].dtype == a.dtype and got[key].shape == a.shape, key
        assert got[key].tobytes() == a.tobytes(), key


def npz_arrays(path):
    with np.load(path) as data:
        return {key: data[key] for key in data.files if key != "meta"}


@pytest.mark.parametrize("arch, direction", MODELS, ids=MODEL_IDS)
def test_every_array_views_the_flat_vector(arch, direction, tmp_path):
    p = init_params(arch, 9, 3, 4, 3, SeededRng(1), direction=direction,
                    kernel_width=3)
    assert_views_of_flat(p)
    path = tmp_path / "model.npz"
    save_checkpoint(path, p)
    q = load_checkpoint(path)
    assert_views_of_flat(q)
    assert q.flat.tobytes() == p.flat.tobytes()
    before = q.flat.copy()
    trained = train(q, keyword_corpus(6, SeededRng(2), vocab_size=9),
                    TrainConfig(epochs=1, lr=0.01, batch_size=4))
    assert trained is q and not np.array_equal(q.flat, before)
    assert_views_of_flat(q)


def test_a_gate_view_writes_the_stacked_block():
    p = init_params("LSTM", 5, 3, 4, 2, SeededRng(0))
    p.layers["fwd"]["Uf"][1, 2] = 7.0
    p.layers["fwd"]["Vo"][0, 1] = 8.0
    st = p.dir_stack
    assert st.u[0, 4 + 1, 2] == 7.0 and st.kernel[0, 0, 8, 1] == 8.0


@pytest.mark.parametrize("as_str", [False, True], ids=["path", "str"])
def test_a_path_without_suffix_is_written_exactly(tmp_path, as_str):
    """The checkpoint is written at the path given (``np.savez`` alone
    would write ``model.npz``), and every array reads back bitwise."""
    p = init_params("LSTM", 9, 3, 4, 3, SeededRng(1), direction="bi",
                    kernel_width=3)
    path = tmp_path / "model"
    save_checkpoint(str(path) if as_str else path, p)
    assert [f.name for f in tmp_path.iterdir()] == ["model"]
    assert_bitwise(load_checkpoint(path).arrays(), p.arrays())


def test_a_file_object_is_written_and_left_open():
    p = init_params("QGRU", 9, 3, 4, 2, SeededRng(1), kernel_width=3)
    buf = io.BytesIO()
    save_checkpoint(buf, p)
    assert not buf.closed
    buf.seek(0)
    assert_bitwise(load_checkpoint(buf).arrays(), p.arrays())


@pytest.mark.parametrize("name", sorted(GOLDEN_INITS))
def test_golden_checkpoint_loads_bitwise(name):
    p = load_checkpoint(GOLDEN / name)
    assert_bitwise(p.arrays(), npz_arrays(GOLDEN / name))
    assert_views_of_flat(p)


@pytest.mark.parametrize("name", sorted(GOLDEN_INITS))
def test_init_params_reproduces_golden_checkpoint(name, tmp_path):
    path = tmp_path / name
    save_checkpoint(path, golden_init(name))
    assert_bitwise(npz_arrays(path), npz_arrays(GOLDEN / name))
    with np.load(path) as got, np.load(GOLDEN / name) as want:
        assert str(got["meta"]) == str(want["meta"])
