"""What the ``textexplain`` entry point does to its process, each checked in
a fresh interpreter: ``cli.main`` has glibc keep its freed heap top,
scipy.optimize is imported only for a ``limsse_bb`` fit, and running out of
memory ends in exit code 2 with one line (a bare MemoryError's line is
checked in this process). (The test process itself has imported
scipy.optimize, through ``test_limsse``, and has set the heap pad through
other tests' ``main`` calls.)"""

import json
import os
import platform
import resource
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import textexplain
from textexplain import cli

SRC = Path(textexplain.__file__).resolve().parents[1]

# run first in each interpreter: argv[1] is a working directory, which gets
# an 8-document keyword corpus of 10 tokens a document
PRELUDE = """\
import json
import resource
import sys
from pathlib import Path

from textexplain import cli

workdir = Path(sys.argv[1])
corpus = workdir / "corpus.jsonl"
with open(corpus, "w", encoding="utf-8") as fh:
    for i in range(8):
        tokens = [f"w{(7 * i + j) % 13}" for j in range(10)]
        tokens[i % 10] = "yes" if i % 2 else "no"
        fh.write(json.dumps({"label": i % 2, "sentences": [tokens]}) + "\\n")
"""

PASSES = 20


def run_python(code: str, *args) -> str:
    """Standard output of ``code`` run after ``PRELUDE`` in a fresh
    interpreter that imports this textexplain."""
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + textwrap.dedent(code),
         *map(str, args)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True,
        text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the heap pad is set through glibc's mallopt")
def test_explanation_passes_reuse_the_freed_heap(tmp_path):
    """After ``main`` has run, an LSTM-bi's agreement-game passes (about
    1.9 MB of arrays each) fault in almost no fresh pages: glibc keeps the
    freed heap top. Without the pad it gives the top back to the kernel
    after almost every pass, and 20 passes make about 11,000 minor
    faults."""
    faults = run_python(f"""
        from textexplain.explain import explain_document
        from textexplain.models import load_checkpoint

        model = workdir / "model.npz"
        assert cli.main(["train", str(corpus), "--out", str(model),
                         "--arch", "LSTM", "--direction", "bi",
                         "--epochs", "1"]) == 0
        params = load_checkpoint(model)
        names = ["grad1_s_dot", "grad1_p_l2", "gradint_s_dot", "lrp",
                 "deeplift", "decomp"]
        ids = list(range(1, 11))
        for _ in range(3):
            explain_document(names, params, ids)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range({PASSES}):
            explain_document(names, params, ids)
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """, tmp_path)
    assert int(faults) < PASSES


def test_scipy_optimize_loads_only_for_a_limsse_bb_fit(tmp_path):
    """``train``, and ``explain`` with gradient, LRP, perturbation and
    ``limsse_ms_s`` maps, leave scipy.optimize unimported; ``limsse_bb``
    imports it, and writes the same JSON (whose floats round-trip, so the
    map is bitwise the same) as a process that imported scipy.optimize
    first."""
    code = """
        if sys.argv[2] == "scipy-first":
            import scipy.optimize
        model = workdir / "model.npz"
        assert cli.main(["train", str(corpus), "--out", str(model),
                         "--epochs", "1"]) == 0
        loaded = ["scipy.optimize" in sys.modules]
        assert cli.main(["explain", str(model), str(corpus), "--out",
                         str(workdir / "maps.jsonl"), "--methods",
                         "grad1_s_dot", "lrp", "omit_1", "limsse_ms_s"]) == 0
        loaded.append("scipy.optimize" in sys.modules)
        assert cli.main(["explain", str(model), str(corpus), "--out",
                         str(workdir / "bb.jsonl"), "--methods", "limsse_bb",
                         "--limsse-n", "300"]) == 0
        loaded.append("scipy.optimize" in sys.modules)
        print(json.dumps(loaded))
    """
    lazy, first = tmp_path / "lazy", tmp_path / "first"
    lazy.mkdir()
    first.mkdir()
    assert json.loads(run_python(code, lazy, "lazy")) == [False, False, True]
    assert json.loads(run_python(code, first, "scipy-first")) == [True] * 3
    maps = (lazy / "bb.jsonl").read_bytes()
    assert maps == (first / "bb.jsonl").read_bytes()
    assert any(any(r["scores"]) for r in map(json.loads, maps.splitlines()))


# address space of the out-of-memory runs: room for the interpreter, numpy
# and a small model, not for the arrays the flags below ask for
ADDRESS_SPACE = 1_500_000 * 1024


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="RLIMIT_AS bounds the address space on Linux")
@pytest.mark.parametrize("flags", [
    ["limsse_ms_s", "--limsse-n", "300000000"],
], ids=["limsse-n"])
def test_out_of_memory_is_a_one_line_data_error(tmp_path, flags):
    """Under a 1.5 GB address-space limit, a flag value whose arrays do not
    fit (numpy's ``_ArrayMemoryError`` for the LIMSSE draw) exits 2 with one
    ``error: out of memory`` line and no traceback."""
    run_python("""
        assert cli.main(["train", str(corpus), "--out",
                         str(workdir / "model.npz"), "--epochs", "1"]) == 0
    """, tmp_path)
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS,
                           (ADDRESS_SPACE, ADDRESS_SPACE))

    proc = subprocess.run(
        [sys.executable, "-m", "textexplain.cli", "explain",
         str(tmp_path / "model.npz"), str(tmp_path / "corpus.jsonl"),
         "--out", str(tmp_path / "maps.jsonl"), "--methods", *flags],
        env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=limit_address_space, capture_output=True, text=True,
        timeout=300)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: out of memory: ")


def test_bare_memory_error_is_a_one_line_data_error(tmp_path, monkeypatch,
                                                    capsys):
    """A MemoryError without a message (what CPython raises when an object
    cannot be allocated) exits 2 with ``error: out of memory: an allocation
    failed``."""
    def no_memory(path):
        raise MemoryError()

    monkeypatch.setattr(cli, "_read_corpus", no_memory)
    assert cli.main(["train", str(tmp_path / "corpus.jsonl"), "--out",
                     str(tmp_path / "model.npz")]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: out of memory: an allocation failed\n")
