"""Span tracer that times the program's public functions from outside it.

``Tracer.install`` wraps each target function and rebinds the wrapper at
every import site: every ``textexplain`` module global bound to the original
function object (the defining module included, since intra-module calls look
the name up there). A class attribute such as ``Tape.backward`` is patched on
the class. A target whose module or attribute is gone is listed in
``Tracer.absent`` and skipped.

Each call records one span: [name, start, end, parent index, document id,
attrs]. Spans stay in memory; ``write_spans`` dumps them as JSONL at the end
of a run. Self time is a span's duration minus the durations of its direct
children, which nest strictly because the program is single-threaded.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

SETUP = "setup"                  # document id of spans recorded in set-up
PACKAGE = "textexplain"


@dataclass(frozen=True)
class Target:
    module: str                  # defining module
    attr: str                    # "function" or "Class.method"
    span: str                    # span name
    name_fn: Callable | None = None     # bound arguments -> span name
    attrs_fn: Callable | None = None    # bound arguments -> dict of numbers


def forward_flop(params, t_len: int) -> int:
    """Multiply-add flops of one forward pass, computed from weight shapes:
    per token and direction, 2 x (input and recurrent weight entries), plus
    the classifier head. Elementwise work is not counted."""
    d_e = params.embedding.shape[1]
    d = params.layers["fwd"]["b"].shape[0]
    f = params.kernel_width
    per_token = {"GRU": 6 * d * (d_e + d), "LSTM": 8 * d * (d_e + d),
                 "QGRU": 4 * f * d * d_e, "QLSTM": 8 * f * d * d_e,
                 "CNN": 2 * f * d * d_e}.get(params.arch, 0)
    n_dirs = 2 if params.direction == "bi" else 1
    return n_dirs * per_token * t_len + 2 * params.w_cls.size


def _forward_attrs(a) -> dict:
    t_len = a["emb"].shape[0]
    return {"tokens": t_len, "flop": forward_flop(a["params"], t_len)}


def _limsse_name(a) -> str:
    return f"explain.limsse_{a['variant']}"


TARGETS = (
    Target("textexplain.models", "forward_embedded",
           "models.forward_embedded", attrs_fn=_forward_attrs),
    Target("textexplain.models", "forward", "models.forward"),
    Target("textexplain.models", "embedding_gradients",
           "models.embedding_gradients"),
    Target("textexplain.models", "build_graph", "models.build_graph"),
    Target("textexplain.models", "load_checkpoint", "models.load_checkpoint"),
    Target("textexplain.models", "save_checkpoint", "models.save_checkpoint"),
    Target("textexplain.autodiff", "Tape.backward", "autodiff.Tape.backward"),
    Target("textexplain.train", "train", "train.train"),
    Target("textexplain.explain.gradient", "explain_gradient",
           "explain.gradient",
           name_fn=lambda a: f"explain.{a['cfg'].name}"),
    Target("textexplain.explain.lrp", "lrp_explain", "explain.lrp"),
    Target("textexplain.explain.lrp", "deeplift_explain", "explain.deeplift"),
    Target("textexplain.explain.decomp", "decomp_explain", "explain.decomp"),
    Target("textexplain.explain.perturb", "perturb_explain", "explain.perturb",
           name_fn=lambda a: f"explain.{a['cfg'].name}",
           attrs_fn=lambda a: {"windows": len(a["ids"]) * a["cfg"].n}),
    Target("textexplain.explain.limsse", "limsse_explain", "explain.limsse",
           name_fn=_limsse_name, attrs_fn=lambda a: {"samples": a["n"]}),
    Target("textexplain.explain.limsse", "surrogate_fit",
           "explain.limsse.surrogate_fit"),
    Target("textexplain.evaluate", "run_hybrid_eval",
           "evaluate.run_hybrid_eval"),
    Target("textexplain.evaluate", "run_agreement_eval",
           "evaluate.run_agreement_eval"),
)


def _program_modules() -> list:
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.spans: list[list] = []
        self.doc: str | None = None
        self.absent: list[str] = []
        self.unnamed = 0         # calls whose arguments no longer fit name_fn
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        self.absent = []
        for target in self.targets:
            *path, name = target.attr.split(".")
            try:
                owner = importlib.import_module(target.module)
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, name)
            except (ImportError, AttributeError):
                self.absent.append(target.span)
                continue
            wrapper = self._wrap(original, target)
            if path:
                self._rebind(owner, name, wrapper)
                continue
            for module in _program_modules():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _rebind(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, target: Target):
        tracer = self
        sig = (inspect.signature(fn)
               if target.name_fn or target.attrs_fn else None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name, attrs = target.span, None
            if sig is not None:
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    if target.name_fn:
                        name = target.name_fn(bound.arguments)
                    if target.attrs_fn:
                        attrs = target.attrs_fn(bound.arguments)
                except (TypeError, AttributeError, KeyError):
                    tracer.unnamed += 1
            stack = tracer._stack
            record = [name, 0.0, 0.0, stack[-1] if stack else -1,
                      tracer.doc, attrs]
            stack.append(len(tracer.spans))
            tracer.spans.append(record)
            record[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()

        return wrapper


def self_times(spans: list[list]) -> list[float]:
    covered = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(s[2] - s[1]) - c for s, c in zip(spans, covered)]


def _inside(spans: list[list], idx: int, prefixes) -> bool:
    """Whether some enclosing span's name starts with one of prefixes."""
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0].startswith(prefixes):
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans: list[list], methods) -> dict[str, tuple]:
    """Per-layer metrics as name -> (value, unit).

    Only spans outside set-up count, except checkpoint I/O, which the eval
    workloads do only in set-up.
    """
    selfs = self_times(spans)
    loop = [i for i, s in enumerate(spans) if s[4] != SETUP]
    by_name: dict[str, list[int]] = {}
    for i in loop:
        by_name.setdefault(spans[i][0], []).append(i)

    def calls(name):
        return len(by_name.get(name, ()))

    def self_s(name):
        return sum(selfs[i] for i in by_name.get(name, ()))

    def ms_p50(name):
        durs = [spans[i][2] - spans[i][1] for i in by_name.get(name, ())]
        return 1e3 * statistics.median(durs) if durs else 0.0

    def per_call_s(name):
        durs = [s[2] - s[1] for s in spans if s[0] == name]
        return statistics.median(durs) if durs else 0.0

    fwd = "models.forward_embedded"
    fwd_spans = by_name.get(fwd, [])
    flop = sum(spans[i][5]["flop"] for i in fwd_spans if spans[i][5])
    fwd_self = self_s(fwd)
    out = {
        f"{fwd}.calls": (calls(fwd), "count"),
        f"{fwd}.tokens": (sum(spans[i][5]["tokens"] for i in fwd_spans
                              if spans[i][5]), "count"),
        f"{fwd}.self_s": (fwd_self, "s"),
        f"{fwd}.mflop_per_s_computed": (
            flop / fwd_self / 1e6 if fwd_self > 0 else 0.0, "MFLOP/s"),
        "models.embedding_gradients.calls": (
            calls("models.embedding_gradients"), "count"),
        "models.embedding_gradients.self_s": (
            self_s("models.embedding_gradients"), "s"),
        "models.build_graph.self_s": (self_s("models.build_graph"), "s"),
        "autodiff.Tape.backward.self_s": (
            self_s("autodiff.Tape.backward"), "s"),
        "train.train.self_s": (self_s("train.train"), "s"),
    }
    for m in methods:
        name = f"explain.{m}"
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.ms_p50"] = (ms_p50(name), "ms")
        out[f"{name}.self_s"] = (self_s(name), "s")

    perturb = ("explain.omit_", "explain.occ_")
    windows = sum(spans[i][5]["windows"] for i in loop
                  if spans[i][0].startswith(perturb) and spans[i][5])
    samples = sum(spans[i][5]["samples"] for i in loop
                  if spans[i][0].startswith("explain.limsse_")
                  and spans[i][5])
    perturb_fwd = sum(_inside(spans, i, perturb) for i in fwd_spans)
    limsse_fwd = sum(_inside(spans, i, "explain.limsse_") for i in fwd_spans)
    out["explain.perturb.forwards_per_window"] = (
        perturb_fwd / windows if windows else 0.0, "ratio")
    out["explain.limsse.forwards_per_sample"] = (
        limsse_fwd / samples if samples else 0.0, "ratio")
    out["explain.limsse.surrogate_fit.self_s"] = (
        self_s("explain.limsse.surrogate_fit"), "s")
    for name in ("evaluate.run_hybrid_eval", "evaluate.run_agreement_eval"):
        out[f"{name}.self_s"] = (self_s(name), "s")
    for name in ("models.load_checkpoint", "models.save_checkpoint"):
        out[f"{name}.s"] = (per_call_s(name), "s")
    return out


def write_spans(path: Path, tracer: Tracer, header: dict) -> None:
    """One JSON object per line: the header, then every span in call order,
    with times in seconds from the first span."""
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for name, start, end, parent, doc, attrs in tracer.spans:
            rec = {"name": name, "start": start - t0, "end": end - t0,
                   "parent": parent, "doc": doc}
            if attrs:
                rec.update(attrs)
            fh.write(json.dumps(rec) + "\n")
