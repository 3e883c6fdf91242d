"""Relevance heatmaps as ANSI terminal text and HTML pages.

Scores are normalized by 1.1 times the largest absolute score, so the peak
channel value is 1/1.1 (~0.9091). Positive relevance renders green, negative
red, blue stays zero. An all-zero map skips normalization and renders black.
"""

from __future__ import annotations

import html as _html
from dataclasses import dataclass

import numpy as np

from .relevance import RelevanceMap, rmax

NORM_HEADROOM = 1.1


@dataclass
class ColoredToken:
    text: str
    rgb: tuple[float, float, float]
    bold: bool = False          # rmax marker
    underline: bool = False     # ground-truth marker
    italic: bool = False        # oov marker


def colorize(rel, tokens: list[str],
             underline: set[int] = frozenset(),
             italic: set[int] = frozenset()) -> list[ColoredToken]:
    scores = np.asarray(getattr(rel, "scores", rel), dtype=np.float64)
    if scores.shape[0] != len(tokens):
        raise ValueError("relevance/token length mismatch")
    peak = np.max(np.abs(scores)) if scores.size else 0.0
    if peak > 0:
        with np.errstate(over="ignore"):
            denom = NORM_HEADROOM * peak
        # a peak near the largest float overflows the product; divide by
        # the peak first there (elsewhere it would change the rounding)
        normed = (scores / denom if np.isfinite(denom)
                  else scores / peak / NORM_HEADROOM)
        top = rmax(scores)
    else:
        normed = np.zeros_like(scores)
        top = None
    out = []
    for t, tok in enumerate(tokens):
        v = normed[t]
        rgb = (abs(v), 0.0, 0.0) if v < 0 else (0.0, v, 0.0)
        out.append(ColoredToken(
            text=tok, rgb=rgb,
            bold=top == t,
            underline=t in underline,
            italic=t in italic,
        ))
    return out


def _to255(v: float) -> int:
    """Quantize a [0,1] channel to 0-255, rounding half up."""
    return int(np.floor(v * 255.0 + 0.5))


def emit_ansi(colored: list[ColoredToken]) -> str:
    parts = []
    for tok in colored:
        r, g, b = (_to255(c) for c in tok.rgb)
        codes = [f"38;2;{r};{g};{b}"]
        if tok.bold:
            codes.append("1")
        if tok.underline:
            codes.append("4")
        if tok.italic:
            codes.append("3")
        parts.append(f"\x1b[{';'.join(codes)}m{tok.text}\x1b[0m")
    return " ".join(parts) + ("\n" if parts else "")


def _span(tok: ColoredToken) -> str:
    r, g, b = (_to255(c) for c in tok.rgb)
    styles = [f"color: rgb({r},{g},{b})"]
    if tok.bold:
        styles.append("font-weight: bold")
    if tok.underline:
        styles.append("text-decoration: underline")
    if tok.italic:
        styles.append("font-style: italic")
    return (f'<span style="{"; ".join(styles)}">'
            f"{_html.escape(tok.text)}</span>")


def emit_html(colored: list[ColoredToken]) -> str:
    """One map as a page of its own: ``html_page`` with no caption."""
    return html_page([("", colored)])


def html_page(maps: list[tuple[str, list[ColoredToken]]]) -> str:
    """One HTML page: the head once, then for each (caption, colored) map
    its caption, when it has one, over its paragraph."""
    body = "\n".join((f"<h3>{_html.escape(caption)}</h3>" if caption else "")
                     + f"<p>{' '.join(map(_span, colored))}</p>"
                     for caption, colored in maps)
    return ("<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">"
            "<style>body { background: white; font-family: sans-serif; }"
            "</style></head>\n"
            f"<body>{body}</body></html>\n")
