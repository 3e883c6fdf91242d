from pathlib import Path

import numpy as np
import pytest

from textexplain.render import ColoredToken, NORM_HEADROOM, colorize, \
    emit_ansi, emit_html, html_page

GOLDEN = Path(__file__).parent / "golden"

TOKENS = ["the", "x-ray", "<oov>", "shows", "a", "fracture"]
SCORES = np.array([0.0, 1.1, -0.4, 0.2, -2.2, 0.7])


def test_peak_channel_value():
    out = colorize(np.array([1.0, -3.0, 0.5]), ["a", "b", "c"])
    # peak |score| maps to 1/1.1 in its channel
    assert out[1].rgb == (pytest.approx(1 / NORM_HEADROOM), 0.0, 0.0)
    assert out[0].rgb[1] == pytest.approx(1 / (3 * NORM_HEADROOM))


def test_sign_to_channel():
    out = colorize(np.array([2.0, -2.0, 0.0]), ["p", "n", "z"])
    r, g, b = out[0].rgb
    assert g > 0 and r == 0 and b == 0
    r, g, b = out[1].rgb
    assert r > 0 and g == 0 and b == 0
    assert out[2].rgb == (0.0, 0.0, 0.0)


def test_scale_invariance():
    a = colorize(SCORES, TOKENS)
    b = colorize(SCORES * 17.0, TOKENS)
    for x, y in zip(a, b):
        assert x.rgb == pytest.approx(y.rgb)


def test_all_zero_map_black_and_unmarked():
    out = colorize(np.zeros(3), ["a", "b", "c"])
    for tok in out:
        assert tok.rgb == (0.0, 0.0, 0.0)
        assert not tok.bold


def test_rmax_bolded():
    out = colorize(SCORES, TOKENS)
    assert [t.bold for t in out] == [False, True, False, False, False, False]


def test_markers():
    out = colorize(SCORES, TOKENS, underline={5}, italic={2})
    assert out[5].underline and not out[4].underline
    assert out[2].italic and not out[1].italic


def test_length_mismatch():
    with pytest.raises(ValueError):
        colorize(np.zeros(2), ["only"])


def test_quantization_rounds_half_up():
    tok = ColoredToken("x", (0.5, 0.0, 0.0))
    ansi = emit_ansi([tok])
    assert "38;2;128;0;0" in ansi     # 0.5*255 + 0.5 = 128.0


def test_ansi_structure():
    out = emit_ansi(colorize(SCORES, TOKENS, underline={5}, italic={2}))
    assert out.endswith("\n")
    assert out.count("\x1b[0m") == len(TOKENS)
    assert ";1m" in out or ";1;" in out          # bold on rmax
    assert ";4" in out                           # underline on gt
    assert ";3m" in out or ";3;" in out          # italic on oov


def test_html_escapes_tokens():
    out = emit_html(colorize(np.array([1.0]), ["<b>&"]))
    assert "&lt;b&gt;&amp;" in out
    assert "<b>&" not in out.split("<body>")[1]


def test_ansi_golden():
    out = emit_ansi(colorize(SCORES, TOKENS, underline={5}, italic={2}))
    assert out == (GOLDEN / "heatmap.ansi").read_text()


def test_html_golden():
    out = emit_html(colorize(SCORES, TOKENS, underline={5}, italic={2}))
    assert out == (GOLDEN / "heatmap.html").read_text()


def test_html_page_holds_each_map_once():
    """One head for the page, then each map's escaped caption over the
    paragraph emit_html writes for it; an empty caption writes none."""
    def paragraph(colored):
        return emit_html(colored).split("<body>")[1].removesuffix(
            "</body></html>\n")

    one = colorize(np.array([1.0, -0.5]), ["a", "b"])
    two = colorize(SCORES, TOKENS, underline={5}, italic={2})
    head = emit_html(one).split("<body>")[0]
    assert html_page([("doc 0 / <lrp>", one), ("", two)]) == (
        head + "<body><h3>doc 0 / &lt;lrp&gt;</h3>" + paragraph(one) + "\n"
        + paragraph(two) + "</body></html>\n")


def test_empty_input():
    assert emit_ansi([]) == ""
    assert colorize(np.array([]), []) == []


def test_peak_near_the_largest_float_renders():
    """A peak whose product with the headroom overflows is normalised by
    the peak first: the peak token still gets channel 232 and bold."""
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = colorize(np.array([1.0, 1.7e308]), ["a", "b"])
        text = emit_ansi(out)
    assert out[1].bold and not out[0].bold
    assert "\x1b[38;2;0;232;0;1mb" in text
