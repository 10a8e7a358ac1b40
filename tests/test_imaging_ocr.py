"""OCR round-trip tests, including property-based ones."""

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.imaging.effects import add_gaussian_noise, crop_border
from repro.imaging.font import GLYPH_HEIGHT, GLYPH_WIDTH, GLYPHS, normalize_char, supported_characters
from repro.imaging.image import Image
from repro.imaging.ocr import _cell_bits, _run_lengths, _summed_area, ocr_image
from repro.imaging.render import render_lines, render_text


class TestFont:
    def test_all_glyphs_are_7x5(self):
        for char, glyph in GLYPHS.items():
            assert glyph.shape == (7, 5), char

    def test_glyphs_are_distinct(self):
        seen = {}
        for char, glyph in GLYPHS.items():
            key = glyph.tobytes()
            assert key not in seen, f"{char!r} duplicates {seen.get(key)!r}"
            seen[key] = char

    def test_lowercase_folds_to_uppercase(self):
        assert normalize_char("a") == "A"
        assert normalize_char("z") == "Z"

    def test_unknown_char_falls_back(self):
        assert normalize_char("é") == "?"

    def test_supported_characters_cover_urls(self):
        chars = supported_characters()
        for needed in "HTTPS://A-B.COM/PATH?X=1&Y=2":
            assert needed in chars


class TestOcrRoundTrip:
    @pytest.mark.parametrize("scale", [1, 2, 3, 4])
    def test_single_line_scales(self, scale):
        text = "HELLO WORLD 123"
        result = ocr_image(render_text(text, scale=scale))
        assert result.text == text

    def test_url_roundtrip(self):
        url = "HTTPS://EVIL-SITE.COM/DHFYWFH?TOKEN=ABC123"
        assert ocr_image(render_text(url, scale=2)).text == url

    def test_multiline(self):
        lines = ["DEAR USER,", "PLEASE SIGN IN AT", "HTTP://LOGIN.EXAMPLE.RU/A"]
        assert ocr_image(render_lines(lines, scale=2)).text == "\n".join(lines)

    def test_lowercase_input_reads_as_uppercase(self):
        assert ocr_image(render_text("hello", scale=2)).text == "HELLO"

    def test_empty_image(self):
        result = ocr_image(Image.new(50, 20))
        assert result.text == ""
        assert result.confidence == 1.0

    def test_noise_robustness(self):
        image = render_text("SCAN THIS CODE NOW", scale=3)
        noisy = add_gaussian_noise(image, 30.0, random.Random(5))
        assert ocr_image(noisy).text == "SCAN THIS CODE NOW"

    def test_inverted_polarity(self):
        image = render_text("INVERSE", scale=2, fg=(255, 255, 255), bg=(0, 0, 0))
        assert ocr_image(image).text == "INVERSE"

    def test_cropped_margins(self):
        image = render_text("MARGINS", scale=3, margin=10)
        cropped = crop_border(image, 6)
        assert ocr_image(cropped).text == "MARGINS"

    def test_confidence_high_for_clean_render(self):
        result = ocr_image(render_text("CLEAN", scale=2))
        assert result.confidence > 0.95


_OCR_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789:/.-_?=&"


@settings(max_examples=25, deadline=None)
@given(
    text=st.text(alphabet=_OCR_ALPHABET, min_size=1, max_size=24),
    scale=st.integers(min_value=2, max_value=3),
)
def test_ocr_roundtrip_property(text, scale):
    """Any renderable text recovers exactly (modulo trailing spaces).

    Strings made solely of baseline-free strokes ("_", "__") are
    inherently ambiguous without a reference line and are excluded (see
    the ocr_image docstring).
    """
    from hypothesis import assume

    assume(text.strip("_- ") != "")
    rendered = render_text(text, scale=scale)
    assert ocr_image(rendered).text == text.rstrip()


# ----------------------------------------------------------------------
# Summed-area cell sampling == per-cell block mean
# ----------------------------------------------------------------------
def _cell_bits_reference(mask, x, y, scale):
    """The per-cell ``block.mean() >= 0.5`` loop the summed-area table replaced."""
    bits = np.zeros((GLYPH_HEIGHT, GLYPH_WIDTH), dtype=bool)
    height, width = mask.shape
    for row in range(GLYPH_HEIGHT):
        y0, y1 = y + row * scale, y + (row + 1) * scale
        if y1 <= 0 or y0 >= height:
            continue
        for col in range(GLYPH_WIDTH):
            x0, x1 = x + col * scale, x + (col + 1) * scale
            if x1 <= 0 or x0 >= width:
                continue
            block = mask[max(y0, 0) : y1, max(x0, 0) : x1]
            if block.size:
                bits[row, col] = block.mean() >= 0.5
    return bits


@settings(max_examples=200, deadline=None)
@given(
    height=st.integers(min_value=1, max_value=40),
    width=st.integers(min_value=1, max_value=40),
    density=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    scale=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
def test_cell_bits_match_block_mean_reference(height, width, density, seed, scale, data):
    mask = np.random.default_rng(seed).random((height, width)) < density
    # Origins range from wholly above/left of the image to past its
    # bottom/right edge, so cells are clipped at every edge.
    y = data.draw(st.integers(min_value=-GLYPH_HEIGHT * scale, max_value=height + 1))
    xs = data.draw(
        st.lists(st.integers(min_value=-GLYPH_WIDTH * scale, max_value=width + 1), min_size=1, max_size=6)
    )
    bits = _cell_bits(_summed_area(mask), np.array(xs), y, scale)
    assert bits.shape == (len(xs), GLYPH_HEIGHT, GLYPH_WIDTH)
    for index, x in enumerate(xs):
        assert np.array_equal(bits[index], _cell_bits_reference(mask, x, y, scale)), (x, y)


def test_cell_bits_half_ink_counts_as_ink():
    # A 2x2 cell with exactly two ink pixels sits on the 0.5 threshold.
    mask = np.zeros((14, 10), dtype=bool)
    mask[0, :2] = True
    bits = _cell_bits(_summed_area(mask), np.array([0, -1]), 0, 2)
    assert bits[0, 0, 0] and _cell_bits_reference(mask, 0, 0, 2)[0, 0]
    assert np.array_equal(bits[1], _cell_bits_reference(mask, -1, 0, 2))


def _run_lengths_reference(mask):
    counts = Counter()
    for axis_mask in (mask, mask.T):
        for line in axis_mask:
            run = 0
            for value in list(line) + [False]:
                if value:
                    run += 1
                elif run:
                    counts[run] += 1
                    run = 0
    return counts


@settings(max_examples=100, deadline=None)
@given(
    height=st.integers(min_value=1, max_value=30),
    width=st.integers(min_value=1, max_value=30),
    density=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_run_lengths_match_reference_in_scan_order(height, width, density, seed):
    # Scan order decides Counter.most_common ties, hence the scale estimate.
    mask = np.random.default_rng(seed).random((height, width)) < density
    assert list(_run_lengths(mask).items()) == list(_run_lengths_reference(mask).items())
