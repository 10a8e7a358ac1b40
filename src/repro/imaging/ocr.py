"""Template-matching OCR for images rendered with the 5x7 bitmap font.

Section IV-B of the paper scans inline and attached images for URLs
"using a combination of Optical Character Recognition libraries".  This
module plays that role for the raster substrate: it recovers the text of
an image produced by :mod:`repro.imaging.render` (possibly re-scaled or
lightly degraded) without being told the rendering parameters.

The engine works in four steps:

1. binarise the image into ink/background (auto polarity),
2. estimate the cell scale from ink run lengths,
3. segment lines and, per line, search a small set of grid alignments,
4. decode each grid cell by nearest-glyph template matching; a cell's
   ink fraction comes from four lookups in one summed-area table built
   per image, not from a pass over its pixels.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.imaging.font import GLYPH_HEIGHT, GLYPH_WIDTH, GLYPHS
from repro.imaging.image import Image

#: Width of one glyph cell including tracking, in font units.
_CELL_WIDTH = GLYPH_WIDTH + 1

_GLYPH_ITEMS = sorted(GLYPHS.items())
_GLYPH_STACK = np.stack([glyph for _, glyph in _GLYPH_ITEMS])
_GLYPH_CHARS = [char for char, _ in _GLYPH_ITEMS]


@dataclass(frozen=True)
class OcrResult:
    """The decoded text together with a mean per-cell confidence in [0, 1]."""

    text: str
    confidence: float


def _binarize(image: Image) -> np.ndarray:
    """Return a boolean ink mask; ink is the minority class."""
    gray = image.to_grayscale()
    low, high = float(gray.min()), float(gray.max())
    if high - low < 1e-9:  # flat image, no ink
        return np.zeros(gray.shape, dtype=bool)
    mask = gray < (low + high) / 2.0
    if mask.mean() > 0.5:
        mask = ~mask
    return mask


def _run_lengths(mask: np.ndarray) -> Counter:
    """Count lengths of consecutive-True runs along both axes."""
    counts: Counter = Counter()
    for axis_mask in (mask, mask.T):
        padded = np.zeros((axis_mask.shape[0], axis_mask.shape[1] + 2), dtype=bool)
        padded[:, 1:-1] = axis_mask
        diff = np.diff(padded.astype(np.int8), axis=1)
        # Row-major flat indices pair each run's start with its end, and
        # keep the scan order that breaks most_common ties.
        lengths = np.flatnonzero(diff == -1) - np.flatnonzero(diff == 1)
        counts.update(lengths.tolist())
    return counts


def _estimate_scale(mask: np.ndarray) -> int:
    """Estimate the pixel size of one font cell from ink run lengths.

    Glyph strokes are one font cell thick, so the most common run length
    is a reliable estimate of the rendering scale.
    """
    counts = _run_lengths(mask)
    if not counts:
        return 1
    scale, _ = counts.most_common(1)[0]
    return max(1, scale)


def _line_bands(mask: np.ndarray, scale: int) -> list[tuple[int, int]]:
    """Split the ink mask into vertical line bands [top, bottom)."""
    row_has_ink = mask.any(axis=1)
    bands: list[tuple[int, int]] = []
    top = None
    for y, has_ink in enumerate(row_has_ink):
        if has_ink and top is None:
            top = y
        elif not has_ink and top is not None:
            bands.append((top, y))
            top = None
    if top is not None:
        bands.append((top, len(row_has_ink)))
    # Glyphs like "=" have internal blank rows: merge adjacent bands that
    # still fit within one 7-cell line.
    merged: list[tuple[int, int]] = []
    for band in bands:
        if merged and band[1] - merged[-1][0] <= GLYPH_HEIGHT * scale:
            merged[-1] = (merged[-1][0], band[1])
        else:
            merged.append(band)
    return merged


def _summed_area(mask: np.ndarray) -> np.ndarray:
    """Return the int64 summed-area table of ``mask``.

    ``table[y, x]`` counts the ink pixels in ``mask[:y, :x]``, so any
    rectangle's ink count takes four lookups.
    """
    table = np.zeros((mask.shape[0] + 1, mask.shape[1] + 1), dtype=np.int64)
    np.cumsum(np.cumsum(mask, axis=0, dtype=np.int64), axis=1, out=table[1:, 1:])
    return table


def _cell_bits(table: np.ndarray, xs: np.ndarray, y: int, scale: int) -> np.ndarray:
    """Downsample the glyph cells at x origins ``xs`` and row ``y``.

    Returns a ``(len(xs), 7, 5)`` boolean array.  ``table`` is the
    mask's :func:`_summed_area`.  A font cell is ink when at least half
    of its pixels inside the image are; cells wholly outside are blank.
    """
    height, width = table.shape[0] - 1, table.shape[1] - 1
    y_edges = np.clip(y + scale * np.arange(GLYPH_HEIGHT + 1), 0, height)
    x_edges = np.clip(xs[:, None] + scale * np.arange(GLYPH_WIDTH + 1), 0, width)
    corners = table[y_edges[None, :, None], x_edges[:, None, :]]
    ink = (
        corners[:, 1:, 1:] - corners[:, :-1, 1:] - corners[:, 1:, :-1] + corners[:, :-1, :-1]
    )
    size = np.diff(y_edges)[None, :, None] * np.diff(x_edges, axis=1)[:, None, :]
    return (size > 0) & (2 * ink >= size)


def _match_glyphs(bits: np.ndarray) -> tuple[list[str], np.ndarray]:
    """Return each cell's best-matching character and similarity in [0, 1].

    A blank cell matches " " (the first glyph, and the only blank one)
    with similarity exactly 1.0.
    """
    distances = np.logical_xor(_GLYPH_STACK[None], bits[:, None]).reshape(
        len(bits), len(_GLYPH_CHARS), -1
    ).sum(axis=2)
    best = distances.argmin(axis=1)
    similarity = 1.0 - distances[np.arange(len(bits)), best] / (GLYPH_WIDTH * GLYPH_HEIGHT)
    return [_GLYPH_CHARS[index] for index in best], similarity


def _decode_line(
    mask: np.ndarray, table: np.ndarray, band: tuple[int, int], scale: int
) -> tuple[str, float]:
    """Decode one line band, searching grid alignments for the best fit."""
    top, bottom = band
    line_mask = mask[top:bottom]
    col_has_ink = line_mask.any(axis=0)
    inked = np.flatnonzero(col_has_ink)
    if inked.size == 0:
        return "", 1.0
    x_first, x_last = int(inked[0]), int(inked[-1])
    band_height = bottom - top

    best_text = ""
    best_key: tuple[float, int, int] = (-1.0, -1, -1)
    # A glyph may have blank leading columns (e.g. "!") and blank top rows
    # (e.g. "_"), so try small offsets of the cell grid in both axes.  Ties
    # on score prefer (a) alignments that decode more ink characters (an
    # all-blank reading of "..." also scores perfectly) and (b) deeper row
    # offsets (a lone bottom-row stroke is "_", not a mid-row "-").
    for row_offset in range(GLYPH_HEIGHT):
        y_origin = top - row_offset * scale
        if band_height > GLYPH_HEIGHT * scale and row_offset > 0:
            break
        if y_origin + GLYPH_HEIGHT * scale < bottom:
            continue
        for col_offset in range(GLYPH_WIDTH):
            x_origin = x_first - col_offset * scale
            n_cells = int(np.ceil((x_last + 1 - x_origin) / (_CELL_WIDTH * scale)))
            if n_cells <= 0:
                continue
            xs = x_origin + _CELL_WIDTH * scale * np.arange(n_cells)
            chars, scores = _match_glyphs(_cell_bits(table, xs, y_origin, scale))
            mean_score = float(np.mean(scores))
            n_ink_chars = sum(1 for char in chars if char != " ")
            key = (mean_score, n_ink_chars, -row_offset)
            if key > best_key:
                best_key = key
                best_text = "".join(chars).rstrip()
    return best_text, best_key[0]


def _decode_at_scale(
    mask: np.ndarray, table: np.ndarray, scale: int
) -> tuple[str, float, int]:
    """Decode the whole mask at one candidate scale."""
    from repro._budget import OCR_BAND_UNITS, current_budget

    budget = current_budget()
    bands = _line_bands(mask, scale)
    lines: list[str] = []
    scores: list[float] = []
    for band in bands:
        if budget is not None:
            # One line band costs a full alignment sweep of glyph
            # matches; charging per band bounds adversarially busy
            # images without touching the per-cell inner loops.
            budget.charge(OCR_BAND_UNITS, "ocr-tiles")
        text, score = _decode_line(mask, table, band, scale)
        lines.append(text)
        scores.append(score)
    joined = "\n".join(lines)
    ink_chars = sum(1 for char in joined if char not in " \n")
    return joined, float(np.mean(scores)) if scores else 0.0, ink_chars


def ocr_image(image: Image) -> OcrResult:
    """Recover the text content of a bitmap-font rendered image.

    Returns an :class:`OcrResult`; the text is canonically uppercase
    (the font folds case) and lines are joined with ``"\\n"``.

    The run-length scale estimate can be a multiple of the true cell
    size when the image is dominated by blocky glyphs (a lone "." at
    scale 2 is pixel-identical to a one-cell feature at scale 4), so the
    estimate's divisors are also tried and the best-scoring decode wins.
    Note that images consisting *only* of baseline-free strokes ("_"
    alone) are inherently ambiguous without a reference line.
    """
    mask = _binarize(image)
    if not mask.any():
        return OcrResult(text="", confidence=1.0)
    estimate = _estimate_scale(mask)
    # Smaller scales first: on equal decode quality the finer grid wins
    # (a ":" whose two dots fooled the run-length estimate into 2x).
    candidates = sorted(
        divisor for divisor in range(1, estimate + 1) if estimate % divisor == 0
    )
    table = _summed_area(mask)
    best_text, best_key = "", (-1.0, -1)
    for scale in candidates:
        text, score, ink_chars = _decode_at_scale(mask, table, scale)
        key = (score, ink_chars)
        if key > best_key:
            best_key = key
            best_text = text
    return OcrResult(text=best_text, confidence=best_key[0])
