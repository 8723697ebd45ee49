"""Float64 reference implementations of the image operations.

The library computes the Bayer path in exact integer arithmetic on
contiguous sub-lattices in bands of rows (the green plane one window at
a time), NCC from summed-area tables and an FFT, PNM payloads one channel
at a time, histogram equalization in bands of rows, and reads a PGM
header with one token regex; the versions here follow the textbook
formulas in float64 (or the previous full-frame, sliding-window,
whole-array and byte-by-byte forms) and serve as differential-test
oracles only.
"""

from __future__ import annotations

import re

import numpy as np

from icevision_kit.frames import (
    BayerPattern,
    CfaImage,
    GrayImage,
    RgbImage,
    sample_dtype,
)
from icevision_kit.taxonomy import is_ascii_digits

LUMA_WEIGHTS = (0.299, 0.587, 0.114)


def round_half_up(values: np.ndarray, max_value: int) -> np.ndarray:
    out = np.floor(values + 0.5)
    np.clip(out, 0, max_value, out=out)
    return out.astype(np.uint16 if max_value > 255 else np.uint8)


def _pattern_grid(pattern: BayerPattern) -> dict[str, list[tuple[int, int]]]:
    chars = pattern.value  # 2x2 tile in reading order
    grid: dict[str, list[tuple[int, int]]] = {"R": [], "G": [], "B": []}
    for idx, ch in enumerate(chars):
        grid[ch].append((idx // 2, idx % 2))
    return grid


def demosaic_bilinear(cfa: CfaImage) -> RgbImage:
    """Bilinear demosaic in float64: each pixel is the mean of its nearest
    same-channel neighbors under replicate padding, rounded half-up."""
    h, w = cfa.samples.shape
    x = cfa.samples.astype(np.float64)
    p = np.pad(x, 1, mode="edge")
    grid = _pattern_grid(cfa.pattern)
    out = np.empty((h, w, 3), dtype=np.float64)

    def phase(arr: np.ndarray, i: int, j: int, dy: int, dx: int) -> np.ndarray:
        # neighbor (dy, dx) of every output pixel at phase (i, j); arr is the
        # edge-padded plane, so index (r+1+dy, c+1+dx)
        return arr[1 + i + dy : 1 + h + dy : 2, 1 + j + dx : 1 + w + dx : 2]

    for channel, name in enumerate("RGB"):
        sites = grid[name]
        site_set = set(sites)
        plane = np.empty((h, w), dtype=np.float64)
        for i in (0, 1):
            for j in (0, 1):
                if i >= h or j >= w:
                    continue
                target = plane[i::2, j::2]
                if (i, j) in site_set:
                    target[...] = x[i::2, j::2]
                elif name == "G":
                    target[...] = (
                        phase(p, i, j, -1, 0) + phase(p, i, j, 1, 0)
                        + phase(p, i, j, 0, -1) + phase(p, i, j, 0, 1)
                    ) / 4.0
                else:
                    (si, sj) = sites[0]
                    if i == si:  # same row parity: horizontal neighbors
                        target[...] = (phase(p, i, j, 0, -1) + phase(p, i, j, 0, 1)) / 2.0
                    elif j == sj:  # same column parity: vertical neighbors
                        target[...] = (phase(p, i, j, -1, 0) + phase(p, i, j, 1, 0)) / 2.0
                    else:  # diagonal sites
                        target[...] = (
                            phase(p, i, j, -1, -1) + phase(p, i, j, -1, 1)
                            + phase(p, i, j, 1, -1) + phase(p, i, j, 1, 1)
                        ) / 4.0
        out[:, :, channel] = plane

    return RgbImage(samples=round_half_up(out, cfa.max_value), max_value=cfa.max_value)


_COMMENT = re.compile(rb"#[^\r\n]*")  # a comment runs to the end of its line
_SPACE = b" \t\r\n\v\f"
_DELIMITERS = _SPACE + b"#"


def _pnm_tokens(data: memoryview):
    """Yield (token, separator_offset) per header token, honoring PNM
    whitespace and '#' comments: a comment right after a token runs to the
    end of its line, and that line end is the token's separator."""
    pos = 0
    n = len(data)
    while pos < n:
        c = data[pos]
        if c in _SPACE:
            pos += 1
            continue
        if c == ord("#"):
            pos = _COMMENT.match(data, pos).end()
            continue
        start = pos
        while pos < n and data[pos] not in _DELIMITERS:
            pos += 1
        comment = _COMMENT.match(data, pos)
        yield str(data[start:pos], "ascii", "replace"), comment.end() if comment else pos


def pnm_header(data) -> tuple[int, int, int, int]:
    """``(width, height, max_value, payload_offset)`` of a binary PGM (P5),
    scanning the header byte by byte and reading tokens only as far as it
    needs them; a malformed header is a ``ValueError``."""
    tokens = _pnm_tokens(memoryview(data).cast("B"))
    try:
        magic, _ = next(tokens)
    except StopIteration:
        raise ValueError("empty input") from None
    if magic != "P5":
        raise ValueError(f"expected binary PGM magic 'P5', got {magic!r}")
    try:
        (width_s, _), (height_s, _), (maxval_s, header_end) = next(tokens), next(tokens), next(tokens)
    except StopIteration:
        raise ValueError("incomplete PGM header") from None
    if not all(map(is_ascii_digits, (width_s, height_s, maxval_s))):
        raise ValueError(f"non-numeric PGM header field in {(width_s, height_s, maxval_s)}")
    width, height, max_value = int(width_s), int(height_s), int(maxval_s)
    if width <= 0 or height <= 0:
        raise ValueError(f"bad PGM dimensions {width}x{height}")
    if not 0 < max_value <= 65535:
        raise ValueError(f"PGM max value {max_value} outside 1..65535")
    return width, height, max_value, header_end + 1


def encode_pnm(image: GrayImage | CfaImage | RgbImage) -> bytes:
    """PGM (P5) or PPM (P6) bytes the direct way: the header, then a
    C-contiguous copy of the samples cast to the wire type and ``tobytes``."""
    magic = "P5" if image.channels is None else "P6"
    header = f"{magic}\n{image.width} {image.height}\n{image.max_value}\n".encode("ascii")
    wire = np.dtype(">u2") if image.max_value > 255 else np.dtype("u1")
    return header + np.ascontiguousarray(image.samples).astype(wire).tobytes()


def equalize_plane(samples: np.ndarray, max_value: int) -> np.ndarray:
    """The CDF remap of one channel in one whole-array pass: ``bincount`` of
    every sample, then one LUT ``take``; a constant plane comes back as is."""
    cdf = np.cumsum(np.bincount(samples.ravel(), minlength=max_value + 1))
    nonzero = cdf[cdf > 0]
    cdf_min = int(nonzero[0]) if nonzero.size else 0
    if cdf_min >= samples.size:
        return samples
    diff = np.maximum(cdf.astype(np.int64) - cdf_min, 0)
    lut = -((-diff * max_value) // (samples.size - cdf_min))
    return np.take(lut.astype(sample_dtype(max_value)), samples)


def equalize_rgb(image: RgbImage) -> RgbImage:
    """Each channel through :func:`equalize_plane`, stacked channels-last."""
    channels = [equalize_plane(image.samples[:, :, c], image.max_value) for c in range(3)]
    samples = np.stack(channels, axis=-1).astype(sample_dtype(image.max_value))
    return RgbImage(samples=samples, max_value=image.max_value)


def luma(image: RgbImage) -> GrayImage:
    """Green-weighted luma (0.299 R + 0.587 G + 0.114 B), rounded half-up."""
    rw, gw, bw = LUMA_WEIGHTS
    values = (
        rw * image.samples[:, :, 0]
        + gw * image.samples[:, :, 1]
        + bw * image.samples[:, :, 2]
    )
    return GrayImage(samples=round_half_up(values, image.max_value), max_value=image.max_value)


class DegenerateCorrelation(ValueError):
    """Raised when NCC is undefined (zero variance input)."""


def ncc(template: GrayImage, window: GrayImage) -> float:
    """Zero-mean normalized cross-correlation of two same-size patches.

    Integer samples are promoted to reals first.  Raises
    :class:`DegenerateCorrelation` when either patch has zero variance.
    """
    if template.samples.shape != window.samples.shape:
        raise ValueError(
            f"patch shapes differ: {template.samples.shape} vs {window.samples.shape}"
        )
    if template.samples.size < 2:
        raise ValueError("patches need at least 2 pixels")
    t = template.samples.astype(np.float64)
    w = window.samples.astype(np.float64)
    t -= t.mean()
    w -= w.mean()
    denom = np.sqrt(np.sum(t * t) * np.sum(w * w))
    if denom <= 1e-12:
        raise DegenerateCorrelation("zero variance patch")
    return float(np.sum(t * w) / denom)


def gray_from_cfa(cfa: CfaImage) -> GrayImage:
    """The green plane of the whole frame, from the float64 :func:`demosaic_bilinear`."""
    return GrayImage(samples=demosaic_bilinear(cfa).samples[:, :, 1], max_value=cfa.max_value)


def ncc_scores(template: GrayImage, search: GrayImage) -> np.ndarray:
    """NCC surface in float64 from two sliding-window einsums, at
    O(search x template) cost; -inf where the variance product is ~0."""
    t = template.samples.astype(np.float64)
    s = search.samples.astype(np.float64)
    th, tw = t.shape
    sh, sw = s.shape
    if th > sh or tw > sw:
        raise ValueError(f"template {tw}x{th} larger than search window {sw}x{sh}")
    tz = t - t.mean()
    t_energy = float(np.sum(tz * tz))
    windows = np.lib.stride_tricks.sliding_window_view(s, (th, tw))
    w_sum = windows.sum(axis=(2, 3))
    w_sq = np.einsum("ijkl,ijkl->ij", windows, windows)
    w_var = w_sq - w_sum * w_sum / (th * tw)
    np.maximum(w_var, 0.0, out=w_var)
    numer = np.einsum("ijkl,kl->ij", windows, tz)
    denom_sq = t_energy * w_var
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = numer / np.sqrt(denom_sq)
    np.clip(scores, -1.0, 1.0, out=scores)
    scores[denom_sq <= 1e-12] = -np.inf
    return scores
