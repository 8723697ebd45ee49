"""Raw-frame ingestion and the image primitives the pipelines need.

Covers binary PGM (P5) decoding of the camera's Bayer mosaics, bilinear
demosaicing to RGB, histogram equalization for under-exposed night
frames, row cropping, and normalized cross-correlation for position
matching between keyframes.  All operations are pure; images wrap numpy
arrays of unsigned integers.
"""

from __future__ import annotations

import copy
import enum
import functools
import math
import re
from dataclasses import dataclass

import numpy as np

from .taxonomy import is_ascii_digits


class BayerPattern(enum.Enum):
    """Layout of the 2x2 color-filter tile, reading order."""

    RGGB = "RGGB"
    BGGR = "BGGR"
    GRBG = "GRBG"
    GBRG = "GBRG"


def _check_samples(samples: np.ndarray, max_value: int, channels: int | None) -> None:
    expected_ndim = 2 if channels is None else 3
    if samples.ndim != expected_ndim:
        raise ValueError(f"expected {expected_ndim}-d sample array, got shape {samples.shape}")
    if channels is not None and samples.shape[2] != channels:
        raise ValueError(f"expected {channels} channels, got shape {samples.shape}")
    if not np.issubdtype(samples.dtype, np.integer):
        raise ValueError(f"samples must be integers, got dtype {samples.dtype}")
    if not 0 < max_value <= 65535:
        raise ValueError(f"max_value must be in 1..65535, got {max_value}")
    if samples.size and ((samples.dtype.kind == "i" and samples.min() < 0) or samples.max() > max_value):
        raise ValueError(f"sample values outside [0, {max_value}]")


def sample_dtype(max_value: int) -> type:
    """In-memory sample type: one byte up to 255, else two."""
    return np.uint16 if max_value > 255 else np.uint8


def _wire_dtype(max_value: int) -> np.dtype:
    """PNM payload sample type: one byte up to 255, else two big-endian."""
    return np.dtype(">u2") if max_value > 255 else np.dtype("u1")


class _Image:
    """Validation and geometry shared by the image types; ``channels`` is
    None for a plain 2-d array."""

    channels: int | None = None

    def __post_init__(self) -> None:
        _check_samples(self.samples, self.max_value, self.channels)

    @property
    def width(self) -> int:
        return self.samples.shape[1]

    @property
    def height(self) -> int:
        return self.samples.shape[0]


@dataclass(frozen=True)
class GrayImage(_Image):
    """Single-channel image, row-major."""

    samples: np.ndarray
    max_value: int = 255


@dataclass(frozen=True)
class CfaImage(_Image):
    """Undemosaiced sensor readout; the caller names the pattern, which a PGM header cannot carry."""

    samples: np.ndarray
    pattern: BayerPattern = BayerPattern.RGGB
    max_value: int = 255


@dataclass(frozen=True)
class RgbImage(_Image):
    """Three-channel image, ``(h, w, 3)``; each channel may be one contiguous plane in memory."""

    channels = 3
    samples: np.ndarray
    max_value: int = 255


# --------------------------------------------------------------------------
# PNM decoding / encoding

# One header token: the whitespace and comments before it, the token, and a comment
# right after it, whose line end (else the byte after the token) is the token's separator.
# A skipped comment must end at a line end, so a failed match cannot backtrack into it.
_PNM_TOKEN = re.compile(rb"[ \t\r\n\v\f]*(?:#[^\r\n]*(?![^\r\n])[ \t\r\n\v\f]*)*"
                        rb"([^ \t\r\n\v\f#]+)(?:#[^\r\n]*)?")


def _pnm_header(data) -> tuple[int, int, int, int]:
    """``(width, height, max_value, payload_offset)`` of a binary PGM (P5)
    header; a malformed header is a ``ValueError``."""
    tokens, end = [], 0
    while len(tokens) < 4 and (match := _PNM_TOKEN.match(data, end)):
        tokens.append(match[1].decode("ascii", "replace"))
        end = match.end()
    if not tokens:
        raise ValueError("empty input")
    if tokens[0] != "P5":
        raise ValueError(f"expected binary PGM magic 'P5', got {tokens[0]!r}")
    if len(tokens) < 4:
        raise ValueError("incomplete PGM header")
    if not all(map(is_ascii_digits, tokens[1:])):  # int also reads "+3", "2_55"
        raise ValueError(f"non-numeric PGM header field in {tuple(tokens[1:])}")
    width, height, max_value = map(int, tokens[1:])
    if width <= 0 or height <= 0:
        raise ValueError(f"bad PGM dimensions {width}x{height}")
    if not 0 < max_value <= 65535:
        raise ValueError(f"PGM max value {max_value} outside 1..65535")
    # exactly one whitespace byte (or a comment's line end) separates the header from the payload
    return width, height, max_value, end + 1


def read_pnm(data, pattern: BayerPattern | None = None) -> GrayImage | CfaImage:
    """Decode a binary PGM (P5) from any contiguous bytes-like object:
    ``bytes``, a ``bytearray`` or a ``memoryview`` of one.

    Samples are 1 byte each for max_value < 256, otherwise 2 bytes
    big-endian.  Pass ``pattern`` to tag the result as a Bayer mosaic;
    the PNM header itself cannot express the CFA layout.  A malformed
    header or a short payload is a ``ValueError``.  The samples are a new
    array: the image never shares memory with ``data``.
    """
    data = memoryview(data).cast("B")
    width, height, max_value, start = _pnm_header(data)
    dtype = _wire_dtype(max_value)
    need = width * height * dtype.itemsize
    if len(data) - start < need:
        raise ValueError(f"payload has {max(len(data) - start, 0)} bytes, need {need}")
    samples = np.frombuffer(data, dtype, width * height, offset=start)
    if not samples.flags.aligned:  # a misaligned cast runs at half speed: copy the payload first
        samples = np.frombuffer(bytes(data[start : start + need]), dtype)
    samples = samples.reshape(height, width).astype(sample_dtype(max_value))
    if pattern is None:
        return GrayImage(samples=samples, max_value=max_value)
    return CfaImage(samples=samples, pattern=pattern, max_value=max_value)


def _encode_pnm(magic: str, image: _Image) -> bytearray:
    header = f"{magic}\n{image.width} {image.height}\n{image.max_value}\n".encode("ascii")
    samples = np.atleast_3d(image.samples)
    wire = _wire_dtype(image.max_value)
    encoded = bytearray(len(header) + samples.size * wire.itemsize)
    encoded[: len(header)] = header
    payload = np.frombuffer(encoded, wire, offset=len(header)).reshape(samples.shape)
    for c in range(samples.shape[2]):  # one channel at a time: a planar image is read plane by plane
        payload[:, :, c] = samples[:, :, c]
    return encoded


def write_pnm(image: GrayImage | CfaImage) -> bytearray:
    """Encode as binary PGM into a new ``bytearray``; inverse of :func:`read_pnm`."""
    return _encode_pnm("P5", image)


def write_ppm(image: RgbImage) -> bytearray:
    """Encode as binary PPM (P6), interleaved RGB, into a new ``bytearray``."""
    return _encode_pnm("P6", image)


# --------------------------------------------------------------------------
# Demosaicing and intensity transforms


def _interpolate_channel(lattices: list, pattern: BayerPattern, name: str, plane: np.ndarray) -> None:
    """Fill ``plane`` with channel ``name`` of the bilinear demosaic.

    ``lattices[p][q]`` is the contiguous sub-lattice ``context[p::2, q::2]``
    of the plane's one-pixel context (see :func:`_mosaic_context`), so each
    tap is a unit-stride slice of one of them.  Each pixel averages its
    nearest same-channel neighbors, rounded half-up in exact integers: 2
    taps give ``(a + b + 1) >> 1`` and 4 taps ``(s + 2) >> 2``, both equal
    to ``floor(mean + 0.5)``.  A mean of in-range samples stays in range.
    """
    h, w = plane.shape
    sites = [divmod(k, 2) for k, ch in enumerate(pattern.value) if ch == name]
    (si, sj) = sites[0]

    def tap(i: int, j: int, dy: int, dx: int) -> np.ndarray:
        # neighbor (dy, dx) of every output pixel at phase (i, j): context[1+i+dy::2, 1+j+dx::2]
        r, c, rows, cols = 1 + i + dy, 1 + j + dx, (h - i + 1) // 2, (w - j + 1) // 2
        return lattices[r % 2][c % 2][r // 2 : r // 2 + rows, c // 2 : c // 2 + cols]

    for i in range(min(h, 2)):
        for j in range(min(w, 2)):
            if (i, j) in sites:
                plane[i::2, j::2] = tap(i, j, 0, 0)
                continue
            if name == "G":
                offsets = ((-1, 0), (1, 0), (0, -1), (0, 1))
            elif i == si:  # same row parity: horizontal neighbors
                offsets = ((0, -1), (0, 1))
            elif j == sj:  # same column parity: vertical neighbors
                offsets = ((-1, 0), (1, 0))
            else:  # diagonal sites
                offsets = ((-1, -1), (-1, 1), (1, -1), (1, 1))
            total = tap(i, j, *offsets[0]) + tap(i, j, *offsets[1])
            for dy, dx in offsets[2:]:
                total += tap(i, j, dy, dx)
            total += len(offsets) // 2  # n taps: (sum + n/2) >> log2(n)
            total >>= len(offsets).bit_length() - 1
            plane[i::2, j::2] = total


def _mosaic_context(cfa: CfaImage, x0: int, y0: int, x1: int, y1: int,
                    channels: str = "RGB") -> tuple[BayerPattern, list]:
    """The 2x2 pattern re-phased to start at (y0, x0), and the four
    sub-lattices ``context[p::2, q::2]`` of the rectangle [x0, x1) x [y0, y1)
    with one pixel of context: contiguous, in an unsigned type that holds
    ``4 * max_value + 2``, for the sites of ``channels``, and None for the
    others, which no tap of those channels reads.
    Context beyond the frame edge replicates the edge row or column."""
    h, w = cfa.samples.shape
    context = cfa.samples[max(y0 - 1, 0) : y1 + 1, max(x0 - 1, 0) : x1 + 1]
    pad = ((int(y0 == 0), int(y1 == h)), (int(x0 == 0), int(x1 == w)))
    if any(map(any, pad)):  # np.pad copies even when it pads nothing
        context = np.pad(context, pad, mode="edge")
    work = np.min_scalar_type(4 * cfa.max_value + 2)
    tile = cfa.pattern.value
    shifted = "".join(tile[(i + y0) % 2 * 2 + (j + x0) % 2] for i in (0, 1) for j in (0, 1))
    # context[p, q] is the window's pixel (p - 1, q - 1): site shifted[(1 - p) * 2 + 1 - q]
    lattices = [[np.ascontiguousarray(context[p::2, q::2], dtype=work)
                 if shifted[(1 - p) * 2 + 1 - q] in channels else None for q in (0, 1)] for p in (0, 1)]
    return BayerPattern(shifted), lattices


_DEMOSAIC_BAND = 256  # output rows per pass, so a band's context and sub-lattices stay in cache


def demosaic_bilinear(cfa: CfaImage) -> RgbImage:
    """Reconstruct RGB by averaging each pixel's nearest same-channel
    neighbors (the classic 2- and 4-tap bilinear demosaic).

    Borders clamp neighbor coordinates to the image edge, so border
    pixels mix color sites exactly as replicate padding dictates.
    Channel values are rounded half-up.  The planes are filled in bands
    of ``_DEMOSAIC_BAND`` full-width rows.
    """
    h, w = cfa.samples.shape
    planes = np.empty((3, h, w), dtype=sample_dtype(cfa.max_value))
    for top in range(0, h, _DEMOSAIC_BAND):
        bottom = min(top + _DEMOSAIC_BAND, h)
        pattern, lattices = _mosaic_context(cfa, 0, top, w, bottom)
        for plane, name in zip(planes[:, top:bottom], "RGB"):
            _interpolate_channel(lattices, pattern, name, plane)
    return RgbImage(samples=planes.transpose(1, 2, 0), max_value=cfa.max_value)


_EQUALIZE_CHUNK = 1 << 16  # samples per pass, so the intp index copies of bincount and take stay small


def _equalize_plane(samples: np.ndarray, max_value: int, out: np.ndarray | None = None) -> np.ndarray:
    """The CDF remap of one channel, into ``out`` if given, in bands of rows of at most
    ``_EQUALIZE_CHUNK`` samples (or one row); a constant plane is returned as is."""
    rows = range(0, samples.shape[0], max(1, _EQUALIZE_CHUNK // max(1, samples.shape[1])))
    counts = sum(np.bincount(samples[top : top + rows.step].ravel(), minlength=max_value + 1)
                 for top in rows)
    cdf = np.cumsum(counts)
    n = samples.size
    nonzero = cdf[cdf > 0]
    cdf_min = int(nonzero[0]) if nonzero.size else 0
    if cdf_min >= n:
        return samples
    diff = np.maximum(cdf.astype(np.int64) - cdf_min, 0)
    lut = (-((-diff * max_value) // (n - cdf_min))).astype(sample_dtype(max_value))
    out = np.empty(samples.shape, lut.dtype) if out is None else out
    for top in rows:
        np.take(lut, samples[top : top + rows.step], out=out[top : top + rows.step], mode="clip")
    return out


def equalize_histogram(image: GrayImage) -> GrayImage:
    """CDF remap contrast boost: out = ceil((cdf(v) - cdf_min) / (N - cdf_min) * max_value).

    The ceiling is taken exactly in integer arithmetic.  Rounding the remap
    to nearest instead can merge the second-lowest occupied level into
    output level 0, which shifts cdf_min on a second pass; the ceiling
    keeps level 0's preimage at exactly the minimum value, so applying the
    filter twice equals applying it once, for every image.  A constant
    image has a degenerate CDF (0/0) and is returned unchanged.
    """
    samples = _equalize_plane(image.samples, image.max_value)
    return image if samples is image.samples else GrayImage(samples, image.max_value)


def equalize_rgb(image: RgbImage) -> RgbImage:
    """Histogram-equalize each channel independently, into new channel planes."""
    planes = np.empty((3,) + image.samples.shape[:2], dtype=sample_dtype(image.max_value))
    for channel, plane in zip(np.moveaxis(image.samples, -1, 0), planes):
        if _equalize_plane(channel, image.max_value, plane) is channel:
            plane[...] = channel
    return RgbImage(samples=planes.transpose(1, 2, 0), max_value=image.max_value)


def crop_rows(image, keep_top: int):
    """Keep only the top ``keep_top`` rows (the sky-and-signs band)."""
    if not 0 < keep_top <= image.height:
        raise ValueError(f"keep_top must be in 1..{image.height}, got {keep_top}")
    # a row slice of a valid image is valid: skip the full min/max pass
    cropped = copy.copy(image)
    object.__setattr__(cropped, "samples", image.samples[:keep_top])
    return cropped


def gray_window(image: GrayImage | CfaImage, x0: int, y0: int, x1: int, y1: int) -> GrayImage:
    """Gray signal of the rectangle [x0, x1) x [y0, y1), which must lie inside
    the frame, in an array of its own (so it keeps no frame alive): a copy
    of a gray image's rectangle, or the interpolated green plane of just
    that rectangle of a mosaic, equal to that rectangle of the whole
    frame's green plane: the window and its one-pixel context are read as
    their two green sub-lattices, where one band of
    :func:`demosaic_bilinear` reads all four."""
    h, w = image.samples.shape
    if not (0 <= x0 < x1 <= w and 0 <= y0 < y1 <= h):
        raise ValueError(f"window ({x0},{y0},{x1},{y1}) outside {w}x{h}")
    if not isinstance(image, CfaImage):
        return GrayImage(samples=image.samples[y0:y1, x0:x1].copy(), max_value=image.max_value)
    plane = np.empty((y1 - y0, x1 - x0), dtype=sample_dtype(image.max_value))
    pattern, lattices = _mosaic_context(image, x0, y0, x1, y1, "G")
    _interpolate_channel(lattices, pattern, "G", plane)
    return GrayImage(samples=plane, max_value=image.max_value)


# --------------------------------------------------------------------------
# Normalized cross-correlation


@dataclass(frozen=True)
class NccMatch:
    """Best template placement inside a search window.

    ``degenerate`` means every placement (or the template itself) had zero
    variance; the offsets then fall back to the tie-break preference and
    the score is -inf.
    """

    offset_x: int
    offset_y: int
    score: float
    degenerate: bool = False


def _window_sums(values: np.ndarray, th: int, tw: int) -> np.ndarray:
    """Sum of every th x tw window over the last two axes (leading axes
    are a batch), from an exact integer summed-area table."""
    table = np.zeros(values.shape[:-2] + (values.shape[-2] + 1, values.shape[-1] + 1), dtype=np.int64)
    inner = table[..., 1:, 1:]
    np.cumsum(values, axis=-2, out=inner)
    np.cumsum(inner, axis=-1, out=inner)
    sums = table[..., th:, tw:] - table[..., :-th, tw:]  # in place from here: no more temporaries
    sums -= table[..., th:, :-tw]
    sums += table[..., :-th, :-tw]
    return sums


@functools.cache  # one entry per window side length: at most a frame's width plus height
def _fast_length(n: int) -> int:
    """The least 2**a * 3**b * 5**c >= n (n >= 1): pocketfft's fast sizes,
    where a prime side runs 2.5-3.5x slower."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:  # the least power of two that lifts p35 to n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _fft_shape(shape: tuple[int, ...]) -> tuple[int, int]:
    """FFT size for search windows of ``shape`` (the last two axes)."""
    return _fast_length(shape[-2]), _fast_length(shape[-1])


def _byte_planes(values: np.ndarray, split: bool) -> list[tuple[int, np.ndarray]]:
    """(shift, plane) pairs that add up to ``values``: itself, or its two bytes."""
    return [(8 * k, (values >> 8 * k) & 0xFF) for k in (0, 1)] if split else [(0, values)]


def _spectrum(values: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """``rfft2(values, shape)``, taking the row transforms of ``values``'
    own rows only: the padding rows are zero."""
    return np.fft.fft(np.fft.rfft(values, shape[1], axis=-1), shape[0], axis=-2)


def _template_spectra(t: np.ndarray, shape: tuple[int, int], max_value: int) -> list:
    """(shift, spectrum) per byte plane of the flipped template, at the FFT
    size ``shape`` (:func:`_fft_shape` of the search window).

    The cross term is a product of ``rfft2`` spectra at that size, at least
    the search window's on each side, so the valid part has no wrap-around.
    Its float64 error stays below ``eps * log2(N) * sqrt(n * N) * max_value**2``
    for n template pixels and an FFT of N (the worst measured was 1/40 of
    that), so rounding is exact while that is under 0.25.  Above it the
    samples are split into high and low bytes, so each of the four
    products rounds exactly.
    """
    size = shape[0] * shape[1]
    error = np.finfo(np.float64).eps * math.log2(max(size, 2)) * math.sqrt(t.size * size)
    planes = _byte_planes(t, error * max_value**2 >= 0.25)
    return [(shift, _spectrum(plane[::-1, ::-1], shape)) for shift, plane in planes]


def _cross_term(t: np.ndarray, s: np.ndarray, spectra: list) -> np.ndarray:
    """Sum of window * template at every placement, in exact integers, over
    the last two axes of ``s`` (leading axes are a batch of windows);
    ``spectra`` are the template's :func:`_template_spectra` for ``s``.
    The inverse transform keeps the valid rows before its row transforms."""
    (th, tw), (sh, sw) = t.shape, s.shape[-2:]
    shape = _fft_shape(s.shape)
    total = 0
    for s_shift, plane in _byte_planes(s, len(spectra) > 1):
        spectrum = _spectrum(plane, shape)
        for t_shift, t_spectrum in spectra:
            rows = np.fft.ifft(spectrum * t_spectrum, axis=-2)[..., th - 1 : sh, :]
            valid = np.fft.irfft(rows, shape[1], axis=-1)[..., tw - 1 : sw]
            total = total + (np.rint(valid).astype(np.int64) << (s_shift + t_shift))
    return total


class NccTemplate:
    """A template prepared for search windows of the shape and sample range
    of ``search``: its sums and spectra are computed once, so the gap
    frames of a segment share them."""

    def __init__(self, template: GrayImage, search: GrayImage):
        t = self._t = template.samples.astype(np.int64)
        self.shape = search.samples.shape
        (th, tw), (sh, sw) = t.shape, self.shape
        if th > sh or tw > sw:
            raise ValueError(f"template {tw}x{th} larger than search window {sw}x{sh}")
        self.max_value = max(template.max_value, search.max_value)
        self._sums = int(t.sum()), int((t * t).sum())
        self._spectra = _template_spectra(t, _fft_shape(self.shape), self.max_value)

    def scores(self, windows: list[GrayImage]) -> np.ndarray:
        """NCC of the template at every placement inside each window, scored
        as one stack; every window must have the prepared shape and a sample
        range no larger.

        Returns an array of shape (len(windows), search_h - t_h + 1,
        search_w - t_w + 1), with -inf at degenerate (zero variance)
        placements.  The numerator ``n*Swt - St*Sw`` and the variances
        ``n*St2 - St**2`` and ``n*Sw2 - Sw**2`` are exact integers, so equal
        windows score exactly equal and a placement is degenerate exactly
        when a variance is 0.
        """
        if any(w.samples.shape != self.shape or w.max_value > self.max_value for w in windows):
            raise ValueError(f"search window does not fit a template prepared for {self.shape}")
        t, s = self._t, np.stack([w.samples for w in windows], dtype=np.int64)
        (th, tw), (sum_t, sq_t) = t.shape, self._sums
        n = th * tw
        sums = [_window_sums(s, th, tw), _window_sums(s * s, th, tw),
                _cross_term(t, s, self._spectra)]
        if n * n * self.max_value**2 >= 2**63:  # n * Sw2 could overflow int64
            sums = [a.astype(object) for a in sums]
        w_sum, w_sq, cross = sums
        var_t = n * sq_t - sum_t * sum_t
        var_w = n * w_sq - w_sum * w_sum
        numer = (n * cross - sum_t * w_sum).astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            scores = numer / np.sqrt(var_w.astype(np.float64) * float(var_t))
        np.clip(scores, -1.0, 1.0, out=scores)
        scores[(var_w == 0) | (var_t == 0)] = -np.inf
        return scores


def best_placement(scores: np.ndarray, preferred_offset: tuple[float, float]) -> NccMatch:
    """The highest-scoring placement on one surface of :meth:`NccTemplate.scores`.

    Ties are broken by smallest Euclidean distance to ``preferred_offset``
    (x, y), then row-major.  An all-degenerate surface yields a flagged
    result at the preferred offset, rounded and clamped to the surface,
    rather than an error.
    """
    oh, ow = scores.shape
    px, py = preferred_offset

    best = scores.max()
    if best == -np.inf:
        ox = min(max(int(round(px)), 0), ow - 1)
        oy = min(max(int(round(py)), 0), oh - 1)
        return NccMatch(offset_x=ox, offset_y=oy, score=float("-inf"), degenerate=True)
    ys, xs = np.nonzero(scores == best)
    dist = (xs - px) ** 2 + (ys - py) ** 2
    pick = np.lexsort((xs, ys, dist))[0]
    return NccMatch(offset_x=int(xs[pick]), offset_y=int(ys[pick]), score=float(best))
