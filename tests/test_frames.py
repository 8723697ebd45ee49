"""Raw-frame ingestion: PNM codec, demosaic, equalization, NCC."""

import tracemalloc

import frame_oracles
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frame_oracles import DegenerateCorrelation, ncc
from icevision_kit import frames
from icevision_kit.core import BoundingBox, search_area
from icevision_kit.frames import (
    BayerPattern,
    CfaImage,
    GrayImage,
    RgbImage,
    crop_rows,
    demosaic_bilinear,
    equalize_histogram,
    equalize_rgb,
    gray_window,
    read_pnm,
    sample_dtype,
    write_pnm,
    write_ppm,
)


def gray(array, max_value=255):
    a = np.asarray(array)
    return GrayImage(samples=a.astype(np.uint16 if max_value > 255 else np.uint8), max_value=max_value)


def ncc_surface(template, search):
    """The library's NCC of ``template`` at every placement in ``search``."""
    return frames.NccTemplate(template, search).scores([search])[0]


def ncc_match(template, search, preferred_offset=None):
    """The library's best placement of ``template`` in ``search``, preferring
    ``preferred_offset`` (x, y), or the centre of the surface when not given."""
    surface = ncc_surface(template, search)
    if preferred_offset is None:
        preferred_offset = ((surface.shape[1] - 1) / 2.0, (surface.shape[0] - 1) / 2.0)
    return frames.best_placement(surface, preferred_offset)


def cross_term(t, s, max_value):
    """The library's exact cross term of template ``t`` over window(s) ``s``."""
    spectra = frames._template_spectra(t, frames._fft_shape(s.shape), max_value)
    return frames._cross_term(t, s, spectra)


def cfa(array, pattern=BayerPattern.RGGB, max_value=255):
    a = np.asarray(array)
    return CfaImage(
        samples=a.astype(np.uint16 if max_value > 255 else np.uint8),
        pattern=pattern,
        max_value=max_value,
    )


# bytes-like objects read_pnm takes; the last is a view that starts at an odd offset
CONTAINERS = (bytes, bytearray, lambda data: memoryview(bytearray(data)),
              lambda data: memoryview(bytearray(b"\0" + data))[1:])


@st.composite
def pgm_files(draw):
    """Small PGM files: header spacing and comments, 8- or 16-bit samples,
    a payload that may be short or followed by trailing bytes."""
    max_value = draw(st.sampled_from([1, 255, 256, 4095, 65535]))
    width, height = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    gap = st.sampled_from([b" ", b"\n", b"\t", b"  ", b"\r\n", b" # note\n", b"\n#\n"])
    header = b"P5" + draw(gap) + b"%d" % width + draw(gap) + b"%d" % height + draw(gap)
    header += b"%d" % max_value + draw(st.sampled_from([b"\n", b" ", b"# c\n", b"#\r"]))
    size = width * height * (2 if max_value > 255 else 1)
    return header + draw(st.binary(min_size=max(size - 2, 0), max_size=size + 3))


# what PGM headers are built from: PNM whitespace bytes and comments, and fields of
# digits and the bytes int() or a Unicode digit test would also read
SEPARATORS = [b" ", b"\t", b"\r", b"\n", b"\v", b"\f", b"\r\n", b"#", b"# c", b"#\n", b"# c\r"]
FIELDS = [b"0", b"1", b"7", b"12", b"255", b"4095", b"65535", b"65536", b"+", b"_", b"-",
          b"\x80", b"\xff", b"\xd9\xa2", b"\xc2\xb2"]


def joined(pieces, min_size, max_size):
    return st.lists(st.sampled_from(pieces), min_size=min_size, max_size=max_size).map(b"".join)


# a magic, three fields after runs of separators and any tail, or any mix of the pieces
PNM_HEADERS = st.one_of(
    st.tuples(st.sampled_from([b"P5", b"", b"P6"]),
              *[st.tuples(joined(SEPARATORS, 1, 3),
                          st.sampled_from(FIELDS[:8]) | joined(FIELDS, 0, 2)).map(b"".join)] * 3,
              joined(SEPARATORS + FIELDS, 0, 4)).map(b"".join),
    joined([b"P5", b"P6"] + SEPARATORS + FIELDS, 0, 16),
)


def header_outcome(parse, data):
    """``parse(data)``, or the message of the ``ValueError`` it raises."""
    try:
        return parse(data)
    except ValueError as exc:
        return str(exc)


class TestPnmHeader:
    """The token-regex header parser against the byte-by-byte scanner."""

    @settings(max_examples=600)
    @given(PNM_HEADERS)
    @example(b"P5 2 2 255# c\r")
    # long runs, where a backtracking regex would take quadratic or exponential time
    @example(b"P5" + b" " * 100_000)
    @example(b"P5" + b"#\n" * 50_000 + b"2 2 255\n")
    @example(b"P5 #" + b"\r" * 100_000)
    @example(b"P5" + b" \n" * 50_000 + b"#")
    @example(b"P5 2 2 #" + b"#" * 100_000)
    @example(b"P5 " + b"1" * 5_000 + b" 1 255\n")  # past int's default digit limit
    def test_matches_the_byte_scanner(self, data):
        assert header_outcome(frames._pnm_header, data) == header_outcome(frame_oracles.pnm_header, data)


class TestReadPnm:
    def test_basic_2x2(self):
        img = read_pnm(b"P5 2 2 255\n" + bytes([10, 20, 30, 40]))
        assert isinstance(img, GrayImage)
        assert img.width == 2 and img.height == 2
        assert img.max_value == 255
        assert img.samples.tolist() == [[10, 20], [30, 40]]

    def test_pattern_tags_cfa(self):
        img = read_pnm(b"P5 2 2 255\n" + bytes(4), pattern=BayerPattern.BGGR)
        assert isinstance(img, CfaImage)
        assert img.pattern is BayerPattern.BGGR

    def test_p6_rejected(self):
        with pytest.raises(ValueError, match="^expected binary PGM magic 'P5', got 'P6'$"):
            read_pnm(b"P6 2 2 255\n" + bytes(12))

    def test_truncated_payload(self):
        with pytest.raises(ValueError, match="^payload has 3 bytes, need 4$"):
            read_pnm(b"P5 2 2 255\n" + bytes(3))

    def test_header_comments_skipped(self):
        data = b"P5 # magic\n# full comment line\n 2\t2 # dims\n255\n" + bytes([1, 2, 3, 4])
        img = read_pnm(data)
        assert img.samples.tolist() == [[1, 2], [3, 4]]

    @pytest.mark.parametrize("line_end", [b"\n", b"\r"])
    def test_comment_after_max_value_ends_at_its_line_end(self, line_end):
        img = read_pnm(b"P5 2 2 255# note" + line_end + bytes([1, 2, 3, 4]))
        assert img.samples.tolist() == [[1, 2], [3, 4]]

    def test_comment_after_max_value_without_line_end_is_truncated(self):
        # the comment runs to the end of input, so no byte of it is a sample
        with pytest.raises(ValueError, match="^payload has 0 bytes, need 4$"):
            read_pnm(b"P5 2 2 255#" + bytes([1, 2, 3, 4]))

    @pytest.mark.parametrize("data, message", [
        (b"P5 2 2 255\n" + bytes(3), "payload has 3 bytes, need 4"),
        (b"P5 2 2 255\n", "payload has 0 bytes, need 4"),
        (b"P5 2 2 255", "payload has 0 bytes, need 4"),  # the header ends at end of file
        (b"P5 3 1 65535\n" + bytes(5), "payload has 5 bytes, need 6"),
        (b"P5  3 1 65535\n" + bytes(5), "payload has 5 bytes, need 6"),
    ])
    def test_truncation_message(self, data, message):
        for container in CONTAINERS:
            with pytest.raises(ValueError) as exc:
                read_pnm(container(data))
            assert str(exc.value) == message

    def test_samples_do_not_depend_on_header_length_trailing_bytes_or_container(self, monkeypatch):
        # an odd-length header, or a view at an odd address, leaves the 2-byte
        # payload view misaligned: the payload is copied before the cast
        cast_from = []

        class Numpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def frombuffer(self, *args, **kwargs):
                cast_from.append(np.frombuffer(*args, **kwargs))
                return cast_from[-1]

        monkeypatch.setattr(frames, "np", Numpy())
        samples = np.random.default_rng(5).integers(0, 4096, size=(3, 5)).astype(np.uint16)
        payload = samples.astype(">u2").tobytes()
        aligned = set()
        for pad in range(4):
            header = b"P5" + b" " * (pad + 1) + b"5 3\n4095\n"
            for trailing in (b"", b"\x07", bytes(6)):
                for container in CONTAINERS:
                    cast_from.clear()
                    img = read_pnm(container(header + payload + trailing), BayerPattern.BGGR)
                    assert img.samples.dtype == np.uint16 and np.array_equal(img.samples, samples)
                    assert img.samples.flags.writeable and img.samples.flags.c_contiguous
                    assert cast_from[-1].flags.aligned
                    aligned.add(cast_from[0].flags.aligned)
        assert aligned == {True, False}

    @given(st.one_of(st.binary(max_size=24), pgm_files()))
    def test_any_container_reads_like_bytes(self, data):
        # the same samples, or the same ValueError message, from every container
        def outcome(container):
            try:
                img = read_pnm(container(data))
            except ValueError as exc:
                return str(exc)
            return type(img), img.max_value, img.samples.dtype, img.samples.tolist()

        want = outcome(bytes)
        for container in CONTAINERS[1:]:
            assert outcome(container) == want

    def test_16bit_big_endian(self):
        payload = (300).to_bytes(2, "big") + (65535).to_bytes(2, "big")
        img = read_pnm(b"P5 2 1 65535\n" + payload)
        assert img.samples.tolist() == [[300, 65535]]
        assert img.samples.dtype == np.uint16

    def test_empty_input(self):
        with pytest.raises(ValueError, match="^empty input$"):
            read_pnm(b"")

    def test_bad_maxval(self):
        with pytest.raises(ValueError, match="^PGM max value 0 outside 1..65535$"):
            read_pnm(b"P5 2 2 0\n" + bytes(4))
        with pytest.raises(ValueError, match="^PGM max value 70000 outside 1..65535$"):
            read_pnm(b"P5 2 2 70000\n" + bytes(16))

    def test_bad_dimensions(self):
        with pytest.raises(ValueError, match="^bad PGM dimensions 0x2$"):
            read_pnm(b"P5 0 2 255\n")

    def test_non_numeric_header(self):
        with pytest.raises(ValueError, match=r"^non-numeric PGM header field in \('two', '2', '255'\)$"):
            read_pnm(b"P5 two 2 255\n" + bytes(4))

    @pytest.mark.parametrize("header", [b"P5 +3 1 255", b"P5 2 1 2_55", b"P5 2 1 +255",
                                        b"P5 \xd9\xa2 1 255", b"P5 2 -1 255"])
    def test_header_fields_are_ascii_digits(self, header):
        # int() reads "+3" as 3 and "2_55" as 255
        with pytest.raises(ValueError, match="^non-numeric PGM header field in "):
            read_pnm(header + b"\n" + bytes(8))

    @pytest.mark.parametrize("max_value", [255, 65535])
    def test_round_trip_byte_exact(self, max_value):
        rng = np.random.default_rng(7)
        img = gray(rng.integers(0, max_value + 1, size=(5, 9)), max_value)
        data = write_pnm(img)
        again = read_pnm(data)
        assert write_pnm(again) == data
        assert np.array_equal(again.samples, img.samples)

    def test_ppm_header(self):
        img = RgbImage(samples=np.zeros((2, 3, 3), dtype=np.uint8), max_value=255)
        assert write_ppm(img).startswith(b"P6\n3 2\n255\n")


class TestSampleRange:
    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int64])
    def test_negative_signed_sample_rejected(self, dtype):
        with pytest.raises(ValueError, match=r"^sample values outside \[0, 100\]$"):
            GrayImage(np.array([[0, -1]], dtype=dtype), 100)

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int16, np.uint64])
    def test_sample_above_max_rejected(self, dtype):
        with pytest.raises(ValueError, match=r"^sample values outside \[0, 100\]$"):
            RgbImage(np.array([[[0, 101, 5]]], dtype=dtype), 100)

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int32, np.uint64])
    def test_full_range_accepted(self, dtype):
        image = CfaImage(np.array([[0, 1], [99, 100]], dtype=dtype), max_value=100)
        assert image.samples.min() == 0 and image.samples.max() == 100

    @pytest.mark.parametrize("make, message", [
        (lambda: GrayImage(np.zeros((2, 2, 1), np.uint8), 255),
         r"^expected 2-d sample array, got shape \(2, 2, 1\)$"),
        (lambda: RgbImage(np.zeros((2, 2), np.uint8), 255),
         r"^expected 3-d sample array, got shape \(2, 2\)$"),
        (lambda: RgbImage(np.zeros((2, 2, 4), np.uint8), 255),
         r"^expected 3 channels, got shape \(2, 2, 4\)$"),
        (lambda: GrayImage(np.zeros((2, 2), np.float64), 255),
         r"^samples must be integers, got dtype float64$"),
        (lambda: CfaImage(np.zeros((2, 2), np.uint8), max_value=0),
         r"^max_value must be in 1..65535, got 0$"),
        (lambda: GrayImage(np.zeros((2, 2), np.uint16), 65536),
         r"^max_value must be in 1..65535, got 65536$"),
    ])
    def test_sample_array_shape_dtype_and_max_value_are_checked(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()


class TestDemosaic:
    def test_constant_cfa(self):
        rgb = demosaic_bilinear(cfa(np.full((4, 4), 77)))
        assert np.all(rgb.samples == 77)

    @pytest.mark.parametrize("pattern", list(BayerPattern))
    def test_periodic_pattern_recovers_interior(self, pattern):
        values = {"R": 200, "G": 100, "B": 50}
        tile = np.array(
            [[values[pattern.value[0]], values[pattern.value[1]]],
             [values[pattern.value[2]], values[pattern.value[3]]]]
        )
        mosaic = np.tile(tile, (4, 4))
        rgb = demosaic_bilinear(cfa(mosaic, pattern))
        interior = rgb.samples[1:-1, 1:-1]
        assert np.all(interior[:, :, 0] == 200)
        assert np.all(interior[:, :, 1] == 100)
        assert np.all(interior[:, :, 2] == 50)

    def test_1x1_replicates(self):
        rgb = demosaic_bilinear(cfa([[9]]))
        assert rgb.samples.tolist() == [[[9, 9, 9]]]

    def test_rounds_half_up(self):
        # R at the (0,1) G site averages horizontal R neighbors 1 and 2
        rgb = demosaic_bilinear(cfa([[1, 2], [2, 0]]))
        assert rgb.samples[0, 1, 0] == 2

    def test_preserves_shape_and_range(self):
        rng = np.random.default_rng(3)
        mosaic = cfa(rng.integers(0, 256, size=(6, 8)))
        rgb = demosaic_bilinear(mosaic)
        assert rgb.samples.shape == (6, 8, 3)
        assert rgb.samples.min() >= 0 and rgb.samples.max() <= 255


# 255/256 switches the sample type, 16383/16384 the working type
# (4 * max_value + 2 no longer fits 16 bits)
DIFF_MAX_VALUES = (1, 255, 256, 4095, 16383, 16384, 65535)


@st.composite
def mosaics(draw):
    max_value = draw(st.sampled_from(DIFF_MAX_VALUES))
    h, w = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    sample = st.one_of(st.sampled_from([0, max_value]), st.integers(0, max_value))
    values = draw(st.lists(sample, min_size=h * w, max_size=h * w))
    pattern = draw(st.sampled_from(list(BayerPattern)))
    return cfa(np.array(values).reshape(h, w), pattern, max_value)


class TestDemosaicMatchesFloatOracle:
    @given(mosaics())
    def test_demosaic_and_green_plane(self, mosaic):
        want = frame_oracles.demosaic_bilinear(mosaic).samples
        got = demosaic_bilinear(mosaic).samples
        assert got.dtype == want.dtype and np.array_equal(got, want)
        green = gray_window(mosaic, 0, 0, mosaic.width, mosaic.height).samples
        assert green.dtype == want.dtype and np.array_equal(green, want[:, :, 1])

    @pytest.mark.parametrize("max_value", DIFF_MAX_VALUES)
    @pytest.mark.parametrize("pattern", list(BayerPattern))
    def test_full_scale_sums_do_not_wrap(self, max_value, pattern):
        mosaic = cfa(np.full((5, 6), max_value), pattern, max_value)
        assert np.all(demosaic_bilinear(mosaic).samples == max_value)
        assert np.all(gray_window(mosaic, 0, 0, 6, 5).samples == max_value)


class TestDemosaicInBandsMatchesFloatOracle:
    """The demosaic fills its planes one band of rows at a time; every band
    boundary, at any band height, must give the whole-frame result."""

    @settings(max_examples=25, deadline=None)
    @given(band=st.sampled_from([1, 2, 3, 5]), h=st.integers(1, 17), w=st.integers(1, 9),
           seed=st.integers(0, 2**32 - 1))
    @pytest.mark.parametrize("max_value", DIFF_MAX_VALUES)
    @pytest.mark.parametrize("pattern", list(BayerPattern))
    def test_small_bands(self, pattern, max_value, band, h, w, seed):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, max_value + 1, size=(h, w))
        values[rng.random((h, w)) < 0.3] = max_value  # full-scale sums must not wrap in any band
        mosaic = cfa(values, pattern, max_value)
        want = frame_oracles.demosaic_bilinear(mosaic).samples
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(frames, "_DEMOSAIC_BAND", band)
            got = demosaic_bilinear(mosaic).samples
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("pattern", list(BayerPattern))
    def test_two_full_bands_and_a_remainder(self, pattern):
        h = 2 * frames._DEMOSAIC_BAND + 3
        mosaic = cfa(np.random.default_rng(18).integers(0, 4096, size=(h, 5)), pattern, 4095)
        want = frame_oracles.demosaic_bilinear(mosaic).samples
        assert np.array_equal(demosaic_bilinear(mosaic).samples, want)


@st.composite
def mosaic_windows(draw):
    mosaic = draw(mosaics())
    x0 = draw(st.integers(0, mosaic.width - 1))
    y0 = draw(st.integers(0, mosaic.height - 1))
    x1 = draw(st.integers(x0 + 1, mosaic.width))
    y1 = draw(st.integers(y0 + 1, mosaic.height))
    return mosaic, (x0, y0, x1, y1)


class TestGrayWindowMatchesFullFramePlane:
    @given(mosaic_windows())
    def test_window_of_random_mosaic(self, case):
        mosaic, (x0, y0, x1, y1) = case
        want = frame_oracles.gray_from_cfa(mosaic).samples[y0:y1, x0:x1]
        got = gray_window(mosaic, x0, y0, x1, y1)
        assert got.max_value == mosaic.max_value
        assert got.samples.dtype == want.dtype and np.array_equal(got.samples, want)

    @pytest.mark.parametrize("pattern", list(BayerPattern))
    def test_every_window_of_odd_frame(self, pattern):
        # all parities and every border, on a frame of odd width
        rng = np.random.default_rng(21)
        mosaic = cfa(rng.integers(0, 4096, size=(6, 7)), pattern, 4095)
        full = frame_oracles.gray_from_cfa(mosaic)
        for y0 in range(6):
            for x0 in range(7):
                for y1 in range(y0 + 1, 7):
                    for x1 in range(x0 + 1, 8):
                        got = gray_window(mosaic, x0, y0, x1, y1).samples
                        assert np.array_equal(got, full.samples[y0:y1, x0:x1])

    @pytest.mark.parametrize("pattern", list(BayerPattern))
    def test_only_green_sites_are_converted(self, pattern):
        # green sites hold 1, the others 0; inner windows need no edge replication
        green = np.array([[c == "G" for c in pattern.value[:2]], [c == "G" for c in pattern.value[2:]]])
        mosaic = cfa(np.tile(green, (4, 4)), pattern)
        for x0, y0 in ((1, 1), (1, 2), (2, 1), (2, 2)):
            _, lattices = frames._mosaic_context(mosaic, x0, y0, x0 + 4, y0 + 3, "G")
            converted = [a for row in lattices for a in row if a is not None]
            assert len(converted) == 2 and all(np.all(a == 1) for a in converted)

    def test_gray_image_window_is_crop(self):
        img = gray(np.arange(20).reshape(4, 5))
        out = gray_window(img, 1, 1, 4, 3)
        assert out.max_value == img.max_value and np.array_equal(out.samples, img.samples[1:3, 1:4])

    @pytest.mark.parametrize("image", [cfa, gray])
    @pytest.mark.parametrize("rect", [(0, 0, 6, 2), (-1, 0, 2, 2), (2, 1, 2, 3), (0, 3, 2, 5)])
    def test_window_outside_frame(self, image, rect):
        with pytest.raises(ValueError, match="outside 5x4"):
            gray_window(image(np.zeros((4, 5))), *rect)


class TestEqualize:
    def test_two_level_unchanged(self):
        img = gray(np.repeat([0, 255], 8).reshape(4, 4))
        assert np.array_equal(equalize_histogram(img).samples, img.samples)

    def test_constant_identity(self):
        img = gray(np.full((5, 5), 42))
        assert np.array_equal(equalize_histogram(img).samples, img.samples)

    def test_uniform_ramp_is_fixed_point(self):
        img = gray(np.arange(256).reshape(16, 16))
        assert np.array_equal(equalize_histogram(img).samples, img.samples)

    def test_stretches_low_contrast(self):
        img = gray(np.repeat([100, 101], 8).reshape(4, 4))
        out = equalize_histogram(img)
        assert sorted(set(out.samples.ravel().tolist())) == [0, 255]

    def test_idempotent_on_random_images(self):
        rng = np.random.default_rng(20260826)
        for i in range(50):
            h, w = int(rng.integers(4, 96)), int(rng.integers(4, 96))
            mv = 255 if i % 2 == 0 else 65535
            kind = i % 4
            if kind == 0:
                s = rng.integers(0, mv + 1, size=(h, w))
            elif kind == 1:
                s = rng.integers(mv // 3, mv // 2, size=(h, w))
            elif kind == 2:
                s = np.minimum(rng.poisson(mv * 0.05, size=(h, w)), mv)
            else:
                s = (rng.beta(0.3, 0.3, size=(h, w)) * mv).astype(int)
            once = equalize_histogram(gray(s, mv))
            twice = equalize_histogram(once)
            assert np.array_equal(once.samples, twice.samples), f"image {i} not idempotent"

    def test_idempotent_on_sparse_bottom_bin(self):
        # one pixel each at 0 and 1 under a heavy top bin: nearest-rounding
        # remaps would merge level 1 into 0 and drift on the second pass
        img = gray(np.array([[0, 1] + [255] * 1019]))
        once = equalize_histogram(img)
        twice = equalize_histogram(once)
        assert np.array_equal(once.samples, twice.samples)

    def test_equalize_rgb_channelwise(self):
        rng = np.random.default_rng(11)
        samples = rng.integers(0, 256, size=(8, 8, 3), dtype=np.uint8)
        out = equalize_rgb(RgbImage(samples=samples, max_value=255))
        for c in range(3):
            expect = equalize_histogram(GrayImage(samples=samples[:, :, c], max_value=255))
            assert np.array_equal(out.samples[:, :, c], expect.samples)


class TestCrop:
    def test_crop_rows_keeps_top(self):
        img = gray(np.arange(20).reshape(5, 4))
        out = crop_rows(img, 2)
        assert np.array_equal(out.samples, img.samples[:2])

    def test_crop_rows_identity(self):
        img = gray(np.zeros((3, 3)))
        assert crop_rows(img, 3).samples.shape == (3, 3)

    def test_crop_rows_large_frame(self):
        img = gray(np.zeros((2048, 4), dtype=np.uint8))
        assert crop_rows(img, 1448).height == 1448

    @pytest.mark.parametrize("keep", [0, 6, -1])
    def test_crop_rows_out_of_range(self, keep):
        with pytest.raises(ValueError):
            crop_rows(gray(np.zeros((5, 4))), keep)

    def test_crop_rows_rgb_and_cfa(self):
        rgb = RgbImage(samples=np.zeros((4, 4, 3), dtype=np.uint8), max_value=255)
        assert isinstance(crop_rows(rgb, 2), RgbImage)
        mosaic = cfa(np.zeros((4, 4)))
        out = crop_rows(mosaic, 2)
        assert isinstance(out, CfaImage) and out.pattern is BayerPattern.RGGB

    @pytest.mark.parametrize("keep", [0, 2, 5, 6])
    def test_crop_rows_does_not_revalidate(self, keep, monkeypatch):
        images = [
            gray(np.arange(20).reshape(5, 4)),
            cfa(np.arange(20).reshape(5, 4), BayerPattern.GBRG, 4095),
            RgbImage(samples=np.ones((5, 4, 3), dtype=np.uint16), max_value=300),
        ]
        checks = []
        monkeypatch.setattr(frames, "_check_samples", lambda *args: checks.append(args))
        for img in images:
            if 0 < keep <= img.height:
                out = crop_rows(img, keep)
                assert type(out) is type(img) and out.max_value == img.max_value
                assert np.array_equal(out.samples, img.samples[:keep])
                assert getattr(out, "pattern", None) == getattr(img, "pattern", None)
            else:
                with pytest.raises(ValueError, match="keep_top"):
                    crop_rows(img, keep)
        assert checks == []
        assert images[0].samples.shape == (5, 4)



def layouts(array: np.ndarray) -> dict[str, np.ndarray]:
    """Arrays equal to ``array`` (2-d, or 3-d with channels last) in
    different memory layouts."""
    h = array.shape[0]
    planar = np.moveaxis(np.ascontiguousarray(np.moveaxis(array, -1, 0)), 0, -1)
    taller = np.concatenate([array, array[::-1]])
    return {
        "c-order": np.ascontiguousarray(array),
        "fortran": np.asfortranarray(array),
        "planar": planar,
        "row-sliced": np.repeat(array, 2, axis=0)[1::2],
        "planar-row-sliced": np.moveaxis(np.ascontiguousarray(np.moveaxis(taller, -1, 0)), 0, -1)[:h],
        "negative-stride": np.ascontiguousarray(array[::-1, ::-1])[::-1, ::-1],
    }


@st.composite
def layout_samples(draw):
    """(samples, max_value): a 2-d or 3-channel array in one of :func:`layouts`."""
    max_value = draw(st.sampled_from((1, 255, 256, 4095, 65535)))
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    shape += draw(st.sampled_from([(), (3,)]))
    sample = st.one_of(st.sampled_from([0, max_value]), st.integers(0, max_value))
    size = int(np.prod(shape))
    dtype = draw(st.sampled_from([sample_dtype(max_value), np.int64]))
    views = layouts(np.array(draw(st.lists(sample, min_size=size, max_size=size)), dtype=dtype).reshape(shape))
    return views[draw(st.sampled_from(sorted(views)))], max_value


class TestEncoderAnyLayout:
    def test_layouts_differ_in_memory(self):
        array = np.arange(4 * 5 * 3, dtype=np.uint16).reshape(4, 5, 3)
        views = layouts(array)
        for name, view in views.items():
            assert view.shape == array.shape and np.array_equal(view, array), name
        assert views["c-order"].flags.c_contiguous
        assert views["fortran"].flags.f_contiguous and not views["fortran"].flags.c_contiguous
        for name in ("planar", "planar-row-sliced"):
            assert all(views[name][:, :, c].flags.c_contiguous for c in range(3)), name
        assert not views["row-sliced"].flags.c_contiguous
        assert all(stride < 0 for stride in views["negative-stride"].strides[:2])

    @given(layout_samples())
    def test_bytes_equal_whole_array_oracle(self, case):
        samples, max_value = case
        if samples.ndim == 2:
            images = [GrayImage(samples, max_value), CfaImage(samples, BayerPattern.GBRG, max_value)]
            encode = write_pnm
        else:
            images, encode = [RgbImage(samples, max_value)], write_ppm
        for image in images:
            assert encode(image) == frame_oracles.encode_pnm(image)

    @pytest.mark.parametrize("max_value", [255, 4095])
    def test_each_call_returns_a_fresh_bytearray(self, max_value):
        samples = np.random.default_rng(max_value).integers(0, max_value + 1, size=(3, 4, 3))
        rgb = RgbImage(samples.astype(sample_dtype(max_value)), max_value)
        for image, encode in [(rgb, write_ppm), (GrayImage(rgb.samples[:, :, 1], max_value), write_pnm)]:
            want = frame_oracles.encode_pnm(image)
            first, second = encode(image), encode(image)
            assert type(first) is bytearray and first == second == want and first is not second
            first[-1] ^= 1
            first.append(0)  # resizable: no array view of the payload is left holding it
            assert second == want


@st.composite
def rgb_images(draw):
    """RGB images, interleaved or channel-planar, with any channels constant."""
    max_value = draw(st.sampled_from((1, 255, 256, 4095, 65535)))
    h, w = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    sample = st.one_of(st.sampled_from([0, 1, max_value]), st.integers(0, max_value))
    planes = []
    for constant in draw(st.lists(st.booleans(), min_size=3, max_size=3)):
        if constant:
            planes.append(np.full((h, w), draw(sample)))
        else:
            planes.append(np.array(draw(st.lists(sample, min_size=h * w, max_size=h * w))).reshape(h, w))
    if draw(st.booleans()):
        samples = np.stack(planes).astype(sample_dtype(max_value)).transpose(1, 2, 0)
    else:
        samples = np.stack(planes, axis=-1).astype(sample_dtype(max_value))
    return RgbImage(samples, max_value)


class TestEqualizeRgbMatchesPerChannel:
    @given(rgb_images())
    def test_each_channel_is_equalize_histogram_and_owns_its_memory(self, image):
        out = equalize_rgb(image)
        assert out.samples.shape == image.samples.shape
        assert out.samples.dtype == sample_dtype(image.max_value)
        for c in range(3):
            want = equalize_histogram(GrayImage(image.samples[:, :, c], image.max_value)).samples
            assert np.array_equal(out.samples[:, :, c], want)
        before = out.samples.copy()
        image.samples[...] = (image.samples.astype(np.int64) + 1) % (image.max_value + 1)
        assert np.array_equal(out.samples, before)
        assert not np.shares_memory(out.samples, image.samples)


BAND = frames._EQUALIZE_CHUNK
LARGEST = 3 * BAND + 17


def random_plane(draw, shape, max_value) -> np.ndarray:
    """Full-range, narrow, sparse (one heavy level) or constant samples."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["full", "narrow", "sparse", "constant"]))
    if kind == "full":
        return rng.integers(0, max_value + 1, size=shape)
    low = int(rng.integers(0, max_value + 1))
    if kind == "narrow":
        return rng.integers(low, min(low + 3, max_value) + 1, size=shape)
    values = np.full(shape, low)
    if kind == "sparse":
        values.flat[rng.integers(0, values.size, size=3)] = rng.integers(0, max_value + 1, size=3)
    return values


@st.composite
def banded_images(draw, rgb: bool):
    """Gray or RGB images of up to three equalize bands plus a remainder,
    at widths below, at and above one band, in any memory layout."""
    max_value = draw(st.sampled_from((1, 255, 256, 4095, 65535)))
    w = draw(st.one_of(st.integers(1, 700), st.sampled_from([BAND - 1, BAND, BAND + 1, LARGEST])))
    h = draw(st.integers(1, max(1, LARGEST // w)))
    dtype = draw(st.sampled_from([sample_dtype(max_value), np.int64]))
    if rgb:
        values = np.stack([random_plane(draw, (h, w), max_value) for _ in range(3)], axis=-1)
    else:
        values = random_plane(draw, (h, w), max_value)
    views = layouts(values.astype(dtype))
    samples = views[draw(st.sampled_from(sorted(views)))]
    return RgbImage(samples, max_value) if rgb else GrayImage(samples, max_value)


class TestEqualizeInBandsMatchesWholeArrayOracle:
    @settings(max_examples=60, deadline=None)
    @given(banded_images(rgb=False))
    def test_equalize_histogram(self, image):
        out = equalize_histogram(image)
        want = frame_oracles.equalize_plane(image.samples, image.max_value)
        assert np.array_equal(out.samples, want)
        if want is image.samples:  # a constant image comes back as is
            assert out is image
        else:
            assert out.samples.dtype == sample_dtype(image.max_value)

    @settings(max_examples=40, deadline=None)
    @given(banded_images(rgb=True))
    def test_equalize_rgb(self, image):
        out = equalize_rgb(image)
        want = frame_oracles.equalize_rgb(image)
        assert out.samples.dtype == want.samples.dtype
        assert np.array_equal(out.samples, want.samples)
        assert not np.shares_memory(out.samples, image.samples)


def peak_bytes(call):
    """(result, peak bytes allocated while ``call`` ran); tracemalloc sees
    numpy's array buffers as well as Python objects."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestNoFrameSizedTemporaries:
    """The raw-frame calls allocate their output and cache-sized scratch
    only: a temporary the size of a plane (4 MB here) or a frame fails."""

    SLACK = 2 << 20
    SHAPE = (2048, 1024)

    @pytest.fixture
    def planar_rgb(self):
        rng = np.random.default_rng(17)
        planes = rng.integers(0, 4096, size=(3,) + self.SHAPE).astype(np.uint16)
        return RgbImage(planes.transpose(1, 2, 0), 4095)

    def test_equalize_rgb(self, planar_rgb):
        out, peak = peak_bytes(lambda: equalize_rgb(planar_rgb))
        assert peak <= out.samples.nbytes + self.SLACK

    def test_write_ppm(self, planar_rgb):
        out, peak = peak_bytes(lambda: write_ppm(planar_rgb))
        assert peak <= len(out) + self.SLACK

    def test_read_pnm_with_even_length_header(self):
        samples = np.random.default_rng(18).integers(0, 4096, size=self.SHAPE).astype(np.uint16)
        data = bytes(write_pnm(CfaImage(samples, BayerPattern.RGGB, 4095)))
        assert data.startswith(b"P5\n1024 2048\n4095\n")  # 18 bytes: the payload view is aligned
        out, peak = peak_bytes(lambda: read_pnm(data, BayerPattern.RGGB))
        assert np.array_equal(out.samples, samples)
        assert peak <= out.samples.nbytes + self.SLACK


class TestChannelPlanarLayout:
    """Demosaic, row crop and equalize keep each RGB channel one contiguous
    plane; a stride-3 channel fails here."""

    @pytest.mark.parametrize("shape", [(2, 2), (5, 7), (8, 6)])
    @pytest.mark.parametrize("max_value", [255, 4095])
    @pytest.mark.parametrize("constant", [False, True])
    def test_every_channel_is_a_contiguous_plane(self, shape, max_value, constant):
        rng = np.random.default_rng(shape[0] * shape[1])
        values = np.full(shape, 7) if constant else rng.integers(0, max_value + 1, size=shape)
        rgb = demosaic_bilinear(cfa(values, BayerPattern.GRBG, max_value))
        keep = max(1, shape[0] - 1)
        interleaved = RgbImage(np.ascontiguousarray(rgb.samples), max_value)
        outputs = {
            "demosaic": (rgb, shape),
            "crop_rows": (crop_rows(rgb, keep), (keep, shape[1])),
            "equalize": (equalize_rgb(rgb), shape),
            "equalize of crop": (equalize_rgb(crop_rows(rgb, keep)), (keep, shape[1])),
            "equalize of interleaved": (equalize_rgb(interleaved), shape),
        }
        for name, (image, (h, w)) in outputs.items():
            assert image.samples.shape == (h, w, 3), name
            assert image.samples.dtype == sample_dtype(max_value), name
            assert all(image.samples[:, :, c].flags.c_contiguous for c in range(3)), name


class TestLuma:
    def test_weights(self):
        samples = np.zeros((1, 3, 3), dtype=np.uint8)
        samples[0, 0] = (255, 0, 0)
        samples[0, 1] = (0, 255, 0)
        samples[0, 2] = (0, 0, 255)
        out = frame_oracles.luma(RgbImage(samples=samples, max_value=255))
        assert out.samples.tolist() == [[76, 150, 29]]

    def test_whole_frame_window_is_green_plane(self):
        rng = np.random.default_rng(5)
        mosaic = cfa(rng.integers(0, 256, size=(6, 6)))
        g = gray_window(mosaic, 0, 0, 6, 6)
        assert np.array_equal(g.samples, demosaic_bilinear(mosaic).samples[:, :, 1])


class TestNcc:
    def test_self_correlation(self):
        t = gray([[1, 2], [3, 4]])
        assert ncc(t, t) == pytest.approx(1.0)

    def test_inversion_anticorrelates(self):
        t = gray([[1, 2], [3, 4]])
        w = gray(255 - t.samples)
        assert ncc(t, w) == pytest.approx(-1.0)

    def test_constant_degenerate(self):
        t = gray(np.full((3, 3), 7))
        w = gray(np.arange(9).reshape(3, 3))
        with pytest.raises(DegenerateCorrelation):
            ncc(t, w)
        with pytest.raises(DegenerateCorrelation):
            ncc(w, t)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ncc(gray([[1, 2]]), gray([[1], [2]]))

    def test_symmetric(self):
        rng = np.random.default_rng(2)
        a = gray(rng.integers(0, 256, size=(4, 4)))
        b = gray(rng.integers(0, 256, size=(4, 4)))
        assert ncc(a, b) == pytest.approx(ncc(b, a), abs=1e-12)

    def test_affine_invariance(self):
        rng = np.random.default_rng(4)
        a = rng.integers(0, 100, size=(5, 5))
        b = gray(rng.integers(0, 256, size=(5, 5)))
        base = ncc(gray(a, 65535), b)
        scaled = ncc(gray(3 * a + 40, 65535), b)
        assert scaled == pytest.approx(base, abs=1e-12)

    def test_bounded(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a = gray(rng.integers(0, 256, size=(3, 5)))
            b = gray(rng.integers(0, 256, size=(3, 5)))
            assert -1.0 - 1e-12 <= ncc(a, b) <= 1.0 + 1e-12


@st.composite
def ncc_cases(draw):
    """A template of at least 2 pixels and a search window at least as large,
    over few levels so flat patches and repeated windows are common; either
    may be made point-symmetric."""
    th, tw = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    if th * tw < 2:
        tw = 2
    sh, sw = th + draw(st.integers(0, 4)), tw + draw(st.integers(0, 4))
    top = draw(st.sampled_from([0, 1, 3, 255]))

    def patch(h, w):
        values = draw(st.lists(st.integers(0, top), min_size=h * w, max_size=h * w))
        a = np.array(values, dtype=np.uint8).reshape(h, w)
        return np.maximum(a, a[::-1, ::-1]) if draw(st.booleans()) else a

    return patch(th, tw), patch(sh, sw)


class TestNccScoresMatchScalarOracle:
    @given(ncc_cases())
    def test_every_placement(self, case):
        t, s = case
        surface = ncc_surface(gray(t), gray(s))
        th, tw = t.shape
        for y, x in np.ndindex(surface.shape):
            window = gray(s[y : y + th, x : x + tw])
            try:
                expected = ncc(gray(t), window)
            except DegenerateCorrelation:
                assert surface[y, x] == -np.inf
            else:
                assert surface[y, x] == pytest.approx(expected, abs=1e-9)


@st.composite
def clipped_ncc_cases(draw):
    """``ncc_cases``, with either patch optionally saturated at both ends."""
    t, s = draw(ncc_cases())

    def clip(a):
        if not draw(st.booleans()):
            return a
        lo = draw(st.integers(0, int(a.max())))
        return np.clip(a, lo, draw(st.integers(lo, int(a.max()))))

    return clip(t), clip(s)


class TestPreparedTemplate:
    @given(clipped_ncc_cases(), st.randoms(use_true_random=False))
    def test_scores_each_window_it_fits_as_a_fresh_template(self, case, rng):
        t, s = case
        shuffled = np.array(rng.sample(s.ravel().tolist(), s.size), dtype=np.uint8).reshape(s.shape)
        prepared = frames.NccTemplate(gray(t), gray(s, 4095))
        for window in (gray(s), gray(shuffled), gray(shuffled, 4095)):
            assert np.array_equal(prepared.scores([window])[0], ncc_surface(gray(t), window))

    @given(clipped_ncc_cases(), st.randoms(use_true_random=False), st.integers(1, 4))
    def test_stack_of_windows_scores_as_each_window_alone(self, case, rng, k):
        # windows of mixed declared ranges, scored as one stack by a template
        # prepared for the widest: each surface is that of a fresh template
        t, s = case
        windows = [gray(np.array(rng.sample(s.ravel().tolist(), s.size)).reshape(s.shape),
                        rng.choice([255, 4095])) for _ in range(k)]
        widest = max(windows, key=lambda w: w.max_value)
        stacked = frames.NccTemplate(gray(t), widest).scores(windows)
        assert stacked.shape == (k, s.shape[0] - t.shape[0] + 1, s.shape[1] - t.shape[1] + 1)
        for surface, window in zip(stacked, windows):
            assert np.array_equal(surface, ncc_surface(gray(t), window))

    def test_scores_at_full_scale_split_into_bytes(self):
        rng = np.random.default_rng(5)
        t = rng.integers(0, 65536, size=(80, 83))
        first, second = (rng.integers(0, 65536, size=(240, 235)) for _ in range(2))
        prepared = frames.NccTemplate(gray(t, 65535), gray(first, 65535))
        surface = prepared.scores([gray(second, 65535)])[0]
        assert np.array_equal(surface, ncc_surface(gray(t, 65535), gray(second, 65535)))
        assert np.array_equal(prepared.scores([gray(first, 65535), gray(second, 65535)])[1], surface)
        assert np.array_equal(cross_term(t, second, 65535), exact_cross(t, second))
        both = np.stack([first, second])
        assert np.array_equal(cross_term(t, both, 65535)[1], exact_cross(t, second))

    @pytest.mark.parametrize("shape, max_value", [((8, 9), 255), ((9, 9), 4095)])
    def test_window_it_does_not_fit_is_rejected(self, shape, max_value):
        prepared = frames.NccTemplate(gray(np.arange(9).reshape(3, 3)), gray(np.zeros((9, 9))))
        with pytest.raises(ValueError, match="does not fit"):
            prepared.scores([gray(np.ones(shape), max_value)])
        with pytest.raises(ValueError, match="does not fit"):
            prepared.scores([gray(np.ones((9, 9))), gray(np.ones(shape), max_value)])


class TestFftSize:
    def test_fast_length_is_the_least_5_smooth_number_at_least_n(self):
        def smooth(m):
            for p in (2, 3, 5):
                while m % p == 0:
                    m //= p
            return m == 1

        for n in range(1, 4097):
            m = n
            while not smooth(m):
                m += 1
            assert frames._fast_length(n) == m, n


class TestNccScoresMatchEinsumOracle:
    @given(clipped_ncc_cases())
    def test_surface(self, case):
        t, s = case
        got = ncc_surface(gray(t), gray(s))
        want = frame_oracles.ncc_scores(gray(t), gray(s))
        assert got.shape == want.shape
        assert np.array_equal(got == -np.inf, want == -np.inf)
        finite = want != -np.inf
        assert np.allclose(got[finite], want[finite], rtol=0.0, atol=1e-9)

    @given(clipped_ncc_cases(), st.none() | st.tuples(st.floats(-2, 9), st.floats(-2, 9)))
    def test_match_offsets(self, case, preferred):
        t, s = case
        m = ncc_match(gray(t), gray(s), preferred_offset=preferred)
        want = frame_oracles.ncc_scores(gray(t), gray(s))
        if np.all(want == -np.inf):
            assert m.degenerate
            return
        ranked = np.sort(want, axis=None)[::-1]
        if ranked.size == 1 or ranked[0] - ranked[1] > 1e-9:
            y, x = np.unravel_index(np.argmax(want), want.shape)
            assert (m.offset_x, m.offset_y) == (x, y) and not m.degenerate


def exact_cross(t, s):
    """Sum of window * template at every placement, in Python-exact int64."""
    windows = np.lib.stride_tricks.sliding_window_view(s.astype(np.int64), t.shape)
    return np.einsum("ijkl,kl->ij", windows, t.astype(np.int64))


class TestFftCrossTermIsExact:
    @pytest.mark.parametrize("size", [64, 256])  # 256: split into bytes
    def test_closed_form_at_full_scale(self, size):
        top = 65535
        flat = np.full((size, size), top, dtype=np.int64)
        checker = np.indices((size, size)).sum(axis=0) % 2 * top
        n = size * size
        assert cross_term(flat, flat, top).tolist() == [[n * top * top]]
        assert cross_term(checker, checker, top).tolist() == [[n // 2 * top * top]]
        assert cross_term(checker, flat, top).tolist() == [[n // 2 * top * top]]

    @pytest.mark.parametrize("th, sh", [(40, 120), (80, 240)])  # 80/240: split into bytes
    def test_random_full_scale(self, th, sh):
        rng = np.random.default_rng(th)
        t = rng.integers(0, 65536, size=(th, th + 3))
        s = rng.integers(0, 65536, size=(sh, sh - 5))
        assert np.array_equal(cross_term(t, s, 65535), exact_cross(t, s))

    def test_scores_at_full_scale(self):
        # binary 16-bit 320 x 320 windows: n * Sw2 - Sw**2 itself passes int64
        rng = np.random.default_rng(3)
        s = rng.integers(0, 2, size=(322, 321)) * 65535
        t = s[1:321, :320]
        surface = ncc_surface(gray(t, 65535), gray(s, 65535))
        assert surface.shape == (3, 2) and surface[1, 0] == 1.0
        assert np.all(surface[surface < 1.0] < 0.1)
        flat = ncc_surface(gray(np.full((320, 320), 65535), 65535), gray(s, 65535))
        assert np.all(flat == -np.inf)


class TestSearchArea:
    def test_hull_plus_margin(self):
        out = search_area(BoundingBox(10, 10, 20, 20), BoundingBox(30, 30, 40, 40), 20)
        assert (out.x_min, out.y_min, out.x_max, out.y_max) == (-10, -10, 60, 60)

    def test_zero_margin_identity(self):
        a = BoundingBox(5, 6, 7, 8)
        out = search_area(a, a, 0)
        assert out == a

    def test_equal_boxes_default_margin(self):
        a = BoundingBox(100, 100, 120, 120)
        out = search_area(a, a)
        assert (out.x_min, out.y_min, out.x_max, out.y_max) == (80, 80, 140, 140)


@st.composite
def placement_cases(draw):
    """A small surface of few integer scores (ties common) with some -inf
    cells (all of them at times), and a preferred offset inside or outside
    it, on a half-pixel grid (distance ties common) or anywhere."""
    h, w = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    cells = draw(st.lists(st.integers(-1, 2), min_size=h * w, max_size=h * w))
    surface = np.array([-np.inf if v < 0 else float(v) for v in cells]).reshape(h, w)
    halves = st.integers(-8, 2 * max(h, w) + 8).map(lambda v: v / 2.0)
    anywhere = st.floats(-4.0, max(h, w) + 4.0)
    return surface, (draw(halves | anywhere), draw(halves | anywhere))


def brute_placement(surface, preferred):
    """(x, y, degenerate) by the tie rule, cell by cell: the highest score,
    then the smallest squared distance to ``preferred``, then row, then
    column; with every cell -inf, the cell nearest the rounded offset."""
    px, py = preferred
    h, w = surface.shape
    best = max(surface.flat)
    if best == -np.inf:
        x = min(range(w), key=lambda col: abs(col - round(px)))
        y = min(range(h), key=lambda row: abs(row - round(py)))
        return x, y, True
    _, y, x = min(((x - px) ** 2 + (y - py) ** 2, y, x)
                  for y in range(h) for x in range(w) if surface[y, x] == best)
    return x, y, False


class TestNccMatch:
    @settings(max_examples=500)
    @given(placement_cases())
    def test_best_placement_follows_the_tie_rule(self, case):
        surface, preferred = case
        m = frames.best_placement(surface, preferred)
        assert (m.offset_x, m.offset_y, m.degenerate) == brute_placement(surface, preferred)
        assert m.score == surface.max()

    def test_planted_template(self):
        rng = np.random.default_rng(13)
        search = rng.integers(0, 256, size=(20, 30))
        template = rng.integers(0, 256, size=(8, 8))
        search[3:11, 7:15] = template
        m = ncc_match(gray(template), gray(search))
        assert (m.offset_x, m.offset_y) == (7, 3)
        assert m.score == pytest.approx(1.0)
        assert not m.degenerate

    def test_equal_sizes_single_placement(self):
        rng = np.random.default_rng(14)
        t = gray(rng.integers(0, 256, size=(5, 5)))
        m = ncc_match(t, t)
        assert (m.offset_x, m.offset_y) == (0, 0)
        assert m.score == pytest.approx(1.0)

    def test_all_degenerate_falls_back_to_preference(self):
        t = gray(np.arange(9).reshape(3, 3))
        flat = gray(np.full((9, 9), 50))
        m = ncc_match(t, flat, preferred_offset=(4.0, 2.0))
        assert m.degenerate
        assert (m.offset_x, m.offset_y) == (4, 2)
        assert m.score == float("-inf")

    def test_degenerate_fallback_clamps(self):
        t = gray(np.arange(9).reshape(3, 3))
        flat = gray(np.full((5, 5), 50))
        m = ncc_match(t, flat, preferred_offset=(99.0, -5.0))
        assert (m.offset_x, m.offset_y) == (2, 0)

    def test_tie_prefers_center(self):
        # periodic search: the template matches at every period; center wins
        t = gray([[0, 255], [255, 0]])
        search = gray(np.indices((7, 7)).sum(axis=0) % 2 * 255)
        m = ncc_match(t, search)
        assert (m.offset_x, m.offset_y) == (2, 2)  # closest scoring cell to center (2.5, 2.5)

    def test_template_larger_than_search(self):
        search = gray(np.zeros((3, 3)))
        with pytest.raises(ValueError, match="^template 5x5 larger than search window 3x3$"):
            ncc_match(gray(np.zeros((5, 5))), search)

    def test_scores_surface_shape(self):
        t = gray(np.arange(4).reshape(2, 2))
        s = gray(np.arange(30).reshape(5, 6))
        assert ncc_surface(t, s).shape == (4, 5)

    def test_degenerate_placements_are_minus_inf(self):
        t = gray(np.arange(4).reshape(2, 2))
        s = np.zeros((4, 6), dtype=np.uint8)
        s[:, 3:] = np.arange(12).reshape(4, 3) * 20
        surface = ncc_surface(t, gray(s))
        assert surface[0, 0] == -np.inf
        assert np.isfinite(surface[0, 4])
