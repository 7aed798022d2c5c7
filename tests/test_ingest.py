"""Image I/O round trips, HSV conversion, preprocessing fixtures."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thresholdyn.ingest import (
    FIRE_DEFAULT_MASK,
    HsvMask,
    IngestError,
    RgbImage,
    fire_preprocess,
    ice_preprocess,
    load_frame,
    load_video,
    quantize,
    rgb_to_hsv,
    save_frame,
    save_video,
)

from support import measure


def test_pgm_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(0)
    grid = rng.random((9, 13))
    path = tmp_path / "g.pgm"
    save_frame(grid, path)
    loaded = load_frame(path)
    np.testing.assert_array_equal(loaded, quantize(grid).astype(float) / 255.0)
    # a second trip is pure identity
    save_frame(loaded, path)
    np.testing.assert_array_equal(load_frame(path), loaded)


def test_half_gray_quantizes_round_half_up(tmp_path):
    path = tmp_path / "h.pgm"
    save_frame(np.full((4, 4), 0.5), path)
    loaded = load_frame(path)
    np.testing.assert_array_equal(loaded, np.full((4, 4), 128.0 / 255.0))


def test_pgm_extreme_values(tmp_path):
    path = tmp_path / "e.pgm"
    save_frame(np.array([[0.0, 1.0]]), path)
    np.testing.assert_array_equal(load_frame(path), np.array([[0.0, 1.0]]))


def test_ppm_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    img = RgbImage(rng.integers(0, 256, size=(7, 5, 3), dtype=np.uint8))
    path = tmp_path / "c.ppm"
    save_frame(img, path)
    loaded = load_frame(path)
    assert isinstance(loaded, RgbImage)
    np.testing.assert_array_equal(loaded.pixels, img.pixels)


def test_pgm_with_comments(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment\n2 2\n255\n\x00\x7f\x80\xff")
    loaded = load_frame(path)
    np.testing.assert_array_equal(loaded * 255.0, [[0, 127], [128, 255]])


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"Q5\n2 2\n255\n\x00\x00\x00\x00")
    with pytest.raises(IngestError, match="bad.pgm"):
        load_frame(path)


def test_load_requires_whitespace_after_magic(tmp_path):
    # "P501 1" would otherwise read as a 1x1 image, a leading zero on its width
    path = tmp_path / "joined.pgm"
    path.write_bytes(b"P501 1\n255\n\x00")
    with pytest.raises(IngestError, match="whitespace"):
        load_frame(path)


def test_load_rejects_truncated_raster(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n4 4\n255\n\x00\x00")
    with pytest.raises(IngestError, match="byte"):
        load_frame(path)


def test_load_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "long.pgm"
    path.write_bytes(b"P5\n2 1\n255\n\x00\x00\x00")
    with pytest.raises(IngestError, match="holds 3 bytes, expected 2"):
        load_frame(path)


@pytest.mark.parametrize("header", [b"P5\n0 0\n255\n", b"P5\n0 4\n255\n", b"P6\n3 0\n255\n"])
def test_load_rejects_empty_image(tmp_path, header):
    path = tmp_path / "empty.pgm"
    path.write_bytes(header)
    with pytest.raises(IngestError, match="empty"):
        load_frame(path)


# hypothesis: random shapes and 8-bit values, then damaged copies of the file

_shapes = st.tuples(st.integers(1, 12), st.integers(1, 12))


@st.composite
def _pnm_files(draw):
    """(kind, 8-bit pixels) of a grayscale PGM or a color PPM image."""
    kind = draw(st.sampled_from(["pgm", "ppm"]))
    shape = draw(_shapes) + ((3,) if kind == "ppm" else ())
    values = np.array(draw(st.lists(st.integers(0, 255), min_size=int(np.prod(shape)),
                                    max_size=int(np.prod(shape)))), dtype=np.uint8)
    return kind, values.reshape(shape)


def _write(tmp_path_factory, kind, values):
    path = tmp_path_factory.mktemp("pnm") / f"f.{kind}"
    save_frame(RgbImage(values) if kind == "ppm" else values / 255.0, path)
    return path


def _pixels(frame):
    return frame.pixels if isinstance(frame, RgbImage) else quantize(frame)


@settings(max_examples=60, deadline=None)
@given(_pnm_files())
def test_pnm_roundtrip_is_exact(tmp_path_factory, case):
    kind, values = case
    loaded = load_frame(_write(tmp_path_factory, kind, values))
    assert isinstance(loaded, RgbImage) == (kind == "ppm")
    np.testing.assert_array_equal(_pixels(loaded), values)


@settings(max_examples=60, deadline=None)
@given(_pnm_files(), st.data())
def test_truncated_pnm_raises_ingest_error(tmp_path_factory, case, data):
    path = _write(tmp_path_factory, *case)
    raw = path.read_bytes()
    path.write_bytes(raw[: data.draw(st.integers(0, len(raw) - 1))])
    with pytest.raises(IngestError):
        load_frame(path)


@settings(max_examples=100, deadline=None)
@given(_pnm_files(), st.data())
def test_corrupt_pnm_header_raises_ingest_error(tmp_path_factory, case, data):
    # a corrupted header byte either fails with IngestError or, when one
    # whitespace byte replaced another, still reads the same frame
    kind, values = case
    path = _write(tmp_path_factory, kind, values)
    raw = bytearray(path.read_bytes())
    header_end = len(raw) - values.size
    pos = data.draw(st.integers(0, header_end - 1))
    # digits, whitespace and '#' change the header's meaning; other bytes break it
    byte = st.one_of(st.sampled_from(list(b"0123456789 \n#")), st.integers(0, 255))
    raw[pos] = data.draw(byte.filter(lambda b: b != raw[pos]))
    path.write_bytes(bytes(raw))
    try:
        loaded = load_frame(path)
    except IngestError:
        return
    assert bytes(raw[pos : pos + 1]).isspace()
    np.testing.assert_array_equal(_pixels(loaded), values)


def test_rgb_to_hsv_known_colors():
    img = np.array(
        [[[255, 0, 0], [128, 128, 128], [255, 128, 0]]], dtype=np.uint8
    )
    hsv = rgb_to_hsv(RgbImage(img))
    np.testing.assert_allclose(hsv[0, 0], [0.0, 1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(hsv[0, 1], [0.0, 0.0, 128.0 / 255.0], atol=1e-12)
    assert hsv[0, 2, 0] == pytest.approx(60.0 * (128.0 / 255.0), abs=0.1)  # ~30.1 deg
    np.testing.assert_allclose(hsv[0, 2, 1:], [1.0, 1.0], atol=1e-12)


def test_hsv_mask_wraps_hue():
    mask = HsvMask(hue_lo=330.0, hue_hi=30.0, sat_lo=0.5, val_lo=0.5)
    hsv = np.array([[ [350.0, 1.0, 1.0], [20.0, 1.0, 1.0], [180.0, 1.0, 1.0] ]])
    got = mask.contains(hsv)
    assert got.tolist() == [[True, True, False]]


def _blob_frame(size, radius, color=(255, 140, 0), background=(20, 40, 20)):
    """Solid colored disk on a dark background."""
    img = np.zeros((size, size, 3), dtype=np.uint8)
    img[:] = background
    yy, xx = np.indices((size, size))
    inside = (yy - size // 2) ** 2 + (xx - size // 2) ** 2 <= radius**2
    img[inside] = color
    return RgbImage(img)


def test_fire_preprocess_growing_blob_is_nested_chain():
    frames = [_blob_frame(48, r) for r in (5, 8, 11, 14)]
    video = fire_preprocess(frames)
    counts = [measure(f) for f in video]
    assert all(a <= b for a, b in zip(counts, counts[1:]))
    assert counts[0] > 0
    for t in range(len(video) - 1):
        assert np.all(video[t] <= video[t + 1]), f"chain broken at frame {t}"


def test_fire_preprocess_repairs_shrinkage():
    frames = [_blob_frame(48, r) for r in (10, 6, 12)]  # out-of-order shrink
    video = fire_preprocess(frames)
    counts = [measure(f) for f in video]
    assert counts[0] == counts[1] <= counts[2]


def test_fire_preprocess_empty_mask_warns():
    frames = [_blob_frame(32, 6, color=(0, 0, 255))] * 2  # blue: outside mask
    with pytest.warns(RuntimeWarning):
        video = fire_preprocess(frames)
    assert video.sum() == 0


def _ring_frame(size, radius, thickness=1.6, color=(255, 30, 30), touch_border=False):
    """Red circle outline on paper-colored background."""
    img = np.zeros((size, size, 3), dtype=np.uint8)
    img[:] = (200, 190, 170)
    yy, xx = np.indices((size, size))
    cy = cx = size // 2
    if touch_border:
        cy = radius  # circle tangent to the top border
    d = np.sqrt((yy - cy) ** 2 + (xx - cx) ** 2)
    ring = np.abs(d - radius) <= thickness
    img[ring] = color
    return RgbImage(img), (cy, cx)


def test_ice_preprocess_fills_circle():
    frame, (cy, cx) = _ring_frame(48, 14)
    video = ice_preprocess([frame])
    filled = video[0]
    assert filled[cy, cx] == 1.0  # interior recovered
    assert filled[1, 1] == 0.0  # background stays empty
    # close to pi*r^2 including the outline band
    assert measure(filled) == pytest.approx(np.pi * 14**2, rel=0.25)


def test_ice_preprocess_nonincreasing_on_melt():
    frames = [_ring_frame(48, r)[0] for r in (16, 12, 8)]
    video = ice_preprocess(frames)
    counts = [measure(f) for f in video]
    assert counts[0] > counts[1] > counts[2]


def test_ice_preprocess_open_contour_fails_with_frame_index():
    img = np.zeros((32, 32, 3), dtype=np.uint8)
    img[:] = (200, 190, 170)
    img[10, 5:25] = (255, 30, 30)  # a line, not a closed contour
    with pytest.raises(IngestError, match="frame 0"):
        ice_preprocess([RgbImage(img)])


def test_ice_preprocess_no_red_fails():
    img = np.zeros((16, 16, 3), dtype=np.uint8)
    with pytest.raises(IngestError, match="frame 0"):
        ice_preprocess([RgbImage(img)])


def test_video_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    video = (rng.random((4, 10, 12)) > 0.5).astype(float)
    directory = save_video(video, tmp_path / "vid", provenance="synthetic")
    loaded = load_video(directory)
    np.testing.assert_array_equal(loaded, video)
    manifest = json.loads((directory / "manifest.json").read_text())
    assert manifest["binary"] is True
    assert manifest["n_frames"] == 4


def test_load_video_requires_manifest(tmp_path):
    with pytest.raises(IngestError):
        load_video(tmp_path)
