import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from oracles import apply_affine_gather, draw_line, pixel_of, rasterize_loop

from ecgphase import cli, phase_space, rasterizer, record_io
from ecgphase.errors import MalformedPPM, NonFinite
from ecgphase.phase_space import QRChord, Trajectory
from ecgphase.rasterizer import AugmentParams, Viewport

# sha256 of the 44 PPMs (name order) that synth + render write at seed 0,
# and of the PPM of the 30-minute record in TestGoldenImages; both were
# computed with the per-segment loop rasterizer (rasterize_loop's arithmetic
# plus the Liang-Barsky clipper) that the vectorized one replaced
GOLDEN_CORPUS_SHA256 = "2953eeda308dc5f153871dc072c815e9236c5a70dbb1c4cdac96f1ce78afd9c4"
GOLDEN_LONG_SHA256 = "42b85ef93759cd55ec8dc8318c986a566ed50ae0b017c9bfd5477aa0ff6c732c"


def traj_of(points):
    return Trajectory(record_id="t", points=np.asarray(points, dtype=float))


# a trajectory on the integer or the 0.1 grid makes fx * 63 land on .5 ties
# and makes p0 + (p1 - p0) round to another pixel than p1 does
trajectory_points = st.one_of(
    st.lists(st.tuples(c, c), min_size=1, max_size=40)
    for c in (
        st.floats(-1e3, 1e3, allow_nan=False),
        st.integers(-6, 6).map(float),
        st.integers(-30, 30).map(lambda k: k / 10),
    )
)


class TestViewport:
    def test_tight_box(self):
        vp = rasterizer.fit_viewport(traj_of([[0, 0], [1, 2]]), margin=0.0)
        assert (vp.v_min, vp.v_max, vp.dv_min, vp.dv_max) == (0.0, 1.0, 0.0, 2.0)

    def test_margin_is_per_axis_fraction(self):
        vp = rasterizer.fit_viewport(traj_of([[0, 0], [1, 2]]), margin=0.05)
        assert vp.v_min == pytest.approx(-0.05)
        assert vp.v_max == pytest.approx(1.05)
        assert vp.dv_min == pytest.approx(-0.1)
        assert vp.dv_max == pytest.approx(2.1)

    def test_degenerate_point(self):
        vp = rasterizer.fit_viewport(traj_of([[3, 3], [3, 3]]), margin=0.05)
        assert (vp.v_min, vp.v_max, vp.dv_min, vp.dv_max) == (2.5, 3.5, 2.5, 3.5)

    @pytest.mark.parametrize("points, margin", [
        ([[0, -1e308], [1, 1e308]], 0.0),  # the extent itself overflows
        ([[0, 0], [1, 1e308]], 1.0),  # the margin makes it overflow
        ([[0, 1.7976931348623157e308], [1, 1.7976931348623157e308]], 0.0),  # so does its ulp
    ])
    def test_extent_past_float_range_is_non_finite(self, points, margin):
        with pytest.raises(NonFinite, match="spans more than a float holds"):
            rasterizer.fit_viewport(traj_of(points), margin)

    def test_invalid_viewport_rejected(self):
        with pytest.raises(ValueError):
            Viewport(1.0, 1.0, 0.0, 1.0)


class TestRasterize:
    def test_corner_diagonal_has_64_black_pixels(self):
        vp = Viewport(0.0, 1.0, 0.0, 1.0)
        img = rasterizer.rasterize(traj_of([[0, 0], [1, 1]]), None, vp)
        black = np.sum(img[:, :, 0] == 0)
        assert black == 64
        # low-dv corner maps to the bottom row, high-dv to the top
        assert img[63, 0, 0] == 0 and img[0, 63, 0] == 0

    def test_deterministic(self):
        sig = record_io.synth_ecg(1.0, 360.0, 60.0, noise_amp=0.02, seed=4)
        traj = phase_space.embed(sig)
        chord = phase_space.chord_for_signal(sig, traj)
        vp = rasterizer.fit_viewport(traj)
        a = rasterizer.rasterize(traj, chord, vp)
        b = rasterizer.rasterize(traj, chord, vp)
        assert np.array_equal(a, b)

    def test_degenerate_chord_single_pixel(self):
        vp = Viewport(0.0, 1.0, 0.0, 1.0)
        chord = QRChord(q_point=(0.5, 0.5), r_point=(0.5, 0.5), q_index=0, r_index=0)
        base = rasterizer.rasterize(traj_of([[0, 0], [0, 0]]), None, vp)
        img = rasterizer.rasterize(traj_of([[0, 0], [0, 0]]), chord, vp)
        extra = (img[:, :, 0] == 0) & (base[:, :, 0] != 0)
        ys, xs = np.nonzero(extra)
        assert len(ys) == 1
        assert (xs[0], ys[0]) == (32, 31)  # round(0.5 * 63) = 32, y flipped

    def test_every_inside_point_is_black(self):
        rng = np.random.default_rng(9)
        pts = rng.uniform(-1, 1, size=(40, 2))
        traj = traj_of(pts)
        vp = rasterizer.fit_viewport(traj, margin=0.0)
        img = rasterizer.rasterize(traj, None, vp)
        for v, dv in pts:
            x, y = pixel_of(v, dv, vp)
            assert img[y, x, 0] == 0

    def test_point_outside_viewport_rejected(self):
        vp = Viewport(0.0, 1.0, 0.0, 1.0)
        off = QRChord(q_point=(0.5, 0.5), r_point=(1.5, 0.5), q_index=0, r_index=1)
        nan = QRChord(q_point=(0.5, float("nan")), r_point=(0.5, 0.5), q_index=0, r_index=1)
        for traj, chord in [
            (traj_of([[2, 2], [3, 3]]), None),      # entirely outside
            (traj_of([[-1, 0.5], [2, 0.5]]), None),  # crossing the viewport
            (traj_of([[0.5, 1.01]]), None),          # a single point
            (traj_of([[0, 0], [1, 1]]), off),
            (traj_of([[0, 0], [1, 1]]), nan),
        ]:
            with pytest.raises(ValueError, match="outside"):
                rasterizer.rasterize(traj, chord, vp)

    @settings(max_examples=300, deadline=None)
    @example(  # a tie: fx * 63 == 10.5 rounds to 10
        pts=[(1.8, -2.9), (0.9, -2.8), (0.4, 1.8)], constant_axis=None, chord=None, margin=0.0
    )
    @example(  # 0.3 + (0.9 - 0.3) lies one ulp past v_max and is drawn on the edge
        pts=[(0.3, 0.0), (0.9, 1.0)], constant_axis=None, chord=None, margin=0.0
    )
    @example(  # p0 + (p1 - p0) and p1 round to different pixels
        pts=[(0.3, -2.2), (1.9, 0.7), (-1.3, 2.8), (2.2, 0.2), (-1.2, -2.2)],
        constant_axis=None, chord=None, margin=0.05,
    )
    @given(
        pts=trajectory_points,
        constant_axis=st.sampled_from([None, 0, 1]),
        chord=st.none() | st.tuples(st.integers(0, 39), st.integers(0, 39)),
        margin=st.sampled_from([0.0, 0.05]),
    )
    def test_matches_loop_oracle(self, pts, constant_axis, chord, margin):
        points = np.array(pts)
        if constant_axis is not None:
            points[:, constant_axis] = points[0, constant_axis]
        traj = traj_of(points)
        n = len(traj)
        qr = None if chord is None else phase_space.qr_chord(traj, chord[0] % n, chord[1] % n)
        vp = rasterizer.fit_viewport(traj, margin)
        assert np.array_equal(rasterizer.rasterize(traj, qr, vp), rasterize_loop(traj, qr, vp))

    def test_every_delta_matches_scalar_bresenham(self):
        rng = np.random.default_rng(3)
        for dy in range(-63, 64):
            for dx in range(-63, 64):
                # an origin that keeps both end points inside the image
                x0 = int(rng.integers(max(0, -dx), 64 - max(0, dx)))
                y0 = int(rng.integers(max(0, -dy), 64 - max(0, dy)))
                x, y = (np.array([v], dtype=np.int16) for v in (x0, y0))
                mask = rasterizer._draw_segments(x, y, x + dx, y + dy)
                expected = np.full((64, 64, 3), 255, dtype=np.uint8)
                draw_line(expected, x0, y0, x0 + dx, y0 + dy)
                assert np.array_equal(mask, expected[:, :, 0] == 0), (dx, dy, x0, y0)

    def test_noisy_thirty_minute_record_peak_memory(self):
        # uniform noise: nearly every segment is distinct, so none is dropped
        adu = np.random.default_rng(1).integers(-500, 500, size=648_000)
        sig = record_io.Signal("noise", "MLII", 360.0, record_io.to_millivolts(adu, 200.0, 0))
        traj = phase_space.embed(sig)
        chord = phase_space.chord_for_signal(sig, traj)
        vp = rasterizer.fit_viewport(traj, 0.05)
        rasterizer._segment_offsets()  # built once per process, not per call
        tracemalloc.start()
        try:
            rasterizer.rasterize(traj, chord, vp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * traj.points.nbytes, (peak, traj.points.nbytes)

    def test_all_channels_equal(self):
        vp = Viewport(0.0, 1.0, 0.0, 1.0)
        img = rasterizer.rasterize(traj_of([[0, 0], [1, 1]]), None, vp)
        assert np.array_equal(img[:, :, 0], img[:, :, 1])
        assert np.array_equal(img[:, :, 0], img[:, :, 2])


class TestGoldenImages:
    def test_synth_corpus(self, tmp_path):
        for command in ("synth", "render"):
            assert cli.main([command, "--output-dir", str(tmp_path), "--seed", "0"]) == 0
        ppms = sorted((tmp_path / "images").glob("*.ppm"))
        assert len(ppms) == 44
        digest = hashlib.sha256(b"".join(p.read_bytes() for p in ppms)).hexdigest()
        assert digest == GOLDEN_CORPUS_SHA256

    def test_thirty_minute_record(self):
        # an integer ADU random walk, so no libm output (np.exp) feeds the digest
        adu = np.cumsum(np.random.default_rng(0).integers(-3, 4, size=648_000))
        sig = record_io.Signal("long", "MLII", 360.0, record_io.to_millivolts(adu, 200.0, 0))
        traj = phase_space.embed(sig)
        chord = phase_space.chord_for_signal(sig, traj)
        img = rasterizer.rasterize(traj, chord, rasterizer.fit_viewport(traj, 0.05))
        assert hashlib.sha256(rasterizer.write_ppm(img)).hexdigest() == GOLDEN_LONG_SHA256


images = hnp.arrays(
    np.uint8, st.tuples(st.integers(1, 24), st.integers(1, 24), st.just(3))
)


def checkerboard():
    rng = np.random.default_rng(21)
    return rng.integers(0, 256, size=(64, 64, 3)).astype(np.uint8)


class TestAugment:
    def test_zero_params_identity(self):
        img = checkerboard()
        params = AugmentParams(zoom_range=0.0, shear_range=0.0, horizontal_flip=False)
        out = rasterizer.augment(img, params, np.random.default_rng(0))
        assert np.array_equal(out, img)

    def test_forced_flip_mirrors_columns(self):
        img = checkerboard()
        out = rasterizer.apply_affine(img, zoom=1.0, shear=0.0, flip=True)
        assert np.array_equal(out, img[:, ::-1, :])

    def test_double_flip_is_identity(self):
        img = checkerboard()
        once = rasterizer.apply_affine(img, 1.0, 0.0, True)
        twice = rasterizer.apply_affine(once, 1.0, 0.0, True)
        assert np.array_equal(twice, img)

    @settings(max_examples=40, deadline=None)
    @given(images)
    def test_identity_and_double_flip_property(self, img):
        assert np.array_equal(rasterizer.apply_affine(img, 1.0, 0.0, False), img)
        once = rasterizer.apply_affine(img, 1.0, 0.0, True)
        assert np.array_equal(once, img[:, ::-1, :])
        assert np.array_equal(rasterizer.apply_affine(once, 1.0, 0.0, True), img)

    def test_same_rng_state_same_output(self):
        img = checkerboard()
        params = AugmentParams()
        a = rasterizer.augment(img, params, np.random.default_rng(33))
        b = rasterizer.augment(img, params, np.random.default_rng(33))
        assert np.array_equal(a, b)

    def test_zoom_shrinks_content(self):
        img = np.full((64, 64, 3), 255, dtype=np.uint8)
        img[20:44, 20:44, :] = 0
        out = rasterizer.apply_affine(img, zoom=2.0, shear=0.0, flip=False)
        # magnification by 2 should grow the black square
        assert np.sum(out[:, :, 0] < 128) > np.sum(img[:, :, 0] < 128)

    @pytest.mark.parametrize("shape", [(64, 64, 3), (17, 33, 3), (64, 64, 1), (1, 1, 3)])
    def test_matches_gather_oracle(self, shape):
        # 750 random draws per shape, beyond the default ranges too, plus the
        # identity and the pure flip
        rng = np.random.default_rng(sum(shape))
        img = rng.integers(0, 256, size=shape).astype(np.uint8)
        draws = [(1.0, 0.0, False), (1.0, 0.0, True)] + [
            (rng.uniform(0.5, 1.5), rng.uniform(-0.6, 0.6), bool(rng.integers(2)))
            for _ in range(750)
        ]
        for zoom, shear, flip in draws:
            got = rasterizer.apply_affine(img, zoom, shear, flip)
            want = apply_affine_gather(img, zoom, shear, flip)
            draw = (zoom, shear, flip)
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes()), draw
            assert got.flags.c_contiguous

    def test_param_validation(self):
        with pytest.raises(ValueError):
            AugmentParams(zoom_range=1.5)
        with pytest.raises(ValueError):
            AugmentParams(shear_range=2.0)


class TestPpm:
    def test_white_image_bytes(self):
        img = np.full((64, 64, 3), 255, dtype=np.uint8)
        data = rasterizer.write_ppm(img)
        assert data.startswith(b"P6\n64 64\n255\n")
        payload = data[len(b"P6\n64 64\n255\n"):]
        assert len(payload) == 12288
        assert payload == b"\xff" * 12288
        # any mix of whitespace may separate the header fields
        assert np.array_equal(rasterizer.read_ppm(b"P6 \t64\r\n64\t \n255\n" + payload), img)

    def test_roundtrip_random(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            img = rng.integers(0, 256, size=(64, 64, 3)).astype(np.uint8)
            assert np.array_equal(rasterizer.read_ppm(rasterizer.write_ppm(img)), img)

    @settings(max_examples=40, deadline=None)
    @given(images)
    def test_roundtrip_property(self, img):
        data = rasterizer.write_ppm(img)
        assert data.startswith(f"P6\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
        assert np.array_equal(rasterizer.read_ppm(data), img)

    def test_truncated_payload(self):
        data = rasterizer.write_ppm(checkerboard())
        with pytest.raises(MalformedPPM):
            rasterizer.read_ppm(data[:-1])

    def test_bad_magic(self):
        with pytest.raises(MalformedPPM):
            rasterizer.read_ppm(b"P5\n64 64\n255\n" + b"\x00" * 4096)

    def test_bad_maxval(self):
        with pytest.raises(MalformedPPM):
            rasterizer.read_ppm(b"P6\n64 64\n65535\n" + b"\x00" * 24576)

    def test_bad_dims(self):
        with pytest.raises(MalformedPPM):
            rasterizer.read_ppm(b"P6\n0 64\n255\n")
