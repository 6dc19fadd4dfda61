import numpy as np
import pytest

from ecgphase import phase_space, record_io
from ecgphase.errors import TooShort
from ecgphase.phase_space import DerivativeScheme


def make_signal(samples, rate=1.0, rid="t"):
    return record_io.Signal(rid, "x", rate, np.asarray(samples, dtype=float))


class TestDerivative:
    def test_linear_ramp(self):
        sig = make_signal([0.0, 1.0, 2.0, 3.0])
        d = phase_space.derivative(sig, DerivativeScheme.THIRD_ORDER_FORWARD)
        assert d.tolist() == [1.0]

    def test_cubic_exact(self):
        # x^3 at x = 1..4: f'(1) = 3
        sig = make_signal([1.0, 8.0, 27.0, 64.0])
        d = phase_space.derivative(sig)
        assert d[0] == pytest.approx(3.0, rel=1e-12)

    def test_exact_on_random_cubics(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            coeffs = rng.uniform(-2, 2, size=4)  # a + bx + cx^2 + dx^3
            h = float(rng.uniform(0.05, 0.5))
            n = int(rng.integers(5, 40))
            x = np.arange(n) * h + float(rng.uniform(-1, 1))
            f = coeffs[0] + coeffs[1] * x + coeffs[2] * x**2 + coeffs[3] * x**3
            exact = coeffs[1] + 2 * coeffs[2] * x + 3 * coeffs[3] * x**2
            d = phase_space.derivative(make_signal(f, rate=1.0 / h))
            scale = max(1.0, np.abs(exact[: d.size]).max())
            assert np.max(np.abs(d - exact[: d.size])) / scale < 1e-12

    def test_first_order_scheme(self):
        sig = make_signal([0.0, 2.0, 6.0], rate=2.0)
        d = phase_space.derivative(sig, DerivativeScheme.FIRST_ORDER_FORWARD)
        assert d.tolist() == [4.0, 8.0]

    def test_third_order_convergence_on_sin(self):
        def max_err(h):
            t = np.arange(int(round(4.0 / h)) + 1) * h
            d = phase_space.derivative(make_signal(np.sin(t), rate=1.0 / h))
            return np.max(np.abs(d - np.cos(t[: d.size])))

        for h in (0.08, 0.04, 0.02):
            ratio = max_err(h) / max_err(h / 2)
            assert 6.0 <= ratio <= 10.0

    def test_too_short(self):
        with pytest.raises(TooShort):
            phase_space.derivative(make_signal([1.0, 2.0, 3.0]))
        with pytest.raises(TooShort):
            phase_space.derivative(
                make_signal([1.0]), DerivativeScheme.FIRST_ORDER_FORWARD
            )


class TestEmbed:
    def test_constant_signal(self):
        traj = phase_space.embed(make_signal([5.0] * 5))
        assert len(traj) == 2
        assert np.allclose(traj.points, [[5.0, 0.0], [5.0, 0.0]])

    def test_ramp_slope(self):
        m = 2.5
        sig = make_signal(m * np.arange(10), rate=1.0)
        traj = phase_space.embed(sig)
        assert len(traj) == 7
        assert np.allclose(traj.dv, m)

    def test_lengths_per_scheme(self):
        for n in range(4, 12):
            sig = make_signal(np.sin(np.arange(n)))
            assert len(phase_space.embed(sig, DerivativeScheme.THIRD_ORDER_FORWARD)) == n - 3
            assert len(phase_space.embed(sig, DerivativeScheme.FIRST_ORDER_FORWARD)) == n - 1

    def test_sinusoid_traces_ellipse(self):
        amp, freq, fs = 1.7, 5.0, 1000.0
        w = 2 * np.pi * freq
        t = np.arange(int(fs)) / fs
        traj = phase_space.embed(make_signal(amp * np.sin(w * t), rate=fs))
        residual = (traj.v / amp) ** 2 + (traj.dv / (amp * w)) ** 2 - 1.0
        assert np.abs(residual).max() < 1e-2


class TestPeaks:
    def test_r_peak_simple(self):
        assert phase_space.detect_r_peak(make_signal([0, 1, 3, 1, 0])) == 2

    def test_r_peak_tie_break(self):
        assert phase_space.detect_r_peak(make_signal([3, 1, 3])) == 0

    def test_r_peak_is_argmax(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            sig = make_signal(rng.normal(size=int(rng.integers(1, 200))))
            r = phase_space.detect_r_peak(sig)
            assert np.all(sig.samples[r] >= sig.samples)

    def test_r_peak_on_synth(self):
        sig = record_io.synth_ecg(2.0, 360.0, heart_rate=60.0, noise_amp=0.0)
        r = phase_space.detect_r_peak(sig)
        # R bumps sit at phase 0.4 of each 360-sample beat
        assert r % 360 == int(record_io.R_PHASE * 360)

    def test_scaling_invariance(self):
        rng = np.random.default_rng(5)
        base = rng.normal(size=300)
        for c in (0.5, 2.0, 17.0):
            a, b = make_signal(base), make_signal(c * base)
            assert phase_space.detect_r_peak(a) == phase_space.detect_r_peak(b)
            ra = phase_space.detect_r_peak(a)
            assert phase_space.detect_q_point(a, ra) == phase_space.detect_q_point(b, ra)

    def test_q_point_dip_in_window(self):
        samples = np.zeros(100)
        samples[90] = 5.0   # R
        samples[85] = -2.0  # dip 5 samples before, inside a 50 ms window at 360 Hz
        sig = make_signal(samples, rate=360.0)
        assert phase_space.detect_q_point(sig, 90) == 85

    def test_q_point_monotone_window(self):
        sig = make_signal(np.arange(100, dtype=float), rate=360.0)
        # window is [90 - 18, 90); minimum sits at its left edge
        assert phase_space.detect_q_point(sig, 90) == 72

    def test_q_point_window_past_record_start(self):
        sig = make_signal(np.arange(100, 0, -1, dtype=float) * (np.arange(100) != 3), rate=10_000.0)
        # a window longer than the 90 samples before R starts at 0, even one
        # whose sample count overflows to infinity
        for window_ms in (9.5, 1e3, 1e308):
            assert phase_space.detect_q_point(sig, 90, window_ms) == 3

    def test_q_point_degenerate_r_zero(self):
        sig = make_signal([5.0, 1.0, 0.0], rate=360.0)
        assert phase_space.detect_q_point(sig, 0) == 0


class TestChord:
    def test_adjacent_points(self):
        traj = phase_space.embed(make_signal(np.sin(np.arange(20))))
        chord = phase_space.qr_chord(traj, 3, 4)
        assert chord.q_point == tuple(traj.points[3])
        assert chord.r_point == tuple(traj.points[4])

    def test_synth_chord_r_is_max_v(self):
        sig = record_io.synth_ecg(2.0, 360.0, heart_rate=60.0, noise_amp=0.0)
        traj = phase_space.embed(sig)
        chord = phase_space.chord_for_signal(sig, traj)
        assert chord.r_index > chord.q_index
        assert chord.r_point[0] == pytest.approx(traj.v.max())

    def test_r_in_derivative_tail_clamps(self):
        samples = np.zeros(10)
        samples[-1] = 9.0  # R at the last sample: no derivative there
        sig = make_signal(samples, rate=360.0)
        traj = phase_space.embed(sig)
        chord = phase_space.chord_for_signal(sig, traj)
        assert chord.r_index == len(traj) - 1

