import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ecgphase import record_io
from ecgphase.errors import (
    ChannelAbsent,
    MalformedHeader,
    MalformedRow,
    NonUniformSampling,
    OutOfRange,
    TruncatedData,
    UnsupportedFormat,
)
from ecgphase.record_io import Label

HEADER_100 = (
    "100 2 360 650000\n"
    "100.dat 212 200 11 1024 995 -22131 0 MLII\n"
    "100.dat 212 200 11 1024 1011 20052 0 V5\n"
)


class TestParseHeader:
    def test_two_channel_record(self):
        h = record_io.parse_header(HEADER_100)
        assert h.record_id == "100"
        assert h.n_channels == 2
        assert h.sampling_rate == 360.0
        assert h.n_samples == 650000
        assert [c.name for c in h.channels] == ["MLII", "V5"]
        assert h.channels[0].gain == 200.0
        assert h.channels[0].baseline == 1024
        assert h.channels[0].format_code == 212

    def test_missing_n_samples(self):
        with pytest.raises(MalformedHeader):
            record_io.parse_header("100 2 360\n100.dat 212 200 11 1024 0 0 0 MLII\n")

    def test_unsupported_format(self):
        with pytest.raises(UnsupportedFormat):
            record_io.parse_header("x 1 360 100\nx.dat 16 200 11 1024 0 0 0 MLII\n")

    def test_non_numeric_field(self):
        with pytest.raises(MalformedHeader):
            record_io.parse_header("100 two 360 100\n100.dat 212 200 11 1024 0 0 0 MLII\n")

    def test_too_few_channel_lines(self):
        with pytest.raises(MalformedHeader):
            record_io.parse_header("100 2 360 100\n100.dat 212 200 11 1024 0 0 0 MLII\n")

    def test_short_channel_line(self):
        with pytest.raises(MalformedHeader):
            record_io.parse_header("100 1 360 100\n100.dat 212 200\n")

    def test_comment_lines_ignored(self):
        h = record_io.parse_header(HEADER_100 + "# comment trailer\n")
        assert h.n_channels == 2

    # record lines as WFDB header(5) allows them: base time, base date and a
    # counter frequency after the sampling rate
    @pytest.mark.parametrize("record_line", [
        "100 2 360 650000 0:0:0 01/01/2000",
        "100 2 360 650000 13:05:30",
        "100 2 360/10 650000",
        "100 2 360/10(0) 650000 0:0:0 01/01/2000",
    ])
    def test_record_line_optional_fields(self, record_line):
        h = record_io.parse_header(record_line + HEADER_100[HEADER_100.index("\n"):])
        assert (h.record_id, h.n_channels, h.sampling_rate, h.n_samples) == ("100", 2, 360.0, 650000)

    # gain[(baseline)][/units]; without parentheses the baseline is adc_zero
    @pytest.mark.parametrize("gain_field, gain, baseline", [
        ("200", 200.0, 1024),
        ("200/mV", 200.0, 1024),
        ("200(0)/mV", 200.0, 0),
        ("200(-12)", 200.0, -12),
        ("200.5(7)/uV", 200.5, 7),
    ])
    def test_gain_field_forms(self, gain_field, gain, baseline):
        h = record_io.parse_header(f"100 1 360 100\n100.dat 212 {gain_field} 11 1024 0 0 0 MLII\n")
        assert (h.channels[0].gain, h.channels[0].baseline) == (gain, baseline)

    @pytest.mark.parametrize("header", [
        "100 1 360 100 0:0:0 01/01/2000 extra\n100.dat 212 200 11 1024 0 0 0 MLII\n",
        "100 1 360 100\n100.dat 212 200(0 11 1024 0 0 0 MLII\n",
        "100 1 360 100\n100.dat 212 (0)/mV 11 1024 0 0 0 MLII\n",
        "100 1 360 100\n100.dat 212 200(x)/mV 11 1024 0 0 0 MLII\n",
        "100 1 360 100\n100.dat 212 mV/200 11 1024 0 0 0 MLII\n",
        # a gain or rate that is not finite and positive
        "100 1 360 100\n100.dat 212 nan 11 1024 0 0 0 MLII\n",
        "100 1 360 100\n100.dat 212 inf/mV 11 1024 0 0 0 MLII\n",
        "100 1 nan 100\n100.dat 212 200 11 1024 0 0 0 MLII\n",
        "100 1 inf 100\n100.dat 212 200 11 1024 0 0 0 MLII\n",
    ])
    def test_malformed_optional_fields(self, header):
        with pytest.raises(MalformedHeader):
            record_io.parse_header(header)


class TestFormat212:
    def test_all_zero_group(self):
        assert record_io.decode_format212(b"\x00\x00\x00", 2, 1).ravel().tolist() == [0, 0]

    def test_worked_example(self):
        got = record_io.decode_format212(bytes([0x01, 0x20, 0x02]), 2, 1).ravel()
        assert got.tolist() == [1, 514]

    def test_twos_complement_boundary(self):
        got = record_io.decode_format212(bytes([0xFF, 0x0F, 0x00]), 2, 1).ravel()
        assert got.tolist() == [-1, 0]

    def test_truncated(self):
        with pytest.raises(TruncatedData):
            record_io.decode_format212(b"\x00\x00\x00", 4, 1)

    def test_channel_interleave(self):
        mat = np.array([[1, 2], [3, 4], [5, 6]])
        data = record_io.encode_format212(mat)
        assert np.array_equal(record_io.decode_format212(data, 3, 2), mat)

    def test_encode_zero_pair(self):
        assert record_io.encode_format212(np.zeros((2, 1), dtype=int)) == b"\x00\x00\x00"

    def test_encode_out_of_range(self):
        with pytest.raises(OutOfRange):
            record_io.encode_format212(np.array([[2048]]))
        with pytest.raises(OutOfRange):
            record_io.encode_format212(np.array([[-2049]]))

    def test_roundtrip_random_matrices(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(1, 60))
            c = int(rng.integers(1, 4))
            mat = rng.integers(-2048, 2048, size=(n, c))
            back = record_io.decode_format212(record_io.encode_format212(mat), n, c)
            assert np.array_equal(back, mat)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda c: hnp.arrays(
        np.int64, st.tuples(st.integers(1, 40), st.just(c)), elements=st.integers(-2048, 2047)
    )))
    def test_roundtrip_property(self, mat):
        n, c = mat.shape
        data = record_io.encode_format212(mat)
        assert len(data) == 3 * ((n * c + 1) // 2)
        assert np.array_equal(record_io.decode_format212(data, n, c), mat)
        # an odd sample total decodes without its pad byte as well
        needed = (n * c * 3 + 1) // 2
        assert np.array_equal(record_io.decode_format212(data[:needed], n, c), mat)

    def test_odd_sample_count_without_pad_byte(self):
        # 3 samples need ceil(9/2) = 5 bytes; the 6th pad byte is optional
        mat = np.array([[100], [-200], [300]])
        data = record_io.encode_format212(mat)
        assert np.array_equal(record_io.decode_format212(data[:5], 3, 1), mat)


class TestMillivolts:
    def test_zero_offset(self):
        assert record_io.to_millivolts(1024, 200, 1024) == 0.0

    def test_one_millivolt(self):
        assert record_io.to_millivolts(1224, 200, 1024) == 1.0
        assert record_io.to_millivolts(824, 200, 1024) == -1.0

    def test_affine_in_gain_steps(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = int(rng.integers(-2048, 1848))
            b = int(rng.integers(-500, 500))
            gain = float(rng.uniform(50, 400))
            diff = record_io.to_millivolts(a + gain, gain, b) - record_io.to_millivolts(a, gain, b)
            assert diff == pytest.approx(1.0, abs=1e-12)


class TestSelectChannel:
    def _record(self):
        header = record_io.parse_header(HEADER_100.replace("650000", "3"))
        raw = np.array([[1024, 1024], [1224, 824], [824, 1424]])
        return header, raw

    def test_mlii_selected(self):
        header, raw = self._record()
        sig = record_io.select_channel(header, raw, "MLII")
        assert sig.channel == "MLII"
        assert sig.sampling_rate == 360.0
        assert np.allclose(sig.samples, [0.0, 1.0, -1.0])

    def test_v5_selected(self):
        header, raw = self._record()
        sig = record_io.select_channel(header, raw, "V5")
        assert np.allclose(sig.samples, [0.0, -1.0, 2.0])

    def test_absent_channel(self):
        header, raw = self._record()
        with pytest.raises(ChannelAbsent):
            record_io.select_channel(header, raw, "MLIII")


class TestLabels:
    def test_counts_and_exclusions(self):
        table = record_io.load_labels()
        assert len(table) == 44
        assert sum(1 for v in table.values() if v == Label.HEALTHY) == 11
        assert sum(1 for v in table.values() if v == Label.UNHEALTHY) == 33
        for rid in record_io.EXCLUDED_RECORDS:
            assert rid not in table

    def test_known_lookups(self):
        table = record_io.load_labels()
        assert table["101"] == Label.HEALTHY
        assert table["210"] == Label.UNHEALTHY
        assert table["100"] == Label.UNHEALTHY
        assert "107" not in table


class TestSynthEcg:
    def test_noiseless_periodicity_and_peak(self):
        sig = record_io.synth_ecg(2.0, 360.0, heart_rate=60.0, noise_amp=0.0)
        assert len(sig) == 720
        assert np.array_equal(sig.samples[:360], sig.samples[360:])
        r_amp = dict(zip("PQRST", record_io.ECG_BUMPS))["R"][2]
        assert sig.samples.max() == pytest.approx(r_amp, abs=1e-6)

    def test_deterministic(self):
        a = record_io.synth_ecg(1.0, 360.0, 72.0, noise_amp=0.05, seed=7)
        b = record_io.synth_ecg(1.0, 360.0, 72.0, noise_amp=0.05, seed=7)
        assert np.array_equal(a.samples, b.samples)

    def test_noise_bound(self):
        clean = record_io.synth_ecg(1.0, 360.0, 60.0, noise_amp=0.0, seed=5)
        noisy = record_io.synth_ecg(1.0, 360.0, 60.0, noise_amp=0.05, seed=5)
        assert np.max(np.abs(noisy.samples - clean.samples)) <= 0.05

    def test_heart_rate_bounds(self):
        with pytest.raises(ValueError):
            record_io.synth_ecg(1.0, 360.0, heart_rate=10.0)

    def test_irregular_differs_from_periodic(self):
        reg = record_io.synth_ecg(5.0, 360.0, 60.0, seed=1)
        irr = record_io.synth_ecg_irregular(5.0, 360.0, 60.0, seed=1)
        assert len(reg) == len(irr)
        assert not np.allclose(reg.samples, irr.samples)


class TestLoadCsv:
    def test_two_column(self, tmp_path):
        p = tmp_path / "r.csv"
        h = 1.0 / 360.0
        p.write_text(f"0,0.0\n{h:.12f},0.1\n{2*h:.12f},0.2\n")
        sig = record_io.load_csv(p)
        assert sig.sampling_rate == pytest.approx(360.0, rel=1e-6)
        assert np.allclose(sig.samples, [0.0, 0.1, 0.2])
        assert sig.record_id == "r"

    def test_header_row_skipped(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("time_s,voltage_mV\n0,0.5\n0.01,0.6\n")
        sig = record_io.load_csv(p)
        assert np.allclose(sig.samples, [0.5, 0.6])

    def test_non_uniform(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("0,0.0\n0.001,0.1\n0.003,0.2\n")
        with pytest.raises(NonUniformSampling):
            record_io.load_csv(p)

    @pytest.mark.parametrize("text", [
        "0,0.0\nnan,0.1\n0.002,0.2\n",
        "0,0.0\ninf,0.1\n0.002,0.2\n",
        "nan,0.0\nnan,0.1\n",
    ])
    def test_non_finite_time_step(self, tmp_path, text):
        p = tmp_path / "r.csv"
        p.write_text(text)
        with pytest.raises(NonUniformSampling):
            record_io.load_csv(p)

    def test_malformed_row(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("0,0.0\na,b\n")
        with pytest.raises(MalformedRow):
            record_io.load_csv(p)

    def test_single_column_needs_rate(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("0.1\n0.2\n0.3\n")
        with pytest.raises(MalformedRow):
            record_io.load_csv(p)
        sig = record_io.load_csv(p, sampling_rate=250.0)
        assert sig.sampling_rate == 250.0
        assert len(sig) == 3


class TestLoadRecord:
    def test_disk_roundtrip(self, tmp_path):
        adu = np.array([[1024, 1000], [1124, 1010], [924, 1020], [1024, 1030]])
        (tmp_path / "100.hea").write_text(HEADER_100.replace("650000", "4"))
        (tmp_path / "100.dat").write_bytes(record_io.encode_format212(adu))
        sig = record_io.load_record(tmp_path / "100.hea")
        assert sig.record_id == "100"
        assert np.allclose(sig.samples, [0.0, 0.5, -0.5, 0.0])
