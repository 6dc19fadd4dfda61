import dataclasses
import hashlib
import io
import json
import re
import shutil
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ecgphase import cli, neuralnet, record_io
from ecgphase.errors import MissingImage
from ecgphase.rasterizer import read_ppm, write_ppm

# sha256 of out/run_config.json as `render --output-dir out` writes it: every
# default, the published split included
GOLDEN_RUN_CONFIG_SHA256 = "3b7b3b04a9ce011e0b5cb4bdb127a6e868dccad8c8e7e17313bee276cf8992df"


def run(args):
    return cli.main(args)


def fast_config(tmp_path, name, seed=0):
    """Small synthetic run that keeps CLI tests quick."""
    cfg = {
        "output_dir": str(tmp_path / name),
        "seed": seed,
        "synth": True,
        "synth_duration_s": 4.0,
        "epochs": 2,
    }
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return path, tmp_path / name


def npy_bytes(array, allow_pickle=False) -> bytes:
    buf = io.BytesIO()
    np.save(buf, array, allow_pickle=allow_pickle)
    return buf.getvalue()


def write_disk_records(data, first_channels, n_samples=40):
    """Two-lead format-212 records: record id -> name of the first lead."""
    data.mkdir(exist_ok=True)
    header = (
        "{rid} 2 360 {n}\n"
        "{rid}.dat 212 200 11 1024 0 0 0 {ch0}\n"
        "{rid}.dat 212 200 11 1024 0 0 0 V5\n"
    )
    rng = np.random.default_rng(0)
    for rid, ch0 in first_channels.items():
        (data / f"{rid}.hea").write_text(header.format(rid=rid, n=n_samples, ch0=ch0))
        adu = rng.integers(-1000, 1000, size=(n_samples, 2))
        (data / f"{rid}.dat").write_bytes(record_io.encode_format212(adu))


class TestIngest:
    def test_synth_corpus(self, tmp_path):
        cfg, out = fast_config(tmp_path, "a")
        assert run(["ingest", "--config", str(cfg)]) == 0
        signals = sorted(p.stem for p in (out / "signals").glob("*.npy"))
        assert len(signals) == 44
        assert "101" in signals and "210" in signals
        skipped = json.loads((out / "signals" / "skipped.json").read_text())
        assert skipped == {}
        assert (out / "run_config.json").exists()

    def test_synth_subcommand_alias(self, tmp_path):
        cfg, out = fast_config(tmp_path, "b")
        assert run(["synth", "--config", str(cfg)]) == 0
        assert len(list((out / "signals").glob("*.npy"))) == 44

    def test_disk_records_with_exclusions(self, tmp_path):
        data = tmp_path / "data"
        write_disk_records(data, {"100": "MLII", "101": "MLII", "102": "V2", "107": "MLII"})
        out = tmp_path / "out"
        assert run(["ingest", "--data-dir", str(data), "--output-dir", str(out)]) == 0
        ingested = sorted(p.stem for p in (out / "signals").glob("*.npy"))
        assert ingested == ["100", "101"]
        skipped = json.loads((out / "signals" / "skipped.json").read_text())
        assert set(skipped) == {"102", "107"}

    def test_reingest_replaces_signal_cache(self, tmp_path):
        out = tmp_path / "out"
        write_disk_records(tmp_path / "first", {"100": "MLII", "101": "MLII"})
        write_disk_records(tmp_path / "second", {"103": "MLII"})
        for data in ("first", "second"):
            args = ["--data-dir", str(tmp_path / data), "--output-dir", str(out)]
            assert run(["ingest", *args]) == 0
        assert sorted(p.name for p in (out / "signals").iterdir()) == [
            "103.json", "103.npy", "skipped.json",
        ]
        assert run(["render", "--output-dir", str(out)]) == 0
        assert [p.stem for p in (out / "images").glob("*.ppm")] == ["103"]

    def test_csv_records(self, tmp_path):
        data, out = tmp_path / "data", tmp_path / "out"
        write_disk_records(data, {"100": "MLII", "101": "MLII"})
        timed = np.round(np.sin(np.arange(50) / 5.0), 3)
        rows = [f"{i * 0.004:.3f},{v}" for i, v in enumerate(timed)]
        (data / "103.csv").write_text("\n".join(["time_s,voltage_mV", *rows]) + "\n")
        plain = np.linspace(-1.0, 1.0, 40)
        (data / "105.csv").write_text("".join(f"{v}\n" for v in plain))
        (data / "102.csv").write_text("0.1\n0.2\n0.3\n")
        # the same record id as a header record; the CSV replaces it
        (data / "100.csv").write_text("".join(f"{v}\n" for v in -plain))
        args = ["--data-dir", str(data), "--output-dir", str(out), "--csv-sampling-rate", "360"]
        assert run(["ingest", *args]) == 0

        sig_dir = out / "signals"
        assert sorted(p.stem for p in sig_dir.glob("*.npy")) == ["100", "101", "103", "105"]
        skipped = json.loads((sig_dir / "skipped.json").read_text())
        assert list(skipped) == ["102"] and "excluded" in skipped["102"]
        assert np.array_equal(np.load(sig_dir / "103.npy"), timed)
        assert json.loads((sig_dir / "103.json").read_text())["sampling_rate"] == pytest.approx(250.0)
        assert np.array_equal(np.load(sig_dir / "105.npy"), plain)
        assert json.loads((sig_dir / "105.json").read_text())["sampling_rate"] == 360.0
        assert np.array_equal(np.load(sig_dir / "100.npy"), -plain)
        assert json.loads((sig_dir / "100.json").read_text())["channel"] == "csv"

    def test_shadowed_headers_are_not_read(self, tmp_path, monkeypatch):
        data, out = tmp_path / "data", tmp_path / "out"
        write_disk_records(data, {"100": "MLII", "101": "MLII"})
        for rid in ("100", "101"):
            (data / f"{rid}.csv").write_text("0,0.0\n0.004,0.5\n0.008,0.1\n")

        def no_header_read(*args, **kwargs):
            raise AssertionError("a header shadowed by a CSV was read")

        monkeypatch.setattr(record_io, "load_record", no_header_read)
        assert run(["ingest", "--data-dir", str(data), "--output-dir", str(out)]) == 0
        assert sorted(p.stem for p in (out / "signals").glob("*.npy")) == ["100", "101"]

    def test_missing_dat_skips_only_that_record(self, tmp_path):
        data, out = tmp_path / "data", tmp_path / "out"
        write_disk_records(data, {"100": "MLII", "101": "MLII"})
        (data / "100.dat").unlink()
        assert run(["ingest", "--data-dir", str(data), "--output-dir", str(out)]) == 0
        assert [p.stem for p in (out / "signals").glob("*.npy")] == ["101"]
        skipped = json.loads((out / "signals" / "skipped.json").read_text())
        assert list(skipped) == ["100"] and "100.dat" in skipped["100"]

    @pytest.mark.parametrize("bad", ["hea", "csv"])
    def test_csv_decides_a_record_with_both_files(self, tmp_path, bad):
        data, out = tmp_path / "data", tmp_path / "out"
        write_disk_records(data, {"100": "MLII", "101": "MLII"})
        if bad == "hea":
            hea = data / "100.hea"
            hea.write_text(hea.read_text().replace("212 200 11", "212 nan 11"))
            (data / "100.csv").write_text("".join(f"{v}\n" for v in np.linspace(-1.0, 1.0, 40)))
        else:
            (data / "100.csv").write_text("0.1,0.2,0.3\n")
        args = ["--data-dir", str(data), "--output-dir", str(out), "--csv-sampling-rate", "360"]
        assert run(["ingest", *args]) == 0
        ingested = sorted(p.stem for p in (out / "signals").glob("*.npy"))
        skipped = json.loads((out / "signals" / "skipped.json").read_text())
        if bad == "hea":
            assert ingested == ["100", "101"] and skipped == {}
        else:
            assert ingested == ["101"]
            assert list(skipped) == ["100"] and "100.csv" in skipped["100"]

    def test_header_must_name_its_own_record(self, tmp_path):
        data, out = tmp_path / "data", tmp_path / "out"
        write_disk_records(data, {"100": "MLII", "x": "MLII", "a": "MLII"})
        # x.hea names record 100, a.hea names the excluded record 102
        for stem, named in (("x", "100"), ("a", "102")):
            hea = data / f"{stem}.hea"
            hea.write_text(hea.read_text().replace(f"{stem} ", f"{named} ", 1))
        assert run(["ingest", "--data-dir", str(data), "--output-dir", str(out)]) == 0
        assert sorted(p.stem for p in (out / "signals").glob("*.npy")) == ["100"]
        expected = record_io.load_record(data / "100.hea").samples
        assert np.array_equal(np.load(out / "signals" / "100.npy"), expected)
        skipped = json.loads((out / "signals" / "skipped.json").read_text())
        assert skipped == {"a": "a.hea names record '102'", "x": "x.hea names record '100'"}

    def test_text_that_is_not_utf8_skips_only_that_record(self, tmp_path):
        data, out = tmp_path / "data", tmp_path / "out"
        write_disk_records(data, {"100": "MLII", "101": "MLII"})
        hea = data / "100.hea"
        hea.write_bytes(hea.read_bytes().replace(b"MLII", b"ML\xff"))
        (data / "103.csv").write_bytes(b"0.1\n0.2\xe9\n0.3\n")
        args = ["--data-dir", str(data), "--output-dir", str(out), "--csv-sampling-rate", "360"]
        assert run(["ingest", *args]) == 0
        assert [p.stem for p in (out / "signals").glob("*.npy")] == ["101"]
        skipped = json.loads((out / "signals" / "skipped.json").read_text())
        assert sorted(skipped) == ["100", "103"]
        assert "100.hea is not UTF-8" in skipped["100"]
        assert "103.csv is not UTF-8" in skipped["103"]

    def test_empty_directory_is_data_error(self, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        code = run(["ingest", "--data-dir", str(empty), "--output-dir", str(tmp_path / "o")])
        assert code == cli.EXIT_DATA

    def test_failed_ingest_leaves_no_stale_cache(self, tmp_path):
        cfg, out = fast_config(tmp_path, "a")
        assert run(["synth", "--config", str(cfg)]) == 0
        assert run(["render", "--config", str(cfg)]) == 0
        data = tmp_path / "data"
        write_disk_records(data, {"100": "MLII"})
        hea = data / "100.hea"
        hea.write_text(hea.read_text().replace("212 200 11", "212 nan 11"))
        code = run(["ingest", "--data-dir", str(data), "--output-dir", str(out)])
        assert code == cli.EXIT_DATA
        assert not list((out / "signals").glob("*.npy"))
        skipped = json.loads((out / "signals" / "skipped.json").read_text())
        assert list(skipped) == ["100"] and "nan" in skipped["100"]
        # nor does the render that fails after it, so train has nothing old
        assert run(["render", "--output-dir", str(out)]) == cli.EXIT_DATA
        assert not list((out / "images").iterdir())
        assert run(["train", "--config", str(cfg)]) == cli.EXIT_DATA


class TestRender:
    def test_renders_all_cached_signals(self, tmp_path):
        cfg, out = fast_config(tmp_path, "c")
        run(["ingest", "--config", str(cfg)])
        assert run(["render", "--config", str(cfg)]) == 0
        ppms = list((out / "images").glob("*.ppm"))
        assert len(ppms) == 44
        img = read_ppm(ppms[0].read_bytes())
        assert img.shape == (64, 64, 3)

    def test_rerender_bit_identical(self, tmp_path):
        cfg, out = fast_config(tmp_path, "d")
        run(["ingest", "--config", str(cfg)])
        run(["render", "--config", str(cfg)])
        first = {p.name: p.read_bytes() for p in (out / "images").glob("*.ppm")}
        run(["render", "--config", str(cfg)])
        second = {p.name: p.read_bytes() for p in (out / "images").glob("*.ppm")}
        assert first == second

    def test_render_without_ingest_fails(self, tmp_path):
        code = run(["render", "--output-dir", str(tmp_path / "nothing")])
        assert code == cli.EXIT_DATA

    def test_too_short_signal_lands_in_skip_report(self, tmp_path):
        out = tmp_path / "out"
        config = cli.RunConfig(output_dir=str(out))
        # three samples cannot feed the third-order scheme
        short = record_io.Signal("999", "MLII", 360.0, np.array([0.0, 1.0, 0.0]))
        cli._save_signal(config, short)
        cli._save_signal(config, record_io.synth_ecg(2.0, 360.0, record_id="998"))
        assert run(["render", "--output-dir", str(out)]) == 0
        skipped = json.loads((out / "images" / "render_skipped.json").read_text())
        assert list(skipped) == ["999"]
        assert sorted(p.name for p in (out / "images").glob("*.ppm")) == ["998.ppm"]

    def test_overflowing_derivative_lands_in_skip_report(self, tmp_path):
        data, out = tmp_path / "data", tmp_path / "out"
        write_disk_records(data, {"100": "MLII", "101": "MLII"})
        # samples up to 1000 / 1e-305 = 1e308 are finite; their derivative is not
        hea = data / "100.hea"
        hea.write_text(hea.read_text().replace("212 200 11 1024", "212 1e-305 11 0"))
        assert run(["ingest", "--data-dir", str(data), "--output-dir", str(out)]) == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["render", "--output-dir", str(out)]) == 0
        skipped = json.loads((out / "images" / "render_skipped.json").read_text())
        assert list(skipped) == ["100"] and "non-finite" in skipped["100"]
        assert sorted(p.stem for p in (out / "images").glob("*.ppm")) == ["101"]

    def test_constant_record_at_huge_magnitude(self, tmp_path):
        # 1000 ADU / gain 1e-13 is 1e16 mV, where +/- 0.5 mV is below one ulp
        images = []
        for gain in ("1e-13", "200"):
            data, out = tmp_path / gain / "data", tmp_path / gain / "out"
            data.mkdir(parents=True)
            (data / "100.hea").write_text(f"100 1 360 40\n100.dat 212 {gain} 11 0 1000 0 0 MLII\n")
            (data / "100.dat").write_bytes(record_io.encode_format212(np.full((40, 1), 1000)))
            assert run(["ingest", "--data-dir", str(data), "--output-dir", str(out)]) == 0
            assert run(["render", "--output-dir", str(out)]) == 0
            images.append((out / "images" / "100.ppm").read_bytes())
        assert images[0] == images[1]

    def test_signal_named_for_another_record_lands_in_skip_report(self, tmp_path, capsys):
        out = tmp_path / "out"
        config = cli.RunConfig(output_dir=str(out))
        for rid in ("100", "101"):
            cli._save_signal(config, record_io.synth_ecg(2.0, 360.0, record_id=rid))
        meta = out / "signals" / "100.json"
        meta.write_text(meta.read_text().replace('"100"', '"101"'))
        assert run(["render", "--output-dir", str(out)]) == 0
        assert "rendered 1 images, skipped 1" in capsys.readouterr().out
        skipped = json.loads((out / "images" / "render_skipped.json").read_text())
        assert skipped == {"100": "100.json names record '101'"}
        assert sorted(p.name for p in (out / "images").glob("*.ppm")) == ["101.ppm"]

    @pytest.mark.parametrize("suffix, bad", [
        pytest.param(".npy", lambda good: good[: len(good) // 2], id="npy-truncated"),
        pytest.param(".npy", lambda good: npy_bytes(np.zeros(0)), id="npy-no-samples"),
        pytest.param(".npy", lambda good: npy_bytes(np.zeros((8, 2))), id="npy-2d"),
        pytest.param(".npy", lambda good: npy_bytes(np.array(["1.0", "2.0"])), id="npy-strings"),
        pytest.param(".npy", lambda good: npy_bytes(np.array([1.0, None]), allow_pickle=True), id="npy-pickled"),
        pytest.param(".npy", lambda good: good.replace(b"(720,)", b"(720000000000000,)"), id="npy-shape-past-end"),
        pytest.param(".json", lambda good: b"{not json", id="json-not-json"),
        pytest.param(".json", lambda good: good.replace(b"MLII", b"ML\xffI"), id="json-not-utf8"),
        pytest.param(".json", lambda good: b"[]", id="json-list"),
        pytest.param(".json", lambda good: good.replace(b'"channel": "MLII",', b""), id="json-missing-key"),
        pytest.param(".json", lambda good: good.replace(b'"channel"', b'"extra": 1, "channel"'), id="json-extra-key"),
        pytest.param(".json", lambda good: good.replace(b"360.0", b"0"), id="json-rate-0"),
        pytest.param(".json", lambda good: good.replace(b"360.0", b"-5"), id="json-rate-negative"),
        pytest.param(".json", lambda good: good.replace(b"360.0", b'"x"'), id="json-rate-string"),
        pytest.param(".json", lambda good: good.replace(b"360.0", b"null"), id="json-rate-null"),
        pytest.param(".json", lambda good: good.replace(b"360.0", b"NaN"), id="json-rate-nan"),
        pytest.param(".json", lambda good: good.replace(b"360.0", b"1" + b"0" * 400), id="json-rate-huge-int"),
        pytest.param(".json", lambda good: b"[" * 100_000, id="json-nested-too-deep"),
        pytest.param(".json", None, id="json-missing"),
    ])
    def test_bad_cache_pair_lands_in_skip_report(self, tmp_path, capsys, suffix, bad):
        out = tmp_path / "out"
        config = cli.RunConfig(output_dir=str(out))
        for rid in ("100", "101"):
            cli._save_signal(config, record_io.synth_ecg(2.0, 360.0, record_id=rid))
        path = out / "signals" / f"100{suffix}"
        if bad is None:
            path.unlink()
        else:
            path.write_bytes(bad(path.read_bytes()))
        assert run(["render", "--output-dir", str(out)]) == 0
        assert "rendered 1 images, skipped 1" in capsys.readouterr().out
        skipped = json.loads((out / "images" / "render_skipped.json").read_text())
        assert list(skipped) == ["100"] and f"100{suffix}" in skipped["100"]
        assert sorted(p.name for p in (out / "images").glob("*.ppm")) == ["101.ppm"]

    def test_render_of_nothing_is_data_error(self, tmp_path):
        cfg, out = fast_config(tmp_path, "e")
        # one sample per record: too short for any derivative scheme
        assert run(["synth", "--config", str(cfg), "--synth-duration-s", "0.0015"]) == 0
        assert run(["render", "--config", str(cfg)]) == cli.EXIT_DATA
        skipped = json.loads((out / "images" / "render_skipped.json").read_text())
        assert len(skipped) == 44
        assert not list((out / "images").glob("*.ppm"))

    def test_rerender_removes_image_of_skipped_record(self, tmp_path):
        out = tmp_path / "out"
        config = cli.RunConfig(output_dir=str(out))
        cli._save_signal(config, record_io.synth_ecg(2.0, 360.0, record_id="999"))
        assert run(["render", "--output-dir", str(out)]) == 0
        assert (out / "images" / "999.ppm").exists()
        # the same record re-ingested too short to embed
        cli._save_signal(config, record_io.Signal("999", "MLII", 360.0, np.zeros(3)))
        assert run(["render", "--output-dir", str(out)]) == cli.EXIT_DATA
        assert not (out / "images" / "999.ppm").exists()
        with pytest.raises(MissingImage):
            cli._load_images(config, ["999"])


def _traced_peak(command, config) -> int:
    tracemalloc.start()
    try:
        command(config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ingest_and_render_hold_one_record_at_a_time(tmp_path):
    """Each command's traced peak over six records stays within one record's
    samples of its peak over two, and a synthetic ingest's peak grows with
    one record's length, not the corpus's: no command holds the whole corpus."""
    mv = record_io.synth_ecg_irregular(100.0, 360.0, seed=0).samples
    adu = np.rint(mv * 200.0).astype(np.int64)[:, None]
    header = "{rid} 1 360 {n}\n{rid}.dat 212 200 11 0 0 0 0 MLII\n"
    peaks = {}
    for count in (2, 6):
        data, out = tmp_path / f"data{count}", tmp_path / f"out{count}"
        data.mkdir()
        for rid in ("100", "101", "103", "105", "106", "108")[:count]:
            (data / f"{rid}.hea").write_text(header.format(rid=rid, n=len(adu)))
            (data / f"{rid}.dat").write_bytes(record_io.encode_format212(adu))
        config = cli.RunConfig(data_dir=str(data), output_dir=str(out))
        for command in (cli.cmd_ingest, cli.cmd_render):
            peaks[command.__name__, count] = _traced_peak(command, config)
    for name in ("cmd_ingest", "cmd_render"):
        assert peaks[name, 6] - peaks[name, 2] < mv.nbytes, (name, peaks)

    # a generator works in a few record-sized arrays; the corpus is 44 records
    synth = {
        seconds: _traced_peak(cli.cmd_ingest, cli.RunConfig(
            output_dir=str(tmp_path / f"synth{seconds}"), synth=True, synth_duration_s=seconds,
        ))
        for seconds in (10.0, 100.0)
    }
    assert synth[100.0] - synth[10.0] < 4 * mv.nbytes, synth


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cli_train")
    cfg, out = fast_config(tmp_path, "run")
    assert run(["run-all", "--config", str(cfg)]) == 0
    return cfg, out


class TestTrainEval:

    def test_artifacts_exist(self, trained):
        _, out = trained
        assert (out / "model.ckpt").exists()
        assert (out / "curves.csv").exists()
        report = json.loads((out / "report.json").read_text())
        assert len(report["test"]["rows"]) == 11
        assert len(report["train"]["rows"]) == 33
        assert set(report["summary"]) == {
            "train_accuracy", "test_accuracy",
            "healthy_test_accuracy", "unhealthy_test_accuracy",
        }

    def test_curves_rows_match_epochs(self, trained):
        _, out = trained
        lines = (out / "curves.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 2  # header + 2 epochs

    def test_eval_on_test_split(self, trained):
        cfg, out = trained
        assert run(["eval", "--config", str(cfg)]) == 0
        payload = json.loads((out / "eval_report.json").read_text())
        assert len(payload["eval"]["rows"]) == 11

    def test_eval_healthy_subset(self, trained):
        cfg, out = trained
        assert run(["eval", "--config", str(cfg), "--records", "103,112,234"]) == 0
        payload = json.loads((out / "eval_report.json").read_text())
        assert [r["record_id"] for r in payload["eval"]["rows"]] == ["103", "112", "234"]
        assert all(r["label"] == "HEALTHY" for r in payload["eval"]["rows"])

    def test_eval_repeated_record_is_usage_error(self, trained):
        cfg, out = trained
        (out / "eval_report.json").unlink(missing_ok=True)
        assert run(["eval", "--config", str(cfg), "--records", "103,103"]) == cli.EXIT_USAGE
        assert not (out / "eval_report.json").exists()

    def test_eval_unknown_record(self, trained):
        cfg, out = trained
        assert run(["eval", "--config", str(cfg)]) == 0
        written = {name: (out / name).read_bytes() for name in ("run_config.json", "eval_report.json")}
        # 102 is excluded from the label table
        assert run(["eval", "--config", str(cfg), "--records", "102,103"]) == cli.EXIT_USAGE
        assert {name: (out / name).read_bytes() for name in written} == written

    def test_corrupt_checkpoint(self, trained):
        cfg, out = trained
        ckpt = out / "model.ckpt"
        good = ckpt.read_bytes()
        try:
            ckpt.write_bytes(good[: len(good) // 2])
            assert run(["eval", "--config", str(cfg)]) == cli.EXIT_DATA
        finally:
            ckpt.write_bytes(good)

    def test_non_finite_checkpoint_is_data_error(self, trained, capsys):
        cfg, out = trained
        ckpt = out / "model.ckpt"
        good = ckpt.read_bytes()
        model, extra = neuralnet.load_checkpoint(ckpt)
        params = {**neuralnet.parameters(model), "dense_out.bias": np.array([np.nan])}
        (out / "eval_report.json").unlink(missing_ok=True)
        try:
            neuralnet.save_checkpoint(neuralnet.from_parameters(model.config, params), ckpt, extra=extra)
            assert run(["eval", "--config", str(cfg), "--records", "103"]) == cli.EXIT_DATA
        finally:
            ckpt.write_bytes(good)
        assert not (out / "eval_report.json").exists()
        assert "tensor dense_out.bias holds NaN or infinity" in capsys.readouterr().err

    def test_diverging_training_is_data_error(self, tmp_path, capsys):
        # the weights overflow in the first epoch; numpy's warnings are errors
        # under pytest's RuntimeWarning filter, so none may reach either thread
        cfg, out = fast_config(tmp_path, "diverge")
        assert run(["synth", "--config", str(cfg)]) == 0
        assert run(["render", "--config", str(cfg)]) == 0
        argv = ["train", "--config", str(cfg), "--learning-rate", "1e300", "--epochs", "1"]
        assert run(argv) == cli.EXIT_DATA
        assert "the network's output is not finite in training epoch 0" in capsys.readouterr().err
        assert not any((out / name).exists() for name in ("model.ckpt", "curves.csv", "report.json"))

    def test_failed_training_leaves_no_earlier_model(self, tmp_path):
        # eval must not score the model of a train that ran before the failed one
        cfg, out = fast_config(tmp_path, "rerun")
        assert run(["run-all", "--config", str(cfg), "--epochs", "1"]) == 0
        assert run(["eval", "--config", str(cfg)]) == 0
        argv = ["train", "--config", str(cfg), "--learning-rate", "1e300", "--epochs", "1"]
        assert run(argv) == cli.EXIT_DATA
        assert not any((out / name).exists() for name in ("model.ckpt", "curves.csv", "report.json"))
        assert run(["eval", "--config", str(cfg)]) == cli.EXIT_DATA
        assert not (out / "eval_report.json").exists()

    def test_overflowing_checkpoint_is_data_error(self, trained, capsys):
        # finite weights whose forward pass overflows to NaN
        cfg, out = trained
        ckpt = out / "model.ckpt"
        good = ckpt.read_bytes()
        model, extra = neuralnet.load_checkpoint(ckpt)
        params = neuralnet.parameters(model)
        for name in ("conv1.kernels", "dense1.weights"):
            params[name] = params[name] * 1e300
        assert all(np.isfinite(t).all() for t in params.values())
        (out / "eval_report.json").unlink(missing_ok=True)
        try:
            neuralnet.save_checkpoint(neuralnet.from_parameters(model.config, params), ckpt, extra=extra)
            assert run(["eval", "--config", str(cfg), "--records", "103"]) == cli.EXIT_DATA
        finally:
            ckpt.write_bytes(good)
        assert not (out / "eval_report.json").exists()
        assert "the network's output is not finite in evaluation" in capsys.readouterr().err

    def test_checkpoint_of_another_model_config_is_data_error(self, trained, capsys):
        cfg, out = trained
        ckpt = out / "model.ckpt"
        good = ckpt.read_bytes()
        small = neuralnet.ModelConfig(input_size=8, conv_filters=(2, 2), hidden_units=4)
        try:
            neuralnet.save_checkpoint(neuralnet.init_weights(small), ckpt)
            assert run(["eval", "--config", str(cfg)]) == cli.EXIT_DATA
        finally:
            ckpt.write_bytes(good)
        # forward_batch's shape check, the guard kept for this path
        assert "expected (n, 8, 8, 3), got (11, 64, 64, 3)" in capsys.readouterr().err

    def test_image_of_another_size_is_data_error(self, tmp_path, capsys):
        cfg, out = fast_config(tmp_path, "small")
        assert run(["synth", "--config", str(cfg)]) == 0
        assert run(["render", "--config", str(cfg)]) == 0
        small = out / "images" / "103.ppm"
        small.write_bytes(write_ppm(np.zeros((32, 32, 3), dtype=np.uint8)))
        assert run(["train", "--config", str(cfg)]) == cli.EXIT_DATA
        assert f"{small} is 32x32, not 64x64" in capsys.readouterr().err
        assert not (out / "model.ckpt").exists()

    def test_zero_epochs_reports_untrained_model(self, tmp_path):
        cfg, out = fast_config(tmp_path, "zero")
        cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "epochs": 0}))
        assert run(["run-all", "--config", str(cfg)]) == 0
        lines = (out / "curves.csv").read_text().strip().splitlines()
        assert len(lines) == 1  # header only
        report = json.loads((out / "report.json").read_text())
        assert len(report["test"]["rows"]) == 11


class TestDeterminism:
    def test_same_seed_byte_identical_outputs(self, tmp_path):
        # identical config (same output dir) run twice
        cfg, out = fast_config(tmp_path, "same", seed=5)
        outputs = []
        for _ in range(2):
            assert run(["run-all", "--config", str(cfg)]) == 0
            outputs.append(
                (
                    (out / "curves.csv").read_bytes(),
                    (out / "report.json").read_bytes(),
                    (out / "model.ckpt").read_bytes(),
                )
            )
        assert outputs[0] == outputs[1]

    def test_different_seed_differs(self, tmp_path):
        reports = []
        for name, seed in (("s1", 1), ("s2", 2)):
            cfg, out = fast_config(tmp_path, name, seed=seed)
            run(["run-all", "--config", str(cfg)])
            reports.append((out / "model.ckpt").read_bytes())
        assert reports[0] != reports[1]


class TestUsage:
    def test_no_command(self):
        assert run([]) == cli.EXIT_USAGE

    def test_unknown_command(self):
        assert run(["explode"]) == cli.EXIT_USAGE

    def test_bad_flag_value(self):
        assert run(["train", "--epochs", "notanint"]) == cli.EXIT_USAGE

    def test_unknown_config_key(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"no_such_option": 1}')
        assert run(["ingest", "--config", str(bad)]) == cli.EXIT_USAGE

    def test_missing_config_file_is_data_error(self, tmp_path):
        out = tmp_path / "o"
        code = run(["train", "--config", str(tmp_path / "none.json"), "--output-dir", str(out)])
        assert code == cli.EXIT_DATA
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--zoom-range", "1.5"],
        ["--epochs", "-1"],
        ["--batch-size", "0"],
        ["--learning-rate", "0"],
    ])
    def test_bad_train_flag_is_usage_error(self, tmp_path, flags):
        out = tmp_path / "o"
        assert run(["train", "--output-dir", str(out), *flags]) == cli.EXIT_USAGE
        assert not (out / "run_config.json").exists()

    @pytest.mark.parametrize("command, text", [
        ("train", '{"epochs": "5"}'),
        ("render", '{"derivative_scheme": "bogus"}'),
        ("train", '{"epochs": 5,'),
        ("ingest", '{"synth": true, "seed": "x"}'),
        ("ingest", '{"synth": true, "seed": -1}'),
        ("ingest", '{"synth": true, "synth_duration_s": "x"}'),
        ("train", '{"seed": "x"}'),
        ("train", '{"seed": -1}'),
        ("train", '{"synth_duration_s": "x"}'),
        ("train", '{"epochs": 1.0}'),
        ("train", '{"epochs": true}'),
        ("train", '{"learning_rate": NaN}'),
        ("render", '{"viewport_margin": "x"}'),
        ("render", '{"viewport_margin": -1.0}'),
        ("render", '{"q_window_ms": "x"}'),
        ("train", '{"horizontal_flip": "no"}'),
        ("train", '{"split": {"train_healthy": ["101"], "test_healthy": ["103"]}}'),
        ("train", '{"split": {"train_healthy": ["101"], "train_unhealthy": ["106"], '
                  '"test_healthy": "103", "test_unhealthy": ["100"]}}'),
        ("train", '{"split": {"train_healthy": ["101"], "train_unhealthy": ["106"], '
                  '"test_healthy": [], "test_unhealthy": []}}'),
        ("train", '{"split": {"train_healthy": [], "train_unhealthy": [], '
                  '"test_healthy": ["103"], "test_unhealthy": ["100"]}}'),
        ("train", '{"split": null}'),
        ("train", '{"split": {"train_healthy": ["101", "101"], "train_unhealthy": ["106"], '
                  '"test_healthy": ["103"], "test_unhealthy": ["100"]}}'),
        ("train", '[]'),
        ("train", "[" * 100_000),
        ("train", '"abc"'),
        ("ingest", '{"no_such_option": 1}'),
        ("run-all", '{"synth": true, "split": {"train_healthy": ["101", "106"], '
                    '"train_unhealthy": ["100"], "test_healthy": ["103"], "test_unhealthy": ["105"]}}'),
        ("run-all", '{"synth": true, "split": {"train_healthy": ["101", "102"], '
                    '"train_unhealthy": ["106"], "test_healthy": ["103"], "test_unhealthy": ["100"]}}'),
        ("synth", '{"synth_duration_s": 0.001}'),
        ("synth", '{"synth_duration_s": 1e200, "synth_sampling_rate": 1e200}'),
    ])
    def test_bad_config_file_is_usage_error(self, tmp_path, command, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        out = tmp_path / "o"
        code = run([command, "--config", str(bad), "--output-dir", str(out)])
        assert code == cli.EXIT_USAGE
        assert not out.exists()  # no run_config.json or any other file

    def test_every_field_but_split_is_a_flag(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["train", "--help"])
        flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        for f in dataclasses.fields(cli.RunConfig):
            assert ("--" + f.name.replace("_", "-") in flags) == (f.name != "split"), f.name

        cfg, out = fast_config(tmp_path, "flags")
        # the config file sets synth_duration_s 4.0; the flag wins
        flags = ["--no-horizontal-flip", "--channel", "V1", "--synth-duration-s", "3"]
        assert run(["ingest", "--config", str(cfg), *flags]) == 0
        resolved = json.loads((out / "run_config.json").read_text())
        assert resolved["horizontal_flip"] is False
        assert resolved["channel"] == "V1"
        assert resolved["synth_duration_s"] == 3.0

    def test_default_run_config_golden(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["render", "--output-dir", "out"]) == cli.EXIT_DATA  # no signals
        digest = hashlib.sha256((tmp_path / "out" / "run_config.json").read_bytes()).hexdigest()
        assert digest == GOLDEN_RUN_CONFIG_SHA256

    def test_run_config_replays(self, tmp_path):
        cfg, out = fast_config(tmp_path, "replay")
        assert run(["synth", "--config", str(cfg)]) == 0
        resolved = json.loads((out / "run_config.json").read_text())
        assert run(["render", "--config", str(out / "run_config.json")]) == 0
        assert json.loads((out / "run_config.json").read_text()) == {**resolved, "command": "render"}

    def test_flag_overrides_config_file(self, tmp_path):
        cfg, out = fast_config(tmp_path, "o", seed=3)
        run(["ingest", "--config", str(cfg), "--seed", "9"])
        resolved = json.loads((out / "run_config.json").read_text())
        assert resolved["seed"] == 9


# input kind -> the file under the fuzz tree, and the stage that reads it
FUZZ_KINDS = {
    "hea": "data/100.hea", "dat": "data/100.dat", "csv": "data/101.csv",
    "npy": "render/signals/100.npy", "json": "render/signals/100.json", "config": "config.json",
    "ppm": "eval/images/103.ppm", "ckpt": "eval/model.ckpt",
}


def fuzz_argv(kind: str, root: Path) -> list[str]:
    if kind in ("hea", "dat", "csv"):
        return ["ingest", "--data-dir", str(root / "data"), "--output-dir", str(root / "ingest")]
    if kind in ("ppm", "ckpt"):
        return ["eval", "--records", "103", "--output-dir", str(root / "eval")]
    return ["render", "--output-dir", str(root / "render")] + (
        ["--config", str(root / "config.json")] if kind == "config" else []
    )


@pytest.fixture(scope="module")
def fuzz_tree(tmp_path_factory):
    """A tiny copy of every input kind a stage reads, under one output
    directory per stage, each stage run once on it."""
    root = tmp_path_factory.mktemp("fuzz")
    write_disk_records(root / "data", {"100": "MLII"})
    rows = (f"{i / 360.0},{v}" for i, v in enumerate(np.sin(np.arange(40) / 5.0)))
    (root / "data" / "101.csv").write_text("time_s,voltage_mV\n" + "\n".join(rows) + "\n")
    (root / "config.json").write_text(json.dumps({"q_window_ms": 50.0, "viewport_margin": 0.05}))
    render_config = cli.RunConfig(output_dir=str(root / "render"))
    for rid in ("100", "101"):
        cli._save_signal(render_config, record_io.synth_ecg(1.0, 360.0, record_id=rid))
    eval_config = cli.RunConfig(output_dir=str(root / "eval"))
    cli._save_signal(eval_config, record_io.synth_ecg(1.0, 360.0, record_id="103"))
    assert run(["render", "--output-dir", eval_config.output_dir]) == cli.EXIT_OK
    # a paper-sized input with few weights keeps the checkpoint small
    small = neuralnet.ModelConfig(conv_filters=(2, 2), hidden_units=2)
    neuralnet.save_checkpoint(neuralnet.init_weights(small), eval_config.checkpoint_path())
    for kind in FUZZ_KINDS:
        assert run(fuzz_argv(kind, root)) == cli.EXIT_OK, kind
    return root


@st.composite
def mutations(draw, good: bytes) -> bytes:
    """Random bytes, a truncation, or a few bit flips of `good`."""
    how = draw(st.sampled_from(["random", "truncate", "flip"]))
    if how == "random":
        return draw(st.binary(max_size=256))
    if how == "truncate":
        return good[: draw(st.integers(0, len(good) - 1))]
    bad = bytearray(good)
    for i, bit in draw(st.lists(st.tuples(st.integers(0, len(good) - 1), st.integers(0, 7)), min_size=1, max_size=4)):
        bad[i] ^= 1 << bit
    return bytes(bad)


@pytest.mark.parametrize("kind", FUZZ_KINDS)
@settings(max_examples=50, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_bad_input_file_never_exits_internal_error(fuzz_tree, kind, data):
    """Random, truncated or bit-flipped bytes in any one input file make its
    stage succeed or exit 1 or 2, never 3."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "tree"
        shutil.copytree(fuzz_tree, root)
        path = root / FUZZ_KINDS[kind]
        path.write_bytes(data.draw(mutations(path.read_bytes())))
        code = run(fuzz_argv(kind, root))
    assert code in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_DATA)
