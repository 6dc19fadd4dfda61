import dataclasses
import json
import re

import numpy as np
import pytest

from ecgphase import cli, record_io
from ecgphase.errors import MissingImage
from ecgphase.rasterizer import read_ppm


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

    def test_empty_directory_is_data_error(self, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        code = run(["ingest", "--data-dir", str(empty), "--output-dir", str(tmp_path / "o")])
        assert code == cli.EXIT_DATA


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
        assert run(["render", "--output-dir", str(out)]) == 0
        skipped = json.loads((out / "images" / "render_skipped.json").read_text())
        assert "999" in skipped
        assert not (out / "images" / "999.ppm").exists()

    def test_overflowing_derivative_lands_in_skip_report(self, tmp_path):
        data, out = tmp_path / "data", tmp_path / "out"
        write_disk_records(data, {"100": "MLII", "101": "MLII"})
        # samples up to 1000 / 1e-305 = 1e308 are finite; their derivative is not
        hea = data / "100.hea"
        hea.write_text(hea.read_text().replace("212 200 11 1024", "212 1e-305 11 0"))
        assert run(["ingest", "--data-dir", str(data), "--output-dir", str(out)]) == 0
        with pytest.warns(RuntimeWarning):
            assert run(["render", "--output-dir", str(out)]) == 0
        skipped = json.loads((out / "images" / "render_skipped.json").read_text())
        assert list(skipped) == ["100"] and "non-finite" in skipped["100"]
        assert sorted(p.stem for p in (out / "images").glob("*.ppm")) == ["101"]

    def test_rerender_removes_image_of_skipped_record(self, tmp_path):
        out = tmp_path / "out"
        config = cli.RunConfig(output_dir=str(out))
        cli._save_signal(config, record_io.synth_ecg(2.0, 360.0, record_id="999"))
        assert run(["render", "--output-dir", str(out)]) == 0
        assert (out / "images" / "999.ppm").exists()
        # the same record re-ingested too short to embed
        cli._save_signal(config, record_io.Signal("999", "MLII", 360.0, np.zeros(3)))
        assert run(["render", "--output-dir", str(out)]) == 0
        assert not (out / "images" / "999.ppm").exists()
        with pytest.raises(MissingImage):
            cli._load_images(config, ["999"])


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

    def test_eval_unknown_record(self, trained):
        cfg, _ = trained
        assert run(["eval", "--config", str(cfg), "--records", "102"]) == cli.EXIT_DATA

    def test_corrupt_checkpoint(self, trained):
        cfg, out = trained
        ckpt = out / "model.ckpt"
        good = ckpt.read_bytes()
        try:
            ckpt.write_bytes(good[: len(good) // 2])
            assert run(["eval", "--config", str(cfg)]) == cli.EXIT_DATA
        finally:
            ckpt.write_bytes(good)

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
        assert run(["ingest", "--config", str(bad)]) == cli.EXIT_DATA

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
    ])
    def test_bad_config_file_is_usage_error(self, tmp_path, command, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        out = tmp_path / "o"
        code = run([command, "--config", str(bad), "--output-dir", str(out)])
        assert code == cli.EXIT_USAGE

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

    def test_flag_overrides_config_file(self, tmp_path):
        cfg, out = fast_config(tmp_path, "o", seed=3)
        run(["ingest", "--config", str(cfg), "--seed", "9"])
        resolved = json.loads((out / "run_config.json").read_text())
        assert resolved["seed"] == 9
