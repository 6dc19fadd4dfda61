"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Criterion 9 runs `run-all` for five seeds at the full 175 epochs and
dominates the runtime (241 s on a 2-vCPU VM); everything else finishes in
seconds. Set ECGPHASE_MITBIH_DIR to a directory of real .hea/.dat records to
run the statistical-reproduction criterion against the licensed database
instead of the synthetic corpus.
"""

import json
import os
import statistics
from pathlib import Path

import numpy as np
import pytest

from ecgphase import cli, neuralnet, phase_space, pipeline, rasterizer, record_io
from ecgphase.neuralnet import ModelConfig, init_weights
from ecgphase.phase_space import DerivativeScheme
from ecgphase.pipeline import LabeledImage, TrainConfig, default_split
from ecgphase.rasterizer import AugmentParams
from ecgphase.record_io import Label, load_labels
from oracles import conv2d_naive, dense_naive, max_gradient_error, maxpool_naive


def report(num, name, ok):
    print(f"[ACCEPTANCE] criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'}", flush=True)
    assert ok, f"criterion {num} ({name}) failed"


def make_signal(samples, rate=1.0):
    return record_io.Signal("acc", "x", rate, np.asarray(samples, dtype=float))


def test_01_derivative_exactness():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        coeffs = rng.uniform(-2, 2, size=4)
        h = float(rng.uniform(0.05, 0.5))
        n = int(rng.integers(5, 50))
        x = np.arange(n) * h + float(rng.uniform(-1, 1))
        f = coeffs[0] + coeffs[1] * x + coeffs[2] * x**2 + coeffs[3] * x**3
        exact = coeffs[1] + 2 * coeffs[2] * x + 3 * coeffs[3] * x**2
        d = phase_space.derivative(make_signal(f, rate=1.0 / h))
        rel = np.abs(d - exact[: d.size]) / np.maximum(1.0, np.abs(exact[: d.size]))
        worst = max(worst, float(rel.max()))
    poly_ok = worst < 1e-12

    def sin_err(h):
        t = np.arange(int(round(4.0 / h)) + 1) * h
        d = phase_space.derivative(make_signal(np.sin(t), rate=1.0 / h))
        return np.max(np.abs(d - np.cos(t[: d.size])))

    ratios = [sin_err(h) / sin_err(h / 2) for h in (0.08, 0.04, 0.02)]
    ratio_ok = all(6.0 <= r <= 10.0 for r in ratios)
    report(1, "derivative exactness", poly_ok and ratio_ok)


def test_02_codec_round_trip():
    worked = (
        record_io.decode_format212(b"\x00\x00\x00", 2, 1).ravel().tolist() == [0, 0]
        and record_io.decode_format212(bytes([0x01, 0x20, 0x02]), 2, 1).ravel().tolist() == [1, 514]
        and record_io.decode_format212(bytes([0xFF, 0x0F, 0x00]), 2, 1).ravel().tolist() == [-1, 0]
    )
    rng = np.random.default_rng(102)
    roundtrip = True
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        c = int(rng.integers(1, 4))
        mat = rng.integers(-2048, 2048, size=(n, c))
        back = record_io.decode_format212(record_io.encode_format212(mat), n, c)
        if not np.array_equal(back, mat):
            roundtrip = False
            break
    report(2, "format-212 round trip", worked and roundtrip)


def test_03_layer_oracles():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(50):
        h, w = int(rng.integers(2, 11)), int(rng.integers(2, 11))
        c_in, c_out = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        k = int(rng.choice([1, 3, 5]))
        x = rng.normal(size=(h, w, c_in))
        layer = neuralnet.ConvLayer(rng.normal(size=(k, k, c_in, c_out)), rng.normal(size=c_out))
        diff = np.abs(neuralnet.conv2d_forward(x[None], layer)[0] - conv2d_naive(x, layer.kernels, layer.bias))
        worst = max(worst, float(diff.max()))
    for _ in range(50):
        h, w = 2 * int(rng.integers(1, 8)), 2 * int(rng.integers(1, 8))
        c = int(rng.integers(1, 5))
        x = rng.normal(size=(h, w, c))
        fast, fast_arg = (t[0] for t in neuralnet.maxpool_forward(x[None]))
        slow, slow_arg = maxpool_naive(x)
        if not (np.array_equal(fast, slow) and np.array_equal(fast_arg, slow_arg)):
            worst = 1.0
            break
    for _ in range(50):
        n_in, n_out = int(rng.integers(1, 40)), int(rng.integers(1, 25))
        layer = neuralnet.DenseLayer(rng.normal(size=(n_in, n_out)), rng.normal(size=n_out))
        x = rng.normal(size=n_in)
        diff = np.abs(neuralnet.dense_forward(x, layer) - dense_naive(x, layer.weights, layer.bias))
        worst = max(worst, float(diff.max()))
    report(3, "layer forward oracles", worst < 1e-10)


def test_04_gradient_check():
    tiny = ModelConfig(input_size=8, conv_filters=(2, 2), hidden_units=4)
    worst = 0.0
    for seed in range(20):
        model = init_weights(tiny, seed=seed)
        rng = np.random.default_rng(7000 + seed)
        x = rng.uniform(0, 1, (8, 8, 3))
        worst = max(worst, max_gradient_error(model, x, float(seed % 2), eps=1e-4))
    report(4, "gradient check", worst < 1e-4)


NO_AUG = AugmentParams(zoom_range=0.0, shear_range=0.0, horizontal_flip=False)
_overfit_metrics: list = []


def _render_record(sig):
    traj = phase_space.embed(sig, DerivativeScheme.THIRD_ORDER_FORWARD)
    chord = phase_space.chord_for_signal(sig, traj)
    viewport = rasterizer.fit_viewport(traj, 0.05)
    return rasterizer.rasterize(traj, chord, viewport)


def test_05_overfit_smoke():
    examples = []
    for i in range(8):
        if i < 4:
            sig = record_io.synth_ecg(8.0, 360.0, heart_rate=58.0 + 4 * i, noise_amp=0.01, seed=i)
            label = Label.HEALTHY
        else:
            sig = record_io.synth_ecg_irregular(8.0, 360.0, heart_rate=50.0 + 4 * i, seed=i)
            label = Label.UNHEALTHY
        examples.append(LabeledImage(f"s{i}", _render_record(sig), label))

    model = init_weights(ModelConfig(), seed=0)
    rng = np.random.default_rng(np.random.SeedSequence(0))
    # 50-epoch chunks share the model and rng, so the sequence is identical
    # to one 500-epoch run; stop as soon as the target accuracy appears
    metrics = []
    for _ in range(10):
        cfg = TrainConfig(epochs=50, learning_rate=0.01, batch_size=8, augment=NO_AUG)
        model, chunk = pipeline.train(model, examples, cfg, rng=rng)
        metrics.extend(chunk)
        if any(m.train_accuracy == 1.0 for m in chunk):
            break
    _overfit_metrics.extend(metrics)
    report(5, "overfit smoke test", any(m.train_accuracy == 1.0 for m in metrics))


def test_05b_smoothed_loss_trend():
    # companion property on the criterion-5 run: the 10-epoch moving average
    # of the training loss never increases on the separable set
    assert _overfit_metrics, "criterion 5 must run first"
    losses = np.array([m.train_loss for m in _overfit_metrics])
    smooth = np.convolve(losses, np.ones(10) / 10, mode="valid")
    assert len(smooth) < 2 or float(np.diff(smooth).max()) <= 1e-9


def test_06_phase_portrait_sanity():
    amp, freq, fs = 1.4, 4.0, 2000.0
    w = 2 * np.pi * freq
    t = np.arange(int(fs)) / fs
    traj = phase_space.embed(make_signal(amp * np.sin(w * t), rate=fs))
    residual = (traj.v / amp) ** 2 + (traj.dv / (amp * w)) ** 2 - 1.0
    report(6, "phase-portrait ellipse", float(np.abs(residual).max()) < 1e-2)


def test_07_split_fidelity():
    split = default_split()
    table = load_labels()
    train_h = {r for r in split.train if table[r] == Label.HEALTHY}
    train_u = {r for r in split.train if table[r] == Label.UNHEALTHY}
    test_h = {r for r in split.test if table[r] == Label.HEALTHY}
    test_u = {r for r in split.test if table[r] == Label.UNHEALTHY}
    split_ok = (
        train_h == {"101", "113", "115", "117", "121", "122", "123", "230"}
        and test_h == {"103", "112", "234"}
        and train_u == {
            "106", "108", "109", "114", "116", "118", "119", "124", "201", "203",
            "205", "207", "208", "209", "214", "215", "219", "220", "221", "222",
            "223", "228", "231", "232", "233",
        }
        and test_u == {"100", "105", "111", "200", "202", "210", "212", "213"}
    )
    labels_ok = (
        len(table) == 44
        and sum(1 for v in table.values() if v == Label.HEALTHY) == 11
        and sum(1 for v in table.values() if v == Label.UNHEALTHY) == 33
        and all(rid not in table for rid in ("102", "104", "107", "217"))
        and set(table) == set(split.all_records)
    )
    report(7, "split and label fidelity", split_ok and labels_ok)


def test_08_determinism(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "output_dir": str(tmp_path / "run"),
        "seed": 3,
        "synth": True,
        "synth_duration_s": 4.0,
        "epochs": 3,
    }))
    snapshots = []
    for _ in range(2):
        assert cli.main(["run-all", "--config", str(cfg_path)]) == 0
        out = tmp_path / "run"
        snapshots.append(
            tuple((out / name).read_bytes() for name in ("curves.csv", "report.json", "model.ckpt"))
        )
    report(8, "run-all determinism", snapshots[0] == snapshots[1])


def _real_data_dir():
    path = os.environ.get("ECGPHASE_MITBIH_DIR", "")
    if path and any(Path(path).glob("*.hea")):
        return Path(path)
    return None


def test_09_statistical_reproduction(tmp_path):
    # the paper's protocol: five seeded runs of the published configuration
    real_dir = _real_data_dir()
    data = ["--synth"] if real_dir is None else ["--data-dir", str(real_dir)]
    train_accs, test_accs = [], []
    for seed in range(5):
        out = tmp_path / f"seed_{seed}"
        argv = ["run-all", *data, "--output-dir", str(out), "--seed", str(seed),
                "--epochs", "175", "--learning-rate", "0.01", "--batch-size", "8"]
        assert cli.main(argv) == 0
        summary = json.loads((out / "report.json").read_text())["summary"]
        train_accs.append(summary["train_accuracy"])
        test_accs.append(summary["test_accuracy"])
        print(f"  seed {seed}: train {train_accs[-1]:.4f} test {test_accs[-1]:.4f}", flush=True)

    if real_dir is not None:
        median_ok = statistics.median(test_accs) >= 8 / 11
        source = "MIT-BIH"
    else:
        median_ok = statistics.median(test_accs) >= 9 / 11
        source = "synthetic corpus"

    best_ok = max(test_accs) >= 10 / 11
    train_ok = min(train_accs) >= 0.90
    print(f"  [{source}] median test {statistics.median(test_accs):.4f}, "
          f"best {max(test_accs):.4f}, min train {min(train_accs):.4f}", flush=True)
    report(9, f"statistical reproduction ({source})", median_ok and best_ok and train_ok)


def test_10_raster_and_augment_identities():
    rng = np.random.default_rng(110)
    img = rng.integers(0, 256, size=(64, 64, 3)).astype(np.uint8)
    identity_ok = np.array_equal(
        rasterizer.augment(img, NO_AUG, np.random.default_rng(0)), img
    )
    flipped = rasterizer.apply_affine(img, 1.0, 0.0, True)
    flip_ok = np.array_equal(rasterizer.apply_affine(flipped, 1.0, 0.0, True), img)
    ppm_ok = True
    for _ in range(100):
        im = rng.integers(0, 256, size=(64, 64, 3)).astype(np.uint8)
        if not np.array_equal(rasterizer.read_ppm(rasterizer.write_ppm(im)), im):
            ppm_ok = False
            break
    report(10, "raster/augment identities", identity_ok and flip_ok and ppm_ok)
