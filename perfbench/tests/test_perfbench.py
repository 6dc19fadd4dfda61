"""Checks of the benchmark's own fixtures and gate.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import argparse
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads as wl  # noqa: E402
from ecgphase import neuralnet, pipeline, record_io  # noqa: E402
from ecgphase.pipeline import LabeledImage  # noqa: E402
from ecgphase.record_io import Label  # noqa: E402


def _images(rng, n):
    return [
        LabeledImage(f"r{i:02d}", (rng.random((64, 64, 3)) < 0.1).astype(np.uint8) * 255,
                     Label(i % 2))
        for i in range(n)
    ]


def test_epoch_at_a_time_matches_one_train_call(tmp_path):
    rng = np.random.default_rng(5)
    train_set, test_set = _images(rng, 10), _images(rng, 3)
    model = neuralnet.init_weights(neuralnet.ModelConfig(), seed=3)
    epochs = 3

    whole, whole_metrics = pipeline.train(
        model, train_set, pipeline.TrainConfig(epochs=epochs),
        rng=np.random.default_rng(11), test_set=test_set,
    )
    by_epoch, by_epoch_metrics, seconds = wl.train_by_epoch(
        model, train_set, test_set, np.random.default_rng(11), epochs
    )

    assert len(seconds) == epochs
    for name, m, metrics in (("whole", whole, whole_metrics),
                             ("by_epoch", by_epoch, by_epoch_metrics)):
        neuralnet.save_checkpoint(m, tmp_path / f"{name}.ckpt")
        pipeline.emit_curves(metrics, tmp_path / f"{name}.csv")
    for suffix in ("ckpt", "csv"):
        assert (tmp_path / f"whole.{suffix}").read_bytes() == (
            tmp_path / f"by_epoch.{suffix}"
        ).read_bytes()


def test_format212_fixture_reads_back_within_quantization(tmp_path):
    mv = wl.corpus_signals(seed=4)["208"]
    wl.write_record(tmp_path, "208", mv)
    step = 0.5 / wl.GAIN + 1e-12
    for lead, expected in zip(wl.LEADS, (mv, wl.SECOND_LEAD_SCALE * mv)):
        signal = record_io.load_record(tmp_path / "208.hea", channel=lead)
        assert signal.sampling_rate == wl.SAMPLING_RATE
        assert signal.samples.shape == expected.shape
        assert np.max(np.abs(signal.samples - expected)) <= step


@pytest.mark.parametrize("stored", [True, False])
def test_flipped_output_byte_fails_gate(tmp_path, stored):
    wl.write_record(tmp_path / "data", "100", wl.corpus_signals(seed=2)["100"])
    config = wl.render_records(tmp_path / "data", tmp_path / "out")
    ppm = (config.images_dir() / "100.ppm").read_bytes()
    flipped = bytearray(ppm)
    flipped[len(ppm) // 2] ^= 0x01

    gate = wl.Gate(wl.output_digest([ppm]) if stored else None)
    assert gate.failed_ops(wl.output_digest([ppm]), ops=3) == 0
    assert gate.failed_ops(wl.output_digest([bytes(flipped)]), ops=3) == 3
    assert gate.failed_ops(wl.output_digest([ppm]), ops=3) == 0


def _worker_record(digests):
    """A worker's raw record with one two-op round per digest (None: raised)."""
    rounds = [
        {"ops": 2, "digest": None} if d is None else
        {"ops": 2, "digest": d, "traced": False, "scope": f"round{i}", "wall": 1.0,
         "op_seconds": [0.4, 0.6], "items": 4}
        for i, d in enumerate(digests)
    ]
    return {"setup_s": [1.0], "rounds": rounds, "peak_rss_mb": 100.0, "properties": {}}


def test_summary_gates_rounds_of_every_worker():
    import run

    args = argparse.Namespace(workload="render_long", seed=7, seconds=1.0, trace=0)
    records = [_worker_record(["a", "a"]), _worker_record(["a", "b"]),
               _worker_record([None, None])]
    meta, result = run.summarize(args, records)
    assert (result["attempted"], result["failed"], result["correct"]) == (12, 6, False)
    assert meta["worker_op_s_p50"] == [0.5, 0.5, None]
    assert result["metrics"]["items_per_s"]["value"] == 4.0

    _, result = run.summarize(args, [_worker_record(["a"]), _worker_record(["a"])])
    assert (result["attempted"], result["failed"], result["correct"]) == (4, 0, True)
