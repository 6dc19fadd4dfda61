import hashlib

import numpy as np
import pytest

from ecgphase import neuralnet as nn
from ecgphase import pipeline
from ecgphase.pipeline import (
    DatasetSplit,
    EpochMetrics,
    LabeledImage,
    TrainConfig,
    default_split,
)
from ecgphase.rasterizer import AugmentParams
from ecgphase.record_io import Label, load_labels

TINY = nn.ModelConfig(input_size=8, conv_filters=(2, 2), hidden_units=4)
NO_AUG = AugmentParams(zoom_range=0.0, shear_range=0.0, horizontal_flip=False)

# sha256 of build_report(7, {"epochs": 3}, ...).to_json() for the zero model on
# a mixed and a healthy-only set; any change to the report's JSON shape changes it
GOLDEN_REPORT_SHA256 = "fdfc1cf3c374978573d0373c8b588620e6f773428d85917db18d52f22e6f0902"


def tiny_images(n, seed=0, size=8):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 256, size=(size, size, 3)).astype(np.uint8) for _ in range(n)]


def tiny_set(labels, seed=0):
    imgs = tiny_images(len(labels), seed=seed)
    return [
        LabeledImage(record_id=f"r{i:03d}", image=img, label=Label(lab))
        for i, (img, lab) in enumerate(zip(imgs, labels))
    ]


def zero_model():
    """Every weight zero, so every probability is exactly sigmoid(0) = 0.5."""
    return nn.Model(
        config=TINY,
        conv1=nn.ConvLayer(np.zeros((3, 3, 3, 2)), np.zeros(2)),
        conv2=nn.ConvLayer(np.zeros((3, 3, 2, 2)), np.zeros(2)),
        dense1=nn.DenseLayer(np.zeros((TINY.flat_dim, 4)), np.zeros(4)),
        dense_out=nn.DenseLayer(np.zeros((4, 1)), np.zeros(1)),
    )


class TestSplit:
    def test_matches_published_table(self):
        split = default_split()
        table = load_labels()
        train_h = {r for r in split.train if table[r] == Label.HEALTHY}
        train_u = {r for r in split.train if table[r] == Label.UNHEALTHY}
        test_h = {r for r in split.test if table[r] == Label.HEALTHY}
        test_u = {r for r in split.test if table[r] == Label.UNHEALTHY}
        assert train_h == {"101", "113", "115", "117", "121", "122", "123", "230"}
        assert test_h == {"103", "112", "234"}
        assert train_u == {
            "106", "108", "109", "114", "116", "118", "119", "124", "201", "203",
            "205", "207", "208", "209", "214", "215", "219", "220", "221", "222",
            "223", "228", "231", "232", "233",
        }
        assert test_u == {"100", "105", "111", "200", "202", "210", "212", "213"}

    def test_sizes_and_disjointness(self):
        split = default_split()
        assert len(split.train) == 33
        assert len(split.test) == 11
        train_ids = set(split.train)
        test_ids = set(split.test)
        assert not train_ids & test_ids
        assert train_ids | test_ids == set(load_labels())

    def test_overlapping_split_rejected(self):
        with pytest.raises(ValueError):
            DatasetSplit(train=("101",), test=("101",))


class TestBuildDataset:
    def images_for(self, record_ids):
        rng = np.random.default_rng(1)
        return {
            rid: rng.integers(0, 256, size=(64, 64, 3)).astype(np.uint8)
            for rid in record_ids
        }

    def test_default_counts(self):
        split = default_split()
        images = self.images_for(split.all_records)
        table = load_labels()
        train, test = pipeline.build_dataset(images, table, split)
        assert tuple(ex.record_id for ex in train) == split.train
        assert tuple(ex.record_id for ex in test) == split.test
        assert all(ex.label == table[ex.record_id] for ex in train + test)
        assert {ex.record_id for ex in test if ex.label == Label.HEALTHY} == {"103", "112", "234"}


class TestTrain:
    def test_zero_epochs_is_identity(self):
        model = nn.init_weights(TINY, seed=0)
        train_set = tiny_set([0, 1])
        out, metrics = pipeline.train(
            model, train_set, TrainConfig(epochs=0),
            rng=np.random.default_rng(np.random.SeedSequence(0)),
        )
        assert metrics == []
        assert np.array_equal(out.conv1.kernels, model.conv1.kernels)

    def test_deterministic_for_fixed_seed(self):
        train_set = tiny_set([0, 1, 1, 0], seed=3)
        test_set = tiny_set([1, 0], seed=4)
        cfg = TrainConfig(epochs=4, batch_size=2)

        runs = []
        for _ in range(2):
            model = nn.init_weights(TINY, seed=11)
            out, metrics = pipeline.train(
                model, train_set, cfg,
                rng=np.random.default_rng(np.random.SeedSequence(11)), test_set=test_set,
            )
            runs.append((out, metrics))
        (m1, met1), (m2, met2) = runs
        assert met1 == met2
        assert np.array_equal(m1.dense1.weights, m2.dense1.weights)
        assert np.array_equal(m1.conv2.kernels, m2.conv2.kernels)

    def test_overfits_small_separable_set(self):
        # distinct random images with consistent labels are separable
        train_set = tiny_set([0, 0, 1, 1], seed=6)
        cfg = TrainConfig(epochs=400, learning_rate=0.01, batch_size=4, augment=NO_AUG)
        model = nn.init_weights(TINY, seed=1)
        _, metrics = pipeline.train(
            model, train_set, cfg, rng=np.random.default_rng(np.random.SeedSequence(1))
        )
        assert any(m.train_accuracy == 1.0 for m in metrics)

    def test_metric_rows_one_per_epoch(self):
        model = nn.init_weights(TINY, seed=0)
        _, metrics = pipeline.train(
            model, tiny_set([0, 1]), TrainConfig(epochs=7),
            rng=np.random.default_rng(np.random.SeedSequence(0)),
        )
        assert [m.epoch for m in metrics] == list(range(7))


class TestEvaluate:
    def test_zero_model_threshold_boundary(self):
        labeled = tiny_set([0, 0, 1, 1], seed=9)
        report = pipeline.evaluate(zero_model(), labeled)
        assert all(row["probability"] == 0.5 for row in report.rows)
        assert all(row["predicted"] == "UNHEALTHY" for row in report.rows)
        assert report.healthy_accuracy == 0.0
        assert report.unhealthy_accuracy == 1.0
        assert report.accuracy == 0.5

    def test_accuracies_recomputable_from_rows(self):
        model = nn.init_weights(TINY, seed=2)
        labeled = tiny_set([0, 1, 1, 0, 1], seed=10)
        report = pipeline.evaluate(model, labeled)
        recomputed = sum(row["label"] == row["predicted"] for row in report.rows) / len(report.rows)
        assert report.accuracy == pytest.approx(recomputed)
        confusion_total = (
            report.confusion["true_unhealthy"] + report.confusion["true_healthy"]
            + report.confusion["false_unhealthy"] + report.confusion["false_healthy"]
        )
        assert confusion_total == len(labeled)

    def test_rows_sorted_by_record_id(self):
        model = nn.init_weights(TINY, seed=2)
        labeled = list(reversed(tiny_set([0, 1, 1], seed=12)))
        report = pipeline.evaluate(model, labeled)
        ids = [row["record_id"] for row in report.rows]
        assert ids == sorted(ids)


class TestCurves:
    def fake_metrics(self, n):
        return [
            EpochMetrics(
                epoch=i,
                train_loss=1.0 / (i + 1),
                train_accuracy=min(1.0, 0.5 + 0.01 * i),
                test_loss=1.1 / (i + 1),
                test_accuracy=min(1.0, 0.4 + 0.01 * i),
            )
            for i in range(n)
        ]

    def test_row_per_epoch(self, tmp_path):
        path = tmp_path / "curves.csv"
        pipeline.emit_curves(self.fake_metrics(175), path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,train_acc,test_loss,test_acc"
        assert len(lines) == 176

    def test_empty_metrics_header_only(self, tmp_path):
        path = tmp_path / "curves.csv"
        pipeline.emit_curves([], path)
        assert path.read_text() == "epoch,train_loss,train_acc,test_loss,test_acc\n"

    def test_roundtrip_precision(self, tmp_path):
        path = tmp_path / "curves.csv"
        metrics = self.fake_metrics(20)
        pipeline.emit_curves(metrics, path)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        assert len(rows) == 20
        for a, (epoch, train_loss, _, _, test_acc) in zip(metrics, rows):
            assert int(epoch) == a.epoch
            assert float(train_loss) == pytest.approx(a.train_loss, abs=1e-6)
            assert float(test_acc) == pytest.approx(a.test_accuracy, abs=1e-6)


class TestRunReport:
    def test_summary_mirrors_evals(self):
        model = nn.init_weights(TINY, seed=2)
        train_rep = pipeline.evaluate(model, tiny_set([0, 1, 1], seed=1))
        test_rep = pipeline.evaluate(model, tiny_set([1, 0], seed=2))
        report = pipeline.build_report(7, {"epochs": 3}, train_rep, test_rep)
        assert report.summary["train_accuracy"] == train_rep.accuracy
        assert report.summary["test_accuracy"] == test_rep.accuracy
        assert report.seed == 7

    def test_json_deterministic(self):
        model = nn.init_weights(TINY, seed=2)
        rep = pipeline.evaluate(model, tiny_set([0, 1], seed=1))
        a = pipeline.build_report(1, {"x": 1}, rep, rep).to_json()
        b = pipeline.build_report(1, {"x": 1}, rep, rep).to_json()
        assert a == b
        assert '"summary"' in a

    def test_golden_bytes(self):
        zero = zero_model()
        mixed = pipeline.evaluate(zero, tiny_set([0, 0, 1, 1], seed=9))
        healthy_only = pipeline.evaluate(zero, tiny_set([0, 0], seed=13))
        assert healthy_only.unhealthy_accuracy is None
        assert all(row["predicted"] == "UNHEALTHY" for row in mixed.rows)
        text = pipeline.build_report(7, {"epochs": 3}, mixed, healthy_only).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_REPORT_SHA256
