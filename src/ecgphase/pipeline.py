"""Dataset assembly, training loop, and evaluation reports.

The default split reproduces the published 33-train / 11-test record
grouping. Training runs the fixed-epoch gradient-descent loop with
per-epoch augmentation of training images only; test images are always
evaluated untouched.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import NonFinite
from .neuralnet import Model, backward_batch, bce_loss, forward_batch, sgd_step
from .rasterizer import AugmentParams, augment
from .record_io import PUBLISHED_SPLIT, Label, load_labels, quadrant_label

DECISION_THRESHOLD = 0.5  # p >= threshold predicts unhealthy
# images per inference forward. It is part of the output bytes: dense_out's
# GEMM sees the whole chunk, and its bits can depend on the chunk's row
# count. The other layers split a chunk between two threads only where the
# split is exact (see neuralnet)
PREDICT_CHUNK = 16


@dataclass(frozen=True)
class DatasetSplit:
    """Record ids partitioned into train and test; each record's label is
    the label table's."""

    train: tuple[str, ...]
    test: tuple[str, ...]

    def __post_init__(self):
        repeated = sorted(rid for rid, k in Counter(self.all_records).items() if k > 1)
        if repeated:
            raise ValueError(f"records listed more than once: {repeated}")

    @property
    def all_records(self) -> tuple[str, ...]:
        return self.train + self.test


def split_from_quadrants(q: dict) -> DatasetSplit:
    """The split of a table keyed like PUBLISHED_SPLIT.

    Raises ValueError unless `q` maps exactly those four keys to lists of
    record ids of the label table, each under its own label, and both train
    and test hold at least one record.
    """
    if set(q) != set(PUBLISHED_SPLIT) or not all(
        isinstance(ids, (list, tuple)) and all(isinstance(rid, str) for rid in ids)
        for ids in q.values()
    ):
        raise ValueError(f"split must map exactly {sorted(PUBLISHED_SPLIT)} to lists of record ids")
    split = DatasetSplit(
        train=tuple(q["train_healthy"]) + tuple(q["train_unhealthy"]),
        test=tuple(q["test_healthy"]) + tuple(q["test_unhealthy"]),
    )
    if not (split.train and split.test):
        raise ValueError("split needs at least one train and one test record")
    table = load_labels()
    mislabeled = [
        rid for quadrant in PUBLISHED_SPLIT for rid in q[quadrant]
        if table.get(rid) != quadrant_label(quadrant)
    ]
    if mislabeled:
        raise ValueError(f"split records not in the label table under that label: {mislabeled}")
    return split


def default_split() -> DatasetSplit:
    """The published train/test grouping of the 44 records."""
    return split_from_quadrants(PUBLISHED_SPLIT)


@dataclass(frozen=True)
class LabeledImage:
    record_id: str
    image: np.ndarray = field(repr=False)  # uint8 (size, size, 3)
    label: Label


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 175
    learning_rate: float = 0.01
    batch_size: int = 8
    augment: AugmentParams = AugmentParams()

    def __post_init__(self):
        if self.epochs < 0 or self.learning_rate <= 0 or self.batch_size < 1:
            raise ValueError(f"bad training config: {self}")


@dataclass(frozen=True)
class EpochMetrics:
    epoch: int
    train_loss: float
    train_accuracy: float
    test_loss: float
    test_accuracy: float


@dataclass(frozen=True)
class EvalReport:
    """Per-record outcomes plus confusion counts for one labeled set, in the
    shape they take in JSON.

    Each row is {"record_id", "label", "probability", "predicted"} with label
    names; `confusion` holds the four counts.
    """

    rows: tuple[dict, ...]
    confusion: dict
    accuracy: float
    healthy_accuracy: float | None
    unhealthy_accuracy: float | None


@dataclass(frozen=True)
class RunReport:
    """Everything one training/evaluation run produced, reproducibly."""

    seed: int
    config: dict
    train: EvalReport
    test: EvalReport
    summary: dict

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def build_dataset(
    images: dict[str, np.ndarray],
    labels: dict[str, Label],
    split: DatasetSplit,
) -> tuple[list[LabeledImage], list[LabeledImage]]:
    """Assemble (train, test) labeled-image lists in split order; `images`
    and `labels` hold every split record."""
    def lookup(ids) -> list[LabeledImage]:
        return [LabeledImage(record_id=rid, image=images[rid], label=labels[rid]) for rid in ids]

    return lookup(split.train), lookup(split.test)


def _predict_probs(model: Model, images: np.ndarray) -> np.ndarray:
    """Forward pass without retained caches, chunked to bound memory."""
    probs = []
    for start in range(0, images.shape[0], PREDICT_CHUNK):
        probs.append(forward_batch(model, images[start : start + PREDICT_CHUNK])[0])
    return np.concatenate(probs)


def _to_input(image: np.ndarray) -> np.ndarray:
    return image.astype(np.float64) / 255.0


# Weights that overflow make numpy warn and give NaN probabilities. The
# network runs with those warnings off, and a NaN probability (and so a NaN
# loss) raises NonFinite instead. Used as a decorator, np.errstate sets the
# state per call, on the calling thread; `neuralnet` carries it to its worker
_quiet_overflow = np.errstate(over="ignore", invalid="ignore")


def _check_finite(probs: np.ndarray, where: str) -> None:
    if not np.isfinite(probs).all():
        raise NonFinite(f"the network's output is not finite {where}; the weights overflowed")


@_quiet_overflow
def train(
    model: Model,
    train_set: list[LabeledImage],
    config: TrainConfig,
    rng: np.random.Generator,
    test_set: list[LabeledImage] | None = None,
) -> tuple[Model, list[EpochMetrics]]:
    """Fixed-epoch gradient-descent training loop.

    Per epoch: shuffle, augment each training image, batch, forward/backward,
    update. Train metrics come from the augmented training batches (before
    each update); test metrics from the clean test images. `rng` draws every
    shuffle and augmentation, so the result is fixed by its state.
    `train_set` is non-empty. Raises NonFinite once a probability, and so a
    loss, is not finite, as when the learning rate makes the weights
    diverge.
    """
    train_labels = np.array([float(ex.label) for ex in train_set])
    test_inputs = None
    test_labels = None
    if test_set:
        test_inputs = np.stack([_to_input(ex.image) for ex in test_set])
        test_labels = np.array([float(ex.label) for ex in test_set])

    metrics: list[EpochMetrics] = []
    n = len(train_set)
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        loss_sum = 0.0
        correct = 0
        for start in range(0, n, config.batch_size):
            batch_idx = order[start : start + config.batch_size]
            batch_imgs = np.stack(
                [
                    _to_input(augment(train_set[i].image, config.augment, rng))
                    for i in batch_idx
                ]
            )
            batch_y = train_labels[batch_idx]
            probs, cache = forward_batch(model, batch_imgs)
            _check_finite(probs, f"in training epoch {epoch}")
            grads = backward_batch(model, cache, batch_y)
            model = sgd_step(model, grads, config.learning_rate)
            loss_sum += bce_loss(probs, batch_y) * batch_y.size
            correct += int(np.sum((probs >= DECISION_THRESHOLD) == (batch_y == 1.0)))

        if test_inputs is not None:
            test_probs = _predict_probs(model, test_inputs)
            _check_finite(test_probs, f"on the test set after epoch {epoch}")
            test_loss = bce_loss(test_probs, test_labels)
            test_acc = float(
                np.mean((test_probs >= DECISION_THRESHOLD) == (test_labels == 1.0))
            )
        else:
            test_loss = math.nan
            test_acc = math.nan

        metrics.append(
            EpochMetrics(
                epoch=epoch,
                train_loss=loss_sum / n,
                train_accuracy=correct / n,
                test_loss=test_loss,
                test_accuracy=test_acc,
            )
        )

    return model, metrics


@_quiet_overflow
def evaluate(model: Model, labeled_set: list[LabeledImage]) -> EvalReport:
    """Per-record probabilities, predictions, confusion counts, accuracies
    of a non-empty set. Raises NonFinite when a probability is not finite."""
    ordered = sorted(labeled_set, key=lambda ex: ex.record_id)
    inputs = np.stack([_to_input(ex.image) for ex in ordered])
    probs = _predict_probs(model, inputs)
    _check_finite(probs, "in evaluation")

    predicted_unhealthy = probs >= DECISION_THRESHOLD
    is_unhealthy = np.array([ex.label == Label.UNHEALTHY for ex in ordered])
    rows = tuple(
        {
            "record_id": ex.record_id,
            "label": ex.label.name,
            "probability": float(p),
            "predicted": Label(int(u)).name,
        }
        for ex, p, u in zip(ordered, probs, predicted_unhealthy)
    )

    tu = int(np.sum(predicted_unhealthy & is_unhealthy))
    th = int(np.sum(~predicted_unhealthy & ~is_unhealthy))
    fu = int(np.sum(predicted_unhealthy & ~is_unhealthy))
    fh = int(np.sum(~predicted_unhealthy & is_unhealthy))
    n_healthy = th + fu
    n_unhealthy = tu + fh

    return EvalReport(
        rows=rows,
        confusion={
            "true_unhealthy": tu,
            "true_healthy": th,
            "false_unhealthy": fu,
            "false_healthy": fh,
        },
        accuracy=(tu + th) / len(rows),
        healthy_accuracy=(th / n_healthy) if n_healthy else None,
        unhealthy_accuracy=(tu / n_unhealthy) if n_unhealthy else None,
    )


def build_report(
    seed: int,
    config: dict,
    train_report: EvalReport,
    test_report: EvalReport,
) -> RunReport:
    """Combine train and test evaluations into the run summary document."""
    return RunReport(
        seed=seed,
        config=config,
        train=train_report,
        test=test_report,
        summary={
            "train_accuracy": train_report.accuracy,
            "test_accuracy": test_report.accuracy,
            "healthy_test_accuracy": test_report.healthy_accuracy,
            "unhealthy_test_accuracy": test_report.unhealthy_accuracy,
        },
    )


def emit_curves(metrics: list[EpochMetrics], path) -> None:
    """Write per-epoch metrics as CSV with 6-decimal fixed precision."""
    with open(path, "w", newline="") as fh:
        fh.write("epoch,train_loss,train_acc,test_loss,test_acc\n")
        for m in metrics:
            fh.write(
                f"{m.epoch},{m.train_loss:.6f},{m.train_accuracy:.6f},"
                f"{m.test_loss:.6f},{m.test_accuracy:.6f}\n"
            )

