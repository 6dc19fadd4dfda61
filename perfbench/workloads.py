"""Workloads, input fixtures and the output gate of the ecgphase benchmark.

Every input is generated from the run's seed and handed to the program only
through its public functions: records are written as MIT-BIH-style format-212
header/signal pairs and read back through `cli.cmd_ingest`, so the benchmark
drives the same path a user does.

- train_paper: the published experiment (44-record corpus, 33/11 split,
  batch 8, lr 0.01, default augmentation), trained one epoch per
  `pipeline.train` call. One op is one epoch; an item is an augmented
  training image.
- render_long: ingest and render one two-lead record six times as long as
  the corpus records (43,200 samples, 2 min at 360 Hz). One op is one
  record; an item is a sample. A full 30-min record renders in about 10 s,
  too few per run for a steady median and tail on a noisy machine; at
  2 min about a fifth of the pixel-space segments are unique, against
  about 0.43 on the 20-s corpus and 0.05 at 30 min.

There is no inference-only workload (`pipeline.evaluate` alone): on a
shared 2-vCPU VM its per-call time moved by up to 40% from one minute to
the next, more than any bound could hold. The forward path is timed on
train_paper, in the per-epoch test pass and the batch-8 layer probe.
"""

from __future__ import annotations

import dataclasses
import hashlib
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ecgphase import cli, neuralnet, phase_space, pipeline, rasterizer, record_io
from ecgphase.pipeline import LabeledImage
from ecgphase.record_io import Label

SAMPLING_RATE = 360.0
GAIN = 200.0          # ADU per mV, as in the MIT-BIH headers
BASELINE = 1024
LEADS = ("MLII", "V1")
SECOND_LEAD_SCALE = -0.5

CORPUS_SECONDS = 20.0
LONG_RECORD = "100"
WARM_RECORD = "101"
LONG_SECONDS = 120.0
TRAIN_EPOCHS = 3
WARM_BATCH = 8
PROBE_REPEATS = 7

EPOCH_CONFIG = pipeline.TrainConfig(epochs=1)
AUGMENT = EPOCH_CONFIG.augment

# distinct SeedSequence entropy per purpose, so inputs never share streams
_CORPUS, _LONG, _WARM = range(3)


# --- fixtures ---

def write_record(data_dir: Path, record_id: str, mlii_mv: np.ndarray) -> np.ndarray:
    """Write a two-lead format-212 record; returns the (n, 2) ADU matrix."""
    leads = np.column_stack([mlii_mv, SECOND_LEAD_SCALE * mlii_mv])
    adu = np.rint(leads * GAIN).astype(np.int64) + BASELINE
    data_dir.mkdir(parents=True, exist_ok=True)
    (data_dir / f"{record_id}.dat").write_bytes(record_io.encode_format212(adu))
    lines = [f"{record_id} {len(LEADS)} {SAMPLING_RATE:g} {adu.shape[0]}"] + [
        f"{record_id}.dat 212 {GAIN:g} 11 {BASELINE} {adu[0, c]} 0 0 {name}"
        for c, name in enumerate(LEADS)
    ]
    (data_dir / f"{record_id}.hea").write_text("\n".join(lines) + "\n")
    return adu


def _seed(*entropy: int) -> int:
    return int(np.random.SeedSequence(list(entropy)).generate_state(1)[0])


def corpus_signals(seed: int) -> dict[str, np.ndarray]:
    """MLII samples (mV) of the 44 labeled records: regular beats for healthy
    records, interval/amplitude jitter and ectopic beats for unhealthy ones."""
    signals = {}
    for i, (rid, label) in enumerate(sorted(record_io.load_labels().items())):
        if label == Label.HEALTHY:
            sig = record_io.synth_ecg(
                CORPUS_SECONDS, SAMPLING_RATE, heart_rate=55.0 + 3.0 * (i % 8),
                noise_amp=0.01, seed=_seed(seed, _CORPUS, i),
            )
        else:
            sig = record_io.synth_ecg_irregular(
                CORPUS_SECONDS, SAMPLING_RATE, heart_rate=50.0 + 3.0 * (i % 12),
                seed=_seed(seed, _CORPUS, i),
            )
        signals[rid] = sig.samples
    return signals


def long_signal(seed: int) -> np.ndarray:
    """LONG_SECONDS of arrhythmic MLII (mV)."""
    return record_io.synth_ecg_irregular(
        LONG_SECONDS, SAMPLING_RATE, heart_rate=72.0, seed=_seed(seed, _LONG)
    ).samples


def render_records(data_dir: Path, out_dir: Path) -> cli.RunConfig:
    """Ingest and render every record under data_dir the way the CLI does."""
    config = cli.RunConfig(data_dir=str(data_dir), output_dir=str(out_dir))
    cli.cmd_ingest(config)
    cli.cmd_render(config)
    return config


def read_image(config: cli.RunConfig, record_id: str) -> np.ndarray:
    return rasterizer.read_ppm((config.images_dir() / f"{record_id}.ppm").read_bytes())


def build_corpus(work: Path, seed: int) -> tuple[list[LabeledImage], list[LabeledImage]]:
    """Write, ingest and render the 44-record corpus; returns (train, test)."""
    for rid, mv in corpus_signals(seed).items():
        write_record(work / "data", rid, mv)
    config = render_records(work / "data", work / "out")
    split = pipeline.default_split()
    images = {rid: read_image(config, rid) for rid in split.all_records}
    return pipeline.build_dataset(images, record_io.load_labels(), split)


def train_by_epoch(model, train_set, test_set, rng, epochs: int):
    """`pipeline.train` one epoch per call on one shared rng.

    Returns (model, per-epoch metrics numbered 0..epochs-1, per-epoch
    seconds). The model and metrics equal those of one
    `pipeline.train(epochs=epochs)` call.
    """
    metrics, seconds = [], []
    for epoch in range(epochs):
        start = time.perf_counter()
        model, (m,) = pipeline.train(model, train_set, EPOCH_CONFIG, rng=rng, test_set=test_set)
        seconds.append(time.perf_counter() - start)
        metrics.append(dataclasses.replace(m, epoch=epoch))
    return model, metrics, seconds


def record_properties(data_dir: Path) -> dict:
    """Records, points per record and the share of pixel-space segments
    that are unique.

    Mirrors the rasterizer's point-to-pixel mapping on the default viewport;
    a segment is keyed by its two pixel end points and counted once per
    record, as a per-record dedupe would.
    """
    size = rasterizer.IMAGE_SIZE
    segments = unique = points = records = 0
    for hea in sorted(data_dir.glob("*.hea")):
        traj = phase_space.embed(record_io.load_record(hea))
        vp = rasterizer.fit_viewport(traj)
        x = np.rint((traj.v - vp.v_min) / (vp.v_max - vp.v_min) * (size - 1)).astype(np.int64)
        y = np.rint((traj.dv - vp.dv_min) / (vp.dv_max - vp.dv_min) * (size - 1)).astype(np.int64)
        key = ((x[:-1] * size + y[:-1]) * size + x[1:]) * size + y[1:]
        segments += key.size
        unique += np.unique(key).size
        points += len(traj)
        records += 1
    return {
        "segment_unique_share": unique / segments,
        "points_per_record": points / records,
        "records": records,
    }


# --- output gate ---

def output_digest(blobs: list[bytes]) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(len(blob).to_bytes(8, "little"))
        h.update(blob)
    return h.hexdigest()


class Gate:
    """Byte-exact output check against a stored digest, or else against the
    first round's outputs so that every repeat must agree with it."""

    def __init__(self, expected: str | None = None):
        self.expected = expected

    def failed_ops(self, digest: str, ops: int) -> int:
        if self.expected is None:
            self.expected = digest
        return 0 if digest == self.expected else ops


class OutputMismatch(Exception):
    pass


# --- workloads ---

@dataclass
class RoundResult:
    op_seconds: list[float]
    items: int
    outputs: list[bytes]


class TrainPaper:
    name = "train_paper"
    min_rounds = 8  # 24 epochs, so the tail percentile lies above p50

    def setup(self, work: Path, seed: int) -> None:
        self.train_set, self.test_set = build_corpus(work, seed)

    def ops(self) -> int:
        return TRAIN_EPOCHS

    def properties(self) -> dict:
        return {"images_per_evaluate": (len(self.train_set) + len(self.test_set)) / 2}

    def round(self, out: Path, seed: int) -> RoundResult:
        init_ss, train_ss = np.random.SeedSequence(seed).spawn(2)
        model = neuralnet.init_weights(neuralnet.ModelConfig(), seed=init_ss)
        model, curves, seconds = train_by_epoch(
            model, self.train_set, self.test_set, np.random.default_rng(train_ss), TRAIN_EPOCHS
        )
        config = {**dataclasses.asdict(EPOCH_CONFIG), "epochs": TRAIN_EPOCHS, "seed": seed}
        out.mkdir(parents=True, exist_ok=True)
        neuralnet.save_checkpoint(model, out / "model.ckpt", extra=config)
        report = pipeline.build_report(
            seed=seed,
            config=config,
            train_report=pipeline.evaluate(model, self.train_set),
            test_report=pipeline.evaluate(model, self.test_set),
        )
        (out / "report.json").write_text(report.to_json() + "\n")
        pipeline.emit_curves(curves, out / "curves.csv")
        outputs = [(out / f).read_bytes() for f in ("curves.csv", "model.ckpt", "report.json")]
        return RoundResult(seconds, TRAIN_EPOCHS * len(self.train_set), outputs)


class RenderLong:
    name = "render_long"
    min_rounds = 22  # so the tail percentile lies above p50

    def setup(self, work: Path, seed: int) -> None:
        self.data = work / "data"
        adu = write_record(self.data, LONG_RECORD, long_signal(seed))
        self.expected_mv = (adu[:, 0] - BASELINE) / GAIN

    def ops(self) -> int:
        return 1

    def properties(self) -> dict:
        return {"images_per_evaluate": None}

    def round(self, out: Path, seed: int) -> RoundResult:
        start = time.perf_counter()
        config = render_records(self.data, out)
        seconds = time.perf_counter() - start
        cached = np.load(config.signals_dir() / f"{LONG_RECORD}.npy")
        if not np.array_equal(cached, self.expected_mv):
            raise OutputMismatch("ingested MLII samples differ from the written ADC values")
        ppm = (config.images_dir() / f"{LONG_RECORD}.ppm").read_bytes()
        return RoundResult([seconds], self.expected_mv.size, [ppm])


WORKLOADS = {w.name: w for w in (TrainPaper, RenderLong)}


def warm_up(work: Path, seed: int):
    """One small pass through every layer before anything is timed.

    Renders one 20-s record, trains one epoch on a batch of its augmented
    copies, round-trips the checkpoint and evaluates. Returns the model and
    the batch as network input for the layer probe.
    """
    mv = record_io.synth_ecg_irregular(
        CORPUS_SECONDS, SAMPLING_RATE, seed=_seed(seed, _WARM)
    ).samples
    write_record(work / "data", WARM_RECORD, mv)
    image = read_image(render_records(work / "data", work / "out"), WARM_RECORD)
    model_ss, rng_ss = np.random.SeedSequence([seed, _WARM]).spawn(2)
    rng = np.random.default_rng(rng_ss)
    batch = [
        LabeledImage(f"w{i}", rasterizer.augment(image, AUGMENT, rng), Label(i % 2))
        for i in range(WARM_BATCH)
    ]
    model = neuralnet.init_weights(neuralnet.ModelConfig(), seed=model_ss)
    model, _, _ = train_by_epoch(model, batch, batch, rng, 1)
    neuralnet.save_checkpoint(model, work / "model.ckpt")
    model, _ = neuralnet.load_checkpoint(work / "model.ckpt")
    pipeline.evaluate(model, batch)
    return model, np.stack([ex.image for ex in batch]).astype(np.float64) / 255.0


def probe_layers(model, x: np.ndarray) -> dict[str, float]:
    """Median forward time of each network layer through the public ops."""
    times = {}

    def timed(layer, fn, *args):
        samples = []
        for _ in range(PROBE_REPEATS):
            start = time.perf_counter()
            out = fn(*args)
            samples.append(time.perf_counter() - start)
        times[f"neuralnet.{layer}.fwd_s"] = statistics.median(samples)
        return out

    nn = neuralnet
    a1 = nn.relu(timed("conv1", nn.conv2d_forward, x, model.conv1))
    p1, _ = timed("pool1", nn.maxpool_forward, a1)
    a2 = nn.relu(timed("conv2", nn.conv2d_forward, p1, model.conv2))
    p2, _ = timed("pool2", nn.maxpool_forward, a2)
    ad = nn.relu(timed("dense1", nn.dense_forward, nn.flatten(p2), model.dense1))
    timed("dense_out", nn.dense_forward, ad, model.dense_out)
    return times


# --- tracing ---

# per-layer metric -> span name; every value is the span's self time
LAYER_SPANS = {
    "record_io.load_record_s": "record_io.load_record",
    "phase_space.embed_s": "phase_space.embed",
    "phase_space.chord_s": "phase_space.chord_for_signal",
    "rasterizer.rasterize_s": "rasterizer.rasterize",
    "rasterizer.write_ppm_s": "rasterizer.write_ppm",
    "rasterizer.augment_s": "rasterizer.augment",
    "cli.ingest_self_s": "cli.cmd_ingest",
    "cli.render_self_s": "cli.cmd_render",
    "neuralnet.forward_batch_s": "neuralnet.forward_batch",
    "neuralnet.backward_batch_s": "neuralnet.backward_batch",
    "neuralnet.sgd_step_s": "neuralnet.sgd_step",
    "neuralnet.save_checkpoint_s": "neuralnet.save_checkpoint",
    "neuralnet.load_checkpoint_s": "neuralnet.load_checkpoint",
    "pipeline.train_epoch_self_s": "pipeline.train",
    "pipeline.evaluate_s": "pipeline.evaluate",
}


def _install_spans(tracer) -> None:
    # Functions reached through a module attribute are patched on their own
    # module; names that pipeline imported are patched where pipeline looks
    # them up. The benchmark calls every function through its module.
    for module, attr, name in (
        (record_io, "load_record", "record_io.load_record"),
        (phase_space, "embed", "phase_space.embed"),
        (phase_space, "chord_for_signal", "phase_space.chord_for_signal"),
        (rasterizer, "rasterize", "rasterizer.rasterize"),
        (rasterizer, "write_ppm", "rasterizer.write_ppm"),
        (rasterizer, "augment", "rasterizer.augment"),
        (pipeline, "augment", "rasterizer.augment"),
        (cli, "cmd_ingest", "cli.cmd_ingest"),
        (cli, "cmd_render", "cli.cmd_render"),
        (pipeline, "forward_batch", "neuralnet.forward_batch"),
        (pipeline, "backward_batch", "neuralnet.backward_batch"),
        (pipeline, "sgd_step", "neuralnet.sgd_step"),
        (neuralnet, "save_checkpoint", "neuralnet.save_checkpoint"),
        (neuralnet, "load_checkpoint", "neuralnet.load_checkpoint"),
        (pipeline, "train", "pipeline.train"),
        (pipeline, "evaluate", "pipeline.evaluate"),
    ):
        tracer.patch(module, attr, name)


@contextmanager
def traced(tracer, scope: str):
    """Trace the block under `scope` when a tracer is given."""
    if tracer is None:
        yield
        return
    tracer.scope = scope
    _install_spans(tracer)
    try:
        yield
    finally:
        tracer.unpatch()
        tracer.scope = "untraced"
