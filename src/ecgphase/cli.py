"""Command-line pipeline: ingest -> render -> train -> eval.

Stages communicate through files under the output directory (signal cache,
PPM images, checkpoint, reports), so each stage is independently runnable
and byte-reproducible for a fixed seed. A synthetic 44-record corpus makes
the whole path executable without the licensed database.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import phase_space, pipeline, rasterizer, record_io
from .errors import EcgPhaseError, MissingImage, NoRecords, NonFinite, TooShort
from .neuralnet import ModelConfig, init_weights, load_checkpoint, save_checkpoint
from .phase_space import DerivativeScheme
from .pipeline import DatasetSplit, TrainConfig
from .rasterizer import AugmentParams
from .record_io import EXCLUDED_RECORDS, Label, Signal, load_labels

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


@dataclass
class RunConfig:
    """Every knob of a run; defaults follow the published experiment.

    Each field but `split` is also a CLI flag, `--dashed-name`. Construction
    checks every value's type and range and raises TypeError or ValueError.
    """

    data_dir: str = "data"
    output_dir: str = "out"
    channel: str = "MLII"
    derivative_scheme: str = field(
        default="third_order_forward",
        metadata={"choices": [s.value for s in DerivativeScheme]},
    )
    q_window_ms: float = 50.0
    viewport_margin: float = 0.05
    zoom_range: float = 0.2
    shear_range: float = 0.2
    horizontal_flip: bool = True
    epochs: int = 175
    learning_rate: float = 0.01
    batch_size: int = 8
    seed: int = 0
    synth: bool = False
    synth_duration_s: float = 20.0
    synth_sampling_rate: float = 360.0
    csv_sampling_rate: float | None = None
    split: dict | None = None  # quadrant lists; None means the published split

    def __post_init__(self):
        for name, kinds in _FIELD_TYPES.items():
            value = getattr(self, name)
            # bool is an int, and an int is a valid float, so bools go first
            if isinstance(value, bool):
                ok = bool in kinds
            else:
                ok = isinstance(value, kinds + ((int,) if float in kinds else ()))
            if not ok:
                names = " or ".join(k.__name__ for k in kinds)
                raise TypeError(f"{name} must be {names}, got {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.seed < 0 or self.q_window_ms < 0 or self.viewport_margin < 0:
            raise ValueError("seed, q_window_ms and viewport_margin must be >= 0")
        rates = (self.synth_duration_s, self.synth_sampling_rate, self.csv_sampling_rate)
        if any(r is not None and r <= 0 for r in rates):
            raise ValueError("synth_duration_s and the sampling rates must be positive")
        if self.split is not None and (
            set(self.split) != set(pipeline.PUBLISHED_SPLIT)
            or not all(
                isinstance(ids, (list, tuple)) and all(isinstance(rid, str) for rid in ids)
                for ids in self.split.values()
            )
        ):
            raise ValueError(
                f"split must map exactly {sorted(pipeline.PUBLISHED_SPLIT)} to lists of record ids"
            )
        self.dataset_split()
        self.train_config()
        self.scheme()

    def as_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["split"] = self.split_quadrants()
        return d

    def split_quadrants(self) -> dict:
        if self.split is not None:
            return self.split
        return {k: list(ids) for k, ids in pipeline.PUBLISHED_SPLIT.items()}

    def dataset_split(self) -> DatasetSplit:
        return pipeline.split_from_quadrants(self.split_quadrants())

    def scheme(self) -> DerivativeScheme:
        return DerivativeScheme(self.derivative_scheme)

    def augment_params(self) -> AugmentParams:
        return AugmentParams(
            zoom_range=self.zoom_range,
            shear_range=self.shear_range,
            horizontal_flip=self.horizontal_flip,
        )

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            epochs=self.epochs,
            learning_rate=self.learning_rate,
            batch_size=self.batch_size,
            augment=self.augment_params(),
            seed=self.seed,
        )

    def signals_dir(self) -> Path:
        return Path(self.output_dir) / "signals"

    def images_dir(self) -> Path:
        return Path(self.output_dir) / "images"

    def checkpoint_path(self) -> Path:
        return Path(self.output_dir) / "model.ckpt"


# field -> the classes it holds; `float | None` holds (float, NoneType)
_FIELD_TYPES = {
    name: typing.get_args(hint) or (hint,)
    for name, hint in typing.get_type_hints(RunConfig).items()
}


def load_config(path, overrides: dict) -> RunConfig:
    """Defaults, then the JSON config file, then CLI flag overrides."""
    values: dict = {}
    if path:
        with open(path) as fh:
            file_values = json.load(fh)
        unknown = set(file_values) - set(_FIELD_TYPES)
        if unknown:
            raise EcgPhaseError(f"unknown config keys: {sorted(unknown)}")
        values.update(file_values)
    values.update({k: v for k, v in overrides.items() if v is not None})
    return RunConfig(**values)


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_resolved_config(config: RunConfig, command: str) -> None:
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "run_config.json", {"command": command, **config.as_dict()})


def _remove_files(directory: Path, *patterns: str) -> None:
    """Delete an earlier run's outputs, so its records cannot outlive it."""
    for pattern in patterns:
        for path in directory.glob(pattern):
            path.unlink()


# --- signal cache ---

def _save_signal(config: RunConfig, signal: Signal) -> None:
    sig_dir = config.signals_dir()
    sig_dir.mkdir(parents=True, exist_ok=True)
    np.save(sig_dir / f"{signal.record_id}.npy", signal.samples)
    _write_json(
        sig_dir / f"{signal.record_id}.json",
        {
            "record_id": signal.record_id,
            "channel": signal.channel,
            "sampling_rate": signal.sampling_rate,
        },
    )


def _load_cached_signals(config: RunConfig) -> dict[str, Signal]:
    sig_dir = config.signals_dir()
    signals = {}
    for meta_path in sorted(sig_dir.glob("*.json")):
        if meta_path.name == "skipped.json":
            continue
        meta = json.loads(meta_path.read_text())
        samples = np.load(meta_path.with_suffix(".npy"))
        signals[meta["record_id"]] = Signal(
            record_id=meta["record_id"],
            channel=meta["channel"],
            sampling_rate=meta["sampling_rate"],
            samples=samples,
        )
    if not signals:
        raise NoRecords(f"no cached signals under {sig_dir}; run ingest first")
    return signals


def _synth_corpus(config: RunConfig) -> dict[str, Signal]:
    """Deterministic stand-in corpus for the 44 labeled records.

    Healthy records get clean periodic beats; unhealthy records get
    beat-interval and amplitude jitter with occasional ectopic-shaped beats,
    mirroring the regular-vs-irregular contrast of the real record groups.
    """
    labels = load_labels()
    signals = {}
    for i, (rid, label) in enumerate(sorted(labels.items())):
        seed = int(np.random.SeedSequence((config.seed, i)).generate_state(1)[0])
        if label == Label.HEALTHY:
            signals[rid] = record_io.synth_ecg(
                duration=config.synth_duration_s,
                sampling_rate=config.synth_sampling_rate,
                heart_rate=55.0 + 3.0 * (i % 8),
                noise_amp=0.01,
                seed=seed,
                record_id=rid,
            )
        else:
            signals[rid] = record_io.synth_ecg_irregular(
                duration=config.synth_duration_s,
                sampling_rate=config.synth_sampling_rate,
                heart_rate=50.0 + 3.0 * (i % 12),
                seed=seed,
                record_id=rid,
            )
    return signals


def cmd_ingest(config: RunConfig) -> int:
    """Build the per-record signal cache from disk records, CSVs, or synth."""
    skipped: dict[str, str] = {}
    signals: dict[str, Signal] = {}

    if config.synth:
        signals = _synth_corpus(config)
    else:
        data_dir = Path(config.data_dir)
        headers = sorted(data_dir.glob("*.hea"))
        csvs = sorted(data_dir.glob("*.csv"))
        if not headers and not csvs:
            raise NoRecords(f"no .hea or .csv records under {data_dir}")
        for hea in headers:
            rid = hea.stem
            if rid in EXCLUDED_RECORDS:
                skipped[rid] = "excluded record (no MLII or paced beats)"
                continue
            try:
                signals[rid] = record_io.load_record(hea, channel=config.channel)
            except EcgPhaseError as exc:
                skipped[rid] = str(exc)
        for path in csvs:
            rid = path.stem
            if rid in EXCLUDED_RECORDS:
                skipped[rid] = "excluded record (no MLII or paced beats)"
                continue
            try:
                signals[rid] = record_io.load_csv(
                    path, sampling_rate=config.csv_sampling_rate
                )
            except EcgPhaseError as exc:
                skipped[rid] = str(exc)

    if not signals:
        raise NoRecords("every record failed to ingest")

    _remove_files(config.signals_dir(), "*.npy", "*.json")
    for rid in sorted(signals):
        _save_signal(config, signals[rid])
    _write_json(config.signals_dir() / "skipped.json", skipped)
    print(f"ingested {len(signals)} records, skipped {len(skipped)}")
    return EXIT_OK


def cmd_render(config: RunConfig) -> int:
    """Embed every cached signal and rasterize it to <record_id>.ppm."""
    signals = _load_cached_signals(config)
    img_dir = config.images_dir()
    img_dir.mkdir(parents=True, exist_ok=True)
    _remove_files(img_dir, "*.ppm")
    scheme = config.scheme()
    skipped: dict[str, str] = {}
    rendered = 0

    for rid in sorted(signals):
        sig = signals[rid]
        try:
            traj = phase_space.embed(sig, scheme)
            chord = phase_space.chord_for_signal(sig, traj, config.q_window_ms)
            viewport = rasterizer.fit_viewport(traj, config.viewport_margin)
            image = rasterizer.rasterize(traj, chord, viewport)
        except (TooShort, NonFinite) as exc:
            skipped[rid] = str(exc)
            continue
        (img_dir / f"{rid}.ppm").write_bytes(rasterizer.write_ppm(image))
        rendered += 1

    _write_json(img_dir / "render_skipped.json", skipped)
    print(f"rendered {rendered} images, skipped {len(skipped)}")
    return EXIT_OK


def _load_images(config: RunConfig, record_ids) -> dict[str, np.ndarray]:
    img_dir = config.images_dir()
    images = {}
    for rid in record_ids:
        path = img_dir / f"{rid}.ppm"
        if not path.exists():
            raise MissingImage(f"no rendered image {path}; run render first")
        images[rid] = rasterizer.read_ppm(path.read_bytes())
    return images


def cmd_train(config: RunConfig) -> int:
    """Train on the split's training records and report both set evaluations."""
    split = config.dataset_split()
    images = _load_images(config, split.all_records)
    train_set, test_set = pipeline.build_dataset(images, load_labels(), split)

    master = np.random.SeedSequence(config.seed)
    init_ss, train_ss = master.spawn(2)
    model = init_weights(ModelConfig(), seed=init_ss)
    model, metrics = pipeline.train(
        model,
        train_set,
        config.train_config(),
        rng=np.random.default_rng(train_ss),
        test_set=test_set,
    )

    out = Path(config.output_dir)
    pipeline.emit_curves(metrics, out / "curves.csv")
    save_checkpoint(model, config.checkpoint_path(), extra=config.as_dict())

    report = pipeline.build_report(
        seed=config.seed,
        config=config.as_dict(),
        train_report=pipeline.evaluate(model, train_set),
        test_report=pipeline.evaluate(model, test_set),
    )
    (out / "report.json").write_text(report.to_json() + "\n")
    print(
        f"train accuracy {report.summary['train_accuracy']:.4f}, "
        f"test accuracy {report.summary['test_accuracy']:.4f}"
    )
    return EXIT_OK


def cmd_eval(config: RunConfig, records: list[str] | None = None) -> int:
    """Evaluate a checkpoint on the test split (or a record subset)."""
    model, _ = load_checkpoint(config.checkpoint_path())
    split = config.dataset_split()
    labels = load_labels()

    if records:
        pairs = []
        for rid in records:
            if rid not in labels:
                raise EcgPhaseError(f"record {rid!r} is not in the label table")
            pairs.append((rid, labels[rid]))
    else:
        pairs = list(split.test)

    images = _load_images(config, [rid for rid, _ in pairs])
    labeled = [
        pipeline.LabeledImage(record_id=rid, image=images[rid], label=label)
        for rid, label in pairs
    ]
    report = pipeline.evaluate(model, labeled)
    payload = {
        "seed": config.seed,
        "config": config.as_dict(),
        "records": [rid for rid, _ in pairs],
        "eval": pipeline.eval_report_dict(report),
    }
    _write_json(Path(config.output_dir) / "eval_report.json", payload)
    print(f"accuracy {report.accuracy:.4f} over {len(labeled)} records")
    return EXIT_OK


def cmd_run_all(config: RunConfig) -> int:
    cmd_ingest(config)
    cmd_render(config)
    return cmd_train(config)


# --- argument parsing ---

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="ecgphase", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file")
        for f in dataclasses.fields(RunConfig):
            if f.name == "split":  # a table of record ids: JSON config only
                continue
            flag = "--" + f.name.replace("_", "-")
            kind = _FIELD_TYPES[f.name][0]
            if kind is bool:
                p.add_argument(flag, action=argparse.BooleanOptionalAction)
            else:
                p.add_argument(flag, type=kind, choices=f.metadata.get("choices"))
        return p

    add_common(sub.add_parser("ingest", help="parse records into the signal cache"))
    add_common(sub.add_parser("render", help="rasterize cached signals to PPM images"))
    add_common(sub.add_parser("train", help="train the CNN on the rendered images"))

    p_eval = add_common(sub.add_parser("eval", help="evaluate a saved checkpoint"))
    p_eval.add_argument("--records", help="comma-separated record ids (default: test split)")

    add_common(sub.add_parser("run-all", help="ingest, render, and train in one go"))
    add_common(sub.add_parser("synth", help="shorthand for ingest --synth")).set_defaults(synth=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        overrides = {k: v for k, v in vars(args).items() if k in _FIELD_TYPES}
        try:
            config = load_config(args.config, overrides)
        except (ValueError, TypeError) as exc:  # JSONDecodeError is a ValueError
            print(f"usage error: bad config: {exc}", file=sys.stderr)
            return EXIT_USAGE
        _write_resolved_config(config, args.command)

        if args.command in ("ingest", "synth"):
            return cmd_ingest(config)
        if args.command == "render":
            return cmd_render(config)
        if args.command == "train":
            return cmd_train(config)
        if args.command == "eval":
            records = args.records.split(",") if args.records else None
            return cmd_eval(config, records)
        if args.command == "run-all":
            return cmd_run_all(config)
        raise AssertionError(f"unhandled command {args.command}")
    except EcgPhaseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
