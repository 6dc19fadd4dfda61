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
import tokenize
import typing
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import phase_space, pipeline, rasterizer, record_io
from .errors import EcgPhaseError, MalformedCache, MissingImage, NoRecords, NonFinite, ShapeMismatch, TooShort
from .neuralnet import ModelConfig, init_weights, load_checkpoint, save_checkpoint
from .phase_space import DerivativeScheme
from .pipeline import DatasetSplit, TrainConfig
from .rasterizer import AugmentParams
from .record_io import EXCLUDED_RECORDS, PUBLISHED_SPLIT, Label, Signal, load_labels

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
    split: dict = field(
        default_factory=lambda: {k: list(ids) for k, ids in PUBLISHED_SPLIT.items()}
    )

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
        n_synth = self.synth_duration_s * self.synth_sampling_rate
        if not math.isfinite(n_synth) or round(n_synth) < 1:
            raise ValueError(f"synth records need a finite, nonzero sample count, got {n_synth}")
        self.dataset_split()
        self.train_config()
        self.scheme()

    def dataset_split(self) -> DatasetSplit:
        return pipeline.split_from_quadrants(self.split)

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
            try:
                values = json.load(fh)
            except RecursionError as exc:
                raise ValueError(f"config file {path} nests too deeply") from exc
        if not isinstance(values, dict):
            raise ValueError(f"config file {path} holds a JSON {type(values).__name__}, not an object")
        # a run_config.json names its command, which argv gives on a replay
        values.pop("command", None)
    values.update({k: v for k, v in overrides.items() if v is not None})
    return RunConfig(**values)


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_resolved_config(config: RunConfig, command: str) -> None:
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "run_config.json", {"command": command, **dataclasses.asdict(config)})


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


def _load_signal(npy: Path) -> Signal:
    """The cached signal of record `npy.stem`, from its .npy and .json files.

    Raises MalformedCache unless the .npy holds a non-empty 1-D float array
    and the .json an object of exactly `record_id` (the stem), `channel` and
    `sampling_rate` (a positive number).
    """
    meta_path = npy.with_suffix(".json")
    try:
        samples = np.load(npy, allow_pickle=False)
    except (OSError, EOFError, ValueError, MemoryError, tokenize.TokenError) as exc:
        # a header that claims more samples than memory holds raises
        # MemoryError, and numpy's header parser can let TokenError out
        raise MalformedCache(f"unreadable {npy.name}: {exc}") from exc
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise MalformedCache(f"unreadable {meta_path.name}: {exc}") from exc
    if samples.ndim != 1 or samples.dtype.kind != "f" or not samples.size:
        raise MalformedCache(f"{npy.name} holds {samples.dtype} {samples.shape}, not 1-D float samples")
    if not isinstance(meta, dict) or set(meta) != {"record_id", "channel", "sampling_rate"}:
        raise MalformedCache(f"{meta_path.name} is not an object of record_id, channel and sampling_rate")
    if meta["record_id"] != npy.stem:
        raise MalformedCache(f"{meta_path.name} names record {meta['record_id']!r}")
    rate = meta["sampling_rate"]
    # NaN fails both comparisons; an int too large for a float fails the second
    if type(rate) not in (int, float) or not 0 < rate <= sys.float_info.max:
        raise MalformedCache(f"{meta_path.name} gives sampling rate {rate!r}, not a positive number")
    return Signal(**meta, samples=samples)


def _synth_corpus(config: RunConfig) -> dict[str, typing.Callable[[], Signal]]:
    """Deterministic stand-in corpus for the 44 labeled records: each id's
    zero-argument generator.

    Healthy records get clean periodic beats; unhealthy records get
    beat-interval and amplitude jitter with occasional ectopic-shaped beats,
    mirroring the regular-vs-irregular contrast of the real record groups.
    """
    size = {"duration": config.synth_duration_s, "sampling_rate": config.synth_sampling_rate}
    loaders = {}
    for i, (rid, label) in enumerate(sorted(load_labels().items())):
        seed = int(np.random.SeedSequence((config.seed, i)).generate_state(1)[0])
        if label == Label.HEALTHY:
            synth = partial(record_io.synth_ecg, heart_rate=55.0 + 3.0 * (i % 8), noise_amp=0.01)
        else:
            synth = partial(record_io.synth_ecg_irregular, heart_rate=50.0 + 3.0 * (i % 12))
        loaders[rid] = partial(synth, **size, seed=seed, record_id=rid)
    return loaders


def _record_loaders(config: RunConfig) -> dict[str, typing.Callable[[], Signal]]:
    """Each record id's zero-argument loader: the synthetic corpus, or the
    deciding file of each id under the data directory (CSVs come last and
    replace the header of the same id, which is then never opened)."""
    if config.synth:
        return _synth_corpus(config)
    data_dir = Path(config.data_dir)
    paths = {p.stem: p for p in sorted(data_dir.glob("*.hea")) + sorted(data_dir.glob("*.csv"))}
    if not paths:
        raise NoRecords(f"no .hea or .csv records under {data_dir}")
    return {
        rid: partial(record_io.load_record, path, channel=config.channel)
        if path.suffix == ".hea"
        else partial(record_io.load_csv, path, sampling_rate=config.csv_sampling_rate)
        for rid, path in paths.items()
    }


def cmd_ingest(config: RunConfig) -> int:
    """Build the per-record signal cache from disk records, CSVs, or synth;
    each record is loaded and saved before the next one is read."""
    skipped: dict[str, str] = {}
    sig_dir = config.signals_dir()
    _remove_files(sig_dir, "*.npy", "*.json")
    loaders = _record_loaders(config)
    for rid, load in sorted(loaders.items()):
        if rid in EXCLUDED_RECORDS:
            skipped[rid] = "excluded record (no MLII or paced beats)"
            continue
        try:
            signal = load()
        except (EcgPhaseError, OSError) as exc:
            skipped[rid] = str(exc)
        else:
            _save_signal(config, signal)
            del signal

    _write_json(sig_dir / "skipped.json", skipped)
    ingested = len(loaders) - len(skipped)
    if not ingested:
        raise NoRecords(f"every record failed to ingest; reasons in {sig_dir / 'skipped.json'}")
    print(f"ingested {ingested} records, skipped {len(skipped)}")
    return EXIT_OK


def cmd_render(config: RunConfig) -> int:
    """Embed each cached signal in turn and rasterize it to <record_id>.ppm."""
    img_dir = config.images_dir()
    _remove_files(img_dir, "*.ppm", "render_skipped.json")
    sig_dir = config.signals_dir()
    paths = sorted(sig_dir.glob("*.npy"))
    if not paths:
        raise NoRecords(f"no cached signals under {sig_dir}; run ingest first")
    img_dir.mkdir(parents=True, exist_ok=True)
    scheme = config.scheme()
    skipped: dict[str, str] = {}

    for path in paths:
        try:
            sig = _load_signal(path)
            traj = phase_space.embed(sig, scheme)
            chord = phase_space.chord_for_signal(sig, traj, config.q_window_ms)
            viewport = rasterizer.fit_viewport(traj, config.viewport_margin)
            image = rasterizer.rasterize(traj, chord, viewport)
        except (MalformedCache, TooShort, NonFinite) as exc:
            skipped[path.stem] = str(exc)
            continue
        (img_dir / f"{path.stem}.ppm").write_bytes(rasterizer.write_ppm(image))

    _write_json(img_dir / "render_skipped.json", skipped)
    rendered = len(paths) - len(skipped)
    if not rendered:
        raise NoRecords(f"every record failed to render; reasons in {img_dir / 'render_skipped.json'}")
    print(f"rendered {rendered} images, skipped {len(skipped)}")
    return EXIT_OK


def _load_images(config: RunConfig, record_ids) -> dict[str, np.ndarray]:
    img_dir = config.images_dir()
    images = {}
    for rid in record_ids:
        path = img_dir / f"{rid}.ppm"
        if not path.exists():
            raise MissingImage(f"no rendered image {path}; run render first")
        image = rasterizer.read_ppm(path.read_bytes())
        size = rasterizer.IMAGE_SIZE
        if image.shape != (size, size, 3):
            raise ShapeMismatch(f"{path} is {image.shape[1]}x{image.shape[0]}, not {size}x{size}")
        images[rid] = image
    return images


def cmd_train(config: RunConfig) -> int:
    """Train on the split's training records and report both set evaluations."""
    out = Path(config.output_dir)
    _remove_files(out, "model.ckpt", "curves.csv", "report.json")
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

    # both evaluations run first, so a model that overflows writes no file
    report = pipeline.build_report(
        seed=config.seed,
        config=dataclasses.asdict(config),
        train_report=pipeline.evaluate(model, train_set),
        test_report=pipeline.evaluate(model, test_set),
    )
    pipeline.emit_curves(metrics, out / "curves.csv")
    save_checkpoint(model, config.checkpoint_path(), extra=dataclasses.asdict(config))
    (out / "report.json").write_text(report.to_json() + "\n")
    print(
        f"train accuracy {report.summary['train_accuracy']:.4f}, "
        f"test accuracy {report.summary['test_accuracy']:.4f}"
    )
    return EXIT_OK


def cmd_eval(config: RunConfig, records: list[str] | None = None) -> int:
    """Evaluate a checkpoint on the test split (or a record subset)."""
    out = Path(config.output_dir)
    _remove_files(out, "eval_report.json")
    model, _ = load_checkpoint(config.checkpoint_path())
    records = records or list(config.dataset_split().test)
    images = _load_images(config, records)
    labels = load_labels()
    labeled = [pipeline.LabeledImage(rid, images[rid], labels[rid]) for rid in records]
    report = pipeline.evaluate(model, labeled)
    payload = {
        "seed": config.seed,
        "config": dataclasses.asdict(config),
        "records": records,
        "eval": dataclasses.asdict(report),
    }
    _write_json(out / "eval_report.json", payload)
    print(f"accuracy {report.accuracy:.4f} over {len(labeled)} records")
    return EXIT_OK


def cmd_run_all(config: RunConfig) -> int:
    cmd_ingest(config)
    cmd_render(config)
    return cmd_train(config)


# --- argument parsing ---

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


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
    try:
        # every usage error is a ValueError or TypeError raised here, before
        # any file is written; an unreadable --config file is an OSError
        try:
            args = build_parser().parse_args(argv)
            records = args.records.split(",") if getattr(args, "records", None) else None
            if records and (len(set(records)) < len(records) or set(records) - set(load_labels())):
                raise ValueError(f"--records needs distinct ids from the label table: {args.records}")
            overrides = {k: v for k, v in vars(args).items() if k in _FIELD_TYPES}
            config = load_config(args.config, overrides)
        except (ValueError, TypeError) as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        _write_resolved_config(config, args.command)

        if args.command in ("ingest", "synth"):
            return cmd_ingest(config)
        if args.command == "render":
            return cmd_render(config)
        if args.command == "train":
            return cmd_train(config)
        if args.command == "eval":
            return cmd_eval(config, records)
        if args.command == "run-all":
            return cmd_run_all(config)
        raise AssertionError(f"unhandled command {args.command}")
    except (EcgPhaseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
