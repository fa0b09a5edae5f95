"""Command-line surface tying the pipeline together.

Subcommands: synth, extract, train, eval, grid, window-info.
Recordings are mono 16-bit PCM WAV files: synth writes them, extract and
grid read them.
Exit codes: 0 ok, 1 domain error or failed allocation, 2 usage or I/O error.
All randomness flows from --seed: train requires it, and synth and grid
default to 0, as generate_records and run_grid do; repeated runs with the
same inputs and flags produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import sys
from dataclasses import asdict
from pathlib import Path

from . import evaluate, ingest, nnet, synth
from .errors import PcgError, check_count, json_object
from .features import read_features, sidecar_path, write_features
from .ingest import (
    CLASS_INDEX,
    Label,
    preprocess,
    read_wav,
    write_wav,
)
from .windows import (
    DEFAULT_ALPHA,
    WindowShape,
    WindowSpec,
    frame_centers,
    mainlobe_width,
    make_window,
    peak_sidelobe_db,
    window_spectrum,
)

CONFIG_VERSION = 1
# A shape is named by its WindowShape value, in lower case, on every command.
SHAPE_NAMES = [s.value for s in WindowShape]


def _require_file(path: str | Path) -> Path:
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"no such file: {p}")
    return p


def _file_key(path: str | Path):
    """What makes two paths one file: the inode of an existing file (so
    hard and symbolic links match), else the resolved path."""
    try:
        st = os.stat(path)
        return st.st_dev, st.st_ino
    except OSError:
        return Path(path).resolve()


def _check_output_files(writes: list, reads: list) -> list:
    """The output files of a command as Paths, checked before any work.

    `writes` and `reads` are (flag, path) pairs; a None output is skipped
    and stays None.  An output's directory must pass `_check_output_dir`
    (the command makes it when it writes the file), and the output must
    not be a directory, nor be a file that the command reads or that an
    earlier output names.
    """
    owners = {_file_key(p): f"{flag} reads it" for flag, p in reads}
    for flag, path in writes:
        if path is None:
            continue
        p = Path(path)
        _check_output_dir(p.parent)
        if p.is_dir():
            raise IsADirectoryError(f"cannot write {p}: it is a directory")
        key = _file_key(p)
        if key in owners:
            raise OSError(f"cannot write {p}: {owners[key]}")
        owners[key] = f"{flag} writes it"
    return [None if path is None else Path(path) for _, path in writes]


def _check_output_dir(path: str | Path) -> Path:
    """Refuse an output directory that could not be made, before any work:
    the path, or else its nearest existing ancestor, must be a directory."""
    p = Path(path)
    q = _existing_ancestor(p)
    if not q.is_dir():
        raise NotADirectoryError(f"cannot write {p}: {q} is not a directory")
    return p


def _existing_ancestor(p: Path) -> Path:
    """p if it exists, else its nearest existing ancestor."""
    return next((q for q in (p, *p.parents) if q.exists()), p)


def _write_effective_config(out_dir: Path, args: argparse.Namespace) -> None:
    config = {"version": CONFIG_VERSION, **{
        key: value for key, value in vars(args).items()
        if key not in ("config", "out_dir", "func")}}
    (out_dir / "effective_config.json").write_text(
        json.dumps(config, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _replaced_wav_bytes(out_dir: Path, n_healthy: int,
                        n_pathological: int) -> int:
    """The bytes of the files in out_dir that synth's WAV files replace."""
    counts = {Label.HEALTHY.value: n_healthy,
              Label.PATHOLOGICAL.value: n_pathological}
    total = 0
    for path in out_dir.glob("*_*.wav") if out_dir.is_dir() else ():
        label, _, index = path.stem.rpartition("_")
        if (index.isascii() and index.isdigit()
                and f"{int(index):03d}" == index
                and int(index) < counts.get(label, 0) and path.is_file()):
            total += path.stat().st_size
    return total


def cmd_synth(args) -> int:
    config = synth.SynthConfig(
        duration_s=args.duration, murmur_gain=args.murmur_gain,
        noise_floor=args.noise_floor)
    out_dir = _check_output_dir(args.out_dir)
    # Each record is written as it is made, so memory holds one at a time.
    records = synth.generate_records(args.healthy, args.pathological,
                                     base_seed=args.seed, config=config)
    count = args.healthy + args.pathological
    need = count * ingest.wav_bytes(config.num_samples)
    need -= _replaced_wav_bytes(out_dir, args.healthy, args.pathological)
    free = shutil.disk_usage(_existing_ancestor(out_dir)).free
    if need > free:
        raise ValueError(f"--healthy and --pathological ask for {count} "
                         f"records, whose WAV files need {need} bytes, more "
                         f"than the {free} bytes free at {out_dir}")
    out_dir.mkdir(parents=True, exist_ok=True)
    clipped = []  # per record, the samples write_wav clipped
    with open(out_dir / "labels.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["filename", "label"])
        for rec in records:
            filename = f"{rec.id}.wav"
            clipped.append(write_wav(rec, out_dir / filename))
            writer.writerow([filename, rec.label.value])
    _write_effective_config(out_dir, args)
    if sum(clipped):
        print(f"warning: {sum(clipped)} samples in "
              f"{sum(map(bool, clipped))} of {count} records exceed "
              f"16-bit full scale and were clipped", file=sys.stderr)
    print(f"wrote {count} records to {out_dir}")
    return 0


def _preprocess(record, path: Path):
    """`preprocess`, naming the recording's file when it is refused."""
    try:
        return preprocess(record)
    except PcgError as exc:
        raise PcgError(f"{path}: {exc}") from None


def _load_corpus(corpus_dir: Path) -> list:
    """The preprocessed recordings listed in the corpus's labels.csv."""
    manifest = _require_file(corpus_dir / "labels.csv")
    classes = {label.value: label for label in CLASS_INDEX}
    # resolved path -> (line, label, path); a file listed twice, under any
    # name, could land on both sides of a split, so it is refused.
    entries = {}
    try:
        # utf-8-sig: spreadsheet tools start "CSV UTF-8" with a byte-order mark.
        with open(manifest, newline="", encoding="utf-8-sig") as fh:
            reader = csv.DictReader(fh)
            for column in ("filename", "label"):
                if column not in (reader.fieldnames or []):
                    raise ValueError(f"no {column!r} column")
            for row in reader:
                if None in (row["filename"], row["label"]):
                    raise ValueError(f"line {reader.line_num} is missing a field")
                if row["label"] not in classes:
                    raise ValueError(f"line {reader.line_num} has label "
                                     f"{row['label']!r}, not {' or '.join(classes)}")
                path = corpus_dir / row["filename"]
                key = path.resolve()
                if key in entries:
                    raise ValueError(f"line {reader.line_num} lists "
                                     f"{row['filename']!r} again, first on "
                                     f"line {entries[key][0]}")
                entries[key] = (reader.line_num, classes[row["label"]], path)
    except (ValueError, csv.Error) as exc:  # also bad UTF-8
        raise PcgError(f"{manifest}: {exc}") from None
    return [_preprocess(read_wav(path, label=label), path)
            for _, label, path in entries.values()]


def cmd_extract(args) -> int:
    # preprocess makes every record TARGET_SAMPLES long.
    spec = WindowSpec.from_nominal_length(WindowShape(args.shape), args.length)
    frame_centers(ingest.TARGET_SAMPLES, spec, args.hop)
    out = Path(args.out)
    # "." and "/" have no name, so no sidecar: they are refused as directories.
    _check_output_files(
        [("--out", out), ("--out", sidecar_path(out) if out.name else None)],
        [("--input", args.input)])
    path = _require_file(args.input)
    record = read_wav(path)
    if args.label:
        record.label = Label(args.label)
    record = _preprocess(record, path)
    seq = evaluate.extract_dataset([record], spec, hop=args.hop)[0]
    out.parent.mkdir(parents=True, exist_ok=True)
    write_features(seq, out)
    print(f"wrote {seq.num_frames} x {seq.values.shape[1]} features to {args.out}")
    return 0


def _feature_reads(features_dir: str) -> list:
    """(--features, path) of each file `_load_feature_dir` reads."""
    return [("--features", p) for csv_path in Path(features_dir).glob("*.csv")
            for p in (csv_path, sidecar_path(csv_path))]


def _load_feature_dir(features_dir: Path) -> list:
    paths = sorted(features_dir.glob("*.csv"))
    if not paths:
        raise FileNotFoundError(f"no feature CSVs in {features_dir}")
    return [read_features(p) for p in paths]


def _train_config_from_args(args) -> nnet.TrainConfig:
    return nnet.TrainConfig(epochs=args.epochs, batch_size=args.batch_size)


def cmd_train(args) -> int:
    config = _train_config_from_args(args)
    nnet.check_memory(args.hidden, 1, 1, 1)  # the smallest train call
    check_count("seed", args.seed, 0)
    out, history_path = _check_output_files(
        [("--out", args.out), ("--history", args.history)],
        _feature_reads(args.features))
    dataset = _load_feature_dir(Path(args.features))
    model, history = nnet.train(dataset, args.hidden, config, args.seed)
    out.parent.mkdir(parents=True, exist_ok=True)
    nnet.save_model(model, out, config={**asdict(config), "seed": args.seed})
    if history_path:
        history_path.parent.mkdir(parents=True, exist_ok=True)
        history_path.write_text(json.dumps(
            {"losses": history.losses, "accuracies": history.accuracies},
            indent=2) + "\n")
    print(f"trained {args.epochs} epochs; final loss "
          f"{history.losses[-1]:.6f}, train accuracy {history.accuracies[-1]:.3f}")
    return 0


def cmd_eval(args) -> int:
    model = nnet.load_model(_require_file(args.model))
    result = evaluate.score(model, _load_feature_dir(Path(args.features)))
    print(json.dumps({**asdict(result.confusion), **asdict(result.metrics)},
                     indent=2))
    return 0


def _read_config_file(path: str) -> dict:
    """The grid settings of a --config file, without its version/command."""
    config = json_object(_require_file(path).read_bytes(), path)
    version = config.pop("version", CONFIG_VERSION)
    if type(version) is not int or version != CONFIG_VERSION:
        raise PcgError(
            f"{path}: unsupported config version {json.dumps(version)}")
    if config.pop("command", "grid") != "grid":
        raise PcgError(f"{path}: not a grid config")
    return config


# JSON types a config value may take, by its flag's argparse type.
_JSON_TYPES = {int: ((int,), "an integer"), None: ((str,), "a string")}


def _fits(value, types: tuple, choices=None) -> bool:
    return (isinstance(value, types) and not isinstance(value, bool)
            and (choices is None or value in choices))


def _config_defaults(parser: argparse.ArgumentParser, config: dict) -> dict:
    """Type-check config values against their flags and return them as the
    flags' defaults, so that a flag on the command line always wins."""
    # argparse has no public accessor for a parser's actions.
    flags = {a.dest: a for a in parser._actions
             if a.dest not in ("help", "config")}
    for key, value in config.items():
        if key not in flags:
            raise PcgError(f"unknown config key {key!r}")
        flag = flags[key]
        types, expected = _JSON_TYPES[flag.type]
        # argparse checks choices on the command line, not on defaults.
        if flag.choices is not None:
            expected = f"one of {', '.join(flag.choices)}"
        if flag.nargs == "+":
            ok = (isinstance(value, list) and value
                  and all(_fits(v, types, flag.choices) for v in value))
            expected = f"a non-empty list, each {expected}"
        else:
            ok = _fits(value, types, flag.choices)
        if not ok:
            raise PcgError(f"config key {key!r} must be {expected}, "
                           f"got {json.dumps(value)}")
    return config


def cmd_grid(args) -> int:
    config = _train_config_from_args(args)
    shapes = [WindowShape(name) for name in args.shapes]
    # Checked before any recording is read; _load_corpus preprocesses every
    # record to TARGET_SAMPLES.
    evaluate.grid_plan(shapes, args.lengths, args.hidden, args.trials,
                       args.seed, args.hop, ingest.TARGET_SAMPLES)
    out_dir = _check_output_dir(args.out_dir)
    records = _load_corpus(Path(args.corpus))
    cells = evaluate.run_grid(
        records,
        shapes=shapes,
        lengths=args.lengths,
        hidden_sizes=args.hidden,
        trials=args.trials,
        base_seed=args.seed,
        hop=args.hop,
        train_config=config,
    )
    paths = evaluate.emit_results(cells, out_dir)
    _write_effective_config(out_dir, args)
    for name, p in paths.items():
        print(f"{name}: {p}")
    return 0


def cmd_window_info(args) -> int:
    # Each spec is checked before its window is built, and every row made
    # before the first is written: a bad or too-long spec gives no output.
    rows = [["shape", "L", "alpha", "mainlobe_width", "sidelobe_db"]]
    for shape in map(WindowShape, args.shapes):
        for length in args.lengths:
            spec = WindowSpec.from_nominal_length(shape, length, args.alpha)
            frame_centers(ingest.TARGET_SAMPLES, spec, 1)
            w = make_window(spec)
            alpha = spec.alpha if shape is WindowShape.GAUSSIAN else ""
            db = window_spectrum(w)
            width = mainlobe_width(db)
            peak = peak_sidelobe_db(db)
            sidelobe = "none" if peak is None else f"{peak:.4f}"
            rows.append([shape.value, spec.L, alpha, f"{width:.8f}", sidelobe])
    csv.writer(sys.stdout).writerows(rows)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_train_flags(p: argparse.ArgumentParser) -> None:
    """The training flags of train and grid, defaulting to TrainConfig's."""
    d = nnet.TrainConfig()
    p.add_argument("--epochs", type=int, default=d.epochs)
    p.add_argument("--batch-size", type=int, default=d.batch_size)


def build_parser(grid_config: dict | None = None) -> argparse.ArgumentParser:
    """The pcgkit parser; `grid_config` overrides the grid flags' defaults."""
    parser = argparse.ArgumentParser(
        prog="pcgkit",
        description="Heart-sound windowed feature extraction and biLSTM "
                    "classification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled WAV corpus")
    p.add_argument("--healthy", type=int, required=True)
    p.add_argument("--pathological", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    synth_config = synth.SynthConfig()
    p.add_argument("--duration", type=float, default=synth_config.duration_s)
    p.add_argument("--murmur-gain", type=float, default=synth_config.murmur_gain)
    p.add_argument("--noise-floor", type=float, default=synth_config.noise_floor)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("extract", help="preprocess one recording and write features")
    p.add_argument("--input", required=True,
                   help="mono 16-bit PCM WAV recording")
    p.add_argument("--label", choices=[label.value for label in CLASS_INDEX],
                   default=None)
    p.add_argument("--shape", choices=SHAPE_NAMES, required=True)
    p.add_argument("--length", type=int, required=True,
                   help="nominal window length")
    p.add_argument("--hop", type=int, default=evaluate.PROTOCOL_HOP)
    p.add_argument("--out", required=True, help="output feature CSV path")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="train a model on a directory of feature CSVs")
    p.add_argument("--features", required=True)
    p.add_argument("--hidden", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    _add_train_flags(p)
    p.add_argument("--out", required=True, help="output model file")
    p.add_argument("--history", default=None, help="optional history JSON path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a saved model on saved features")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("grid", help="full shape x length x hidden experiment grid")
    p.add_argument("--corpus", required=True,
                   help="directory with WAV files and labels.csv")
    p.add_argument("--config", default=None,
                   help="JSON config file; explicit flags win")
    p.add_argument("--shapes", nargs="+", choices=SHAPE_NAMES,
                   default=[s.value for s in evaluate.PROTOCOL_SHAPES])
    p.add_argument("--lengths", nargs="+", type=int,
                   default=list(evaluate.PROTOCOL_LENGTHS))
    p.add_argument("--hidden", nargs="+", type=int,
                   default=list(evaluate.PROTOCOL_HIDDEN_SIZES))
    p.add_argument("--trials", type=int, default=evaluate.PROTOCOL_TRIALS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--hop", type=int, default=evaluate.PROTOCOL_HOP)
    _add_train_flags(p)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_grid, **_config_defaults(p, grid_config or {}))

    p = sub.add_parser("window-info",
                       help="window diagnostics as CSV on stdout")
    p.add_argument("--shapes", nargs="+", choices=SHAPE_NAMES,
                   default=SHAPE_NAMES)
    p.add_argument("--lengths", nargs="+", type=int,
                   default=list(evaluate.PROTOCOL_LENGTHS))
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p.set_defaults(func=cmd_window_info)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "config", None):
            config = _read_config_file(args.config)
            args = build_parser(config).parse_args(argv)
        return args.func(args)
    except (PcgError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
