"""Command-line surface tying the pipeline together.

Subcommands: synth, extract, train, eval, grid, window-info.
Exit codes: 0 ok, 1 domain error, 2 usage or I/O error.
All randomness flows from --seed (default 0); repeated runs with the same
inputs and flags produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from . import evaluate, nnet, synth
from .errors import PcgError
from .features import (
    DEFAULT_BINS,
    extract_sequence,
    normalize_sequence,
    read_features,
    write_features,
)
from .ingest import (
    Label,
    preprocess,
    read_csv_record,
    read_wav,
    write_wav,
)
from .windows import (
    DEFAULT_ALPHA,
    DEFAULT_NFFT,
    WindowShape,
    WindowSpec,
    frame_matrix,
    mainlobe_width,
    make_window,
    peak_sidelobe_db,
    window_spectrum,
)

CONFIG_VERSION = 1


def _parse_shapes(names: list[str]) -> list[WindowShape]:
    return [WindowShape(n.lower()) for n in names]


def _require_file(path: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"no such file: {p}")
    return p


def _write_effective_config(out_dir: Path, config: dict) -> None:
    config = {"version": CONFIG_VERSION, **config}
    (out_dir / "effective_config.json").write_text(
        json.dumps(config, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = synth.SynthConfig(
        duration_s=args.duration, rate_hz=args.rate,
        murmur_gain=args.murmur_gain, noise_floor=args.noise_floor)
    records = synth.generate_dataset(args.healthy, args.pathological,
                                     base_seed=args.seed, config=config)
    with open(out_dir / "labels.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["filename", "label"])
        for rec in records:
            filename = f"{rec.id}.wav"
            write_wav(rec, out_dir / filename)
            writer.writerow([filename, rec.label.value])
    _write_effective_config(out_dir, {
        "command": "synth", "healthy": args.healthy,
        "pathological": args.pathological, "seed": args.seed,
        "duration_s": args.duration, "rate_hz": args.rate,
        "murmur_gain": args.murmur_gain, "noise_floor": args.noise_floor})
    print(f"wrote {len(records)} records to {out_dir}")
    return 0


def _load_corpus(corpus_dir: Path) -> list:
    manifest = corpus_dir / "labels.csv"
    if not manifest.is_file():
        raise FileNotFoundError(f"no such file: {manifest}")
    entries = []
    try:
        with open(manifest, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            for column in ("filename", "label"):
                if column not in (reader.fieldnames or []):
                    raise ValueError(f"no {column!r} column")
            for row in reader:
                if None in (row["filename"], row["label"]):
                    raise ValueError(f"line {reader.line_num} is missing a field")
                entries.append((row["filename"], Label(row["label"])))
    except (ValueError, csv.Error) as exc:  # also bad UTF-8 and unknown labels
        raise PcgError(f"{manifest}: {exc}") from None
    return [read_wav(corpus_dir / name, label=label) for name, label in entries]


def cmd_extract(args) -> int:
    path = _require_file(args.input)
    if path.suffix.lower() == ".wav":
        record = read_wav(path)
    else:
        record = read_csv_record(path, rate_hz=args.rate)
    if args.label:
        record.label = Label(args.label)
    record = preprocess(record)

    spec = WindowSpec.from_nominal_length(
        WindowShape(args.shape), args.length, args.alpha)
    frames, _ = frame_matrix(record.samples, spec, args.hop)
    seq = extract_sequence(frames, bins=args.bins, signal_id=record.id,
                           label=record.label, window=spec, hop=args.hop)
    seq = normalize_sequence(seq)
    write_features(seq, args.out)
    print(f"wrote {seq.num_frames} x {seq.values.shape[1]} features to {args.out}")
    return 0


def _load_feature_dir(features_dir: Path) -> list:
    paths = sorted(features_dir.glob("*.csv"))
    if not paths:
        raise FileNotFoundError(f"no feature CSVs in {features_dir}")
    return [read_features(p) for p in paths]


def _train_config_from_args(args) -> nnet.TrainConfig:
    return nnet.TrainConfig(
        learning_rate=args.lr, momentum=args.momentum, epochs=args.epochs,
        batch_size=args.batch_size, seed=args.seed, clip_norm=args.clip_norm,
        momentum_ramp=args.momentum_ramp)


def cmd_train(args) -> int:
    config = _train_config_from_args(args)
    dataset = _load_feature_dir(Path(args.features))
    model, history = nnet.train(dataset, args.hidden, config)
    nnet.save_model(model, args.out, config=config)
    if args.history:
        Path(args.history).write_text(json.dumps(
            {"losses": history.losses, "accuracies": history.accuracies},
            indent=2) + "\n")
    print(f"trained {args.epochs} epochs; final loss "
          f"{history.losses[-1]:.6f}, train accuracy {history.accuracies[-1]:.3f}")
    return 0


def cmd_eval(args) -> int:
    model = nnet.load_model(_require_file(args.model))
    dataset = _load_feature_dir(Path(args.features))
    for s in dataset:
        if s.label not in nnet.CLASS_INDEX:
            raise PcgError(f"sequence {s.signal_id!r} is unlabeled; "
                           "extract it with --label")
        if s.values.shape[1] != model.input_size:
            raise PcgError(f"{args.model}: model takes {model.input_size} "
                           f"features per frame, sequence {s.signal_id!r} "
                           f"has {s.values.shape[1]}")
    predictions = [nnet.predict(model, s) for s in dataset]
    labels = [nnet.CLASS_INDEX[s.label] for s in dataset]
    c = evaluate.confusion(predictions, labels)
    m = evaluate.metrics(c)
    payload = {
        "tp": c.tp, "tn": c.tn, "fp": c.fp, "fn": c.fn,
        "sensitivity": m.sensitivity, "specificity": m.specificity,
        "accuracy": m.accuracy,
    }
    text = json.dumps(payload, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0


def _read_config_file(path: str) -> dict:
    """The grid settings of a --config file, without its version/command."""
    config = json.loads(_require_file(path).read_text())
    if not isinstance(config, dict):
        raise PcgError(f"{path}: config must be a JSON object")
    version = config.pop("version", CONFIG_VERSION)
    if type(version) is not int or version != CONFIG_VERSION:
        raise PcgError(f"unsupported config version {json.dumps(version)}")
    if config.pop("command", "grid") != "grid":
        raise PcgError(f"{path}: not a grid config")
    return config


# JSON types a config value may take, by its flag's argparse type.
_JSON_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number"),
               None: ((str,), "a string")}


def _fits(value, types: tuple) -> bool:
    return isinstance(value, types) and not isinstance(value, bool)


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
        if flag.nargs == 0:  # an on/off switch
            ok, expected = isinstance(value, bool), "true or false"
        elif flag.nargs == "+":
            ok = (isinstance(value, list) and value
                  and all(_fits(v, types) for v in value))
            expected = f"a non-empty list, each {expected}"
        else:
            ok = _fits(value, types) or (value is None and flag.default is None)
        if not ok:
            raise PcgError(f"config key {key!r} must be {expected}, "
                           f"got {json.dumps(value)}")
        if flag.type is float and _fits(value, types):
            config[key] = float(value)
    return config


def cmd_grid(args) -> int:
    config = _train_config_from_args(args)
    records = [preprocess(r) for r in _load_corpus(Path(args.corpus))]
    cells = evaluate.run_grid(
        records,
        shapes=_parse_shapes(args.shapes),
        lengths=args.lengths,
        hidden_sizes=args.hidden,
        trials=args.trials,
        base_seed=args.seed,
        hop=args.hop,
        alpha=args.alpha,
        bins=args.bins,
        train_config=config,
    )
    out_dir = Path(args.out_dir)
    paths = evaluate.emit_results(cells, out_dir)
    _write_effective_config(out_dir, {
        key: value for key, value in vars(args).items()
        if key not in ("config", "out_dir", "func")})
    for name, p in paths.items():
        print(f"{name}: {p}")
    return 0


def cmd_window_info(args) -> int:
    writer = csv.writer(sys.stdout)
    if args.coeffs:
        writer.writerow(["shape", "L", "alpha", "l", "w"])
    else:
        writer.writerow(["shape", "L", "alpha", "mainlobe_width", "sidelobe_db"])
    for name in args.shapes:
        shape = WindowShape(name.lower())
        for length in args.lengths:
            spec = WindowSpec.from_nominal_length(shape, int(length), args.alpha)
            w = make_window(spec)
            alpha = spec.alpha if shape is WindowShape.GAUSSIAN else ""
            if args.coeffs:
                for l, val in zip(range(-spec.half_length, spec.half_length + 1), w):
                    writer.writerow([shape.value, spec.L, alpha, l, f"{val:.12g}"])
                continue
            spectrum = window_spectrum(w, args.nfft)
            width = mainlobe_width(spectrum)
            try:
                sidelobe = f"{peak_sidelobe_db(spectrum):.4f}"
            except PcgError:
                sidelobe = "none"
            writer.writerow([shape.value, spec.L, alpha, f"{width:.8f}", sidelobe])
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_train_flags(p: argparse.ArgumentParser) -> None:
    """The training flags of train and grid, defaulting to TrainConfig's."""
    d = nnet.TrainConfig()
    p.add_argument("--epochs", type=int, default=d.epochs)
    p.add_argument("--lr", type=float, default=d.learning_rate)
    p.add_argument("--momentum", type=float, default=d.momentum)
    p.add_argument("--batch-size", type=int, default=d.batch_size)
    p.add_argument("--clip-norm", type=float, default=d.clip_norm)
    p.add_argument("--momentum-ramp", action="store_true",
                   default=d.momentum_ramp)


def build_parser(grid_config: dict | None = None) -> argparse.ArgumentParser:
    """The pcgkit parser; `grid_config` overrides the grid flags' defaults."""
    parser = argparse.ArgumentParser(
        prog="pcgkit",
        description="Heart-sound windowed feature extraction and biLSTM "
                    "classification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled WAV corpus")
    p.add_argument("--healthy", type=int, default=20)
    p.add_argument("--pathological", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    synth_config = synth.SynthConfig()
    p.add_argument("--duration", type=float, default=synth_config.duration_s)
    p.add_argument("--rate", type=int, default=synth_config.rate_hz)
    p.add_argument("--murmur-gain", type=float, default=synth_config.murmur_gain)
    p.add_argument("--noise-floor", type=float, default=synth_config.noise_floor)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("extract", help="preprocess one recording and write features")
    p.add_argument("--input", required=True, help="WAV or one-value-per-line CSV")
    p.add_argument("--rate", type=int, default=2000, help="sample rate for CSV input")
    p.add_argument("--label", choices=[l.value for l in Label], default=None)
    p.add_argument("--shape", choices=[s.value for s in WindowShape],
                   default="gaussian")
    p.add_argument("--length", type=int, default=30, help="nominal window length")
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p.add_argument("--hop", type=int, default=1)
    p.add_argument("--bins", type=int, default=DEFAULT_BINS)
    p.add_argument("--out", required=True, help="output feature CSV path")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="train a model on a directory of feature CSVs")
    p.add_argument("--features", required=True)
    p.add_argument("--hidden", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    _add_train_flags(p)
    p.add_argument("--out", required=True, help="output model file")
    p.add_argument("--history", default=None, help="optional history JSON path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a saved model on saved features")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", default=None, help="optional metrics JSON path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("grid", help="full shape x length x hidden experiment grid")
    p.add_argument("--corpus", required=True,
                   help="directory with WAV files and labels.csv")
    p.add_argument("--config", default=None,
                   help="JSON config file; explicit flags win")
    p.add_argument("--shapes", nargs="+",
                   default=[s.value for s in evaluate.PROTOCOL_SHAPES])
    p.add_argument("--lengths", nargs="+", type=int,
                   default=list(evaluate.PROTOCOL_LENGTHS))
    p.add_argument("--hidden", nargs="+", type=int,
                   default=list(evaluate.PROTOCOL_HIDDEN_SIZES))
    p.add_argument("--trials", type=int, default=evaluate.PROTOCOL_TRIALS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--hop", type=int, default=1)
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p.add_argument("--bins", type=int, default=DEFAULT_BINS)
    _add_train_flags(p)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_grid, **_config_defaults(p, grid_config or {}))

    p = sub.add_parser("window-info",
                       help="window diagnostics as CSV on stdout")
    p.add_argument("--shapes", nargs="+",
                   default=[s.value for s in WindowShape])
    p.add_argument("--lengths", nargs="+", type=int,
                   default=list(evaluate.PROTOCOL_LENGTHS))
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p.add_argument("--nfft", type=int, default=DEFAULT_NFFT)
    p.add_argument("--coeffs", action="store_true",
                   help="print coefficients instead of lobe diagnostics")
    p.set_defaults(func=cmd_window_info)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "config", None):
            config = _read_config_file(args.config)
            args = build_parser(config).parse_args(argv)
        return args.func(args)
    except (PcgError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
