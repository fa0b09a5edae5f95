import csv
import dataclasses
import hashlib
import inspect
import json
import math
import os
import shutil

import numpy as np
import pytest

from pcgkit import cli, evaluate, nnet, synth
from pcgkit.cli import main
from pcgkit.errors import PcgError
from pcgkit.ingest import AudioRecord, write_wav
from pcgkit.windows import (
    WindowShape,
    WindowSpec,
    make_window,
    peak_sidelobe_db,
    window_spectrum,
)
from test_ingest import wav_mutations
from test_nnet import MODEL_FILE_MUTATIONS, _header_edit, _rewrite_header

# The removed thread-pool flag, spelled in two parts so that a search of the
# tree for leftover uses of it finds none.
REMOVED_FLAG = "jo" "bs"

# Extract's and train's required settings, at the values the pinned
# outputs and the fixtures were made with.
OLD_WINDOW = ["--shape", "gaussian", "--length", "30"]
OLD_TRAIN = ["--hidden", "30", "--seed", "0"]


def write_1250_hz_wav(path):
    """A valid WAV whose rate is not a multiple of preprocess's 500 Hz."""
    samples = 0.1 * np.sin(np.linspace(0.0, 60.0, 3000))
    write_wav(AudioRecord(id=path.stem, samples=samples, sample_rate_hz=1250),
              path)


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

    def test_effective_config_holds_the_flags_by_name(self, corpus_dir):
        config = json.loads((corpus_dir / "effective_config.json").read_text())
        flags = {a.dest for a in _subparser("synth")._actions}
        assert set(config) == {"version", "command",
                               *flags - {"help", "out_dir"}}
        assert (config["command"], config["duration"]) == ("synth", 2.5)

    def test_setting_flags_are_synth_config_fields(self):
        # One table of defaults: a field added to SynthConfig or a flag
        # added to synth alone, or a default of the flag's own, fails here.
        flags = {a.dest: a for a in _subparser("synth")._actions
                 if a.dest not in ("help", "healthy", "pathological", "seed",
                                   "out_dir")}
        fields = {"duration" if f.name == "duration_s" else f.name: f
                  for f in dataclasses.fields(synth.SynthConfig)}
        assert set(flags) == set(fields)
        for name, field in fields.items():
            assert flags[name].default == field.default, name

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

    def test_clipped_samples_are_warned_of(self, tmp_path, capsys):
        # README's command: the default murmur gain drives some
        # pathological records past 16-bit full scale.
        code = main(["synth", "--healthy", "20", "--pathological", "20",
                     "--seed", "0", "--out-dir", str(tmp_path / "a")])
        assert code == 0
        assert capsys.readouterr().err == (
            "warning: 29 samples in 12 of 40 records exceed 16-bit full "
            "scale and were clipped\n")
        code = main(["synth", "--healthy", "20", "--pathological", "20",
                     "--seed", "0", "--murmur-gain", "0.1",
                     "--out-dir", str(tmp_path / "b")])
        assert code == 0
        assert capsys.readouterr().err == ""


    @pytest.mark.parametrize("flag, value", [
        ("--duration", "inf"), ("--duration", "nan"),
        ("--noise-floor", "inf"), ("--murmur-gain", "nan")])
    def test_non_finite_number_exits_1_before_output(self, tmp_path, capsys,
                                                     flag, value):
        out = tmp_path / "corpus"
        code = main(["synth", "--healthy", "1", "--pathological", "1",
                     flag, value, "--out-dir", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "must be finite" in err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("value", ["1e308", "1e300"],
                             ids=["inf-samples", "huge-duration"])
    def test_more_samples_than_a_wav_holds_exits_1_before_output(
            self, tmp_path, capsys, value):
        out = tmp_path / "corpus"
        code = main(["synth", "--healthy", "1", "--pathological", "1",
                     "--duration", value, "--out-dir", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: duration ")
        assert captured.err.endswith(" samples a WAV file holds\n")
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("out_dir", ["f.txt", "f.txt/sub"])
    def test_out_dir_under_a_file_exits_2_before_any_work(
            self, tmp_path, capsys, monkeypatch, out_dir):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "f.txt").write_text("")
        monkeypatch.setattr(synth, "generate_dataset", None)  # a call would fail
        code = main(["synth", "--healthy", "20", "--pathological", "20",
                     "--out-dir", out_dir])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: cannot write {out_dir}: f.txt is not "
                                "a directory\n")
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.txt"]


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
                     *OLD_WINDOW, "--out", str(tmp_path / "f.csv")])
        assert code == 2
        assert "nope.wav" in capsys.readouterr().err

    @pytest.mark.parametrize("out, message", [
        ("f.txt/x.csv", "cannot write f.txt: f.txt is not a directory"),
        ("f.txt/sub/x.csv", "cannot write f.txt/sub: f.txt is not a directory"),
        (".", "cannot write .: it is a directory"),
    ], ids=["under-file", "deep-under-file", "directory"])
    def test_unwritable_out_exits_2_before_reading(
            self, corpus_dir, tmp_path, capsys, monkeypatch, out, message):
        wav = sorted(corpus_dir.glob("*.wav"))[0]
        monkeypatch.chdir(tmp_path)
        (tmp_path / "f.txt").write_text("")
        monkeypatch.setattr(cli, "read_wav", None)  # a call would fail
        code = main(["extract", "--input", str(wav), *OLD_WINDOW,
                     "--out", out])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.txt"]

    @pytest.mark.parametrize("length, hop, message", [
        ("30", "4980", "window length 31 at hop 4980 leaves 1 frame"),
        ("5000", "1", "window length 5001 at hop 1 leaves 0 frames"),
    ], ids=["one-frame", "no-frame"])
    def test_unusable_window_exits_1_before_reading(
            self, corpus_dir, tmp_path, capsys, monkeypatch, length, hop,
            message):
        wav = sorted(corpus_dir.glob("*.wav"))[0]
        monkeypatch.setattr(cli, "read_wav", None)  # a call would fail
        code = main(["extract", "--input", str(wav), "--shape", "gaussian",
                     "--length", length, "--hop", hop,
                     "--out", str(tmp_path / "one.csv")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: {message} in a record of 5000 "
                                "samples; features need at least 2\n")
        assert captured.out == "" and list(tmp_path.iterdir()) == []

    def test_label_outside_the_two_classes_is_a_usage_error(
            self, corpus_dir, tmp_path, capsys):
        # train and eval refuse unlabeled features, so extract does not
        # write them under a --label; leaving --label out still does.
        wav = sorted(corpus_dir.glob("*.wav"))[0]
        with pytest.raises(SystemExit) as exc:
            main(["extract", "--input", str(wav), "--label", "unlabeled",
                  *OLD_WINDOW, "--hop", "250", "--out", str(tmp_path / "f.csv")])
        assert exc.value.code == 2
        assert "invalid choice: 'unlabeled'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_non_wav_input_exits_1_naming_the_file(self, tmp_path, capsys):
        csv_in = tmp_path / "rec.csv"
        np.savetxt(csv_in, np.linspace(-0.5, 0.5, 20000))
        code = main(["extract", "--input", str(csv_in), *OLD_WINDOW,
                     "--out", str(tmp_path / "f.csv")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {csv_in} is not a RIFF/WAVE file\n")
        assert list(tmp_path.iterdir()) == [csv_in]

    def test_fuzzed_wav_exits_cleanly(self, corpus_dir, tmp_path, capsys):
        wav = tmp_path / "w.wav"
        out = tmp_path / "f.csv"
        codes = set()
        for raw in wav_mutations(sorted(corpus_dir.glob("*.wav"))[0].read_bytes(),
                                 200, seed=80):
            wav.write_bytes(raw)
            code = main(["extract", "--input", str(wav), *OLD_WINDOW,
                         "--hop", "250", "--out", str(out)])
            captured = capsys.readouterr()
            codes.add(code)
            assert code in (0, 1, 2)
            if code:
                assert captured.err.startswith("error: ")
                assert captured.err.count("\n") == 1
            if code == 1:  # a bad file, or a rate preprocess refuses
                assert str(wav) in captured.err
        assert {0, 1} <= codes

    def test_undecimable_rate_names_the_file(self, tmp_path, capsys):
        wav = tmp_path / "odd_rate.wav"
        write_1250_hz_wav(wav)
        code = main(["extract", "--input", str(wav), *OLD_WINDOW,
                     "--out", str(tmp_path / "f.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(wav) in err and "rate 1250" in err
        assert not (tmp_path / "f.csv").exists()

    def test_repeated_run_is_byte_identical(self, corpus_dir, tmp_path):
        wav = sorted(corpus_dir.glob("*.wav"))[0]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["extract", "--input", str(wav), *OLD_WINDOW,
                         "--hop", "50", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_output_is_pinned(self, tmp_path):
        """sha256 of the feature CSV and sidecar for one synthetic record,
        pinned with numpy 2.4: the WAV, the preprocessing and the features
        are fixed to the bit."""
        rec = synth.generate_dataset(1, 1, base_seed=0)[0]
        wav = tmp_path / f"{rec.id}.wav"
        write_wav(rec, wav)
        assert main(["extract", "--input", str(wav), "--label", "healthy",
                     *OLD_WINDOW, "--hop", "25",
                     "--out", str(tmp_path / "f.csv")]) == 0
        assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                for name in ("f.csv", "f.meta.json")} == {
            "f.csv": "7c394b4608ea4bbef3f44756aac3f81075ff360841d1423ecce2e301a0530145",
            "f.meta.json":
                "be60f16011786bf009c2fc3d11873704542b26c1f508cd45d300b6dab89955bc"}


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
    "huge_int_alpha": _meta_edit(lambda m: m.update(alpha=10**400)),
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


@pytest.fixture(scope="module")
def mixed_feature_dir(corpus_dir, tmp_path_factory):
    """One healthy and one pathological record, each at hop 25 and hop 50."""
    out = tmp_path_factory.mktemp("mixed_features")
    with open(corpus_dir / "labels.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in (rows[0], rows[-1]):
        stem = row["filename"].removesuffix(".wav")
        for hop in ("25", "50"):
            assert main(["extract", "--input", str(corpus_dir / row["filename"]),
                         "--label", row["label"], *OLD_WINDOW,
                         "--hop", hop,
                         "--out", str(out / f"{stem}_hop{hop}.csv")]) == 0
    return out


def assert_mixed_hops_refused(err, features):
    first = sorted(features.glob("*.csv"))[0].stem.removesuffix("_hop25")
    assert err == (f"error: sequence 1 ({first!r}) has hop 50, sequence 0 "
                   f"({first!r}) has 25: a batch takes one feature config "
                   "and one shape\n")


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
                     "--seed", "0", "--epochs", "2",
                     "--out", str(model_path)]) == 0
        capsys.readouterr()
        assert main(["eval", "--model", str(model_path),
                     "--features", str(feature_dir)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"tp", "tn", "fp", "fn", "sensitivity",
                                "specificity", "accuracy"}

    def test_empty_feature_dir_exits_2(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        code = main(["train", "--features", str(tmp_path / "empty"),
                     *OLD_TRAIN, "--out", str(tmp_path / "m.bin")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: no feature CSVs in {tmp_path / 'empty'}\n")
        assert not (tmp_path / "m.bin").exists()

    def test_zero_hidden_exits_1_before_reading(self, feature_dir, tmp_path,
                                                capsys, monkeypatch):
        monkeypatch.setattr(cli, "read_features", None)  # a call would fail
        code = main(["train", "--features", str(feature_dir), "--hidden", "0",
                     "--seed", "0", "--out", str(tmp_path / "m.bin")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: hidden size must be >= 1, got 0\n")
        assert list(tmp_path.iterdir()) == []

    def test_negative_seed_exits_1(self, feature_dir, tmp_path, capsys,
                                   monkeypatch):
        monkeypatch.setattr(cli, "read_features", None)  # a call would fail
        code = main(["train", "--features", str(feature_dir), "--seed", "-1",
                     "--hidden", "30", "--out", str(tmp_path / "m.bin")])
        assert code == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("out,history", [
        ("m.bin", "m.txt/sub/h.json"),  # a file above its directory
        ("m.bin", "m.txt/h.json"),  # a file where its directory should be
        ("m.bin", "."),             # a directory as the history file
        ("m.txt/m.bin", "h.json"),
        (".", "h.json"),
    ])
    def test_unwritable_output_exits_2_writing_nothing(
            self, feature_dir, tmp_path, capsys, monkeypatch, out, history):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "m.txt").write_text("")
        code = main(["train", "--features", str(feature_dir), "--hidden", "3",
                     "--seed", "0", "--epochs", "1", "--out", out,
                     "--history", history])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot write ")
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.txt"]

    def test_train_on_mixed_feature_configs_exits_1(self, mixed_feature_dir,
                                                    tmp_path, capsys):
        capsys.readouterr()
        code = main(["train", "--features", str(mixed_feature_dir),
                     "--hidden", "3", "--seed", "0", "--epochs", "1",
                     "--out", str(tmp_path / "m.bin")])
        assert code == 1
        assert_mixed_hops_refused(capsys.readouterr().err, mixed_feature_dir)
        assert not (tmp_path / "m.bin").exists()

    def test_eval_on_mixed_feature_configs_exits_1(self, mixed_feature_dir,
                                                   tmp_path, capsys):
        model = tmp_path / "model.bin"
        nnet.save_model(nnet.init_model(3, seed=0), model)
        capsys.readouterr()
        code = main(["eval", "--model", str(model),
                     "--features", str(mixed_feature_dir)])
        assert code == 1
        captured = capsys.readouterr()
        assert_mixed_hops_refused(captured.err, mixed_feature_dir)
        assert captured.out == ""

    def test_eval_on_features_made_another_way_exits_1(self, tmp_path,
                                                       capsys):
        # The model records the feature config it was trained on, and eval
        # holds the features to it: here the window differs.
        corpus = tmp_path / "corpus"
        assert main(["synth", "--healthy", "3", "--pathological", "3",
                     "--out-dir", str(corpus)]) == 0
        for name, shape, length in (("f", "gaussian", "30"),
                                    ("f2", "rectangular", "15")):
            for wav in sorted(corpus.glob("*.wav")):
                label = wav.stem.split("_")[0]
                assert main(["extract", "--input", str(wav), "--label", label,
                             "--shape", shape, "--length", length,
                             "--hop", "250",
                             "--out", str(tmp_path / name / f"{wav.stem}.csv")
                             ]) == 0
        model = tmp_path / "m.bin"
        assert main(["train", "--features", str(tmp_path / "f"),
                     "--hidden", "3", "--epochs", "2", "--seed", "0",
                     "--out", str(model)]) == 0
        capsys.readouterr()
        code = main(["eval", "--model", str(model),
                     "--features", str(tmp_path / "f2")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: sequence 0 ('healthy_000') has window_shape rectangular, "
            "the model has gaussian: a model takes the features it was "
            "trained on\n")

    def test_eval_on_old_format_model_exits_1(self, feature_dir, tmp_path,
                                              capsys):
        model = tmp_path / "model.bin"
        nnet.save_model(nnet.init_model(3, seed=0), model)
        model.write_bytes(b"HWM1" + model.read_bytes()[4:])
        code = main(["eval", "--model", str(model),
                     "--features", str(feature_dir)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {model}: an HWM1 model file, "
                                       "the old format")
        assert captured.err.count("\n") == 1

    def test_nan_feature_exits_1(self, feature_dir, tmp_path, capsys):
        features = tmp_path / "features"
        shutil.copytree(feature_dir, features)
        path = sorted(features.glob("*.csv"))[0]
        values = np.loadtxt(path, delimiter=",", ndmin=2)
        values[1, 2] = np.nan
        np.savetxt(path, values, delimiter=",")
        code = main(["train", "--features", str(features), "--hidden", "3",
                     "--seed", "0", "--epochs", "2",
                     "--out", str(tmp_path / "m.bin")])
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
        assert main(["extract", "--input", str(wav), *OLD_WINDOW,
                     "--hop", "250", "--out", str(features / "f.csv")]) == 0
        model = tmp_path / "model.bin"
        nnet.save_model(nnet.init_model(3, seed=0), model)
        capsys.readouterr()
        code = main(["eval", "--model", str(model), "--features", str(features)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: sequence {wav.stem!r} is unlabeled")
        assert err.count("\n") == 1

    def test_model_width_mismatch_exits_1(self, feature_dir, tmp_path, capsys):
        # The network's input width is fixed at the ten features, so a
        # header that records another one is refused by load_model.
        model = tmp_path / "model.bin"
        nnet.save_model(nnet.init_model(3, seed=0), model)
        model.write_bytes(_header_edit(b'"input_size": 10', b'"input_size": 4')(
            model.read_bytes()))
        code = main(["eval", "--model", str(model),
                     "--features", str(feature_dir)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {model}: input_size 4, expected 10\n")

    def test_eval_on_one_class_exits_0(self, feature_dir, tmp_path, capsys):
        # Scoring needs no second class, unlike training.
        features = tmp_path / "features"
        features.mkdir()
        for path in feature_dir.glob("healthy_*"):
            shutil.copy(path, features)
        model = tmp_path / "model.bin"
        nnet.save_model(nnet.init_model(3, seed=0), model)
        capsys.readouterr()
        code = main(["eval", "--model", str(model), "--features", str(features)])
        assert code == 0
        out = capsys.readouterr().out
        assert '"sensitivity": null' in out
        payload = json.loads(out)
        assert payload["tp"] == payload["fn"] == 0
        assert payload["tn"] + payload["fp"] == 5


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
        config = json.loads((out / "effective_config.json").read_text())
        flags = {a.dest for a in _subparser("grid")._actions}
        assert set(config) == {"version", "command",
                               *flags - {"help", "config", "out_dir"}}
        with open(out / "results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2  # one cell, two trials

    def test_negative_seed_runs(self, corpus_dir, tmp_path):
        # Trial seeds derive from --seed by mix_seed, which takes any
        # integer; only `train` feeds --seed to numpy directly.
        code = main(["grid", "--corpus", str(corpus_dir), *SMALL_GRID,
                     "--seed", "-1", "--out-dir", str(tmp_path / "grid")])
        assert code == 0

    def test_config_file_merges_with_flag_priority(self, corpus_dir, tmp_path):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({
            "version": 1, "shapes": ["gaussian"], "lengths": [30],
            "hidden": [3], "trials": 2, "hop": 250, "epochs": 2,
            "seed": 7}))
        out = tmp_path / "grid"
        code = main(["grid", "--corpus", str(corpus_dir),
                     "--config", str(config_path), "--trials", "1",
                     "--seed", "0", "--out-dir", str(out)])
        assert code == 0
        effective = json.loads((out / "effective_config.json").read_text())
        assert effective["trials"] == 1  # explicit flag wins
        assert effective["seed"] == 0    # ... also when it is the default
        assert effective["hop"] == 250   # taken from the config file
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
        ({"trials": math.nan}, "config key 'trials' must be an integer, "
         "got NaN"),
        ({"trials": math.inf}, "config key 'trials' must be an integer, "
         "got Infinity"),
        ({"shapes": "gaussian"}, "config key 'shapes' must be a non-empty list"),
        ({"shapes": ["hann"]}, "config key 'shapes' must be a non-empty list, "
         "each one of rectangular, triangular, gaussian, got [\"hann\"]"),
        ({"shapes": ["Gaussian"]}, "config key 'shapes' must be a non-empty "
         "list, each one of rectangular, triangular, gaussian, got "
         "[\"Gaussian\"]"),
        ({REMOVED_FLAG: 2}, f"unknown config key '{REMOVED_FLAG}'"),
        ({REMOVED_FLAG: "2"}, f"unknown config key '{REMOVED_FLAG}'"),
        ({"clip_norm": 1.0}, "unknown config key 'clip_norm'"),
        ({"clip_norm": None}, "unknown config key 'clip_norm'"),
        ({"momentum_ramp": True}, "unknown config key 'momentum_ramp'"),
        ({"lr": 0.01}, "unknown config key 'lr'"),
        ({"momentum": 0.9}, "unknown config key 'momentum'"),
        ({"alpha": 2.5}, "unknown config key 'alpha'"),
        ({"bins": 10}, "unknown config key 'bins'"),
        ({"version": 2}, "run.json: unsupported config version 2"),
        ({"version": 1, "command": "synth"}, "run.json: not a grid config"),
    ], ids=["trials-string", "trials-bool", "epochs-float", "trials-nan",
            "trials-infinity", "shapes-string", "shapes-unknown",
            "shapes-wrong-case", "removed-flag-int", "removed-flag-string",
            "clip-norm", "clip-norm-null", "momentum-ramp", "lr", "momentum",
            "alpha", "bins", "version-2", "synth-config"])
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

    @pytest.mark.parametrize("label", ["unlabeled", "Healthy", ""])
    def test_manifest_label_outside_the_two_classes_exits_1(self, tmp_path,
                                                           capsys, label):
        # Refused before any WAV is read: the listed files do not exist.
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        manifest = corpus / "labels.csv"
        manifest.write_text(f"filename,label\na.wav,healthy\nb.wav,{label}\n")
        code = main(["grid", "--corpus", str(corpus), *SMALL_GRID,
                     "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {manifest}: line 3 has label {label!r}, not healthy or "
            "pathological\n")

    @pytest.mark.parametrize("again", ["a.wav", "./a.wav", "sub/../a.wav"])
    def test_manifest_listing_a_file_twice_exits_1(self, tmp_path, capsys,
                                                   again):
        # Refused before any WAV is read: the listed files do not exist.
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        manifest = corpus / "labels.csv"
        manifest.write_text("filename,label\na.wav,healthy\n"
                            f"b.wav,pathological\n{again},pathological\n")
        code = main(["grid", "--corpus", str(corpus), *SMALL_GRID,
                     "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {manifest}: line 4 lists {again!r} again, first on "
            "line 2\n")

    def test_manifest_with_a_byte_order_mark_gives_the_same_results(
            self, corpus_dir, tmp_path):
        # Spreadsheet tools save "CSV UTF-8" with a leading byte-order mark.
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_dir, corpus)
        manifest = corpus / "labels.csv"
        manifest.write_bytes(b"\xef\xbb\xbf" + manifest.read_bytes())
        for source, out in ((corpus_dir, "plain"), (corpus, "bom")):
            assert main(["grid", "--corpus", str(source), *SMALL_GRID,
                         "--out-dir", str(tmp_path / out)]) == 0
        assert ((tmp_path / "bom" / "results.csv").read_bytes()
                == (tmp_path / "plain" / "results.csv").read_bytes())

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"],
                             ids=["plain", "byte-order-mark"])
    def test_manifest_not_utf8_exits_1_naming_it(self, tmp_path, capsys, bom):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        manifest = corpus / "labels.csv"
        manifest.write_bytes(bom + b"filename,label\n\xff.wav,healthy\n")
        code = main(["grid", "--corpus", str(corpus), *SMALL_GRID,
                     "--out-dir", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {manifest}: ") and err.count("\n") == 1

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

    def test_undecimable_rate_names_the_file(self, corpus_dir, tmp_path,
                                             capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_dir, corpus)
        write_1250_hz_wav(corpus / "odd_rate.wav")
        with open(corpus / "labels.csv", "a", newline="") as fh:
            csv.writer(fh).writerow(["odd_rate.wav", "healthy"])
        code = main(["grid", "--corpus", str(corpus), *SMALL_GRID,
                     "--out-dir", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "odd_rate.wav" in err and "rate 1250" in err

    def test_removed_thread_pool_flag_is_a_usage_error(self, corpus_dir,
                                                        tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["grid", "--corpus", str(corpus_dir), *SMALL_GRID,
                  f"--{REMOVED_FLAG}", "2", "--out-dir", str(tmp_path / "out")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("out_dir", ["f.txt", "f.txt/sub"])
    def test_out_dir_under_a_file_exits_2_before_any_work(
            self, corpus_dir, tmp_path, capsys, monkeypatch, out_dir):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "f.txt").write_text("")
        monkeypatch.setattr(cli, "_load_corpus", None)  # a call would fail
        monkeypatch.setattr(evaluate, "run_grid", None)
        code = main(["grid", "--corpus", str(corpus_dir), *SMALL_GRID,
                     "--out-dir", out_dir])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: cannot write {out_dir}: f.txt is not "
                                "a directory\n")
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.txt"]

    @pytest.mark.parametrize("bad", [
        ["--hidden", "0"], ["--trials", "0"], ["--lengths", "1"],
        ["--hop", "0"], ["--hidden", "5", "5"], ["--lengths", "15", "6000"]],
        ids=["hidden", "trials", "length", "hop", "repeated-hidden",
             "window-fit"])
    def test_bad_axis_exits_1_before_reading(self, corpus_dir, tmp_path,
                                             capsys, monkeypatch, bad):
        reads = []
        monkeypatch.setattr(cli, "read_wav",
                            lambda *args, **kw: reads.append(args))
        # The bad value comes last, and argparse takes the last value.
        code = main(["grid", "--corpus", str(corpus_dir), *SMALL_GRID, *bad,
                     "--out-dir", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert reads == [] and list(tmp_path.iterdir()) == []

    def test_missing_corpus_exits_2(self, tmp_path, capsys):
        code = main(["grid", "--corpus", str(tmp_path / "missing"),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert "labels.csv" in capsys.readouterr().err


# Every output flag of every command, each given a path under a regular file
# and, for a file, a directory: (command, flag, path, error message).
UNWRITABLE_OUTPUTS = [
    (command, flag, path, message)
    for command, flag in [("synth", "--out-dir"), ("extract", "--out"),
                          ("train", "--out"), ("train", "--history"),
                          ("grid", "--out-dir")]
    for path, message in (
        [("f.txt/x", "f.txt/x: f.txt is not a directory"),
         ("f.txt/sub/x", "f.txt/sub/x: f.txt is not a directory")]
        if flag == "--out-dir" else
        [("f.txt/x", "f.txt: f.txt is not a directory"),
         ("f.txt/sub/x", "f.txt/sub: f.txt is not a directory"),
         (".", ".: it is a directory")])]


@pytest.mark.parametrize(
    "command, flag, path, message", UNWRITABLE_OUTPUTS,
    ids=[f"{c}{f}={p}" for c, f, p, _ in UNWRITABLE_OUTPUTS])
def test_unwritable_output_exits_2_before_reading(
        corpus_dir, feature_dir, tmp_path, capsys, monkeypatch,
        command, flag, path, message):
    inputs = {  # the row's flag comes last, and argparse takes the last value
        "synth": ["--healthy", "1", "--pathological", "1"],
        "extract": ["--input", str(sorted(corpus_dir.glob("*.wav"))[0]),
                    *OLD_WINDOW],
        "train": ["--features", str(feature_dir), "--hidden", "3",
                  "--seed", "0", "--epochs", "1", "--out", "m.bin"],
        "grid": ["--corpus", str(corpus_dir), *SMALL_GRID],
    }
    for module, name in [(synth, "generate_dataset"), (cli, "read_wav"),
                         (cli, "_load_feature_dir"), (cli, "_load_corpus")]:
        monkeypatch.setattr(module, name, None)  # a call would fail
    work = tmp_path / "work"
    work.mkdir()
    (work / "f.txt").write_text("")
    monkeypatch.chdir(work)
    code = main([command, *inputs[command], flag, path])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write {message}\n"
    assert captured.out == ""
    assert sorted(p.name for p in work.iterdir()) == ["f.txt"]


# Outputs that name a file their command reads, or another of its outputs,
# each spelled as the command sees it: (argv, error message).
CLASHING_OUTPUTS = {
    "train-out-history": (
        ["train", "--features", "feats", *OLD_TRAIN, "--out", "same.bin",
         "--history", "same.bin"], "same.bin: --out writes it"),
    "train-feature-file": (
        ["train", "--features", "feats", *OLD_TRAIN, "--out", "feats/a.csv"],
        "feats/a.csv: --features reads it"),
    "extract-input": (
        ["extract", "--input", "rec.csv", *OLD_WINDOW, "--out", "rec.csv"],
        "rec.csv: --input reads it"),
    "extract-input-other-spelling": (
        ["extract", "--input", "rec.csv", *OLD_WINDOW,
         "--out", "feats/../rec.csv"],
        "feats/../rec.csv: --input reads it"),
    "extract-sidecar": (
        ["extract", "--input", "rec.meta.json", *OLD_WINDOW, "--out", "rec.csv"],
        "rec.meta.json: --input reads it"),
    "extract-hard-link": (
        ["extract", "--input", "rec.csv", *OLD_WINDOW, "--out", "link.csv"],
        "link.csv: --input reads it"),
    "extract-symbolic-link": (
        ["extract", "--input", "rec.csv", *OLD_WINDOW, "--out", "symlink.csv"],
        "symlink.csv: --input reads it"),
}


@pytest.mark.parametrize("argv, message", CLASHING_OUTPUTS.values(),
                         ids=CLASHING_OUTPUTS.keys())
def test_output_naming_a_file_of_the_command_exits_2_before_reading(
        feature_dir, tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    np.savetxt(tmp_path / "rec.csv", np.linspace(-0.5, 0.5, 20000))
    shutil.copy(tmp_path / "rec.csv", tmp_path / "rec.meta.json")
    os.link(tmp_path / "rec.csv", tmp_path / "link.csv")
    (tmp_path / "symlink.csv").symlink_to("rec.csv")
    (tmp_path / "feats").mkdir()
    first = sorted(feature_dir.glob("*.csv"))[0]
    shutil.copy(first, tmp_path / "feats" / "a.csv")
    shutil.copy(first.with_suffix(".meta.json"),
                tmp_path / "feats" / "a.meta.json")
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    for module, name in [(cli, "read_wav"), (cli, "read_features")]:
        monkeypatch.setattr(module, name, None)  # a call would fail
    code = main(argv)
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write {message}\n"
    assert captured.out == ""
    assert {p: p.read_bytes() for p in tmp_path.rglob("*")
            if p.is_file()} == before


@pytest.mark.parametrize("command", ["train", "grid"])
def test_impossible_allocation_exits_1_writing_nothing(
        corpus_dir, feature_dir, tmp_path, capsys, monkeypatch, command):
    # At H = 1e8 theta is 32 H^2 float64s, 2.22 EiB: beyond any x86-64
    # address space, so the allocation fails before it touches memory.
    monkeypatch.chdir(tmp_path)
    argv = {"train": ["train", "--features", str(feature_dir), "--seed", "0",
                      "--epochs", "1", "--out", "m.bin", "--history", "h.json"],
            "grid": ["grid", "--corpus", str(corpus_dir), *SMALL_GRID,
                     "--out-dir", "out"]}[command]
    assert main([*argv, "--hidden", "100000000"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: Unable to allocate ")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, hop", [
    ("extract", 25), ("window-info", 1), ("grid", 250)])
def test_window_beyond_int64_gets_the_framing_message(
        corpus_dir, tmp_path, capsys, monkeypatch, command, hop):
    # Its half length is past int64, where numpy refuses with its own text.
    monkeypatch.chdir(tmp_path)
    length = str(10**23)
    wav = str(sorted(corpus_dir.glob("*.wav"))[0])
    argv = {"extract": ["extract", "--input", wav, "--shape", "gaussian",
                        "--length", length, "--hop", str(hop), "--out",
                        "f.csv"],
            "window-info": ["window-info", "--lengths", length],
            "grid": ["grid", "--corpus", str(corpus_dir), *SMALL_GRID,
                     "--lengths", length, "--out-dir", "out"]}[command]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: window length {10**23 + 1} at hop {hop} leaves 0 frames in "
        "a record of 5000 samples; features need at least 2\n")
    assert captured.out == "" and list(tmp_path.iterdir()) == []


def test_missing_output_directories_are_made(corpus_dir, feature_dir,
                                             tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    wav = sorted(corpus_dir.glob("*.wav"))[0]
    assert main(["extract", "--input", str(wav), *OLD_WINDOW, "--hop", "250",
                 "--out", "features/sub/x.csv"]) == 0
    assert main(["train", "--features", str(feature_dir), "--hidden", "3",
                 "--seed", "0", "--epochs", "1", "--out", "models/m.bin",
                 "--history", "logs/h.json"]) == 0
    for path in ("features/sub/x.csv", "features/sub/x.meta.json",
                 "models/m.bin", "logs/h.json"):
        assert (tmp_path / path).is_file()


# The same malformed JSON, fed to each file pcgkit reads JSON from.
BAD_JSON = {
    "not_utf8": b'{"trials": 1}\xff',
    "trailing_comma": b'{"trials": 1,}',
    "deeply_nested": b"[" * 100_000 + b"]" * 100_000,
    "json_list": b'[{"trials": 1}]',
}


@pytest.mark.parametrize("bad", sorted(BAD_JSON))
@pytest.mark.parametrize("target", ["config", "sidecar", "model_header"])
def test_bad_json_exits_1_naming_the_file(feature_dir, tmp_path, capsys,
                                          target, bad):
    features = tmp_path / "features"
    shutil.copytree(feature_dir, features)
    model = tmp_path / "model.bin"
    nnet.save_model(nnet.init_model(3, seed=0), model)
    argv = ["eval", "--model", str(model), "--features", str(features)]
    if target == "config":
        path = tmp_path / "run.json"
        path.write_bytes(BAD_JSON[bad])
        # The corpus does not exist: a config that passed would exit 2.
        argv = ["grid", "--corpus", str(tmp_path / "missing"),
                "--config", str(path), "--out-dir", str(tmp_path / "out")]
    elif target == "sidecar":
        path = sorted(features.glob("*.meta.json"))[0]
        path.write_bytes(BAD_JSON[bad])
    else:
        path = model
        path.write_bytes(_rewrite_header(path.read_bytes(),
                                         lambda header: BAD_JSON[bad]))
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {path}: ")
    assert captured.err.count("\n") == 1 and captured.out == ""


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

    def test_default_output_is_pinned(self, capsys):
        """sha256 of the default table, pinned with numpy 2.4: the lobe
        measurements are fixed to their last printed digit."""
        assert main(["window-info"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "0c9c11c8eda95ad53f14de3119682436f812042f4b8f8be36ead4cabf3919d4b")

    def test_gaussian_without_a_null(self, capsys):
        # At alpha 8 neither spectrum has a local minimum: L = 14 never
        # drops to -60 dB, so its main lobe is the whole band, and L = 30
        # takes its -60 dB crossing for the null.
        assert main(["window-info", "--shapes", "gaussian",
                     "--lengths", "15", "30", "--alpha", "8"]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            "gaussian,14,8.0,1.00000000,none",
            "gaussian,30,8.0,0.63134766,none"]

    def test_gaussian_with_side_lobes_below_the_floor(self, capsys):
        # At alpha 8.5 and L = 50 the spectrum has a null, and every side
        # lobe after it lies within 10 dB of the -300 dB floor.
        assert main(["window-info", "--shapes", "gaussian",
                     "--lengths", "50", "--alpha", "8.5"]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            "gaussian,50,8.5,0.89306641,none"]
        spec = WindowSpec.from_nominal_length(WindowShape.GAUSSIAN, 50, 8.5)
        assert peak_sidelobe_db(window_spectrum(make_window(spec))) is None

    @pytest.mark.parametrize("argv", [
        ["--lengths", "15", "1"], ["--lengths", "15", "5000"]],
        ids=["length", "too-long"])
    def test_bad_spec_exits_1_before_output(self, capsys, argv):
        assert main(["window-info", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_dft_size_follows_the_window(self, capsys):
        # A 601-point window gets nfft 4808, eight points per window point.
        assert main(["window-info", "--shapes", "rectangular",
                     "--lengths", "601"]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            "rectangular,600,,0.00332779,-13.3967"]

    def test_longest_window_that_leaves_two_frames(self, capsys):
        # 4999 points leave two frames of a 5000-sample record; nfft 39992.
        assert main(["window-info", "--lengths", "4999"]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert [row["L"] for row in rows] == ["4998"] * 3
        width = float(rows[0]["mainlobe_width"])
        assert width == pytest.approx(2 / 4999, abs=1 / 39992)

    def test_window_that_leaves_no_frames_is_never_built(self, capsys,
                                                         monkeypatch):
        built = []

        def make_window_spy(spec):
            built.append(spec.length)
            return make_window(spec)

        monkeypatch.setattr(cli, "make_window", make_window_spy)
        assert main(["window-info", "--lengths", "15", "5000"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: window length 5001 at hop 1 leaves 0 frames in a record "
            "of 5000 samples; features need at least 2\n")
        assert built == [15]

    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["grid"])  # missing required flags
        assert exc.value.code == 2

    def test_seed_defaults_to_zero(self):
        # As generate_dataset's and run_grid's base_seed do; train's
        # --seed is required.
        from pcgkit.cli import build_parser
        args = build_parser().parse_args(["synth", "--healthy", "1",
                                          "--pathological", "1",
                                          "--out-dir", "x"])
        assert args.seed == 0
        args = build_parser().parse_args(["grid", "--corpus", "c",
                                          "--out-dir", "x"])
        assert args.seed == 0


@pytest.mark.parametrize("argv", [["train", "--features", "f", "--out", "m",
                                   *OLD_TRAIN, "--clip-norm", "1"],
                                  ["grid", "--corpus", "c", "--out-dir", "o",
                                   "--momentum-ramp"],
                                  ["grid", "--corpus", "c", "--out-dir", "o",
                                   "--alpha", "3"],
                                  ["extract", "--input", "i", "--out", "o",
                                   *OLD_WINDOW, "--bins", "5"],
                                  ["extract", "--input", "i", "--out", "o",
                                   *OLD_WINDOW, "--rate", "2000"],
                                  ["window-info", "--nfft", "4096"],
                                  ["window-info", "--coeffs"],
                                  ["train", "--features", "f", "--out", "m",
                                   *OLD_TRAIN, "--lr", "0.01"],
                                  ["train", "--features", "f", "--out", "m",
                                   *OLD_TRAIN, "--momentum", "0.9"],
                                  ["grid", "--corpus", "c", "--out-dir", "o",
                                   "--lr", "0.01"],
                                  ["grid", "--corpus", "c", "--out-dir", "o",
                                   "--momentum", "0.9"],
                                  ["synth", "--out-dir", "o", "--healthy", "20",
                                   "--pathological", "20", "--rate", "2000"],
                                  ["eval", "--model", "m", "--features", "f",
                                   "--out", "x"]],
                         ids=["clip-norm", "momentum-ramp", "grid-alpha",
                              "extract-bins", "extract-rate",
                              "window-info-nfft", "window-info-coeffs",
                              "train-lr", "train-momentum", "grid-lr",
                              "grid-momentum", "synth-rate", "eval-out"])
def test_removed_training_flags_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", [
    ("synth", "--healthy"), ("synth", "--pathological"),
    ("extract", "--shape"), ("extract", "--length"),
    ("train", "--hidden"), ("train", "--seed")])
def test_setting_the_paper_does_not_fix_is_required(command, flag, capsys):
    # Their library parameters have no default, so neither has the flag.
    argv = {"synth": ["--healthy", "1", "--pathological", "1",
                      "--out-dir", "o"],
            "extract": ["--input", "i", "--out", "o", *OLD_WINDOW],
            "train": ["--features", "f", "--out", "m", *OLD_TRAIN]}[command]
    i = argv.index(flag)
    with pytest.raises(SystemExit) as exc:
        main([command, *argv[:i], *argv[i + 2:]])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"error: the following arguments are required: {flag}\n")


# What a command may raise and the exit code main maps it to; None: it
# propagates, so a genuine bug keeps its traceback.
EXIT_CODE_OF = {PcgError: 1, ValueError: 1, OSError: 2, MemoryError: 1,
                RuntimeError: None}


@pytest.mark.parametrize("error, code", EXIT_CODE_OF.items(),
                         ids=[error.__name__ for error in EXIT_CODE_OF])
def test_exception_contract(capsys, monkeypatch, error, code):
    def refuse(args):
        raise error("refused")

    monkeypatch.setattr(cli, "cmd_window_info", refuse)
    if code is None:
        with pytest.raises(error, match="^refused$"):
            main(["window-info"])
    else:
        assert main(["window-info"]) == code
    captured = capsys.readouterr()
    assert captured.err == ("" if code is None else "error: refused\n")
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["extract", "--input", "i", "--out", "o", "--shape", "Gaussian"],
    ["grid", "--corpus", "c", "--out-dir", "o", "--shapes", "hann"],
    ["window-info", "--shapes", "Gaussian"],
    ["window-info", "--shapes", "rectangular", "hann"]],
    ids=["extract-wrong-case", "grid-unknown", "window-info-wrong-case",
         "window-info-unknown"])
def test_bad_shape_name_is_a_usage_error(argv, capsys):
    # Every command takes a shape by its lower-case name, or refuses it
    # before it reads or writes anything.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"invalid choice: '{argv[-1]}'" in capsys.readouterr().err


def _subparser(command):
    """One pcgkit command's parser (argparse has no public accessor)."""
    return next(a.choices for a in cli.build_parser()._actions
                if isinstance(a.choices, dict))[command]


# TrainConfig's fields as train's and grid's flags.
TRAINING_FLAGS = {f.name for f in dataclasses.fields(nnet.TrainConfig)}

# The flags of train and grid that are not training flags, and the
# required ones among them with a value each.
OTHER_FLAGS = {
    "train": ({"features", "hidden", "seed", "out", "history"},
              ["--features", "f", "--out", "m", *OLD_TRAIN]),
    "grid": ({"corpus", "config", "shapes", "lengths", "hidden", "trials",
              "seed", "hop", "out_dir"},
             ["--corpus", "c", "--out-dir", "o"]),
}


@pytest.mark.parametrize("command", sorted(OTHER_FLAGS))
def test_training_flags_are_train_config_fields(command):
    # One table of defaults: a knob added to TrainConfig or to one command
    # alone, a default of its own, or a flag not passed on all fail here.
    defaults = nnet.TrainConfig()
    others, required = OTHER_FLAGS[command]
    flags = {a.dest: a for a in _subparser(command)._actions
             if a.dest != "help"}
    assert set(flags) - others == TRAINING_FLAGS
    argv, changed = [command, *required], {}
    for name in TRAINING_FLAGS:
        default = getattr(defaults, name)
        assert flags[name].default == default
        changed[name] = default + 1
        argv += ["--" + name.replace("_", "-"), str(changed[name])]
    args = cli.build_parser().parse_args(argv)
    assert cli._train_config_from_args(args) == dataclasses.replace(
        defaults, **changed)


# The library functions whose parameters grid's, extract's, train's and
# synth's remaining flags set, the parameters no flag sets (alpha: extract
# uses DEFAULT_ALPHA), the flags that set none, and the parameter each flag
# sets where their names differ.
SETTING_FLAGS = {
    "grid": ((evaluate.run_grid,), {"records", "train_config"},
             {"corpus", "config", "out_dir", *TRAINING_FLAGS},
             {"hidden": "hidden_sizes", "seed": "base_seed"}),
    "extract": ((WindowSpec.from_nominal_length, evaluate.extract_dataset),
                {"alpha", "records", "spec"}, {"input", "label", "out"},
                {"length": "nominal"}),
    "train": ((nnet.train,), {"dataset", "config"},
              {"features", "out", "history", *TRAINING_FLAGS}, {}),
    "synth": ((synth.generate_dataset,), {"config"},
              {"duration", "murmur_gain", "noise_floor", "out_dir"},
              {"healthy": "n_healthy", "pathological": "n_pathological",
               "seed": "base_seed"}),
}

# Parameters with no library default whose flags default to a named
# library constant instead: grid's axes are the protocol's.
CONSTANT_DEFAULTS = {
    "grid": {"shapes": [s.value for s in evaluate.PROTOCOL_SHAPES],
             "lengths": list(evaluate.PROTOCOL_LENGTHS),
             "hidden_sizes": list(evaluate.PROTOCOL_HIDDEN_SIZES)},
}


@pytest.mark.parametrize("command", sorted(SETTING_FLAGS))
def test_setting_flags_are_library_parameters(command):
    # One table of defaults: a knob added to the library or to the command
    # alone, a default of the command's own, or a default for a parameter
    # that the library makes the caller pass, fails here.
    functions, unset, others, parameter_of_flag = SETTING_FLAGS[command]
    params = {name: p for f in functions
              for name, p in inspect.signature(f).parameters.items()
              if name not in unset}
    flags = {parameter_of_flag.get(a.dest, a.dest): a
             for a in _subparser(command)._actions
             if a.dest not in ("help", *others)}
    assert set(flags) == set(params)
    constants = CONSTANT_DEFAULTS.get(command, {})
    for name, param in params.items():
        if name in constants:
            assert flags[name].default == constants[name], name
        elif param.default is inspect.Parameter.empty:
            assert flags[name].required, name
        else:
            assert flags[name].default == param.default, name
