import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tamperloc
from tamperloc.cli import EXIT_CHECK, EXIT_DATA, EXIT_OK, EXIT_USAGE, cli_main, entry
from tamperloc.datagen import load_manifest
from tamperloc.formats import read_pgm, read_tensorfile, write_tensorfile

from test_formats import poke_float32_bits


def run_module(module: str, argv: list[str]) -> subprocess.CompletedProcess:
    """``python -m module argv`` in a fresh interpreter that imports this checkout's package."""
    src = str(Path(tamperloc.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", module, *argv], env=env, capture_output=True, text=True, timeout=60)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    assert cli_main(["synth", "--out", str(root), "--n", "4", "--size", "64", "--seed", "0"]) == EXIT_OK
    return root


@pytest.fixture(scope="module")
def model(tmp_path_factory, corpus):
    path = tmp_path_factory.mktemp("model") / "model.uvlt"
    code = cli_main(
        ["train", "--data", str(corpus), "--out", str(path), "--steps", "2", "--batch", "2", "--seed", "0"]
    )
    assert code == EXIT_OK
    return path


class TestUsageErrors:
    def test_missing_subcommand(self, capsys):
        assert cli_main([]) == EXIT_USAGE
        assert "usage error" in capsys.readouterr().err

    def test_unknown_subcommand(self):
        assert cli_main(["transcode"]) == EXIT_USAGE

    def test_eval_requires_model(self, capsys):
        assert cli_main(["eval", "--data", "d", "--json", "r.json"]) == EXIT_USAGE
        assert "--model" in capsys.readouterr().err

    def test_unknown_flag(self):
        assert cli_main(["gradcheck", "--seeds", "3"]) == EXIT_USAGE

    def test_arch_choices_enforced(self):
        assert cli_main(["gradcheck", "--arch", "resnet"]) == EXIT_USAGE

    def test_help_exits_zero(self, capsys):
        assert cli_main(["--help"]) == EXIT_OK
        assert "synth" in capsys.readouterr().out


class TestDataErrors:
    def test_missing_input_frame(self, tmp_path):
        code = cli_main(["extract", "--in", str(tmp_path / "no.ppm"), "--out", str(tmp_path / "s.uvlt")])
        assert code == EXIT_DATA

    def test_corrupt_input_frame(self, tmp_path, capsys):
        bad = tmp_path / "bad.ppm"
        bad.write_bytes(b"P3\n2 2\n255\n")
        assert cli_main(["extract", "--in", str(bad), "--out", str(tmp_path / "s.uvlt")]) == EXIT_DATA
        assert "bad-magic" in capsys.readouterr().err

    def test_unknown_feature_view(self, corpus, tmp_path):
        frame = next(corpus.glob("*.ppm"))
        code = cli_main(
            ["extract", "--in", str(frame), "--out", str(tmp_path / "s.uvlt"), "--features", "wavelet"]
        )
        assert code == EXIT_DATA

    def test_synth_rejects_bad_count(self, tmp_path):
        assert cli_main(["synth", "--out", str(tmp_path / "d"), "--n", "0"]) == EXIT_DATA

    def test_train_rejects_seed_a_saved_model_cannot_hold(self, corpus, tmp_path, capsys):
        out = tmp_path / "m.uvlt"
        code = cli_main(["train", "--data", str(corpus), "--out", str(out), "--steps", "1", "--seed", str(2**48)])
        assert code == EXIT_DATA
        assert "bad-seed" in capsys.readouterr().err
        assert not out.exists()

    def test_train_on_missing_corpus(self, tmp_path):
        code = cli_main(["train", "--data", str(tmp_path / "no"), "--out", str(tmp_path / "m.uvlt")])
        assert code == EXIT_DATA

    @pytest.mark.parametrize("value", [float("nan"), -1.0])
    def test_infer_with_corrupt_variant_index(self, corpus, model, tmp_path, capsys, value):
        records = read_tensorfile(model)
        for name, array in records:
            if name == "meta.arch":
                array[0] = value
        bad = tmp_path / "bad.uvlt"
        write_tensorfile(bad, records)
        frame = next(corpus.glob("*.ppm"))
        code = cli_main(["infer", "--model", str(bad), "--in", str(frame), "--out", str(tmp_path / "m.pgm")])
        assert code == EXIT_DATA
        assert "corrupt-record" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "plus-inf", "minus-inf"])
    def test_infer_with_non_finite_parameter(self, corpus, model, tmp_path, capsys, value):
        records = read_tensorfile(model)
        for name, array in records:
            if name == "head.w":
                array.flat[0] = value
        bad = tmp_path / "bad.uvlt"
        write_tensorfile(bad, records)
        frame = next(corpus.glob("*.ppm"))
        code = cli_main(["infer", "--model", str(bad), "--in", str(frame), "--out", str(tmp_path / "m.pgm")])
        assert code == EXIT_DATA
        assert "corrupt-record" in capsys.readouterr().err
        assert not (tmp_path / "m.pgm").exists()

    @pytest.mark.parametrize("value", [np.nan, 7.5, -1.0, 2.0], ids=["nan", "fractional", "minus-1", "two"])
    def test_infer_with_corrupt_feature_row(self, corpus, model, tmp_path, capsys, value):
        records = read_tensorfile(model)
        for name, array in records:
            if name == "meta.features":
                array[0] = value
        bad = tmp_path / "bad.uvlt"
        write_tensorfile(bad, records)
        frame = next(corpus.glob("*.ppm"))
        code = cli_main(["infer", "--model", str(bad), "--in", str(frame), "--out", str(tmp_path / "m.pgm")])
        assert code == EXIT_DATA
        assert "corrupt-record" in capsys.readouterr().err

    def test_infer_on_signalling_nan_prints_one_error_line(self, corpus, model, tmp_path):
        bad = tmp_path / "bad.uvlt"
        bad.write_bytes(model.read_bytes())
        poke_float32_bits(bad, "head.b", 0x7F800001)
        frame = next(corpus.glob("*.ppm"))
        argv = ["infer", "--model", str(bad), "--in", str(frame), "--out", str(tmp_path / "m.pgm")]
        done = run_module("tamperloc", argv)
        assert done.returncode == EXIT_DATA
        assert done.stderr.splitlines() == [done.stderr.strip()]
        assert done.stderr.startswith("error:") and "corrupt-record" in done.stderr

    def test_infer_with_non_utf8_record_name(self, corpus, model, tmp_path, capsys):
        blob = bytearray(model.read_bytes())
        blob[14] = 0xFF  # first byte of the first record's name
        bad = tmp_path / "bad.uvlt"
        bad.write_bytes(bytes(blob))
        frame = next(corpus.glob("*.ppm"))
        code = cli_main(["infer", "--model", str(bad), "--in", str(frame), "--out", str(tmp_path / "m.pgm")])
        assert code == EXIT_DATA
        assert "corrupt-record" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["{", "{}"])
    def test_train_and_eval_on_malformed_manifest(self, model, tmp_path, capsys, text):
        (tmp_path / "manifest.json").write_text(text)
        assert cli_main(["train", "--data", str(tmp_path), "--out", str(tmp_path / "m.uvlt")]) == EXIT_DATA
        report = str(tmp_path / "r.json")
        assert cli_main(["eval", "--model", str(model), "--data", str(tmp_path), "--json", report]) == EXIT_DATA
        assert capsys.readouterr().err.count("bad-manifest") == 2

    def test_infer_with_missing_model(self, corpus, tmp_path):
        frame = next(corpus.glob("*.ppm"))
        code = cli_main(
            ["infer", "--model", str(tmp_path / "no.uvlt"), "--in", str(frame), "--out", str(tmp_path / "m.pgm")]
        )
        assert code == EXIT_DATA


class TestSynth:
    def test_writes_manifest_and_split(self, corpus, capsys):
        manifest = load_manifest(corpus)
        assert manifest.counts == {"train": 3, "eval": 1}
        assert len(list(corpus.glob("*.ppm"))) == 4
        assert len(list(corpus.glob("*.pgm"))) == 4


class TestExtract:
    def test_full_stack_has_52_channels(self, corpus, tmp_path, capsys):
        frame = sorted(corpus.glob("*.ppm"))[0]
        out = tmp_path / "stack.uvlt"
        assert cli_main(["extract", "--in", str(frame), "--out", str(out)]) == EXIT_OK
        records = read_tensorfile(out)
        assert len(records) == 52
        assert [name for name, _ in records[:3]] == ["rgb_R", "rgb_G", "rgb_B"]
        assert "52 channels" in capsys.readouterr().out

    def test_disabled_views_leave_zero_filled_slots(self, corpus, tmp_path):
        # the stack always carries the full channel layout so it stays a valid
        # network input; switched-off views occupy their slots as zeros
        frame = sorted(corpus.glob("*.ppm"))[0]
        subset = tmp_path / "subset.uvlt"
        cli_main(["extract", "--in", str(frame), "--out", str(subset), "--features", "texture,pixel"])
        data = np.stack([array for _, array in read_tensorfile(subset)])
        assert data.shape[0] == 52
        assert np.abs(data[3:19]).max() > 0 and np.abs(data[31:40]).max() > 0
        assert np.all(data[19:31] == 0.0) and np.all(data[40:52] == 0.0)
        rgb_only = tmp_path / "rgb.uvlt"
        cli_main(["extract", "--in", str(frame), "--out", str(rgb_only), "--features", "none"])
        data = np.stack([array for _, array in read_tensorfile(rgb_only)])
        assert np.abs(data[:3]).max() > 0
        assert np.all(data[3:] == 0.0)


class TestTrainInferEval:
    def test_infer_writes_binary_mask(self, corpus, model, tmp_path, capsys):
        frame = sorted(corpus.glob("*.ppm"))[0]
        out = tmp_path / "mask.pgm"
        code = cli_main(["infer", "--model", str(model), "--in", str(frame), "--out", str(out)])
        assert code == EXIT_OK
        mask = read_pgm(out)
        assert mask.shape == (64, 64)
        assert set(np.unique(mask)) <= {0.0, 1.0}
        assert "tampered fraction" in capsys.readouterr().out

    def test_infer_visual_mask_uses_gray_and_white(self, corpus, model, tmp_path):
        frame = sorted(corpus.glob("*.ppm"))[0]
        out = tmp_path / "mask.pgm"
        cli_main(["infer", "--model", str(model), "--in", str(frame), "--out", str(out), "--visual"])
        payload = out.read_bytes()[len(b"P5\n64 64\n255\n") :]
        assert set(payload) <= {128, 255}

    def test_eval_writes_parseable_report(self, corpus, model, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = cli_main(["eval", "--model", str(model), "--data", str(corpus), "--json", str(report_path)])
        assert code == EXIT_OK
        doc = json.loads(report_path.read_text())
        assert set(doc["summary"]) == {"miou", "f1", "miou_fg"}
        assert len(doc["per_frame"]) == 1  # the eval split of a 4-item corpus
        assert doc["config"]["perturbation"] == "none"
        out = capsys.readouterr().out
        assert "miou" in out and "f1" in out

    def test_eval_supports_perturb_split_and_features(self, corpus, model, tmp_path):
        report_path = tmp_path / "report.json"
        code = cli_main(
            [
                "eval", "--model", str(model), "--data", str(corpus), "--json", str(report_path),
                "--perturb", "flip", "--split", "train", "--features", "pixel",
            ]
        )
        assert code == EXIT_OK
        doc = json.loads(report_path.read_text())
        assert doc["config"]["perturbation"] == "flip"
        assert doc["config"]["features"] == ["pixel"]
        assert len(doc["per_frame"]) == 3

    def test_eval_rejects_bad_perturb_spec(self, corpus, model, tmp_path):
        code = cli_main(
            ["eval", "--model", str(model), "--data", str(corpus), "--json", str(tmp_path / "r.json"),
             "--perturb", "gaussian:0.9"]
        )
        assert code == EXIT_DATA


class TestGradcheck:
    def test_passes_on_default_arch(self, capsys):
        assert cli_main(["gradcheck", "--seed", "7"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "gradient check passed" in out
        assert "head.w" in out


@pytest.mark.parametrize("module", ["tamperloc", "tamperloc.cli"])
@pytest.mark.parametrize("argv,code", [(["--help"], EXIT_OK), (["--bogus"], EXIT_USAGE)], ids=["help", "bad-argument"])
def test_module_entry_point(module, argv, code):
    done = run_module(module, argv)
    assert done.returncode == code
    assert "usage" in done.stdout + done.stderr


def test_entry_exits_with_cli_code(monkeypatch):
    monkeypatch.setattr(sys, "argv", ["tamperloc", "--help"])
    with pytest.raises(SystemExit) as exc:
        entry()
    assert exc.value.code == EXIT_OK
