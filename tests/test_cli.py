import hashlib
import json
import struct
import zlib

import numpy as np
import pytest

from debias_cf.cli import main


def synth_split(tmp_path, name="split"):
    out = tmp_path / name
    assert main([
        "synth", "--m", "20", "--n", "30", "--seed", "3",
        "--out-dir", str(out), "--quiet",
    ]) == 0
    return out


def write_log(tmp_path):
    log = tmp_path / "log.tsv"
    log.write_text("".join(
        f"u{u}\ti{(u * 7 + k) % 12}\n" for u in range(10) for k in range(4)
    ))
    return log


def input_args(tmp_path, command):
    """Inputs for a small split, synth or train run; None for other commands."""
    if command == "split":
        return ["--data", str(write_log(tmp_path))]
    if command == "synth":
        return ["--m", "20", "--n", "30"]
    if command == "train":
        return ["--data-dir", str(synth_split(tmp_path)), "--d", "4", "--epochs", "1"]
    return None


def run_pipeline(tmp_path, extra_train=()):
    out = tmp_path / "run"
    assert main([
        "synth", "--m", "40", "--n", "60", "--skew", "1.5", "--seed", "7",
        "--out-dir", str(out), "--quiet",
    ]) == 0
    assert main([
        "train", "--data-dir", str(out), "--out-dir", str(out),
        "--objective", "uctrl", "--d", "8", "--epochs", "3",
        "--batch-size", "64", "--eval-every", "1", "--quiet", *extra_train,
    ]) == 0
    return out


#: SHA-256 of the outputs of `synth` with every option at its default, as
#: written before the data layer was vectorized. The bytes depend on the
#: rounding of numpy's exp and of the BLAS matrix product (x86-64, numpy 2.4,
#: OpenBLAS 0.3); another build may round differently.
SYNTH_DEFAULT_SHA256 = {
    "world.bin": "c5e1b234f786c946fddf74ab712dd21c8fca9d1e7ff6238c786f3a45319a0c5e",
    "train.tsv": "16e62146cc8e219141e161b5b925144da6124e5b3404108e86f64b3d447844f6",
    "validation.tsv": "d5a6ba8d437fe7ad3b4036b13590991b5b7d10646856fedd6dfa3c3a9cd76231",
    "test.tsv": "f229c23c3d5755529dbb62e29f9f2dcae9fcd3d6652099caaca602e87ca989b1",
    "split-manifest.json": "750235a8850ce63199aa8a0fe0d521a5838ec7637da44a440dabc44ca5bd808c",
}


class TestPipeline:
    def test_default_synth_outputs_are_pinned(self, tmp_path):
        out = tmp_path / "synth"
        assert main(["synth", "--out-dir", str(out), "--quiet"]) == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in SYNTH_DEFAULT_SHA256}
        assert digests == SYNTH_DEFAULT_SHA256

    def test_synth_train_eval_analyze(self, tmp_path, capsys):
        out = run_pipeline(tmp_path)
        assert (out / "world.bin").exists()
        assert (out / "checkpoint.bin").exists()
        assert (out / "train-log.jsonl").exists()

        assert main([
            "eval", "--run-dir", str(out), "--data-dir", str(out),
            "--k", "20", "--quiet",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) >= {"recall_at_k", "ndcg_at_k", "k", "n_eval_users"}
        assert (out / "metrics.json").exists()

        assert main([
            "analyze", "--run-dir", str(out), "--data-dir", str(out),
            "--ratio", "0.2", "--quiet",
        ]) == 0
        ga = json.loads(capsys.readouterr().out)
        assert set(ga) >= {
            "pop_user_align", "unpop_user_align", "pop_item_align",
            "unpop_item_align",
        }

        # eval and analyze keep the training snapshot and write their own
        for name, command in (
            ("resolved-config.json", "train"),
            ("resolved-config.eval.json", "eval"),
            ("resolved-config.analyze.json", "analyze"),
        ):
            assert json.loads((out / name).read_text())["command"] == command

    def test_resolved_config_written_with_seeds(self, tmp_path):
        out = run_pipeline(tmp_path)
        resolved = json.loads((out / "resolved-config.json").read_text())
        assert resolved["command"] == "train"
        assert resolved["seed"] == 0
        assert resolved["epochs"] == 3
        assert "lr" in resolved and "gamma" in resolved

    def test_train_log_schema(self, tmp_path):
        out = run_pipeline(tmp_path)
        lines = (out / "train-log.jsonl").read_text().strip().splitlines()
        assert len(lines) == 3
        record = json.loads(lines[0])
        assert {"epoch", "align", "total", "val_ndcg20", "wall_ms"} <= set(record)

    def test_dump_propensities(self, tmp_path):
        out = run_pipeline(tmp_path, extra_train=("--dump-propensities",))
        rows = (out / "propensities.tsv").read_text().strip().splitlines()
        assert len(rows) > 0
        user, item, omega = rows[0].split("\t")
        assert 0.0 < float(omega) < 1.0

    def test_dump_propensities_writes_log_ids(self, tmp_path):
        rng = np.random.default_rng(3)
        log = tmp_path / "log.tsv"
        log.write_text("".join(
            f"user-{u}\titem-{i}\n"
            for u in range(30) for i in range(40) if rng.random() < 0.3
        ))
        out = tmp_path / "run"
        assert main([
            "split", "--data", str(log), "--out-dir", str(out), "--quiet",
        ]) == 0
        assert main([
            "train", "--data-dir", str(out), "--out-dir", str(out),
            "--objective", "uctrl", "--d", "4", "--epochs", "1",
            "--dump-propensities", "--quiet",
        ]) == 0
        train_rows = set((out / "train.tsv").read_text().splitlines())
        dumped = (out / "propensities.tsv").read_text().splitlines()
        assert len(dumped) == len(train_rows)
        for row in dumped:
            user, item, _ = row.split("\t")
            assert f"{user}\t{item}" in train_rows

    def test_per_user_report_names_users_by_label(self, tmp_path, capsys):
        from debias_cf.data import load_split
        from debias_cf.embedding import load_checkpoint
        from debias_cf.evaluation import evaluate_topk

        out = tmp_path / "run"
        assert main(["split", "--data", str(write_log(tmp_path)), "--out-dir", str(out),
                     "--quiet"]) == 0
        assert main(["train", "--data-dir", str(out), "--out-dir", str(out), "--d", "4",
                     "--epochs", "1", "--quiet"]) == 0
        assert main(["eval", "--run-dir", str(out), "--data-dir", str(out), "--per-user",
                     "--quiet"]) == 0
        n_eval = json.loads(capsys.readouterr().out)["n_eval_users"]
        bundle = load_split(out)
        report = evaluate_topk(load_checkpoint(out / "checkpoint.bin")[0], bundle.train,
                               bundle.test, k=20, mask_extra=bundle.validation, per_user=True)
        labels = json.loads((out / "split-manifest.json").read_text())["user_labels"]
        rows = (out / "per-user.tsv").read_text().splitlines()
        assert len(rows) == n_eval
        assert rows == [f"{labels[u]}\t{r:.8f}\t{g:.8f}" for u, r, g in report.per_user]


class TestErrors:
    def test_negative_lr_is_usage_error(self, tmp_path):
        out = run_pipeline(tmp_path)
        code = main([
            "train", "--data-dir", str(out), "--out-dir", str(out),
            "--lr", "-1", "--quiet",
        ])
        assert code == 1

    def test_truncated_checkpoint_is_data_error(self, tmp_path):
        out = run_pipeline(tmp_path)
        ckpt = out / "checkpoint.bin"
        ckpt.write_bytes(ckpt.read_bytes()[:50])
        code = main([
            "eval", "--run-dir", str(out), "--data-dir", str(out), "--quiet",
        ])
        assert code == 2

    @pytest.mark.parametrize("command", ["eval", "analyze"])
    @pytest.mark.parametrize("tensor", ["user_vecs", "item_vecs"])
    def test_non_finite_checkpoint_is_data_error(self, tmp_path, command, tensor):
        from debias_cf.embedding import load_checkpoint, save_checkpoint

        out = run_pipeline(tmp_path)
        model, proj = load_checkpoint(out / "checkpoint.bin")
        getattr(model, tensor)[0] = np.nan
        save_checkpoint(model, proj, out / "checkpoint.bin")
        assert main([
            command, "--run-dir", str(out), "--data-dir", str(out),
            "--out-dir", str(tmp_path / "report"), "--quiet",
        ]) == 2
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize("command", ["eval", "analyze"])
    def test_zero_dimension_checkpoint_is_data_error(self, tmp_path, command):
        from debias_cf.embedding import CHECKPOINT_MAGIC, CHECKPOINT_VERSION

        out = run_pipeline(tmp_path)
        header = CHECKPOINT_MAGIC + struct.pack("<IQQQ", CHECKPOINT_VERSION, 40, 60, 0)
        (out / "checkpoint.bin").write_bytes(header + struct.pack("<I", zlib.crc32(b"")))
        assert main([
            command, "--run-dir", str(out), "--data-dir", str(out),
            "--out-dir", str(tmp_path / "report"), "--quiet",
        ]) == 2

    @pytest.mark.parametrize("m, n", [(0, 60), (40, 0)])
    def test_empty_world_is_data_error(self, tmp_path, m, n):
        from debias_cf.data import WORLD_MAGIC, WORLD_VERSION

        out = run_pipeline(tmp_path)
        world = tmp_path / "empty-world.bin"
        world.write_bytes(WORLD_MAGIC + struct.pack("<IQQ", WORLD_VERSION, m, n))
        assert main([
            "analyze", "--run-dir", str(out), "--data-dir", str(out),
            "--world", str(world), "--quiet",
        ]) == 2

    @pytest.mark.parametrize("command", ["train --config", "split --data"])
    def test_directory_as_input_file_is_data_error(self, tmp_path, capsys, command):
        folder = tmp_path / "folder"
        folder.mkdir()
        assert main([
            *command.split(), str(folder), "--out-dir", str(tmp_path / "o"), "--quiet",
        ]) == 2
        assert str(folder) in capsys.readouterr().err

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 1

    def test_unknown_flag(self):
        assert main(["synth", "--warp-speed", "9"]) == 1

    def test_missing_data_for_split(self, tmp_path):
        assert main(["split", "--out-dir", str(tmp_path), "--quiet"]) == 1

    @pytest.mark.parametrize("corruption", [
        "not-json", "not-an-object", "missing-m", "missing-item-labels",
        "m-not-an-integer", "labels-not-a-list", "train-not-utf8",
        "unknown-protocol-tag", "too-many-user-labels",
        "repeated-user-labels", "repeated-item-labels", "list-user-labels",
        "test-pair-in-train",
    ])
    def test_malformed_split_is_data_error(self, tmp_path, corruption):
        split = synth_split(tmp_path)
        manifest_path = split / "split-manifest.json"
        manifest = json.loads(manifest_path.read_text())
        if corruption == "not-json":
            manifest_path.write_text(manifest_path.read_text()[:-20])
        elif corruption == "not-an-object":
            manifest_path.write_text(json.dumps([manifest["m"], manifest["n"]]))
        elif corruption == "train-not-utf8":
            (split / "train.tsv").write_bytes(b"0\t1\n\xff\t2\n")
        elif corruption == "test-pair-in-train":
            test_line = (split / "test.tsv").read_text().splitlines()[0]
            with open(split / "train.tsv", "a") as train:
                train.write(test_line + "\n")
        else:
            if corruption == "m-not-an-integer":
                manifest["m"] = "twenty"
            elif corruption == "labels-not-a-list":
                manifest["user_labels"] = 20
            elif corruption == "unknown-protocol-tag":
                manifest["protocol_tag"] = "x"
            elif corruption == "list-user-labels":
                manifest["user_labels"] = [[u] for u in range(manifest["m"])]
            elif corruption == "too-many-user-labels":
                manifest["user_labels"] = [str(u) for u in range(25)]
            elif corruption.startswith("repeated-"):
                key = corruption.removeprefix("repeated-").replace("-", "_")
                size = manifest["m" if key == "user_labels" else "n"]
                manifest[key] = ["0", *map(str, range(size - 1))]  # "0" twice
            else:
                del manifest[corruption.removeprefix("missing-").replace("-", "_")]
            manifest_path.write_text(json.dumps(manifest))
        assert main([
            "train", "--data-dir", str(split), "--out-dir", str(tmp_path / "run"),
            "--d", "4", "--epochs", "1", "--quiet",
        ]) == 2

    def test_log_not_utf8_is_data_error(self, tmp_path, capsys):
        log = write_log(tmp_path)
        log.write_bytes(log.read_bytes() + b"u1\t\xff\n")
        assert main([
            "split", "--data", str(log), "--out-dir", str(tmp_path / "o"), "--quiet",
        ]) == 2
        assert str(log) in capsys.readouterr().err

    def test_missing_split_dir_is_data_error(self, tmp_path):
        assert main([
            "train", "--data-dir", str(tmp_path / "nope"),
            "--out-dir", str(tmp_path), "--quiet",
        ]) == 2

    @pytest.mark.parametrize("command", ["split", "synth", "train", "eval", "analyze"])
    def test_output_dir_that_is_a_file_is_usage_error(self, tmp_path, capsys, command):
        target = tmp_path / "taken"
        target.write_text("not a directory")
        args = input_args(tmp_path, command)
        if args is None:
            out = run_pipeline(tmp_path)
            args = ["--run-dir", str(out), "--data-dir", str(out)]
        capsys.readouterr()
        assert main([command, *args, "--out-dir", str(target), "--quiet"]) == 1
        assert str(target) in capsys.readouterr().err

    @pytest.mark.parametrize("skew", ["nan", "inf"])
    def test_non_finite_skew_is_usage_error(self, tmp_path, skew):
        assert main([
            "synth", "--skew", skew, "--out-dir", str(tmp_path / "o"), "--quiet",
        ]) == 1

    def test_stale_world_of_other_dimensions_is_data_error(self, tmp_path):
        # a 40x60 synth, then a 15x20 log split into the same directory,
        # leaves the synth's world.bin beside a split it does not describe;
        # the failed train keeps the split's config snapshot
        out = tmp_path / "run"
        assert main([
            "synth", "--m", "40", "--n", "60", "--out-dir", str(out), "--quiet",
        ]) == 0
        log = tmp_path / "log.tsv"
        log.write_text("".join(
            f"u{u}\ti{(u + k) % 20}\n" for u in range(15) for k in range(0, 20, 3)
        ))
        assert main([
            "split", "--data", str(log), "--out-dir", str(out), "--quiet",
        ]) == 0
        manifest = json.loads((out / "split-manifest.json").read_text())
        assert (manifest["m"], manifest["n"]) == (15, 20)
        assert main([
            "train", "--data-dir", str(out), "--out-dir", str(out),
            "--objective", "ipw_align_oracle", "--d", "4", "--epochs", "1",
            "--quiet",
        ]) == 2
        assert json.loads((out / "resolved-config.json").read_text())["command"] == "split"

    def test_world_of_another_run_is_data_error(self, tmp_path):
        out = run_pipeline(tmp_path)  # 40 x 60
        other = tmp_path / "other"
        assert main([
            "synth", "--m", "30", "--n", "50", "--seed", "1",
            "--out-dir", str(other), "--quiet",
        ]) == 0
        assert main([
            "analyze", "--run-dir", str(out), "--data-dir", str(out),
            "--world", str(other / "world.bin"), "--quiet",
        ]) == 2

    @pytest.mark.parametrize("command", ["eval", "analyze"])
    def test_split_of_another_run_is_data_error(self, tmp_path, command):
        out = run_pipeline(tmp_path)  # 40 x 60
        other = tmp_path / "other"
        assert main([
            "synth", "--m", "30", "--n", "50", "--seed", "1",
            "--out-dir", str(other), "--quiet",
        ]) == 0
        assert main([
            command, "--run-dir", str(out), "--data-dir", str(other),
            "--out-dir", str(tmp_path / "report"), "--quiet",
        ]) == 2

    @pytest.mark.parametrize("objective", ["directau", "ipw_align_oracle", "ipw_align_pop"])
    def test_dump_propensities_needs_uctrl(self, tmp_path, objective):
        out = run_pipeline(tmp_path)
        fresh = tmp_path / "fresh"
        assert main([
            "train", "--data-dir", str(out), "--out-dir", str(fresh),
            "--objective", objective, "--d", "4", "--epochs", "1",
            "--dump-propensities", "--quiet",
        ]) == 1
        assert not (fresh / "checkpoint.bin").exists()
        assert not (fresh / "propensities.tsv").exists()

    def test_numerical_failure_maps_to_exit_3(self, tmp_path, monkeypatch):
        from debias_cf import cli
        from debias_cf.errors import NumericalError

        out = run_pipeline(tmp_path)

        def explode(*args, **kwargs):
            raise NumericalError("non-finite gradient in tensor 'user_vecs' at step 7")

        monkeypatch.setattr(cli.trainer, "train", explode)
        code = main([
            "train", "--data-dir", str(out), "--out-dir", str(out), "--quiet",
        ])
        assert code == 3

    @pytest.mark.parametrize("quiet", [0, 1])
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_diverging_run_exits_3(self, tmp_path, quiet):
        # The exit code does not depend on whether the epoch lines are logged.
        out = tmp_path / "run"
        assert main([
            "synth", "--m", "40", "--n", "60", "--skew", "1.5", "--seed", "7",
            "--out-dir", str(out), "--quiet",
        ]) == 0
        assert main([
            "train", "--data-dir", str(out), "--out-dir", str(out),
            "--lr", "1e39", "--d", "8", "--batch-size", "16",
            *(["--quiet"] if quiet else []),
        ]) == 3

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_last_step_going_non_finite_exits_3_without_checkpoint(self, tmp_path):
        # One batch and no validation: no later step or ranking reads the
        # overflowed rows, so only the check of the returned tensors can.
        out = synth_split(tmp_path)
        (out / "validation.tsv").write_text("")
        assert main([
            "train", "--data-dir", str(out), "--out-dir", str(out),
            "--lr", "1e39", "--d", "4", "--epochs", "1", "--batch-size", "100000",
            "--quiet",
        ]) == 3
        assert not (out / "checkpoint.bin").exists()
        assert json.loads((out / "resolved-config.json").read_text())["command"] == "synth"

    @pytest.mark.parametrize("command", ["split", "synth", "train"])
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, command):
        args = input_args(tmp_path, command)
        capsys.readouterr()
        assert main([
            command, *args, "--seed", "-2", "--out-dir", str(tmp_path / "o"), "--quiet",
        ]) == 1
        assert "seed" in capsys.readouterr().err


class TestConfigFile:
    def test_file_plus_flag_precedence(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m": 30, "n": 25, "skew": 0.5}))
        out = tmp_path / "o"
        assert main([
            "synth", "--config", str(cfg), "--m", "44",
            "--out-dir", str(out), "--quiet",
        ]) == 0
        resolved = json.loads((out / "resolved-config.json").read_text())
        assert resolved["m"] == 44       # flag beats file
        assert resolved["n"] == 25       # file beats default
        assert resolved["skew"] == 0.5

    @pytest.mark.parametrize("command,key", [("synth", "warp"), ("train", "alternating")])
    def test_unknown_config_key_rejected(self, tmp_path, command, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: True}))
        assert main([
            command, "--config", str(cfg), "--out-dir", str(tmp_path / "o"),
            *(["--data-dir", str(tmp_path / "nope")] if command == "train" else []),
            "--quiet",
        ]) == 1

    @pytest.mark.parametrize("command", ["eval", "analyze"])
    def test_out_is_no_option(self, tmp_path, command):
        # the report is printed and written into --out-dir; there is no --out
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out": str(tmp_path / "report.json")}))
        assert main([command, "--config", str(cfg), "--quiet"]) == 1
        assert main([command, "--out", str(tmp_path / "report.json"), "--quiet"]) == 1

    @pytest.mark.parametrize("command,key,bad,good", [
        ("split", "lenient", "false", False),  # bool default: JSON bool only
        ("split", "seed", 1.5, 3),  # int default: JSON integer only
        ("split", "seed", True, 3),
        ("split", "out_dir", 5, "elsewhere"),  # str default: string
        ("split", "data", 5, None),  # None default: string or null
        ("synth", "skew", True, 1),  # float default: integer or float
        ("train", "d", True, 4),
        ("train", "lr", "0.01", 1),
        ("train", "seed", 1.5, 2),
    ])
    def test_value_must_have_the_flags_type(self, tmp_path, command, key, bad, good):
        args = input_args(tmp_path, command)
        cfg = tmp_path / "cfg.json"
        for value, code in ((bad, 1), (good, 0)):
            cfg.write_text(json.dumps({key: value}))
            assert main([
                command, "--config", str(cfg), *args,
                "--out-dir", str(tmp_path / "o"), "--quiet",
            ]) == code, value

    def test_missing_config_file_is_data_error(self, tmp_path):
        assert main(["synth", "--config", str(tmp_path / "nope.json")]) == 2


class TestOracleObjective:
    def test_train_with_oracle_weights(self, tmp_path):
        out = tmp_path / "r"
        assert main([
            "synth", "--m", "30", "--n", "40", "--skew", "1.0", "--seed", "3",
            "--out-dir", str(out), "--quiet",
        ]) == 0
        assert main([
            "train", "--data-dir", str(out), "--out-dir", str(out),
            "--objective", "ipw_align_oracle", "--d", "6", "--epochs", "2",
            "--eval-every", "1", "--quiet",
        ]) == 0
        assert (out / "checkpoint.bin").exists()

    def test_nan_world_is_data_error(self, tmp_path):
        out = tmp_path / "r"
        assert main([
            "synth", "--m", "20", "--n", "30", "--seed", "3",
            "--out-dir", str(out), "--quiet",
        ]) == 0
        world = out / "world.bin"
        raw = bytearray(world.read_bytes())
        offset = 4 + 4 + 16 + 4 * 20 * 30  # first exposure cell
        raw[offset : offset + 4] = struct.pack("<f", float("nan"))
        world.write_bytes(bytes(raw))
        assert main([
            "train", "--data-dir", str(out), "--out-dir", str(out),
            "--objective", "ipw_align_oracle", "--d", "4", "--epochs", "1",
            "--quiet",
        ]) == 2
