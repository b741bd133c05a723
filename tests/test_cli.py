import json
import struct

import numpy as np
import pytest

from debias_cf.cli import main


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


class TestPipeline:
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

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 1

    def test_unknown_flag(self):
        assert main(["synth", "--warp-speed", "9"]) == 1

    def test_missing_data_for_split(self, tmp_path):
        assert main(["split", "--out-dir", str(tmp_path), "--quiet"]) == 1

    def test_missing_split_dir_is_data_error(self, tmp_path):
        assert main([
            "train", "--data-dir", str(tmp_path / "nope"),
            "--out-dir", str(tmp_path), "--quiet",
        ]) == 2

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

    @pytest.mark.parametrize("debug", ["0", "1"])
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_diverging_run_exits_3(self, tmp_path, monkeypatch, debug):
        # In debug mode the post-step parameter check fires first; it is a
        # numerical failure too, not a data error.
        monkeypatch.setenv("DEBIAS_CF_DEBUG", debug)
        out = tmp_path / "run"
        assert main([
            "synth", "--m", "40", "--n", "60", "--skew", "1.5", "--seed", "7",
            "--out-dir", str(out), "--quiet",
        ]) == 0
        assert main([
            "train", "--data-dir", str(out), "--out-dir", str(out),
            "--lr", "1e39", "--d", "8", "--batch-size", "16", "--quiet",
        ]) == 3


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

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"warp": 9}))
        assert main(["synth", "--config", str(cfg), "--quiet"]) == 1

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
