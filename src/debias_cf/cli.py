"""Command-line entry point.

Subcommands: split, synth, train, eval, analyze. Every option can also be
supplied through a flat JSON config file (--config); explicit flags win
over config-file values, which win over defaults. The effective
configuration is echoed to resolved-config.json in the output directory;
eval and analyze write resolved-config.<command>.json instead, so they
never overwrite the snapshot of the run they read.

Exit codes: 0 success, 1 usage or configuration error (including an
output directory that cannot be created), 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import sys
from pathlib import Path

from . import data as data_mod
from . import evaluation, trainer
from .embedding import load_checkpoint, save_checkpoint
from .errors import ConfigError, DataError, NumericalError
from .losses import ideal_alignment_loss
from .util import atomic_write, check_seed

log = logging.getLogger(__name__)

DEFAULT_OUT_DIR = "debias-cf-out"

# split and synth share the split options and the path that applies them.
_SPLIT_OPTIONS = {
    "test_frac": 0.1,
    "valid_frac": 0.1,
    "seed": 0,
    "sampling": "per_item",
    "out_dir": DEFAULT_OUT_DIR,
}

_SPLIT_DEFAULTS = {"data": None, "lenient": False, **_SPLIT_OPTIONS}

_SYNTH_DEFAULTS = {"m": 200, "n": 300, "skew": 1.0, **_SPLIT_OPTIONS}

# The training keys and defaults are TrainConfig's; the rest are CLI-only.
_TRAIN_DEFAULTS = {
    "data_dir": DEFAULT_OUT_DIR,
    **dataclasses.asdict(trainer.TrainConfig()),
    "dump_propensities": False,
    "out_dir": DEFAULT_OUT_DIR,
}

# eval and analyze read a run and a split and write one report.
_REPORT_OPTIONS = {
    "run_dir": DEFAULT_OUT_DIR,
    "data_dir": DEFAULT_OUT_DIR,
    "out_dir": None,  # defaults to run_dir
}

_EVAL_DEFAULTS = {**_REPORT_OPTIONS, "k": 20, "scoring": "dot", "per_user": False}

_ANALYZE_DEFAULTS = {**_REPORT_OPTIONS, "ratio": 0.2, "pairs": "train", "world": None}


#: JSON types a config-file value may take, by the type of the key's default.
_CONFIG_TYPES = {
    bool: ((bool,), "boolean"),
    int: ((int,), "integer"),
    float: ((int, float), "number"),
    str: ((str,), "string"),
    type(None): ((str, type(None)), "string or null"),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse exits with code 2 on usage errors; we reserve 2 for data
        # errors, so surface usage problems as ConfigError instead.
        raise ConfigError(message)


def _add_options(parser: argparse.ArgumentParser, defaults: dict) -> None:
    for key, default in defaults.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(default, bool):
            group = parser.add_mutually_exclusive_group()
            group.add_argument(flag, dest=key, action="store_true",
                               default=argparse.SUPPRESS)
            group.add_argument("--no-" + key.replace("_", "-"), dest=key,
                               action="store_false", default=argparse.SUPPRESS)
        else:
            typ = str if default is None else type(default)
            parser.add_argument(flag, dest=key, type=typ,
                                default=argparse.SUPPRESS)
    parser.add_argument("--config", dest="config", type=str,
                        default=argparse.SUPPRESS)
    parser.add_argument("--quiet", dest="quiet", action="store_true",
                        default=argparse.SUPPRESS)


def _effective_config(defaults: dict, ns: argparse.Namespace) -> dict:
    values = vars(ns).copy()
    values.pop("command", None)
    quiet = values.pop("quiet", False)
    config_path = values.pop("config", None)
    effective = dict(defaults)
    if config_path:
        try:
            file_cfg = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise DataError(f"config file {config_path} is not valid JSON: {exc}")
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a flat JSON object")
        for key, val in file_cfg.items():
            if key not in defaults:
                raise ConfigError(f"unknown config key {key!r}")
            allowed, kind = _CONFIG_TYPES[type(defaults[key])]
            if type(val) not in allowed:  # exact: a JSON bool is no integer
                raise ConfigError(
                    f"config key {key!r} must be a JSON {kind}, got {val!r}"
                )
            effective[key] = val
    effective.update(values)
    effective["quiet"] = quiet
    return effective


def _out_dir(path) -> Path:
    """Create an output directory; one that cannot be made is a usage error."""
    out_dir = Path(path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: {exc.strerror}")
    return out_dir


def _write_resolved(
    cfg: dict, command: str, out_dir: Path, name: str = "resolved-config.json"
) -> None:
    snapshot = {"command": command, **cfg}
    atomic_write(out_dir / name, json.dumps(snapshot, indent=2, sort_keys=True))


def _save_split(cfg: dict, command: str, interactions):
    """Split the interactions; write the split and the config snapshot.
    Returns the output directory and the split."""
    bundle = data_mod.split_unbiased_protocol(
        interactions, cfg["test_frac"], cfg["valid_frac"], cfg["seed"],
        sampling=cfg["sampling"],
    )
    out_dir = _out_dir(cfg["out_dir"])
    data_mod.save_split(
        bundle, out_dir, seed=cfg["seed"],
        fractions={"test": cfg["test_frac"], "valid": cfg["valid_frac"]},
    )
    _write_resolved(cfg, command, out_dir)
    return out_dir, bundle


def _cmd_split(cfg: dict) -> int:
    if not cfg["data"]:
        raise ConfigError("split requires --data")
    data_mod.check_split_options(cfg["test_frac"], cfg["valid_frac"], cfg["sampling"])
    check_seed(cfg["seed"])  # before the log is read
    interactions = data_mod.load_interactions(cfg["data"], lenient=cfg["lenient"])
    _, bundle = _save_split(cfg, "split", interactions)
    log.info(
        "split: %d train / %d validation / %d test pairs",
        len(bundle.train), len(bundle.validation), len(bundle.test),
    )
    return 0


def _cmd_synth(cfg: dict) -> int:
    data_mod.check_split_options(cfg["test_frac"], cfg["valid_frac"], cfg["sampling"])
    world = data_mod.generate_synthetic_world(
        cfg["m"], cfg["n"], cfg["skew"], cfg["seed"]
    )
    clicks = data_mod.sample_clicks(world, cfg["seed"])
    out_dir, bundle = _save_split(cfg, "synth", clicks)
    data_mod.save_world(world, out_dir / "world.bin")
    log.info(
        "synth: %d clicks over %dx%d, split %d/%d/%d",
        len(clicks), cfg["m"], cfg["n"],
        len(bundle.train), len(bundle.validation), len(bundle.test),
    )
    return 0


def _train_config(cfg: dict) -> trainer.TrainConfig:
    fields = dataclasses.fields(trainer.TrainConfig)
    return trainer.TrainConfig(**{f.name: cfg[f.name] for f in fields}).validate()


def _cmd_train(cfg: dict) -> int:
    tcfg = _train_config(cfg)
    if cfg["dump_propensities"] and tcfg.objective != "uctrl":
        # Only uctrl trains the projections the learned propensities use.
        raise ConfigError("--dump-propensities needs --objective uctrl")
    bundle = data_mod.load_split(cfg["data_dir"])
    world = None
    if tcfg.objective == "ipw_align_oracle":
        world_path = Path(cfg["data_dir"]) / "world.bin"
        if not world_path.exists():
            raise DataError(f"objective ipw_align_oracle needs {world_path}")
        world = data_mod.load_world(world_path)
    out_dir = _out_dir(cfg["out_dir"])

    result = trainer.train(bundle, tcfg, world=world)
    _write_resolved(cfg, "train", out_dir)
    save_checkpoint(result.best_model, result.best_projections,
                    out_dir / "checkpoint.bin")
    atomic_write(out_dir / "train-log.jsonl",
                 *(json.dumps(record) + "\n" for record in result.history))
    if cfg["dump_propensities"]:
        pairs = bundle.train.pairs
        omega = trainer.learned_propensities(
            result.best_model, result.best_projections, pairs, tcfg.mu
        )
        users, items = bundle.train.labels()
        rows = [(users[u], items[i], f"{w:.8f}") for (u, i), w in zip(pairs.tolist(), omega)]
        data_mod.write_tsv(out_dir / "propensities.tsv", *zip(*rows))
    log.info(
        "train: objective=%s best_epoch=%s best_val_ndcg20=%s",
        tcfg.objective, result.best_epoch,
        "n/a" if result.best_val_ndcg is None else f"{result.best_val_ndcg:.4f}",
    )
    return 0


def _load_run(cfg: dict):
    """The run's trained model and the split it is scored on."""
    model, _ = load_checkpoint(Path(cfg["run_dir"]) / "checkpoint.bin")
    return model, data_mod.load_split(cfg["data_dir"])


def _write_report(cfg: dict, command: str, name: str, payload: dict) -> Path:
    """Write the report and the config snapshot into the output directory
    (default: the run directory), then print the report."""
    out_dir = _out_dir(cfg["out_dir"] or cfg["run_dir"])
    text = json.dumps(payload, indent=2)
    atomic_write(out_dir / name, text)
    _write_resolved(cfg, command, out_dir, f"resolved-config.{command}.json")
    print(text)
    return out_dir


def _cmd_eval(cfg: dict) -> int:
    evaluation.check_topk_options(cfg["k"], cfg["scoring"])
    model, bundle = _load_run(cfg)
    report = evaluation.evaluate_topk(
        model, bundle.train, bundle.test, k=cfg["k"], scoring=cfg["scoring"],
        mask_extra=bundle.validation, per_user=cfg["per_user"],
    )
    payload = report.to_dict()
    payload.pop("per_user", None)
    out_dir = _write_report(cfg, "eval", "metrics.json", payload)
    if report.per_user is not None:
        users = bundle.train.labels()[0]
        rows = [(users[u], f"{r:.8f}", f"{g:.8f}") for u, r, g in report.per_user]
        data_mod.write_tsv(out_dir / "per-user.tsv", *zip(*rows))
    return 0


def _cmd_analyze(cfg: dict) -> int:
    if cfg["pairs"] not in ("train", "validation", "test"):
        raise ConfigError(f"unknown pair set {cfg['pairs']!r}")
    evaluation.check_ratio(cfg["ratio"])
    model, bundle = _load_run(cfg)
    pairs = getattr(bundle, cfg["pairs"])
    report = evaluation.group_alignment(
        model, pairs, bundle.train.user_counts(),
        bundle.train.item_counts(), ratio=cfg["ratio"],
    )
    # An empty popularity group's NaN is written as null, which JSON has.
    payload = {key: None if isinstance(v, float) and math.isnan(v) else v
               for key, v in dataclasses.asdict(report).items()}
    payload["pairs"] = cfg["pairs"]
    if cfg["world"]:
        world = data_mod.load_world(cfg["world"])
        payload["ideal_align"] = ideal_alignment_loss(model, world, pairs)
    _write_report(cfg, "analyze", "group-alignment.json", payload)
    return 0


_COMMANDS = {
    "split": (_SPLIT_DEFAULTS, _cmd_split),
    "synth": (_SYNTH_DEFAULTS, _cmd_synth),
    "train": (_TRAIN_DEFAULTS, _cmd_train),
    "eval": (_EVAL_DEFAULTS, _cmd_eval),
    "analyze": (_ANALYZE_DEFAULTS, _cmd_analyze),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="debias-cf", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, (defaults, _) in _COMMANDS.items():
        # No prefix matching: a removed flag must not turn into a longer one.
        child = sub.add_parser(name, allow_abbrev=False)
        child.error = parser.error  # type: ignore[method-assign]
        _add_options(child, defaults)
    return parser


def run(argv) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    if not getattr(ns, "command", None):
        raise ConfigError("a subcommand is required (split|synth|train|eval|analyze)")
    defaults, handler = _COMMANDS[ns.command]
    cfg = _effective_config(defaults, ns)
    logging.basicConfig(
        level=logging.WARNING if cfg["quiet"] else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    return handler(cfg)


def main(argv=None) -> int:
    try:
        return run(sys.argv[1:] if argv is None else argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # a missing or unreadable input, or a directory
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1


if __name__ == "__main__":
    sys.exit(main())
