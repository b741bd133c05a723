"""The package's public surface, and the functions the benchmark's traced
run wraps, stay where their users look for them."""

import argparse
import dataclasses
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import debias_cf
from debias_cf.cli import build_parser

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

PUBLIC = {
    "ConfigError",
    "DataError",
    "DebiasCfError",
    "EmbeddingTable",
    "InteractionSet",
    "NumericalError",
    "SplitBundle",
    "TrainConfig",
    "evaluate_topk",
    "generate_synthetic_world",
    "ideal_alignment_loss",
    "init_model",
    "sample_clicks",
    "save_checkpoint",
    "split_unbiased_protocol",
    "train",
}


def test_all_is_the_public_set_and_resolves():
    assert set(debias_cf.__all__) == PUBLIC
    assert len(debias_cf.__all__) == len(PUBLIC)
    for name in PUBLIC:
        assert getattr(debias_cf, name) is not None


#: TrainConfig's fields, in order: every training knob, each also a train
#: option. A knob that no run needs should not be added here.
TRAIN_CONFIG_FIELDS = (
    "objective",
    "d",
    "gamma",
    "lambda_rel",
    "mu",
    "lr",
    "weight_decay",
    "batch_size",
    "epochs",
    "seed",
    "eval_every",
    "scoring",
    "propensity_grad_through",
    "init_scale",
    "pop_exponent",
)

#: The train subcommand's options that are not TrainConfig fields.
TRAIN_CLI_ONLY = {"data_dir", "dump_propensities", "out_dir", "config", "quiet"}


def test_train_config_fields_are_pinned():
    names = tuple(f.name for f in dataclasses.fields(debias_cf.TrainConfig))
    assert names == TRAIN_CONFIG_FIELDS


def options(command):
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return {a.dest for a in subparsers.choices[command]._actions if a.dest != "help"}


def test_train_options_are_the_config_fields_and_cli_keys():
    assert options("train") == set(TRAIN_CONFIG_FIELDS) | TRAIN_CLI_ONLY


def test_train_parameters_are_pinned():
    params = tuple(inspect.signature(debias_cf.train).parameters)
    assert params == ("data", "config", "world", "eval_fn")


#: The other subcommands' options, each exactly: a new knob edits its pin.
SPLIT_OPTIONS = {"test_frac", "valid_frac", "seed", "sampling", "out_dir", "config", "quiet"}
REPORT_OPTIONS = {"run_dir", "data_dir", "out_dir", "config", "quiet"}
OPTIONS = {
    "split": SPLIT_OPTIONS | {"data", "lenient"},
    "synth": SPLIT_OPTIONS | {"m", "n", "skew"},
    "eval": REPORT_OPTIONS | {"k", "scoring", "mask_validation", "per_user"},
    "analyze": REPORT_OPTIONS | {"ratio", "pairs", "world"},
}


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_subcommand_options_are_pinned(command):
    assert options(command) == OPTIONS[command]


#: Arguments the tracer's counters read, by traced attribute.
COUNTED_ARGS = {
    "InteractionSet.__post_init__": {"self"},
    "uniformity_value_grad": {"vecs"},
    "train_step": {"state", "pairs"},
    "evaluate_topk": {"model", "k"},
}


def load_tracer(monkeypatch):
    # Loaded by file path: perfbench/tests has its own conftest module, so
    # the tracer is never imported through a package or conftest name.
    name = "perfbench_tracer"
    spec = importlib.util.spec_from_file_location(name, TRACER)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, tracer)  # dataclasses look it up
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_target_resolves(monkeypatch):
    targets = load_tracer(monkeypatch).TARGETS
    assert targets
    for module_name, attr, _, counter in targets:
        owner = importlib.import_module(f"debias_cf.{module_name}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module_name, attr)
        if counter is not None:
            params = set(inspect.signature(owner).parameters)
            assert COUNTED_ARGS[attr] <= params, (module_name, attr)
