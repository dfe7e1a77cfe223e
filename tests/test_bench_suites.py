"""``BENCH.py`` and the benchmark's workloads (``bench/workloads.py``) run
their CLI steps only when measuring, which takes a minute or more; a renamed
flag would only show up then.  These tests load both by path and parse every
step, running none, with the full parser and with the one ``main`` uses."""

import importlib.util
import sys
from pathlib import Path

import pytest

from ufabound.cli import _parser, build_parser

ROOT = Path(__file__).resolve().parents[1]
HARNESS = ROOT / "BENCH.py"
WORKLOADS = ROOT / "bench" / "workloads.py"


def load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # a dataclass looks its module up while it is being defined
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


def load_harness():
    return load(HARNESS, "ufabound_bench_harness")


def parses(argv) -> bool:
    try:
        build_parser().parse_args(argv)
        _parser(argv[0]).parse_args(argv)
    except SystemExit:
        return False
    return True


def test_every_step_parses(tmp_path):
    bench = load_harness()
    path = str(tmp_path / "matrix")
    for suite, chains in bench.SUITES.items():
        for label, argv in (step for chain in chains for step in chain):
            if not parses([path if arg == bench.FILE else arg for arg in argv]):
                pytest.fail(f"{suite}: {label} does not parse")


def test_every_workload_command_parses(tmp_path):
    workloads = load(WORKLOADS, "ufabound_bench_workloads").WORKLOADS
    for name, workload in workloads.items():
        for size in (workload.full, workload.smoke):
            for seed in (0, 101):
                for argv in size.commands(seed, 1, str(tmp_path)):
                    assert parses(argv), f"{name}: {argv}"


def test_step_labels_are_unique_within_a_suite():
    for suite, chains in load_harness().SUITES.items():
        labels = [label for chain in chains for label, _ in chain]
        assert len(labels) == len(set(labels)), suite
