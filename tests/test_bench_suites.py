"""``BENCH.py`` runs the CLI steps of its suites only when measuring, which
takes a minute or more; a renamed flag would only show up then.  These
tests load the harness by path and parse every step, running none."""

import importlib.util
from pathlib import Path

import pytest

from ufabound.cli import build_parser

HARNESS = Path(__file__).resolve().parents[1] / "BENCH.py"


def load_harness():
    spec = importlib.util.spec_from_file_location("ufabound_bench_harness", HARNESS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_step_parses(tmp_path):
    bench = load_harness()
    path = str(tmp_path / "matrix")
    for suite, chains in bench.SUITES.items():
        for label, argv in (step for chain in chains for step in chain):
            try:
                build_parser().parse_args([path if arg == bench.FILE else arg for arg in argv])
            except SystemExit:
                pytest.fail(f"{suite}: {label} does not parse")


def test_step_labels_are_unique_within_a_suite():
    for suite, chains in load_harness().SUITES.items():
        labels = [label for chain in chains for label, _ in chain]
        assert len(labels) == len(set(labels)), suite
