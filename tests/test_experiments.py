"""The run-and-score driver, ``experiments.run_and_score``, through the two
entry points that call it: ``nfdl run`` and the QoS campaign script."""

import hashlib
import runpy
import sys
from pathlib import Path

import pytest

from nfdl import experiments
from nfdl.cli import main
from test_scripts import CAMPAIGN_EXPECTED

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_nfdl_run_writes_the_campaigns_accuracy_run(tmp_path):
    # The campaign's pinned toy run (seed 0, 0.005 h) given to `nfdl run` as
    # a scenario file writes the same trace and metrics CSV bytes.
    path, out = tmp_path / "accuracy.json", tmp_path / "out"
    experiments.accuracy_scenario(0, duration=18_000).dump(path)
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == 0
    for name, pinned in (("trace_000.log", "accuracy_trace_000.log"),
                         ("metrics_000.csv", "accuracy_metrics_000.csv")):
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == CAMPAIGN_EXPECTED[pinned]


def test_the_campaign_checks_only_the_ends_of_its_accuracy_seeds(tmp_path, monkeypatch, capsys):
    # The seeds are consecutive, so the first and the last accuracy runs
    # stand for all: the check builds two scenarios, not one per run.
    builds = []
    build = experiments.accuracy_scenario
    monkeypatch.setattr(experiments, "accuracy_scenario",
                        lambda seed, **kwargs: builds.append(seed) or build(seed, **kwargs))
    out = tmp_path / "qos"
    monkeypatch.setattr(sys, "argv", ["run_qos_experiments.py", "--out", str(out),
                                      "--accuracy-reps", "100000", "--seed", str(2**64 - 1)])
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(SCRIPTS / "run_qos_experiments.py"), run_name="__main__")
    assert done.value.code == 2
    assert capsys.readouterr().err.startswith("error: seed: ")
    assert len(builds) <= 2
    assert not out.exists()
