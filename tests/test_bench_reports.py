"""The ``bench_*.py`` recorders: ``--check`` leaves the committed report
alone.

Each recorder's ``record`` is stubbed to return its committed report,
so the gates and the summary print run on real fields in milliseconds.
A plain run writes the default file; ``--check`` writes only to an
explicit ``--output``.  The gates' verdicts are not asserted here: a
recorded wall time need not pass the gates on another host.
"""

import importlib
import json
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
RECORDERS = ["bench_record", "bench_anytime", "bench_serve", "bench_lifetime"]


@pytest.fixture(params=RECORDERS)
def recorder(request, monkeypatch, tmp_path):
    """The recorder module, with ``record`` stubbed and its default
    output moved to a copy of the committed report under ``tmp_path``."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    module = importlib.import_module(request.param)
    committed = module.DEFAULT_OUTPUT.read_text()
    default = tmp_path / module.DEFAULT_OUTPUT.name
    default.write_text(committed)
    report = json.loads(committed)
    report["stub"] = True
    monkeypatch.setattr(module, "record", lambda: report)
    monkeypatch.setattr(module, "DEFAULT_OUTPUT", default)
    return module


def test_check_leaves_the_default_report_untouched(recorder):
    before = recorder.DEFAULT_OUTPUT.read_bytes()
    recorder.main(["--check"])
    assert recorder.DEFAULT_OUTPUT.read_bytes() == before


def test_check_writes_an_explicit_output(recorder, tmp_path):
    output = tmp_path / "report.json"
    recorder.main(["--check", "--output", str(output)])
    assert json.loads(output.read_text())["stub"] is True
    assert "stub" not in json.loads(recorder.DEFAULT_OUTPUT.read_text())


def test_a_plain_run_refreshes_the_default_report(recorder):
    assert recorder.main([]) == 0
    assert json.loads(recorder.DEFAULT_OUTPUT.read_text())["stub"] is True
