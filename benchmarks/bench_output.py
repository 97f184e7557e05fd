"""The ``--output`` rule shared by the ``bench_*.py`` recorders.

A plain run writes its JSON report to the committed ``BENCH_*.json`` at
the repository root, or to ``--output``.  ``--check`` is a gate, so it
writes only to an explicit ``--output``: running it leaves the
committed report, and the working tree, as they were.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Dict, Optional


def add_output_argument(parser: argparse.ArgumentParser, default: Path) -> None:
    parser.add_argument(
        "--output",
        type=Path,
        help=f"where to write the JSON report (default {default}; "
        "with --check, only an explicit --output is written)",
    )


def write_report(
    report: Dict, output: Optional[Path], check: bool, default: Path
) -> None:
    if output is None and check:
        print("report not written (--check writes only to --output)")
        return
    output = output or default
    output.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"report written to {output}")
