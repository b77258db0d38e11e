"""The console script that `pip install` writes: `[project.scripts]` in
pyproject.toml must name `mulab.cli.main`, the entry point every CLI
test calls in-process.  The tier-1 workflow runs the installed script
itself once per subcommand."""

import importlib
from pathlib import Path

import pytest

from mulab import cli

tomllib = pytest.importorskip("tomllib")  # standard library from 3.11

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_project_script_resolves_to_cli_main():
    scripts = tomllib.loads(PYPROJECT.read_text())["project"]["scripts"]
    assert scripts == {"mu-lab": "mulab.cli:main"}
    module, attr = scripts["mu-lab"].split(":")
    assert getattr(importlib.import_module(module), attr) is cli.main
