"""Every shipped example and documented snippet must run clean end-to-end."""

import importlib
import re
import sys
import textwrap
from pathlib import Path

import pytest

import repro

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "examples"))


def readme_quickstart() -> str:
    """The README's Quickstart code block."""
    text = (REPO / "README.md").read_text()
    return re.search(r"## Quickstart\n\n```python\n(.*?)```", text,
                     re.S).group(1)


def package_quick_tour() -> str:
    """The "Quick tour" block of the ``repro`` package docstring."""
    block = re.search(r"Quick tour::\n\n((?: {4}.*\n|\n)+)", repro.__doc__)
    return textwrap.dedent(block.group(1))


@pytest.mark.parametrize("module_name", [
    "quickstart",
    "weather_fault_tolerance",
    "maintenance_drain",
    "streaming_timeline",
    "pagerank_suspend_resume",
])
def test_example_runs(module_name, capsys):
    module = importlib.import_module(module_name)
    module.main()
    out = capsys.readouterr().out
    assert out  # narrated transcript was produced
    assert "Traceback" not in out


@pytest.mark.parametrize("snippet", [readme_quickstart, package_quick_tour],
                         ids=["readme-quickstart", "package-quick-tour"])
def test_documented_snippet_runs(snippet):
    exec(compile(snippet(), snippet.__name__, "exec"), {})
