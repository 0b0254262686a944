"""Every shipped example and documented snippet must run clean end-to-end,
and every ``*.py`` path a document names must be a file in the tree."""

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


#: The documents whose backticked ``*.py`` paths must name a file.
DOCS = ("DESIGN.md", "README.md", "docs/*.md")


def missing_documented_paths(root: Path):
    """``doc: path`` for each backticked ``*.py`` path in ``DOCS`` that no
    file under ``root`` ends with. A document writes a path from any
    directory down: `storage.py`, `cruz/storage.py` and
    `src/repro/cruz/storage.py` all name the same file."""
    files = ["/" + path.relative_to(root).as_posix()
             for path in root.rglob("*.py")]
    problems = []
    for doc in sorted(path for pattern in DOCS for path in root.glob(pattern)):
        for span in re.findall(r"`([^`]+)`", doc.read_text()):
            for name in re.findall(r"[\w./-]*\w\.py\b", span):
                wanted = "/" + name.removeprefix("./")
                if not any(file.endswith(wanted) for file in files):
                    problems.append(f"{doc.relative_to(root).as_posix()}: "
                                    f"{name}")
    return problems


def test_every_documented_path_names_a_file():
    assert missing_documented_paths(REPO) == []


@pytest.mark.parametrize("text, expected", [
    ("`core.py`, `pkg/core.py` and `python src/pkg/core.py --fast`", []),
    ("`vif.py` and `ore.py`", ["docs/NOTES.md: vif.py",
                               "docs/NOTES.md: ore.py"]),
    ("```\npython other/core.py\n```", ["docs/NOTES.md: other/core.py"]),
], ids=["named", "missing-or-a-partial-name", "fenced"])
def test_the_path_check_fails_on_each_planted_path(tmp_path, text, expected):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "core.py").write_text("")
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "NOTES.md").write_text(text + "\n")
    (tmp_path / "README.md").write_text("See `src/pkg/core.py`.\n")
    assert missing_documented_paths(tmp_path) == expected
