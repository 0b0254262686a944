"""EXPERIMENTS.md is the output of the figure table and cannot drift.

The CI ``experiments`` lane regenerates the whole file at paper scale
and diffs it; here the structure is checked for every record and the
bytes for the records cheap enough for tier-1.
"""

import dataclasses
import json
import os
import re

import pytest

from repro import cli
from repro.bench import optimization
from repro.bench.harness import (EXPERIMENTS_HEAD, ShapeReport,
                                 render_experiments, render_section)

COMMITTED = os.path.join(os.path.dirname(__file__), os.pardir,
                         "EXPERIMENTS.md")
#: Records that cost under 4 s at paper scale, and fig6, which
#: tests/test_cli.py runs at paper scale anyway (see ``paper_scale``).
CHEAP = ("fig6", "overhead", "fig4", "scalability")
BY_NAME = {figure.name: figure for figure in cli.FIGURES}


def _committed_sections():
    """``{heading line: section text}`` of the committed file, in file
    order, after checking the generator's constant head."""
    with open(COMMITTED, encoding="utf-8") as handle:
        text = handle.read()
    assert text.startswith(EXPERIMENTS_HEAD)
    parts = re.split(r"(?m)^(?=## )", text[len(EXPERIMENTS_HEAD):])
    assert parts[0] == "\n"
    return {part.split("\n", 1)[0]: part for part in parts[1:]}


def _heading(figure):
    return f"## {figure.section} (`repro {figure.name}`)"


def test_the_document_has_one_section_per_record_in_table_order():
    assert list(_committed_sections()) == [
        _heading(figure) for figure in cli.FIGURES]
    for figure in cli.FIGURES:
        assert figure.section and figure.paper.startswith("Paper")


@pytest.mark.parametrize("name", CHEAP)
def test_a_cheap_record_regenerates_its_committed_section(
        name, paper_scale):
    figure = BY_NAME[name]
    fresh = render_section(figure, paper_scale(figure))
    # Sections are joined by a blank line; the last one ends the file.
    joint = "" if figure is cli.FIGURES[-1] else "\n"
    assert _committed_sections()[_heading(figure)] == fresh + joint


def test_the_round_half_of_ablation_regenerates_its_committed_table():
    figure = optimization.ABLATION
    rounds_table, _stream_table = figure.render(
        optimization.AblationResult(
            rounds=optimization.run_ablation_rounds(), stream={}))
    assert rounds_table + "\n" in _committed_sections()[_heading(figure)]


def test_experiments_writes_the_document_and_json_every_figures_object(
        monkeypatch, capsys):
    figure = BY_NAME["overhead"]
    monkeypatch.setattr(cli, "FIGURES", (figure,))
    assert cli.main(["experiments"]) == 0
    document = capsys.readouterr().out
    assert document == render_experiments(
        [(figure, figure.run_at_paper_scale())])
    assert document.startswith(EXPERIMENTS_HEAD + "\n" + _heading(figure))

    assert cli.main(["overhead", "--json"]) == 0
    alone = json.loads(capsys.readouterr().out)
    assert cli.main(["experiments", "--json"]) == 0
    out = capsys.readouterr().out
    doc, end = json.JSONDecoder().raw_decode(out)
    assert out[end:].strip() == ""
    assert doc == {"command": "experiments", "passed": True,
                   "figures": [alone]}


def test_experiments_fails_when_any_shape_fails(monkeypatch, capsys):
    def never(_result):
        report = ShapeReport("never")
        report.check("impossible", False)
        return report

    failing = dataclasses.replace(BY_NAME["overhead"], name="never",
                                  shape=never)
    monkeypatch.setattr(cli, "FIGURES", (BY_NAME["overhead"], failing))
    assert cli.main(["experiments", "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is False
    assert [f["shape"]["passed"] for f in doc["figures"]] == [True, False]
    assert cli.main(["experiments"]) == 1
    assert "CHECKS FAILED" in capsys.readouterr().out


def test_experiments_takes_no_flag_but_json(capsys):
    for flag in ("--write", "--check", "--nodes"):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["experiments", flag])
        assert excinfo.value.code == 2
    capsys.readouterr()
