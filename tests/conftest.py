"""Shared pytest plumbing: the ``--cruz-sanitize`` lane, and one run
per session of each figure that tier-1 drives at paper scale.

``pytest --cruz-sanitize`` runs every test with ``CRUZ_SANITIZE=1`` in
the environment, so each :class:`repro.cluster.Cluster` a test builds
installs a runtime sanitizer (see :mod:`repro.analysis.sanitize`).  At
test teardown the fixture collects the violations from every
environment-installed sanitizer and fails the test if any accumulated.

Tests that *want* violations (the negative cases in
``test_sanitizer.py``) construct their clusters with an explicit
``sanitize=True`` — those sanitizers never register in
``sanitize.ACTIVE`` and are therefore invisible to this fixture.
"""

import pytest

from repro.analysis import sanitize


def pytest_addoption(parser):
    parser.addoption(
        "--cruz-sanitize", action="store_true", default=False,
        help="run every test with the Cruz runtime invariant sanitizer "
             "enabled (CRUZ_SANITIZE=1) and fail on any violation")


@pytest.fixture(autouse=True)
def cruz_sanitize(request, monkeypatch):
    if not request.config.getoption("--cruz-sanitize"):
        yield
        return
    monkeypatch.setenv(sanitize.ENV_FLAG, "1")
    sanitize.ACTIVE.clear()
    yield
    violations = [violation for sanitizer in sanitize.ACTIVE
                  for violation in sanitizer.violations]
    sanitize.ACTIVE.clear()
    if violations:
        lines = "\n".join(v.render() for v in violations)
        pytest.fail(
            f"cruz sanitizer: {len(violations)} violation(s)\n{lines}")


@pytest.fixture(scope="session")
def paper_scale():
    """``paper_scale(figure)`` -> the figure's result with every flag at
    its default, run once however many tests read it (fig6 alone is
    13 s): the CLI tests emit it, the EXPERIMENTS.md tests render it."""
    results = {}

    def run(figure):
        if figure.name not in results:
            results[figure.name] = figure.run_at_paper_scale()
        return results[figure.name]

    return run
