"""Experiment harnesses regenerating the paper's tables and figures.

Each figure module exports a ``FIGURE`` record and each committed-baseline
suite a ``SUITE`` record (:mod:`repro.bench.harness`); ``repro.cli``
registers them. Import what you need from the submodule that defines it.
"""
