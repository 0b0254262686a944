"""Sequence-number-accurate TCP (and minimal UDP) for the simulated cluster."""
