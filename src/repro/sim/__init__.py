"""Deterministic discrete-event simulation kernel."""

from repro.sim.core import Simulator
from repro.sim.spans import SpanRecorder
