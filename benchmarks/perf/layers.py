"""Layer buckets for ``src/repro`` and cProfile attribution onto them."""

from __future__ import annotations

import os
from typing import Dict, List, Tuple

from metrics import LAYERS

#: (path prefix relative to ``src/repro``, layer); first match wins, so
#: the named files come before their package's catch-all.
LAYER_RULES: List[Tuple[str, str]] = [
    ("sim/eventq.py", "sim.eventq"),
    ("sim/timers.py", "sim.timers"),
    ("sim/spans.py", "sim.spans"),
    ("sim/trace.py", "sim.spans"),
    ("sim/", "sim.core"),
    ("net/link.py", "net.link"),
    ("net/switch.py", "net.switch"),
    ("net/", "net.other"),
    ("tcp/connection.py", "tcp.connection"),
    ("tcp/buffers.py", "tcp.buffers"),
    ("tcp/", "tcp.stack"),
    ("simos/netstack.py", "simos.netstack"),
    ("simos/netdev.py", "simos.netstack"),
    ("simos/netfilter.py", "simos.netstack"),
    ("simos/filesystem.py", "simos.fs"),
    ("simos/memory.py", "simos.fs"),
    ("simos/", "simos.kernel"),
    ("zap/restart.py", "zap.restart"),
    ("zap/verify.py", "zap.restart"),
    ("zap/", "zap.checkpoint"),
    ("cruz/storage.py", "cruz.storage"),
    ("cruz/backend.py", "cruz.backend"),
    ("cruz/supervisor.py", "cruz.recovery"),
    ("cruz/migration.py", "cruz.recovery"),
    ("cruz/faults.py", "cruz.recovery"),
    ("cruz/cluster.py", "cruz.recovery"),
    ("cruz/", "cruz.protocol"),
    ("apps/", "apps"),
    ("mpi/", "apps"),
    ("lsf/", "apps"),
    ("serve/", "serve"),
    ("analysis/", "analysis"),
    ("cluster.py", "cluster"),
    # cli, errors, bench, baselines, tools, package inits
    ("", "host.other"),
]


def layer_of(relative_path: str) -> str:
    """The layer of one file, given its path relative to ``src/repro``."""
    relative_path = relative_path.replace(os.sep, "/")
    for prefix, layer in LAYER_RULES:
        if relative_path.startswith(prefix):
            return layer
    raise AssertionError("the catch-all rule matches every path")


def attribute(profiler, product_root: str, traced_wall_s: float
              ) -> Tuple[Dict[str, float], Dict[str, int], float]:
    """Per-layer self time and call counts from one cProfile run.

    A Python function's ``inlinetime`` is its self time and goes to the
    layer of its source file. A C builtin (``dict.get``, ``hashlib``,
    ``pickle``) has no file: its self time is charged to the layer of
    each Python caller through the profiler's caller table. Whatever is
    left of the traced wall (builtins called by builtins, profiler
    bookkeeping) is returned as the third value and added to
    ``host.other``, so the layers sum to the wall.
    """
    root = os.path.join(os.path.abspath(product_root), "")
    self_s = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    for entry in profiler.getstats():
        code = entry.code
        if isinstance(code, str):
            continue
        filename = code.co_filename
        layer = (layer_of(filename[len(root):])
                 if filename.startswith(root) else "host.other")
        self_s[layer] += entry.inlinetime
        calls[layer] += entry.callcount
        for callee in entry.calls or ():
            if isinstance(callee.code, str):
                self_s[layer] += callee.inlinetime
    unattributed = max(0.0, traced_wall_s - sum(self_s.values()))
    self_s["host.other"] += unattributed
    return self_s, calls, unattributed
