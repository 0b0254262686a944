"""CruzSan: static determinism lint + runtime invariant sanitizer.

Cruz's correctness argument rests on invariants the code must hold at
every instant (the §5.1 TCP sequence invariant, chunk-store refcount
soundness, WAL epoch monotonicity, netfilter rules never outliving a
round).  This package checks them mechanically:

* :mod:`repro.analysis.lint` — AST lint with repo-specific rules
  (``repro lint``), each with a code, a fix-hint and
  ``# cruz: noqa[RULE]`` suppression;
* :mod:`repro.analysis.sanitize` — pluggable runtime invariant checkers
  hung off existing hooks (``CRUZ_SANITIZE=1`` / ``repro sanitize``),
  violations annotated with the enclosing telemetry span;
* :mod:`repro.analysis.determinism` — a schedule-race detector that
  runs a workload twice with perturbed same-timestamp tie-breaking and
  diffs RoundStats plus a state hash (``repro analyze determinism``).

See docs/ANALYSIS.md for the rule catalog and hook points.
"""
