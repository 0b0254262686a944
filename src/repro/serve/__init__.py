"""Production-style serving under SLO: proxy fleet harness, per-request
latency accounting, and canary rolling restores.

The paper's motivating claim (§1) is that maintenance is *invisible* to
connected clients; this package quantifies that claim as a user-visible
SLO. :mod:`repro.serve.slo` turns per-request client samples into
windowed p50/p99 + error/shed/retry counts, :mod:`repro.serve.rollout`
implements the drain → restore → verify → promote/rollback canary state
machine, and :mod:`repro.serve.harness` runs the whole fleet (proxy +
replicated kv backends + sessionful clients) through checkpoint rounds,
failover, live migration, and canary restores while recording what the
clients actually experienced.
"""
