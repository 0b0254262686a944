"""The reference ``run_until``: one ``Simulator.run`` per timestamp.

The body of ``Cluster.run_until`` as it stood before the drive loop
moved into ``repro.sim.core`` — verbatim, with ``self.sim`` spelled
``sim``. It re-enters ``run()`` once per distinct timestamp (peek the
next time, run up to it, ask the predicate again), which is exactly the
behaviour ``Simulator.run_until`` must reproduce with one pop per event.
The equivalence tests drive both over the same schedules, so this stays
the plain per-timestamp loop and is not to be optimised.
"""


def reference_run_until(sim, predicate, limit=1e6, step=0.01):
    while not predicate():
        if sim.now > limit:
            raise TimeoutError("run_until limit exceeded")
        upcoming = sim.peek()
        if upcoming == float("inf"):
            target = min(sim.now + step, limit + step)
        else:
            target = min(upcoming, limit + step)
        sim.run(until=target)
