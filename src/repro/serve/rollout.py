"""Canary rolling restore: drain → restore → verify → promote/rollback.

The restart-into-production workflow: take one replica of a serving
fleet out of rotation at the proxy, restore it from a freshly committed
ImageStore version, and only put it back once *two* independent checks
pass — :func:`repro.zap.verify.verify_image` on the image itself, and a
read-back consistency probe routed through the proxy to the restored
backend (does it actually serve the value the fleet acknowledged?). On
either failure the canary is rolled back to the version it ran before
and a typed :class:`~repro.errors.RolloutError` names the divergence.

All control traffic (sentinel write, drain/undrain, pinned probe) flows
through the proxy's admin plane over the ordinary kv wire protocol, so
the rollout exercises exactly the data path clients use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.apps.kvserver import KvClient
from repro.errors import RolloutError
from repro.zap.verify import verify_image

#: Sim-time budgets: one admin batch; draining / re-admitting a backend
#: (also the ``admin.status`` wait after a rollback); the status poll.
ADMIN_CALL_LIMIT_S = 30.0
STATUS_LIMIT_S = 10.0
STATUS_POLL_S = 0.02

class AdminClient:
    """Issues admin/kv requests through the proxy from outside the fleet.

    Each :meth:`call` spawns a one-shot :class:`KvClient` batch on the
    coordinator node (never checkpointed, like any external customer) and
    runs the simulation until it finishes. Request IDs are drawn from a
    private monotonic counter so admin writes get exactly-once semantics
    like everyone else's.
    """

    def __init__(self, cluster, proxy_ip: str):
        self.cluster = cluster
        self.proxy_ip = proxy_ip
        self.rng = cluster.random.stream("serve-admin")
        self._rid = 0

    def next_rid(self) -> str:
        self._rid += 1
        return f"adm{self._rid}"

    def call(self, requests: List[dict]) -> List[dict]:
        # Every request gets a rid — the pinned-probe path is keyed on
        # it, and admin writes need exactly-once like anyone else's.
        requests = [dict(request) for request in requests]
        for request in requests:
            request.setdefault("rid", self.next_rid())
        client = KvClient(self.proxy_ip, requests, rng=self.rng)
        proc = self.cluster.coordinator_node.spawn(client)
        self.cluster.run_until(lambda: not proc.is_alive,
                               limit=ADMIN_CALL_LIMIT_S, step=0.005)
        return client.responses

    def one(self, request: dict) -> dict:
        responses = self.call([request])
        return responses[0] if responses else {"ok": False,
                                               "error": "no response"}

    # -- admin verbs --------------------------------------------------------

    def status(self) -> dict:
        return self.one({"op": "admin.status"})

    def drain(self, backend: int) -> dict:
        return self.one({"op": "admin.drain", "backend": backend})

    def undrain(self, backend: int) -> dict:
        return self.one({"op": "admin.undrain", "backend": backend})

    def reset(self, backend: int) -> dict:
        return self.one({"op": "admin.reset", "backend": backend})

    def probe(self, backend: int, key: str) -> dict:
        return self.one({"op": "admin.probe", "backend": backend,
                         "key": key})

    def put(self, key: str, value) -> dict:
        return self.one({"op": "put", "key": key, "value": value,
                         "rid": self.next_rid()})


@dataclass
class RolloutReport:
    """What one canary restore did, step by step."""

    app_name: str
    backend: int
    pod_name: str
    from_version: Optional[int]
    to_version: Optional[int] = None
    promoted: bool = False
    probe_key: str = ""
    probe_value: object = None
    drain_s: float = 0.0
    restore_s: float = 0.0
    total_s: float = 0.0
    steps: List[str] = field(default_factory=list)


def _await_status(cluster, admin, predicate) -> dict:
    """Poll ``admin.status`` until ``predicate(status)`` holds."""
    deadline = cluster.sim.now + STATUS_LIMIT_S
    while True:
        status = admin.status()
        if status.get("ok") and predicate(status):
            return status
        if cluster.sim.now >= deadline:
            return status
        cluster.run_for(STATUS_POLL_S)


def restore_pod(cluster, app, pod_name: str, node,
                version: Optional[int] = None):
    """Restore ``pod_name`` at ``version`` (default: the latest
    committed) on ``node`` and re-point the single-pod ``app`` at it."""
    image = cluster.store.load(pod_name, version)
    restored = cluster.run_until_complete(
        cluster.sim.process(cluster.restore_pod(image, node)))
    app.pods = [restored]
    return restored


def canary_restore(cluster, admin: AdminClient, app, backend: int,
                   probe_key: Optional[str] = None,
                   corrupt: Optional[Callable] = None) -> RolloutReport:
    """Run one canary rolling restore of ``app`` (a single-pod backend).

    The state machine, in order:

    1. **sentinel** — write a canary key through the proxy (replicated to
       the whole fleet, canary included) whose value names the rollout.
    2. **drain** — ``admin.drain`` the canary; wait until its in-flight
       window is empty and it has acknowledged every fanned write, so the
       checkpoint captures a quiesced, up-to-date replica.
    3. **checkpoint** — a coordinated round commits the new version the
       canary will be restored from.
    4. **restore** — destroy the canary pod, ``verify_image`` the new
       image (failure ⇒ rollback, stage ``"verify-image"``), restart it
       resumed on the same node. ``corrupt`` (the chaos
       canary-verify-failure hook) is applied *after* restore, before
       verification — simulating a restore that came back wrong.
    5. **read-back** — ``admin.probe`` the sentinel key *pinned to the
       canary* through the proxy; a mismatch ⇒ rollback, stage
       ``"read-back"``, with key/expected/got in the error.
    6. **promote** — ``admin.undrain``; the proxy re-syncs the canary
       (replaying any writes it missed while drained) and marks it
       ``up``. Rollback instead: ``admin.reset`` (the proxy drops its
       connection — a replica restored to an *older* version cannot
       resume the old TCP stream), restore ``from_version``, undrain.

    Returns a :class:`RolloutReport`; raises :class:`RolloutError` on
    divergence (after rolling back).
    """
    pod = app.pods[0]
    pod_name, node = pod.name, pod.node
    began = cluster.sim.now
    report = RolloutReport(
        app_name=app.name, backend=backend, pod_name=pod_name,
        from_version=cluster.store.latest_version(pod_name) or None)

    # 1. Sentinel write through the proxy (fans to the whole fleet).
    report.probe_key = probe_key or f"canary.{pod_name}"
    report.probe_value = f"canary-{pod_name}-{began:.6f}"
    response = admin.put(report.probe_key, report.probe_value)
    if not response.get("ok"):
        raise RolloutError(app.name, backend, "read-back",
                           key=report.probe_key, rolled_back=False,
                           message=f"canary sentinel write failed: "
                                   f"{response!r}")
    sentinel_seq = response.get("seq", 0)
    report.steps.append("sentinel")

    # 2. Drain at the proxy; wait for a quiesced, caught-up replica.
    # "Caught up" is relative to the sentinel, not the live head of the
    # write log — client traffic keeps advancing ``seq`` and a drained
    # backend (correctly) no longer receives those writes.
    drain_started = cluster.sim.now
    admin.drain(backend)

    def quiesced(status):
        me = status["backends"][backend]
        return (me["outstanding"] == 0 and me["drained"]
                and me["acked_seq"] >= sentinel_seq)

    status = _await_status(cluster, admin, quiesced)
    report.drain_s = cluster.sim.now - drain_started
    report.steps.append("drain")
    if not (status.get("ok")
            and quiesced(status)):  # pragma: no cover - defensive
        admin.undrain(backend)
        raise RolloutError(app.name, backend, "verify-image",
                           rolled_back=True,
                           message=f"canary backend {backend} never "
                                   f"quiesced: {status!r}")

    # 3. Commit the version the canary restarts from.
    cluster.checkpoint_app(app)
    report.to_version = cluster.store.latest_version(pod_name)

    # 4. Destroy + verify + restore (the actual rolling restart).
    restore_started = cluster.sim.now
    cluster.destroy_pod(pod)
    image = cluster.store.load(pod_name, report.to_version)
    verdict = verify_image(image)
    if not verdict.ok:
        _rollback(cluster, admin, app, backend, pod_name, node, report)
        raise RolloutError(app.name, backend, "verify-image",
                           rolled_back=True,
                           message=f"canary image v{report.to_version} of "
                                   f"{pod_name!r} failed verification: "
                                   f"{verdict.problems}; rolled back to "
                                   f"v{report.from_version}")
    restored = restore_pod(cluster, app, pod_name, node,
                           report.to_version)
    report.restore_s = cluster.sim.now - restore_started
    report.steps.append("restore")
    if corrupt is not None:
        corrupt(restored)

    # 5. Read-back consistency probe, pinned to the canary via the proxy.
    # Health pings kept flowing between the checkpoint snapshot and the
    # destroy, so the restored image's TCP stream is *behind* the
    # proxy's — reset forces a clean redial before probing (the restored
    # listen socket accepts it; the stale resumed connection dies).
    admin.reset(backend)
    _await_status(
        cluster, admin,
        lambda s: (s["backends"][backend]["state"]
                   in ("syncing", "up", "suspect")))
    probe = admin.probe(backend, report.probe_key)
    got = probe.get("value")
    if not probe.get("ok") or got != report.probe_value:
        cluster.destroy_pod(restored)
        _rollback(cluster, admin, app, backend, pod_name, node, report)
        raise RolloutError(app.name, backend, "read-back",
                           key=report.probe_key,
                           expected=report.probe_value, got=got,
                           rolled_back=True)
    report.steps.append("read-back")

    # 6. Promote: back into rotation; the proxy re-syncs and marks it up.
    admin.undrain(backend)
    _await_status(
        cluster, admin,
        lambda s: s["backends"][backend]["state"] == "up")
    report.promoted = True
    report.steps.append("promote")
    report.total_s = cluster.sim.now - began
    return report


def _rollback(cluster, admin: AdminClient, app, backend: int,
              pod_name: str, node, report: RolloutReport) -> None:
    """Restore the pre-canary version and re-admit it at the proxy.

    The proxy's connection to the canary was established against the
    *newer* state, so it is reset first — a backend restored to an older
    image cannot transparently resume that stream.
    """
    admin.reset(backend)
    if not report.from_version:
        raise RolloutError(app.name, backend, "verify-image",
                           rolled_back=False,
                           message=f"no pre-canary version of {pod_name!r} "
                                   f"to roll back to; backend left down")
    restore_pod(cluster, app, pod_name, node, report.from_version)
    admin.undrain(backend)
    _await_status(
        cluster, admin,
        lambda s: s["backends"][backend]["state"] == "up")
    report.steps.append("rollback")
