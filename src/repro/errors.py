"""Exception hierarchy for the Cruz reproduction.

Every layer raises subclasses of :class:`ReproError` so callers can catch
library failures without also swallowing programming errors.
"""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SimulationError(ReproError):
    """The discrete-event kernel was used incorrectly."""


class NetworkError(ReproError):
    """Link/switch/NIC level failure (bad frame, unknown device, ...)."""


class TcpError(NetworkError):
    """TCP protocol violation or misuse of a connection object."""


class SyscallError(ReproError):
    """A simulated system call failed.

    Carries a Unix-style ``errno`` name (e.g. ``"EBADF"``) so application
    programs can dispatch on it the way real code dispatches on errno.
    """

    def __init__(self, errno, message=""):
        super().__init__(f"{errno}: {message}" if message else errno)
        self.errno = errno


class CheckpointError(ReproError):
    """Single-node (pod) checkpoint or restart failed."""


class StoreError(CheckpointError):
    """Image-store failure (chunk IO, replication, reconstruction).

    Rooted under :class:`CheckpointError` so every existing
    ``except CheckpointError`` recovery path (agents, supervisor,
    migration rollback) keeps handling storage faults without change.
    """


class ChunkMissingError(StoreError):
    """A content-addressed chunk has no readable copy.

    ``cid`` is the chunk hash; ``queried_nodes`` names every shard that
    was asked (in deterministic sorted order) before giving up, so the
    error itself documents which replicas were unreachable.
    """

    def __init__(self, cid, queried_nodes=()):
        self.cid = cid
        self.queried_nodes = tuple(queried_nodes)
        where = ", ".join(self.queried_nodes) or "no nodes"
        super().__init__(f"missing chunk {cid} (queried: {where})")


class ReplicationError(StoreError):
    """A chunk copy could not be placed or repaired.

    Raised by the re-replication path when a chunk is below its target
    replication factor and no surviving replica can source the copy.
    """

    def __init__(self, cid, wanted, live_holders=(), message=""):
        self.cid = cid
        self.wanted = wanted
        self.live_holders = tuple(live_holders)
        super().__init__(
            message or f"cannot re-replicate chunk {cid} to RF={wanted}: "
                       f"live holders {list(self.live_holders)}")


class VersionUnreconstructibleError(StoreError):
    """A committed version cannot be rebuilt from surviving replicas.

    Carries the pod name, version, and the first chunk found without a
    live copy. Callers that can fall back (failover, migration) should
    consult :meth:`ImageStore.reconstructible_versions` for an older
    version whose chunks all survive.
    """

    def __init__(self, pod_name, version, missing_cid=None,
                 queried_nodes=()):
        self.pod_name = pod_name
        self.version = version
        self.missing_cid = missing_cid
        self.queried_nodes = tuple(queried_nodes)
        detail = (f"; first missing chunk {missing_cid}"
                  if missing_cid else "")
        super().__init__(f"checkpoint v{version} of pod {pod_name!r} is "
                         f"not reconstructible from surviving "
                         f"replicas{detail}")


class CoordinationError(ReproError):
    """The distributed checkpoint/restart protocol failed or timed out."""


class RestartMismatchError(CoordinationError):
    """A restart round committed but some members never re-registered.

    Carries ``missing`` (pod names without a live replacement) so callers
    know exactly which members to recover by hand; ``app.pods`` is left
    untouched rather than silently re-pointed at a partial membership.
    """

    def __init__(self, app_name, missing):
        self.app_name = app_name
        self.missing = list(missing)
        super().__init__(f"restart of {app_name!r} left members "
                         f"{self.missing} unregistered")


class FailoverError(CoordinationError):
    """Automatic failover could not recover an app.

    Raised (and recorded by the supervisor) when no committed checkpoint
    version exists for every member, no surviving node has capacity, or
    every restart attempt exhausted its retry budget.
    """

    def __init__(self, app_name, reason, version=None, attempts=0):
        self.app_name = app_name
        self.reason = reason
        self.version = version
        self.attempts = attempts
        super().__init__(f"failover of {app_name!r} failed: {reason}")


class RolloutError(CoordinationError):
    """A canary rolling restore failed verification and was rolled back.

    Names the exact divergence: ``backend`` (index at the proxy),
    ``stage`` (``"verify-image"`` or ``"read-back"``), and for read-back
    mismatches the probed ``key`` with ``expected`` vs ``got``.
    ``rolled_back`` reports whether the prior version was successfully
    restored (the rollback itself re-verifies; a second failure leaves
    it ``False`` and the message says so).
    """

    def __init__(self, app_name, backend, stage, key=None,
                 expected=None, got=None, rolled_back=True, message=""):
        self.app_name = app_name
        self.backend = backend
        self.stage = stage
        self.key = key
        self.expected = expected
        self.got = got
        self.rolled_back = rolled_back
        if not message:
            detail = (f" key {key!r}: expected {expected!r}, "
                      f"got {got!r}" if stage == "read-back" else "")
            tail = ("rolled back to the prior version" if rolled_back
                    else "ROLLBACK FAILED — backend left drained")
            message = (f"canary restore of {app_name!r} backend "
                       f"{backend} diverged at {stage}{detail}; {tail}")
        super().__init__(message)


class PodError(ReproError):
    """Pod management failure (unknown pod, double attach, ...)."""


class MigrationError(PodError):
    """Live migration of one pod failed.

    ``version`` names the newest committed checkpoint image (``None``
    when the failure happened before anything was committed — e.g. the
    source node has no live agent). ``source_destroyed`` reports whether
    the migration itself tore the source pod down before failing: when
    ``False`` the source pod was left exactly as found (it may still be
    running, or have died to an external crash — not this operation's
    doing) and ``app.pods`` must not be rewritten. When ``True``,
    ``rolled_back`` reports whether the pod was automatically re-restored
    on its source node (leaving the app consistent) or must be restored
    by hand from ``version``.
    """

    def __init__(self, pod_name, version, target_node, cause,
                 rolled_back=False, source_destroyed=True):
        self.pod_name = pod_name
        self.version = version
        self.target_node = target_node
        self.cause = cause
        self.rolled_back = rolled_back
        self.source_destroyed = source_destroyed
        if not source_destroyed:
            state = "left as found at the source"
        elif rolled_back:
            state = "rolled back to its source node"
        else:
            state = "NOT running anywhere"
        image = (f"committed image v{version} remains restorable"
                 if version is not None else "no image was committed")
        super().__init__(
            f"migration of {pod_name!r} to {target_node} failed "
            f"({cause!r}); {image}, pod {state}")
