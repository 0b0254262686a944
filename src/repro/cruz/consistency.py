"""Global-consistency checking across a coordinated checkpoint (§5.1).

The paper proves that the coordination protocol preserves the TCP
invariant ``unack_nxt <= rcv_nxt <= snd_nxt`` for every connection in any
committed global checkpoint. This module *checks* that proof's conclusion
against actual image sets — the tool you want before trusting a rollback,
and the oracle the property tests use.

For each TCP channel present in two images (matching 4-tuples in opposite
orientation), we verify, in both directions:

* ``sender.snd_una <= receiver.rcv_nxt`` — nothing the receiver consumed
  is unknown to the sender (Chandy-Lamport condition 1);
* ``receiver.rcv_nxt <= sender.snd_una + len(send buffer)`` — everything
  the receiver still expects is retransmittable from the sender's saved
  send buffer (condition 2: in-flight data is recoverable).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.errors import CheckpointError
from repro.zap.image import CheckpointImage
from repro.zap.verify import socket_details


@dataclass
class ChannelVerdict:
    """One direction of one TCP channel."""

    sender_pod: str
    receiver_pod: str
    four_tuple: Tuple
    snd_una: int
    effective_snd_nxt: int
    rcv_nxt: int
    ok: bool
    reason: str = ""


@dataclass
class ConsistencyReport:
    channels: List[ChannelVerdict] = field(default_factory=list)
    unmatched_endpoints: List[Tuple[str, Tuple]] = field(
        default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.channels)

    def summary(self) -> str:
        good = sum(1 for c in self.channels if c.ok)
        return (f"{good}/{len(self.channels)} channel directions "
                f"consistent; {len(self.unmatched_endpoints)} endpoints "
                f"external to the checkpoint set")


def _connected_sockets(image: CheckpointImage):
    for _proc, _fd, detail in socket_details(image):
        if detail.get("kind") == "connected":
            yield detail
        yield from detail.get("queued", ())


def check_global_consistency(
        images: List[CheckpointImage]) -> ConsistencyReport:
    """Cross-check every TCP channel appearing in the image set."""
    report = ConsistencyReport()
    endpoints: Dict[Tuple, Tuple[str, dict]] = {}
    for image in images:
        for detail in _connected_sockets(image):
            tcb = detail["tcb"]
            key = (tcb.local_ip, tcb.local_port,
                   tcb.remote_ip, tcb.remote_port)
            endpoints[key] = (image.pod_name, detail)
    for key, (pod_name, detail) in endpoints.items():
        peer_key = (key[2], key[3], key[0], key[1])
        peer = endpoints.get(peer_key)
        if peer is None:
            report.unmatched_endpoints.append((pod_name, key))
            continue
        peer_pod, peer_detail = peer
        verdict = _check_direction(pod_name, detail, peer_pod,
                                   peer_detail, key)
        report.channels.append(verdict)
    return report


def _check_direction(sender_pod: str, sender: dict, receiver_pod: str,
                     receiver: dict, key: Tuple) -> ChannelVerdict:
    snd_una = sender["tcb"].snd_una
    buffered = sum(len(p) for _s, p in sender.get("send_segments", ()))
    effective_nxt = snd_una + buffered
    rcv_nxt = receiver["tcb"].rcv_nxt
    ok = True
    reason = ""
    if not snd_una <= rcv_nxt:
        ok = False
        reason = (f"receiver expects {rcv_nxt} but sender believes "
                  f"{snd_una} is already acknowledged: a received "
                  f"message is missing from the sender's state")
    elif not rcv_nxt <= effective_nxt:
        ok = False
        reason = (f"receiver expects {rcv_nxt} but the sender can only "
                  f"retransmit up to {effective_nxt}: in-flight data "
                  f"is unrecoverable")
    return ChannelVerdict(
        sender_pod=sender_pod, receiver_pod=receiver_pod,
        four_tuple=key, snd_una=snd_una,
        effective_snd_nxt=effective_nxt, rcv_nxt=rcv_nxt,
        ok=ok, reason=reason)


def check_app_checkpoint(store, epoch: int) -> ConsistencyReport:
    """Load the images committed checkpoint round ``epoch`` saved and
    cross-check them: the set a restart of that round restores."""
    images = store.rounds.images(epoch)
    if images is None:
        raise CheckpointError(
            f"round {epoch} is not a committed checkpoint round")
    return check_global_consistency(
        [store.load(name, version) for name, version in images.items()])
