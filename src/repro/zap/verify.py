"""Checkpoint-image validation.

An image that restores into a subtly broken pod is worse than a failed
checkpoint. :func:`verify_image` performs the structural checks a careful
operator would want before trusting an image for disaster recovery:
namespace uniqueness, referential integrity of fd tables and pipes, socket
detail well-formedness (§4.1's sequence-number adjustment and boundary
contiguity), and deserialisability of every program blob.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.zap.image import FD_KINDS, CheckpointImage, thaw_object


@dataclass
class VerificationReport:
    """The outcome of verifying one image."""

    pod_name: str
    problems: List[str] = field(default_factory=list)
    checks_run: int = 0

    @property
    def ok(self) -> bool:
        return not self.problems

    def fail(self, message: str) -> None:
        self.problems.append(message)

    def note(self) -> None:
        self.checks_run += 1


def verify_image(image: CheckpointImage) -> VerificationReport:
    """Validate one pod image; returns a report (``.ok`` when clean)."""
    report = VerificationReport(pod_name=image.pod_name)
    _check_vpids(image, report)
    _check_pipes(image, report)
    _check_fds(image, report)
    _check_programs(image, report)
    _check_ipc(image, report)
    _check_sockets(image, report)
    return report


def _check_vpids(image: CheckpointImage, report: VerificationReport):
    report.note()
    vpids = [p.vpid for p in image.processes]
    if len(set(vpids)) != len(vpids):
        report.fail(f"duplicate vpids: {sorted(vpids)}")
    report.note()
    for proc in image.processes:
        if proc.vpid >= image.next_vpid:
            report.fail(
                f"vpid {proc.vpid} >= next_vpid {image.next_vpid}")
        if proc.parent_vpid and proc.parent_vpid not in vpids \
                and proc.parent_vpid != 0:
            report.fail(
                f"vpid {proc.vpid}: unknown parent {proc.parent_vpid}")


def _check_pipes(image: CheckpointImage, report: VerificationReport):
    report.note()
    for index, pipe in enumerate(image.pipes):
        if pipe.index != index:
            report.fail(f"pipe table index mismatch at {index}")
        if pipe.readers < 0 or pipe.writers < 0:
            report.fail(f"pipe {index}: negative refcount")
    referenced = set()
    for proc in image.processes:
        for fd_image in proc.fds:
            if fd_image.kind == "pipe":
                referenced.add(fd_image.detail["pipe_index"])
    report.note()
    for pipe_index in referenced:
        if pipe_index >= len(image.pipes):
            report.fail(f"fd references missing pipe {pipe_index}")
    for index in range(len(image.pipes)):
        if index not in referenced:
            report.fail(f"orphaned pipe {index} (no fd references it)")


def _check_fds(image: CheckpointImage, report: VerificationReport):
    report.note()
    for proc in image.processes:
        seen = set()
        for fd_image in proc.fds:
            if fd_image.kind not in FD_KINDS:
                report.fail(
                    f"vpid {proc.vpid} fd {fd_image.fd}: unknown kind "
                    f"{fd_image.kind!r}")
            if fd_image.fd in seen:
                report.fail(
                    f"vpid {proc.vpid}: duplicate fd {fd_image.fd}")
            seen.add(fd_image.fd)


def _check_programs(image: CheckpointImage, report: VerificationReport):
    for proc in image.processes:
        report.note()
        try:
            thaw_object(proc.program_blob)
        except Exception as exc:  # noqa: BLE001
            report.fail(
                f"vpid {proc.vpid}: program blob does not deserialise "
                f"({exc})")


def _check_ipc(image: CheckpointImage, report: VerificationReport):
    report.note()
    shm_vids = [segment.vid for segment in image.shm]
    if len(set(shm_vids)) != len(shm_vids):
        report.fail("duplicate shm virtual ids")
    sem_vids = [sem.vid for sem in image.sem]
    if len(set(sem_vids)) != len(sem_vids):
        report.fail("duplicate semaphore virtual ids")


def socket_details(image: CheckpointImage):
    """(process, fd, detail) of every TCP socket saved in ``image``."""
    for proc in image.processes:
        for fd_image in proc.fds:
            if fd_image.kind == "tcp_socket" and \
                    isinstance(fd_image.detail, dict):
                yield proc, fd_image.fd, fd_image.detail


def _check_sockets(image: CheckpointImage, report: VerificationReport):
    for proc, fd, detail in socket_details(image):
        kind = detail.get("kind")
        if kind != "connected":
            continue
        report.note()
        tcb = detail.get("tcb")
        if tcb is None:
            report.fail(f"vpid {proc.vpid} fd {fd}: connected socket "
                        f"without a TCB")
            continue
        # §4.1: the saved TCB must reflect an empty send buffer.
        if tcb.snd_nxt != tcb.snd_una:
            report.fail(
                f"vpid {proc.vpid} fd {fd}: TCB not rewound "
                f"(snd_nxt={tcb.snd_nxt} != snd_una={tcb.snd_una})")
        segments = detail.get("send_segments", [])
        expected = tcb.snd_una
        for seq, payload in segments:
            if seq != expected:
                report.fail(
                    f"vpid {proc.vpid} fd {fd}: packet boundary gap at "
                    f"seq {seq} (expected {expected})")
                break
            expected = seq + len(payload)


def verify_images(images: List[CheckpointImage]) -> Dict[str, Any]:
    """Verify a batch; returns {pod_name: report} plus an 'ok' flag."""
    reports = {image.pod_name: verify_image(image) for image in images}
    return {"ok": all(r.ok for r in reports.values()),
            "reports": reports}
