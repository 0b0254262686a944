"""Image verification and global-consistency checking, including
deliberately corrupted inputs (the checker must actually catch things)."""

import pickle
from dataclasses import replace

import pytest

from repro.cruz.consistency import (
    check_app_checkpoint,
    check_global_consistency,
)
from repro.zap.verify import verify_image, verify_images

from tests.test_cruz_coordination import (
    make_cluster,
    ring_app,
)


def checkpointed_images(n=3, padding=2048):
    cluster = make_cluster(n)
    app = ring_app(cluster, n, max_token=100000, padding=padding)
    cluster.run_for(0.3)
    stats = cluster.checkpoint_app(app)
    assert stats.committed
    images = [cluster.store.load(pod.name) for pod in app.pods]
    return cluster, app, images


def test_committed_images_verify_clean():
    _cluster, _app, images = checkpointed_images()
    outcome = verify_images(images)
    assert outcome["ok"], {
        name: report.problems
        for name, report in outcome["reports"].items()}
    assert all(report.checks_run > 0
               for report in outcome["reports"].values())


def test_committed_images_are_globally_consistent():
    _cluster, _app, images = checkpointed_images()
    report = check_global_consistency(images)
    # A 3-ring has 3 connections = 6 directed channels.
    assert len(report.channels) == 6
    assert report.ok, [c.reason for c in report.channels if not c.ok]
    assert not report.unmatched_endpoints


def test_consistency_via_store_helper():
    cluster, _app, _images = checkpointed_images()
    report = check_app_checkpoint(cluster.store,
                                  cluster.coordinator.rounds[-1].epoch)
    assert len(report.channels) == 6
    assert report.ok


def streaming_images():
    """Images of a max-rate stream: send buffers are guaranteed full."""
    from repro.apps.tcpstream import stream_factory
    cluster = make_cluster(2)
    app = cluster.launch_app_factory(
        "stream", 2, stream_factory(total_bytes=1 << 62))
    cluster.run_for(0.3)
    stats = cluster.checkpoint_app(app)
    assert stats.committed
    return [cluster.store.load(pod.name) for pod in app.pods]


def _connected_details(images):
    for image in images:
        for proc in image.processes:
            for fd_image in proc.fds:
                if fd_image.kind == "tcp_socket" and \
                        fd_image.detail.get("kind") == "connected":
                    yield image, fd_image.detail


def test_consistency_checker_catches_lost_message():
    """A receiver whose rcv_nxt exceeds what the sender can retransmit
    (lost in-flight data) must be flagged as unrecoverable."""
    images = streaming_images()
    # Find the bulk sender (has buffered data) and advance its peer's
    # rcv_nxt past the retransmittable range, simulating a checkpoint
    # that failed to save part of the send buffer.
    details = list(_connected_details(images))
    sender = max((d for _i, d in details),
                 key=lambda d: sum(len(p) for _s, p in d["send_segments"]))
    assert sender["send_segments"], "stream sender should hold data"
    effective = sender["tcb"].snd_una + sum(
        len(p) for _s, p in sender["send_segments"])
    for _image, detail in details:
        if detail is sender:
            continue
        detail["tcb"] = replace(detail["tcb"], rcv_nxt=effective + 1000)
    report = check_global_consistency(images)
    assert not report.ok
    assert any("unrecoverable" in c.reason
               for c in report.channels if not c.ok)


def test_consistency_checker_catches_rolled_back_receiver():
    """Rewind a receiver's rcv_nxt below the sender's snd_una."""
    _cluster, _app, images = checkpointed_images()
    changed = False
    for image in images:
        for proc in image.processes:
            for fd_image in proc.fds:
                detail = fd_image.detail
                if fd_image.kind == "tcp_socket" and \
                        detail.get("kind") == "connected":
                    detail["tcb"] = replace(
                        detail["tcb"],
                        rcv_nxt=max(0, detail["tcb"].rcv_nxt - 10**6))
                    changed = True
                    break
            if changed:
                break
        if changed:
            break
    assert changed
    report = check_global_consistency(images)
    assert not report.ok
    assert any("missing from the sender" in c.reason
               for c in report.channels if not c.ok)


def test_verify_catches_duplicate_vpids():
    _cluster, _app, images = checkpointed_images(n=2)
    image = images[0]
    image.processes.append(image.processes[0])
    report = verify_image(image)
    assert not report.ok
    assert any("duplicate" in p for p in report.problems)


def test_verify_catches_unrewound_tcb():
    _cluster, _app, images = checkpointed_images(n=2)
    for image in images:
        for proc in image.processes:
            for fd_image in proc.fds:
                detail = fd_image.detail
                if fd_image.kind == "tcp_socket" and \
                        detail.get("kind") == "connected":
                    detail["tcb"] = replace(
                        detail["tcb"],
                        snd_nxt=detail["tcb"].snd_una + 999)
                    report = verify_image(image)
                    assert not report.ok
                    assert any("not rewound" in p
                               for p in report.problems)
                    return
    pytest.fail("no connected socket found")


def test_verify_catches_boundary_gap():
    images = streaming_images()
    for image, detail in _connected_details(images):
        if len(detail["send_segments"]) >= 2:
            seq, payload = detail["send_segments"][1]
            detail["send_segments"][1] = (seq + 3, payload)
            report = verify_image(image)
            assert not report.ok
            assert any("boundary gap" in p for p in report.problems)
            return
    pytest.fail("max-rate stream should have >= 2 buffered packets")


def test_verify_catches_corrupt_program_blob():
    _cluster, _app, images = checkpointed_images(n=2)
    image = images[0]
    image.processes[0].program_blob = b"not a pickle"
    report = verify_image(image)
    assert not report.ok
    assert any("does not deserialise" in p for p in report.problems)


def test_verify_catches_missing_pipe():
    from tests.test_zap_checkpoint import engines, run_coroutine
    from tests.test_zap_virtualization import make_pod
    from tests.programs import SlowPipeline
    from repro.cluster import Cluster
    cluster = Cluster(1, time_wait_s=0.5)
    pod = make_pod(cluster)
    pod.spawn(SlowPipeline())
    cluster.run_for(0.5)
    ckpt, _ = engines()
    image = run_coroutine(cluster, ckpt.checkpoint(pod, resume=True))
    assert verify_image(image).ok
    image.pipes.clear()
    report = verify_image(image)
    assert not report.ok
    assert any("missing pipe" in p for p in report.problems)
