"""TCP loss recovery: the machinery Cruz's coordinated checkpoint rides on.

The paper drops all in-flight packets during a checkpoint and relies on
TCP retransmission to recover (§3, §5). These tests verify that property at
the transport layer, before any checkpoint code is involved.
"""

import pytest

from repro.net.packet import PROTO_TCP
from repro.tcp.connection import TcpConnection
from repro.tcp.state import TcpState

from tests.helpers import make_pair
from tests.test_tcp_connection import SinkApp, SourceApp, establish


def test_single_data_segment_loss_recovered_by_rto():
    sim, wire, a, b = make_pair()
    client, server = establish(sim, a, b)
    sink = SinkApp(sim, server)

    dropped = []

    def drop_first_data(packet):
        seg = packet.payload
        if seg.payload and not dropped:
            dropped.append(seg)
            return True
        return False

    wire.drop_fn = drop_first_data
    client.send(b"important")
    sim.run(until=sim.now + 5)
    assert bytes(sink.received) == b"important"
    assert client.segments_retransmitted >= 1
    assert client.timeouts >= 1


def test_fast_retransmit_on_dup_acks():
    sim, wire, a, b = make_pair()
    client, server = establish(sim, a, b)
    sink = SinkApp(sim, server)

    state = {"count": 0}

    def drop_one_mid_stream(packet):
        seg = packet.payload
        if seg.payload and len(seg.payload) > 1000:
            state["count"] += 1
            # Drop one segment once the window is wide enough that at
            # least three later segments generate duplicate ACKs.
            if state["count"] == 12:
                return True
        return False

    wire.drop_fn = drop_one_mid_stream
    SourceApp(sim, client, b"x" * 30000)
    sim.run(until=sim.now + 10)
    assert bytes(sink.received) == b"x" * 30000
    assert client.fast_retransmits >= 1


def test_blackout_window_then_full_recovery():
    """The netfilter-drop analogue: all packets dropped for 120 ms."""
    sim, wire, a, b = make_pair()
    client, server = establish(sim, a, b)
    sink = SinkApp(sim, server)
    payload = b"y" * 200000
    SourceApp(sim, client, payload)
    sim.run(until=sim.now + 0.05)  # stream is flowing

    blackout = {"active": True}
    wire.drop_fn = lambda packet: blackout["active"]
    sim.call_later(0.120, lambda: blackout.update(active=False))
    sim.run(until=sim.now + 20)
    assert bytes(sink.received) == payload
    assert client.segments_retransmitted >= 1


def test_ack_loss_is_harmless():
    sim, wire, a, b = make_pair()
    client, server = establish(sim, a, b)
    sink = SinkApp(sim, server)

    import random
    rng = random.Random(7)

    def drop_pure_acks_sometimes(packet):
        seg = packet.payload
        return (not seg.payload and seg.src_port == 5000
                and rng.random() < 0.3)

    wire.drop_fn = drop_pure_acks_sometimes
    payload = b"z" * 50000
    SourceApp(sim, client, payload)
    sim.run(until=sim.now + 20)
    assert bytes(sink.received) == payload


def test_duplicated_delivery_is_idempotent():
    """Packets received multiple times must not corrupt the stream (§4.1)."""
    sim, wire, a, b = make_pair()
    client, server = establish(sim, a, b)
    sink = SinkApp(sim, server)

    original_send = wire.send

    def duplicate_everything(packet):
        original_send_packet(packet)
        original_send_packet(packet)

    def original_send_packet(packet):
        original_send(packet)

    wire.send = duplicate_everything
    client.transmit = lambda seg, src, dst: wire.send(
        _packet(seg, src, dst))

    from repro.net.packet import IpPacket

    def _packet(seg, src, dst):
        return IpPacket(src=src, dst=dst, protocol=PROTO_TCP, payload=seg)

    payload = b"d" * 20000
    SourceApp(sim, client, payload)
    sim.run(until=sim.now + 10)
    assert bytes(sink.received) == payload


def test_cwnd_collapses_on_timeout_and_regrows():
    sim, wire, a, b = make_pair()
    client, server = establish(sim, a, b)
    SinkApp(sim, server)
    SourceApp(sim, client, b"w" * 500000)
    sim.run(until=sim.now + 0.05)
    cwnd_before = client.tcb.cwnd
    assert cwnd_before > 2 * client.tcb.options.mss  # slow start grew it

    blackout = {"active": True}
    wire.drop_fn = lambda packet: blackout["active"]
    sim.run(until=sim.now + 0.5)  # several RTOs fire
    assert client.tcb.cwnd == client.tcb.options.mss
    assert client.tcb.backoff_count >= 1

    blackout["active"] = False
    sim.run(until=sim.now + 20)
    assert client.tcb.cwnd > client.tcb.options.mss  # recovered


def test_rto_exponential_backoff_and_reset():
    sim, wire, a, b = make_pair()
    client, server = establish(sim, a, b)
    sink = SinkApp(sim, server)
    rto_baseline = client.tcb.rto
    blackout = {"active": True}
    wire.drop_fn = lambda packet: blackout["active"]
    client.send(b"stuck")
    sim.run(until=sim.now + 3)
    assert client.tcb.rto > rto_baseline * 2
    blackout["active"] = False
    sim.run(until=sim.now + 30)
    # Delivery resumed and a fresh RTT sample resets backoff.
    assert bytes(sink.received) == b"stuck"
    assert client.tcb.backoff_count == 0


def test_freeze_blocks_io_and_unfreeze_recovers():
    """The spin-lock window of §4.1: no delivery or transmission while
    the socket state is being captured."""
    sim, wire, a, b = make_pair()
    client, server = establish(sim, a, b)
    sink = SinkApp(sim, server)
    payload = b"f" * 100000
    SourceApp(sim, client, payload)
    sim.run(until=sim.now + 0.02)

    client.freeze()
    server.freeze()
    frozen_rcv = server.tcb.rcv_nxt
    frozen_una = client.tcb.snd_una
    sim.run(until=sim.now + 0.3)
    # No state motion while frozen.
    assert server.tcb.rcv_nxt == frozen_rcv
    assert client.tcb.snd_una == frozen_una

    client.unfreeze()
    server.unfreeze()
    sim.run(until=sim.now + 20)
    assert bytes(sink.received) == payload


def test_invariant_snd_una_lte_rcv_nxt_lte_snd_nxt_during_transfer():
    """The §5.1 invariant, sampled at many arbitrary instants."""
    sim, wire, a, b = make_pair()
    client, server = establish(sim, a, b)
    SinkApp(sim, server)
    SourceApp(sim, client, b"i" * 300000)
    for _ in range(200):
        sim.run(until=sim.now + 0.001)
        una = client.tcb.snd_una
        nxt = client.tcb.snd_nxt
        rcv = server.tcb.rcv_nxt
        assert una <= rcv <= nxt, (una, rcv, nxt)


def test_invariant_holds_under_random_loss():
    import random
    rng = random.Random(42)
    sim, wire, a, b = make_pair()
    client, server = establish(sim, a, b)
    SinkApp(sim, server)
    wire.drop_fn = lambda packet: rng.random() < 0.05
    SourceApp(sim, client, b"r" * 100000)
    for _ in range(300):
        sim.run(until=sim.now + 0.005)
        assert client.tcb.snd_una <= server.tcb.rcv_nxt <= client.tcb.snd_nxt


def test_connection_survives_syn_loss():
    sim, wire, a, b = make_pair()
    ip_a, stack_a = a
    ip_b, stack_b = b
    stack_b.listen(ip_b, 5000)
    state = {"drops": 0}

    def drop_first_two(packet):
        if state["drops"] < 2:
            state["drops"] += 1
            return True
        return False

    wire.drop_fn = drop_first_two
    client = stack_a.connect(ip_a, ip_b, 5000)
    sim.run_until_complete(client.established_event, limit=60)
    assert client.state == TcpState.ESTABLISHED


def test_syn_during_pod_pause_accepted_after_resume():
    """A SYN arriving while the server pod is paused behind the agent's
    drop-all netfilter rule (the §4.1 checkpoint window) is silently
    blackholed; the client's SYN retransmission must complete the
    handshake once the pod resumes and the rule is removed."""
    from repro.apps.kvserver import KvClient, KvServer
    from repro.cruz.cluster import CruzCluster

    cluster = CruzCluster(1, supervise=False)
    pod = cluster.create_pod(0, "kv")
    pod.spawn(KvServer())
    cluster.run_for(0.05)  # server reaches accept

    # Exactly what Agent._do_checkpoint does: filter, then SIGSTOP.
    node = cluster.nodes[0]
    rule_id = node.stack.netfilter.drop_all_for(pod.ip)
    pod.stop_all()

    client = cluster.coordinator_node.spawn(KvClient(
        str(pod.ip), [{"op": "put", "key": "k", "value": 1},
                      {"op": "get", "key": "k"}]))
    paused_until = cluster.sim.now + 1.2  # past INITIAL_RTO: >=1 SYN rtx
    cluster.run_for(1.2)
    assert client.is_alive  # blackholed, not refused

    node.stack.netfilter.remove_rule(rule_id)
    pod.continue_all()
    cluster.run_until(lambda: not client.is_alive, limit=30, step=0.05)
    assert client.exit_code == 0
    responses = client.program.responses
    assert [r["ok"] for r in responses] == [True, True]
    assert responses[1]["value"] == 1
    assert cluster.sim.now > paused_until


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: an endpoint restored behind its peer and the peer "
    "answer each other's bare ACKs for ever"))
def test_restore_behind_the_peer_does_not_ack_forever():
    """One end restored from an image older than its peer's view.

    A's TCB is captured, then A sends 500 B that B acknowledges. A is
    restored from the capture, so its ``snd_nxt`` is 500 B behind B's
    ``rcv_nxt``: B's ACK acknowledges data A never sent (A answers with a
    bare ACK), and that ACK is a zero-length segment below B's window (B
    answers with a bare ACK). Nothing on a lossless wire breaks the cycle.
    """
    sim, wire, a, b = make_pair()
    _ip_a, stack_a = a
    client, server = establish(sim, a, b)
    SinkApp(sim, client)
    SinkApp(sim, server)
    client.send(b"a" * 100)
    server.send(b"b" * 100)
    sim.run(until=sim.now + 0.05)
    capture = client.tcb.snapshot_for_checkpoint()
    client.send(b"c" * 500)
    sim.run(until=sim.now + 0.05)
    assert server.tcb.rcv_nxt == capture.snd_nxt + 500

    stack_a.release(client)
    client.destroy()
    restored = TcpConnection.restore(sim, capture, client.transmit,
                                     name="A")
    stack_a.adopt_restored(restored)
    before = len(wire.log)
    restored.send(b"d" * 10)
    deadline, events = sim.now + 1.0, 0
    while events < 10_000 and sim.peek() <= deadline:
        sim.step()
        events += 1
    assert len(wire.log) - before <= 50
