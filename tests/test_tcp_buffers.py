"""Tests for the packetised send buffer and reassembly receive buffer."""

import random

import pytest

from repro.errors import TcpError
from repro.tcp.buffers import ReceiveBuffer, SendBuffer


def test_send_buffer_accepts_up_to_capacity():
    buf = SendBuffer(capacity=10)
    assert buf.accept(b"abcdefgh") == 8
    assert buf.accept(b"xyz") == 2
    assert bytes(buf.pending) == b"abcdefghxy"
    assert buf.free_space == 0


def test_segmentize_records_boundaries():
    buf = SendBuffer(capacity=100)
    buf.accept(b"a" * 30)
    assert buf.segmentize(1000, 10) == b"a" * 10
    assert buf.segmentize(1010, 10) == b"a" * 10
    assert buf.walk() == [(1000, b"a" * 10), (1010, b"a" * 10)]
    assert buf.unacked_bytes == 20
    assert len(buf.pending) == 10


def test_segmentize_gap_detection():
    buf = SendBuffer(capacity=100)
    buf.accept(b"a" * 30)
    buf.segmentize(1000, 10)
    with pytest.raises(TcpError, match="gap"):
        buf.segmentize(2000, 10)


def test_segmentize_empty_returns_none():
    buf = SendBuffer(capacity=100)
    assert buf.segmentize(0, 10) is None
    buf.accept(b"a")
    assert buf.segmentize(0, 0) is None


def test_acknowledge_whole_segments():
    buf = SendBuffer(capacity=100)
    buf.accept(b"a" * 20)
    buf.segmentize(0, 10)
    buf.segmentize(10, 10)
    assert buf.acknowledge(10) == 1
    assert buf.walk() == [(10, b"a" * 10)]
    assert buf.acknowledge(20) == 1
    assert buf.walk() == []


def test_acknowledge_partial_trims_head():
    buf = SendBuffer(capacity=100)
    buf.accept(b"abcdefghij")
    buf.segmentize(0, 10)
    buf.acknowledge(4)
    assert buf.walk() == [(4, b"efghij")]


@pytest.mark.parametrize("seed", range(8))
def test_running_byte_count_survives_a_random_walk(seed):
    """``unacked_bytes`` is a running counter, not a sum over the
    flight: after every accept / segmentize / acknowledge — acks on a
    segment edge, inside a segment, repeated, and beyond everything
    sent — it still equals the recomputed sum, and ``used`` and
    ``free_space`` follow from it."""
    rng = random.Random(seed)
    buf = SendBuffer(capacity=4000)
    snd_una = snd_nxt = 7000
    acked_whole = acked_inside = acked_again = acked_beyond = 0
    for _ in range(600):
        roll = rng.random()
        if roll < 0.35:
            offered = rng.randrange(1, 900)
            assert buf.accept(b"x" * offered) <= offered
        elif roll < 0.65:
            payload = buf.segmentize(snd_nxt, rng.randrange(0, 400))
            if payload is not None:
                snd_nxt += len(payload)
        elif buf.segments:
            kind = rng.random()
            if kind < 0.4:
                ack = rng.choice(buf.segments).end
                acked_whole += 1
            elif kind < 0.7:
                ack = rng.randrange(snd_una, snd_nxt + 1)
                acked_inside += 1
            elif kind < 0.85:
                ack = snd_una
                acked_again += 1
            else:
                ack = snd_nxt + rng.randrange(1, 50)
                acked_beyond += 1
            before = len(buf.segments)
            released = buf.acknowledge(ack)
            assert released == before - len(buf.segments)
            snd_una = max(snd_una, min(ack, snd_nxt))
            if buf.segments:
                assert buf.segments[0].seq == snd_una
        flight = sum(len(s.payload) for s in buf.segments)
        assert buf.unacked_bytes == flight == snd_nxt - snd_una
        assert buf.used == flight + len(buf.pending)
        assert buf.free_space == max(0, buf.capacity - buf.used)
    assert min(acked_whole, acked_inside, acked_again, acked_beyond) > 0


def test_ack_frees_space_for_new_data():
    buf = SendBuffer(capacity=10)
    buf.accept(b"a" * 10)
    buf.segmentize(0, 10)
    assert buf.accept(b"b" * 5) == 0
    buf.acknowledge(10)
    assert buf.accept(b"b" * 5) == 5


def test_receive_buffer_in_order():
    buf = ReceiveBuffer(capacity=100, rcv_nxt=0)
    assert buf.store(0, b"hello") == 5
    assert buf.rcv_nxt == 5
    assert buf.read(3) == b"hel"
    assert buf.read(10) == b"lo"


def test_receive_buffer_peek_is_nondestructive():
    buf = ReceiveBuffer(capacity=100, rcv_nxt=0)
    buf.store(0, b"hello")
    assert buf.read(5, peek=True) == b"hello"
    assert buf.available == 5
    assert buf.read(5) == b"hello"
    assert buf.available == 0


def test_receive_buffer_out_of_order_reassembly():
    buf = ReceiveBuffer(capacity=100, rcv_nxt=0)
    assert buf.store(5, b"world") == 0  # held out of order
    assert buf.available == 0
    assert buf.store(0, b"hello") == 10  # drains the staging map
    assert buf.read(10) == b"helloworld"
    assert buf.rcv_nxt == 10


def test_receive_buffer_duplicate_ignored():
    buf = ReceiveBuffer(capacity=100, rcv_nxt=0)
    buf.store(0, b"hello")
    assert buf.store(0, b"hello") == 0
    assert buf.available == 5


def test_receive_buffer_overlap_trimmed():
    buf = ReceiveBuffer(capacity=100, rcv_nxt=0)
    buf.store(0, b"hello")
    assert buf.store(3, b"loXY") == 2  # only XY is new
    assert buf.read(10) == b"helloXY"


def test_receive_buffer_window_shrinks_and_limits():
    buf = ReceiveBuffer(capacity=8, rcv_nxt=0)
    buf.store(0, b"abcdef")
    assert buf.window == 2
    buf.store(6, b"ghXYZ")  # only 2 bytes fit
    assert buf.rcv_nxt == 8
    assert buf.window == 0
    assert buf.read(100) == b"abcdefgh"
    assert buf.window == 8


def test_receive_buffer_out_of_order_beyond_window_dropped():
    buf = ReceiveBuffer(capacity=10, rcv_nxt=0)
    assert buf.store(100, b"far") == 0
    buf.store(0, b"0123456789")
    assert buf.read(20) == b"0123456789"
    assert buf.available == 0


def test_receive_buffer_nonzero_initial_seq():
    buf = ReceiveBuffer(capacity=100, rcv_nxt=5000)
    buf.store(5000, b"data")
    assert buf.rcv_nxt == 5004
    assert buf.read(4) == b"data"
