"""The shared frame layer: one length prefix and one set of
torn/oversized/corrupt-frame guards for the network server's serde
frames, and the same prefix under the partition hop's marshal frames."""

import socket
import struct
import threading

import pytest

from repro.common.errors import (
    ConnectionClosedError,
    FrameTooLargeError,
    PartitionError,
    ProtocolError,
)
from repro.common.framing import (
    HEADER,
    MAX_FRAME_BYTES,
    decode_payload,
    encode_frame,
    recv_exact,
    recv_frame,
    send_frame,
)
from repro.common.serde import encode_record


def pipe():
    return socket.socketpair()


class TestEncodeFrame:
    def test_round_trip(self):
        a, b = pipe()
        try:
            record = {"op": "x", "rows": [[1, "two", None, 3.5]]}
            sent = send_frame(a, record)
            got, nbytes = recv_frame(b)
            assert got == record
            assert nbytes == sent > HEADER.size
        finally:
            a.close(), b.close()

    def test_header_is_4_byte_big_endian_length(self):
        frame = encode_frame({"k": 1})
        (length,) = struct.unpack(">I", frame[:4])
        assert length == len(frame) - 4

    def test_sender_refuses_oversized_frame(self):
        with pytest.raises(FrameTooLargeError):
            encode_frame({"blob": "x" * 128}, limit=64)

    def test_oversized_send_writes_nothing(self):
        a, b = pipe()
        try:
            with pytest.raises(FrameTooLargeError):
                send_frame(a, {"blob": "x" * 128}, limit=64)
            a.close()
            assert b.recv(1) == b""  # clean EOF: not a single byte leaked
        finally:
            b.close()


class TestRecvGuards:
    def test_receiver_refuses_announced_oversized_frame(self):
        a, b = pipe()
        try:
            a.sendall(HEADER.pack(MAX_FRAME_BYTES + 1))
            with pytest.raises(FrameTooLargeError):
                recv_frame(b)
        finally:
            a.close(), b.close()

    def test_receiver_limit_is_checked_before_reading_body(self):
        # only the 4-byte header is on the wire; a reader that tried to
        # read the announced body first would block forever
        a, b = pipe()
        try:
            a.sendall(HEADER.pack(1 << 30))
            b.settimeout(2.0)
            with pytest.raises(FrameTooLargeError):
                recv_frame(b, limit=1024)
        finally:
            a.close(), b.close()

    def test_clean_close_between_frames(self):
        a, b = pipe()
        a.close()
        try:
            with pytest.raises(ConnectionClosedError) as err:
                recv_frame(b)
            assert err.value.mid_frame is False
        finally:
            b.close()

    def test_torn_header_is_mid_frame(self):
        a, b = pipe()
        a.sendall(b"\x00\x00")  # half a header, then hang up
        a.close()
        try:
            with pytest.raises(ConnectionClosedError) as err:
                recv_frame(b)
            assert err.value.mid_frame is True
        finally:
            b.close()

    def test_torn_body_is_mid_frame(self):
        a, b = pipe()
        line = encode_record({"k": 1}).encode()
        a.sendall(HEADER.pack(len(line)) + line[: len(line) // 2])
        a.close()
        try:
            with pytest.raises(ConnectionClosedError) as err:
                recv_frame(b)
            assert err.value.mid_frame is True
        finally:
            b.close()

    def test_corrupt_payload_is_protocol_error(self):
        a, b = pipe()
        try:
            body = b"this is not a serde record"
            a.sendall(HEADER.pack(len(body)) + body)
            with pytest.raises(ProtocolError):
                recv_frame(b)
        finally:
            a.close(), b.close()

    def test_checksum_mismatch_is_protocol_error(self):
        good = encode_record({"k": 1}).encode()
        bad = good.replace(b'"k"', b'"J"')  # payload flipped, CRC stale
        with pytest.raises(ProtocolError):
            decode_payload(bad)

    def test_bad_utf8_is_protocol_error(self):
        with pytest.raises(ProtocolError):
            decode_payload(b"\xff\xfe garbage")


class TestInterop:
    def test_partition_channel_rides_the_shared_framing(self):
        # the partition hop has its own body codec behind the shared
        # length prefix: HEADER and recv_exact read a Channel frame
        from repro.partition.rpc import Channel, unpack

        a, b = pipe()
        try:
            Channel(a).send({"op": "ping", "n": 7, "row": (1, None, "x", 2.5)})
            (length,) = HEADER.unpack(recv_exact(b, HEADER.size))
            payload = recv_exact(b, length)
            got = unpack(payload[:4], payload[4:])
            assert got == {"op": "ping", "n": 7, "row": (1, None, "x", 2.5)}
            Channel(b).send({"ok": True, "value": {1: (2, 3)}})
            assert Channel(a).recv() == {"ok": True, "value": {1: (2, 3)}}
        finally:
            a.close(), b.close()

    def test_chunked_delivery_reassembles(self):
        # frames arrive in arbitrary TCP segments; recv_exact must loop
        a, b = pipe()
        frame = encode_frame({"rows": list(range(100))})
        try:
            def dribble():
                for i in range(0, len(frame), 7):
                    a.sendall(frame[i : i + 7])
            t = threading.Thread(target=dribble)
            t.start()
            got, _ = recv_frame(b)
            t.join()
            assert got == {"rows": list(range(100))}
        finally:
            a.close(), b.close()


class TestPartitionChannel:
    """The coordinator<->worker hop's guards: each corrupt, torn or
    oversized frame is a PartitionError."""

    def test_oversized_announced_length_is_refused_before_the_body(self):
        from repro.partition.rpc import MAX_HOP_BYTES, Channel

        a, b = pipe()
        try:
            a.sendall(HEADER.pack(MAX_HOP_BYTES + 1) + b"tail")
            with pytest.raises(PartitionError, match="announced"):
                Channel(b).recv()
            assert b.recv(16) == b"tail"  # the body was never read
        finally:
            a.close(), b.close()

    def test_torn_body(self):
        from repro.partition.rpc import Channel, pack

        a, b = pipe()
        try:
            a.sendall(b"".join(pack({"op": "ingest", "rows": [[1, 2]] * 10}))[:20])
            a.close()
            with pytest.raises(PartitionError, match="mid-frame"):
                Channel(b).recv()
        finally:
            b.close()

    def test_checksum_mismatch(self):
        from repro.partition.rpc import Channel, pack

        a, b = pipe()
        try:
            head, crc, body = pack({"op": "ingest", "rows": [[1, 2]]})
            flipped = body[:-3] + bytes([body[-3] ^ 0xFF]) + body[-2:]
            a.sendall(head + crc + flipped)
            with pytest.raises(PartitionError, match="checksum"):
                Channel(b).recv()
        finally:
            a.close(), b.close()

    def test_body_that_is_not_a_dict(self):
        from repro.partition.rpc import Channel, pack

        a, b = pipe()
        try:
            a.sendall(b"".join(pack([1, 2])))
            with pytest.raises(PartitionError, match="not a dict"):
                Channel(b).recv()
        finally:
            a.close(), b.close()

    def test_subclass_values_cross_as_json_would_carry_them(self):
        from collections import Counter, namedtuple

        from repro.partition.rpc import Channel

        point = namedtuple("point", "x y")
        a, b = pipe()
        try:
            Channel(a).send({"value": {"c": Counter(a=2), "p": point(1, 2)}})
            assert Channel(b).recv() == {"value": {"c": {"a": 2}, "p": [1, 2]}}
        finally:
            a.close(), b.close()

    def test_value_no_codec_carries_raises_before_writing(self):
        from repro.partition.rpc import Channel

        a, b = pipe()
        try:
            with pytest.raises(TypeError, match="not JSON serializable"):
                Channel(a).send({"op": "execute", "params": [object()]})
            b.setblocking(False)
            with pytest.raises(BlockingIOError):
                b.recv(1)
        finally:
            a.close(), b.close()

    def test_worst_case_front_door_frame_fits_the_hop(self):
        # one-digit ints grow most (2 bytes with a comma in JSON, 5 in
        # marshal): a record whose serde frame is exactly the front door's
        # limit must still cross the hop
        from repro.partition.rpc import Channel, pack

        row = [7] * 1000
        record = {"op": "ingest", "stream": "", "rows": [row] * 4190}
        pad = MAX_FRAME_BYTES - len(encode_record(record))
        assert 0 <= pad < 5000
        record["stream"] = "s" * pad
        assert len(encode_record(record)) == MAX_FRAME_BYTES
        assert len(pack(record)[2]) > 2.45 * MAX_FRAME_BYTES
        a, b = pipe()
        try:
            sender = threading.Thread(target=Channel(a).send, args=(record,))
            sender.start()
            got = Channel(b).recv()
            sender.join()
            assert got == record
        finally:
            a.close(), b.close()
