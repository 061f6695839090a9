"""Property-based tests for fragmentation round-trips over memoryviews.

Seeded-random payloads (no external property-testing dependency) cross
the wire format and the full ST stack: every size class -- zero bytes,
single bytes, exact MTU-boundary sizes, multi-fragment messages -- must
reassemble to the original bytes, and the plain (security-elided) fast
path must not take intermediate ``bytes()`` copies: encoded fragments
are memoryview slices of the client payload, decoded components are
memoryview slices of the received bundle.
"""

from __future__ import annotations

import random

import pytest

from repro.core.message import Message
from repro.subtransport.wire import (
    FLAG_FRAGMENT,
    FRAG_HEADER_BYTES,
    SUBHEADER_BYTES,
    decode_bundle,
    encode_bundle,
)

SEED = 20260806


def _fragment_entries(payload, chunk_size, st_rms_id=7, send_time=1.25):
    """Slice a payload into fragment entries the way the ST layer does:
    one memoryview over the client buffer, zero-copy slices of it."""
    view = memoryview(payload)
    total = len(payload)
    entries = []
    offset = 0
    seq = 0
    while offset < total:
        chunk = view[offset : offset + chunk_size]
        entries.append(
            (st_rms_id, seq, FLAG_FRAGMENT, chunk, send_time, offset, total)
        )
        offset += len(chunk)
        seq += 1
    return entries


class TestWireRoundTrip:
    def _sizes(self, chunk_size):
        rng = random.Random(SEED)
        boundary = [
            1, chunk_size - 1, chunk_size, chunk_size + 1,
            2 * chunk_size, 2 * chunk_size + 1, 7 * chunk_size - 1,
        ]
        return boundary + [rng.randrange(1, 10 * chunk_size) for _ in range(40)]

    @pytest.mark.parametrize("chunk_size", [64, 497, 1478])
    def test_random_sizes_reassemble_exactly(self, chunk_size):
        rng = random.Random(SEED + chunk_size)
        for size in self._sizes(chunk_size):
            payload = bytes(rng.getrandbits(8) for _ in range(size))
            entries = _fragment_entries(payload, chunk_size)
            wire = encode_bundle(entries)
            decoded = decode_bundle(wire)
            assert len(decoded) == len(entries)
            rebuilt = bytearray()
            for _, _, flags, chunk, _, frag_offset, frag_total in decoded:
                assert flags & FLAG_FRAGMENT
                assert frag_total == size
                assert frag_offset == len(rebuilt)
                rebuilt.extend(chunk)
            assert bytes(rebuilt) == payload

    def test_fragments_are_views_of_the_client_payload(self):
        payload = bytes(range(256)) * 8
        entries = _fragment_entries(payload, 100)
        for entry in entries:
            assert isinstance(entry[3], memoryview)
            assert entry[3].obj is payload  # no copy was taken

    def test_decoded_components_are_views_of_the_bundle(self):
        payload = b"x" * 700
        wire = encode_bundle(_fragment_entries(payload, 256))
        for entry in decode_bundle(wire):
            assert isinstance(entry[3], memoryview)
            assert entry[3].obj is wire  # zero-copy decode

    def test_encoded_size_accounts_fragment_header(self):
        entries = _fragment_entries(b"y" * 10, 4)
        for entry in entries:
            assert len(encode_bundle([entry])) == (
                2 + SUBHEADER_BYTES + FRAG_HEADER_BYTES + len(entry[3])
            )

    def test_non_fragment_entry_round_trips_memoryview(self):
        payload = b"hello world"
        entry = (3, 9, 0, memoryview(payload), 0.5, 0, 0)
        (decoded,) = decode_bundle(encode_bundle([entry]))
        assert decoded == (3, 9, 0, payload, 0.5, 0, 0)


class TestMessageViewAdoption:
    def test_bytes_payload_not_copied(self):
        payload = b"abc" * 100
        assert Message(payload).payload is payload

    def test_memoryview_payload_adopted_without_copy(self):
        buffer = b"z" * 64
        view = memoryview(buffer)[10:30]
        message = Message(view)
        assert message.payload is view
        assert message.payload.obj is buffer
        assert message.size == 20

    def test_bytearray_payload_snapshotted(self):
        buffer = bytearray(b"mutable")
        message = Message(buffer)
        buffer[0] = 0
        assert message.payload == b"mutable"


class TestEndToEndFragmentation:
    """Random-size messages through the full ST stack on a LAN."""

    def _open_session(self, system, mms=4000):
        from repro.core.params import DelayBound, DelayBoundType, RmsParams

        params = RmsParams(
            capacity=64 * 1024,
            max_message_size=10_000,
            delay_bound=DelayBound(0.5, 1e-5),
            delay_bound_type=DelayBoundType.BEST_EFFORT,
        )
        session = system.connect(
            "a", "b", desired=params, acceptable=params, port="frag-prop"
        )
        system.run(until=system.now + 2.0)
        return session.established.result()

    def test_random_sizes_deliver_bit_exact(self):
        from repro.dash.system import DashSystem

        system = DashSystem(seed=SEED)
        system.add_ethernet(trusted=True)
        system.add_node("a")
        system.add_node("b")
        st = self._open_session(system)
        received = []
        st.port.set_handler(lambda message: received.append(message.payload))
        rng = random.Random(SEED)
        sent = []
        # MTU is 1500; ~1470-byte components: cover both sides of every
        # fragmentation boundary plus the empty message.
        sizes = [0, 1, 1400, 1500, 1501, 2999, 3000]
        sizes += [rng.randrange(0, 10_000) for _ in range(12)]
        for size in sizes:
            payload = bytes(rng.getrandbits(8) for _ in range(size))
            sent.append(payload)
            st.send(payload)
            system.run(until=system.now + 0.5)
        assert received == sent
        for payload in received:
            assert type(payload) is bytes  # client boundary materializes

    def test_memoryview_client_payload_round_trips(self):
        from repro.dash.system import DashSystem

        system = DashSystem(seed=SEED + 1)
        system.add_ethernet(trusted=True)
        system.add_node("a")
        system.add_node("b")
        st = self._open_session(system)
        received = []
        st.port.set_handler(lambda message: received.append(message.payload))
        buffer = bytes(range(256)) * 38  # 9728 B -> multi-fragment
        st.send(memoryview(buffer))
        system.run(until=system.now + 2.0)
        assert received == [buffer]
