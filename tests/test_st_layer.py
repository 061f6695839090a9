"""Integration tests for the subtransport layer (sections 3.2, 4.2, 4.3)."""

from __future__ import annotations

import pytest

from repro.core.message import Label, Message
from repro.core.params import DelayBound, DelayBoundType, RmsParams
from repro.errors import AuthenticationError
from repro.netsim.errors_model import ImpairmentModel
from repro.netsim.ethernet import EthernetNetwork
from repro.netsim.topology import Host
from repro.security.keys import KeyRegistry
from repro.security.mac import MAC_BYTES, compute_mac
from repro.sim.context import SimContext
from repro.subtransport import binding, control
from repro.subtransport.config import StConfig
from repro.subtransport.control import CONTROL_PARAMS
from repro.subtransport.st import CONTROL_PORT, SubtransportLayer
from repro.subtransport.wire import (
    FLAG_CHECKSUM,
    FLAG_ENCRYPTED,
    FLAG_FRAGMENT,
    FLAG_MAC,
    control_mac_material,
    decode_bundle,
    encode_bundle,
    encode_control,
)
from tests.streams import drop_reasons


def build_pair(seed=77, st_config=None, observe=False, **net_kwargs):
    context = SimContext(seed=seed, observe=observe)
    net_defaults = dict(trusted=True)
    net_defaults.update(net_kwargs)
    network = EthernetNetwork(context, **net_defaults)
    host_a, host_b = Host(context, "a"), Host(context, "b")
    network.attach(host_a)
    network.attach(host_b)
    keys = KeyRegistry()
    st_a = SubtransportLayer(context, host_a, [network], key_registry=keys,
                             config=st_config)
    st_b = SubtransportLayer(context, host_b, [network], key_registry=keys,
                             config=st_config)
    return context, network, st_a, st_b


def params(**kwargs):
    defaults = dict(
        capacity=16_384,
        max_message_size=4_000,
        delay_bound=DelayBound(0.1, 1e-5),
        delay_bound_type=DelayBoundType.BEST_EFFORT,
    )
    defaults.update(kwargs)
    return RmsParams(**defaults)


def open_rms(context, st, peer="b", port="app", p=None, fast_ack=False, until=5.0):
    p = p or params()
    future = st.create_st_rms(peer, port=port, desired=p, acceptable=p,
                              fast_ack=fast_ack)
    context.run(until=context.now + until)
    return future.result()


#: Privacy + authentication on a message size that fragments (~6 frames
#: of an Ethernet's maximum component each).
SECURED_BULK = params(capacity=65_536, max_message_size=8_000).with_(
    privacy=True, authentication=True
)


def _flip_bit(payload, index):
    """``payload`` with the low bit of byte ``index`` flipped."""
    flipped = bytearray(payload)
    flipped[index] ^= 0x01
    return bytes(flipped)


_COMPONENT_FIELDS = ("st_rms_id", "seq", "flags", "payload", "send_time",
                     "frag_offset", "frag_total")


def _with(component, **changes):
    """``component`` with the named fields rewritten."""
    return tuple(changes.get(name, value)
                 for name, value in zip(_COMPONENT_FIELDS, component))


class TestStEstablishment:
    def test_create_and_deliver(self):
        context, _net, st_a, st_b = build_pair()
        rms = open_rms(context, st_a)
        got = []
        rms.port.set_handler(got.append)
        rms.send(b"hello")
        context.run(until=context.now + 1.0)
        assert [m.payload for m in got] == [b"hello"]

    def test_first_request_builds_control_channel(self):
        """Section 3.2: the first ST RMS creation triggers the control
        channel; later ones reuse it."""
        context, network, st_a, st_b = build_pair()
        open_rms(context, st_a, port="one")
        setups_after_first = network.setup_count
        open_rms(context, st_a, port="two")
        # The second creation adds no new control-channel RMSs; at most a
        # data RMS (and with multiplexing, not even that).
        assert network.setup_count <= setups_after_first + 1

    def test_untrusted_network_runs_authentication(self):
        context, _net, st_a, st_b = build_pair(trusted=False)
        open_rms(context, st_a)
        assert st_a.stats.auth_handshakes == 1

    def test_trusted_network_skips_authentication(self):
        """Section 3.1: trust enables ST optimizations."""
        context, _net, st_a, st_b = build_pair(trusted=True)
        open_rms(context, st_a)
        assert st_a.stats.auth_handshakes == 0

    def test_no_common_network_rejected(self):
        context = SimContext(seed=1)
        network = EthernetNetwork(context)
        host = Host(context, "solo")
        network.attach(host)
        st = SubtransportLayer(context, host, [network])
        from repro.errors import TransportError

        with pytest.raises(TransportError):
            st.network_for("nowhere")

    def test_delivery_in_order_across_sizes(self):
        context, _net, st_a, st_b = build_pair()
        rms = open_rms(context, st_a)
        got = []
        rms.port.set_handler(lambda m: got.append(m.payload[0]))
        for index in range(30):
            size = 50 if index % 3 else 3000  # mix fragmented and small
            rms.send(bytes([index]) * size)
        context.run(until=context.now + 5.0)
        assert got == list(range(30))

    def test_close_removes_stream(self):
        context, _net, st_a, st_b = build_pair()
        rms = open_rms(context, st_a)
        rms.close()
        context.run(until=context.now + 1.0)
        assert not rms.is_open


class TestStMultiplexing:
    def test_st_rms_share_a_network_rms(self):
        """Section 4.2 upward multiplexing."""
        context, network, st_a, st_b = build_pair()
        first = open_rms(context, st_a, port="one")
        second = open_rms(context, st_a, port="two")
        assert first.binding is second.binding
        assert st_a.stats.mux_joins == 1
        assert st_a.stats.network_rms_created == 1

    def test_capacity_rule_forces_new_network_rms(self, monkeypatch):
        monkeypatch.setattr(binding, "DEFAULT_NETWORK_CAPACITY", 20_000)
        context, network, st_a, st_b = build_pair()
        big = params(capacity=16_000)
        open_rms(context, st_a, port="one", p=big)
        open_rms(context, st_a, port="two", p=big)
        # 16k + 16k > 20k network capacity: a second network RMS appears.
        assert st_a.stats.network_rms_created == 2

    def test_multiplexing_disabled_creates_per_stream_rms(self):
        config = StConfig(multiplexing_enabled=False, cache_enabled=False)
        context, network, st_a, st_b = build_pair(st_config=config)
        open_rms(context, st_a, port="one")
        open_rms(context, st_a, port="two")
        assert st_a.stats.network_rms_created == 2

    def test_piggybacking_bundles_small_messages(self):
        context, _net, st_a, st_b = build_pair()
        rms = open_rms(context, st_a)
        got = []
        rms.port.set_handler(got.append)
        for index in range(10):
            rms.send(bytes([index]) * 40)
        context.run(until=context.now + 2.0)
        assert len(got) == 10
        assert st_a.stats.components_per_bundle > 1.0

    def test_piggybacking_disabled_one_message_per_bundle(self):
        config = StConfig(piggyback_enabled=False)
        context, _net, st_a, st_b = build_pair(st_config=config)
        rms = open_rms(context, st_a)
        for index in range(10):
            rms.send(bytes([index]) * 40)
        context.run(until=context.now + 2.0)
        assert st_a.stats.components_per_bundle == pytest.approx(1.0)

    def test_two_streams_piggyback_together(self):
        """Messages from multiple ST RMSs combine into one network
        message (Figure 4)."""
        context, _net, st_a, st_b = build_pair()
        one = open_rms(context, st_a, port="one")
        two = open_rms(context, st_a, port="two")
        bundles_before = st_a.stats.bundles_sent
        one.send(b"a" * 40)
        two.send(b"b" * 40)
        context.run(until=context.now + 2.0)
        sent = st_a.stats.bundles_sent - bundles_before
        assert sent == 1  # both rode one network message


class TestStCaching:
    def test_cache_hit_after_close(self):
        """Section 4.2: the ST may retain a network RMS even while it is
        not being used by an ST RMS."""
        context, network, st_a, st_b = build_pair()
        rms = open_rms(context, st_a, port="one")
        rms.close()
        context.run(until=context.now + 1.0)
        open_rms(context, st_a, port="two")
        assert st_a.stats.cache_hits == 1
        assert st_a.stats.network_rms_created == 1

    def test_cache_disabled_recreates(self):
        config = StConfig(cache_enabled=False)
        context, network, st_a, st_b = build_pair(st_config=config)
        rms = open_rms(context, st_a, port="one")
        rms.close()
        context.run(until=context.now + 1.0)
        open_rms(context, st_a, port="two")
        assert st_a.stats.cache_hits == 0
        assert st_a.stats.network_rms_created == 2

    def test_cache_reuse_is_faster_than_creation(self):
        context, network, st_a, st_b = build_pair()
        first = open_rms(context, st_a, port="one")
        first.close()
        context.run(until=context.now + 0.5)
        start = context.now
        future = st_a.create_st_rms("b", port="two", desired=params(),
                                    acceptable=params())
        context.run(until=context.now + 2.0)
        future.result()
        cached_latency = context.now  # includes idle run, so compare setups
        assert network.setup_count == 3  # 2 control + 1 data, never a 4th


class TestStFragmentation:
    def test_large_message_fragments_and_reassembles(self):
        context, _net, st_a, st_b = build_pair()
        rms = open_rms(context, st_a)
        got = []
        rms.port.set_handler(got.append)
        payload = bytes(range(256)) * 12  # 3072 B > 1500 MTU
        rms.send(payload)
        context.run(until=context.now + 2.0)
        assert got[0].payload == payload
        assert st_a.stats.fragments_sent >= 3
        assert st_b.stats.fragments_received == st_a.stats.fragments_sent

    def test_st_mms_exceeds_network_mtu(self):
        context, _net, st_a, st_b = build_pair()
        rms = open_rms(context, st_a)
        assert rms.params.max_message_size > 1500

    def test_lost_fragment_discards_partial(self):
        """Section 4.3: no fragment retransmission; the partial message
        is discarded when the next message's fragment arrives."""
        context, network, st_a, st_b = build_pair(seed=3)
        rms = open_rms(context, st_a)
        got = []
        rms.port.set_handler(got.append)

        class LoseSecondFrame(ImpairmentModel):
            """The medium eats exactly the second frame it carries."""

            carried = 0

            def loses_frame(self, rng):
                self.carried += 1
                return self.carried == 2

        # The stream is up, so the next three frames on the segment are
        # the first message's fragments: the middle one is lost.
        network.segment.impairment = LoseSecondFrame()
        rms.send(b"x" * 4000)
        context.run(until=context.now + 1.0)
        assert st_a.stats.fragments_sent == 3
        assert st_b.stats.fragments_received == 2
        rms.send(b"y" * 4000)  # next message's fragments arrive
        context.run(until=context.now + 2.0)
        assert len(got) == 1  # only the second message completes
        assert got[0].payload == b"y" * 4000
        assert st_b.stats.partials_discarded == 1


class TestStSecurityPath:
    def test_private_stream_encrypted_on_wire(self):
        context, network, st_a, st_b = build_pair(trusted=False)
        secret = params().with_(privacy=True)
        rms = open_rms(context, st_a, p=secret)
        got = []
        rms.port.set_handler(got.append)
        wire = []
        network.add_sniffer(lambda frame: wire.append(bytes(frame.message.payload)))
        rms.send(b"SECRET-MESSAGE-CONTENT")
        context.run(until=context.now + 1.0)
        assert got[0].payload == b"SECRET-MESSAGE-CONTENT"
        assert not any(b"SECRET" in w for w in wire)

    def test_streams_of_one_host_pair_do_not_share_keystream(self):
        """Two private streams a->b send the same plaintext under the
        same sequence number: an eavesdropper holding both ciphertexts
        must not be able to XOR the keystream away."""
        context, network, st_a, st_b = build_pair(trusted=False)
        secret = params().with_(privacy=True)
        streams = [
            open_rms(context, st_a, port=port, p=secret)
            for port in ("one", "two")
        ]
        got = []
        for rms in streams:
            rms.port.set_handler(got.append)
        sealed = {}

        def sniff(frame):
            for st_id, seq, flags, payload, *_ in decode_bundle(
                    bytes(frame.message.payload)):
                if flags & FLAG_ENCRYPTED:
                    sealed[st_id] = (seq, bytes(payload))

        network.add_sniffer(sniff)
        plaintext = b"SAME-PLAINTEXT-ON-BOTH-STREAMS"
        for rms in streams:
            rms.send(plaintext)
        context.run(until=context.now + 1.0)
        assert [m.payload for m in got] == [plaintext, plaintext]
        (seq_one, wire_one), (seq_two, wire_two) = (
            sealed[rms.rms_id] for rms in streams
        )
        assert seq_one == seq_two == 0
        assert len(wire_one) == len(wire_two) == len(plaintext)
        assert wire_one != wire_two

    def test_every_fragment_is_sealed_on_the_wire(self):
        """Fragments are sealed per component: each one on the wire
        differs from the plaintext slice it carries, and no two of them
        were sealed with the same keystream."""
        context, network, st_a, st_b = build_pair(trusted=False)
        rms = open_rms(context, st_a, p=SECURED_BULK)
        got = []
        rms.port.set_handler(got.append)
        fragments = []

        def sniff(frame):
            fragments.extend(decode_bundle(bytes(frame.message.payload)))

        network.add_sniffer(sniff)
        body = b"\x07" * 8_000
        rms.send(body)
        context.run(until=context.now + 0.5)
        assert [m.payload for m in got] == [body]
        assert len(fragments) == st_a.stats.fragments_sent >= 6
        assert sum(len(f[3]) - MAC_BYTES for f in fragments) == len(body)
        sealed = []
        for _, _, flags, payload, _, start, _ in fragments:
            assert flags & FLAG_ENCRYPTED and flags & FLAG_MAC
            ciphertext = bytes(payload)[:-MAC_BYTES]
            assert ciphertext != body[start : start + len(ciphertext)]
            sealed.append(ciphertext[:64])
        # The plaintext is one repeated byte, so equal ciphertext
        # prefixes would mean a reused keystream.
        assert len(set(sealed)) == len(sealed)

    @pytest.mark.parametrize("frame, tamper", [
        (3, lambda entry, previous, other_id: _with(
            entry, payload=_flip_bit(entry[3], 0))),
        (3, lambda entry, previous, other_id: _with(
            entry, payload=_flip_bit(entry[3], -1))),
        (3, lambda entry, previous, other_id: _with(
            entry, payload=bytes(previous[3]))),
        (3, lambda entry, previous, other_id: _with(
            entry, st_rms_id=other_id)),
        (1, lambda entry, previous, other_id: _with(
            entry, flags=FLAG_FRAGMENT, payload=b"FORGED-BY-ATTACKER",
            frag_total=len(b"FORGED-BY-ATTACKER"))),
        (1, lambda entry, previous, other_id: _with(
            entry, frag_total=len(entry[3]) - MAC_BYTES)),
        (3, lambda entry, previous, other_id: _with(
            entry, frag_offset=entry[5] + 1)),
        (3, lambda entry, previous, other_id: _with(
            entry, send_time=entry[4] + 1.0)),
    ], ids=["ciphertext-bit", "tag-bit", "replayed-under-next-seq",
            "relabelled-stream", "flags-stripped", "first-fragment-total",
            "fragment-offset", "send-time"])
    def test_tampered_component_fails_authentication(self, frame, tamper):
        """An active adversary on the untrusted medium rewrites one
        fragment of one message: it is dropped as an authentication
        failure, counted once, its message is never delivered, in part
        or whole, nothing raises, and every untampered message arrives
        whole and in order -- on the stream attacked and on its
        neighbour.  The fragments after a dropped one leave a partial
        the next message's first fragment discards; after a dropped
        first fragment there is no partial to discard."""
        context, network, st_a, st_b = build_pair(trusted=False, observe=True)
        rms, other = (
            open_rms(context, st_a, port=port, p=SECURED_BULK)
            for port in ("one", "two")
        )
        got, got_other = [], []
        rms.port.set_handler(got.append)
        other.port.set_handler(got_other.append)

        class RewriteFragment(ImpairmentModel):
            """The medium alters the ``frame``-th frame it carries for
            ``rms``; ``tamper`` also sees the component before it."""

            def __init__(self):
                super().__init__()
                self.seen = []

            def maybe_corrupt(self, carried, rng):
                (entry,) = decode_bundle(bytes(carried.message.payload))
                if entry[0] == rms.rms_id:
                    self.seen.append(entry)
                    if len(self.seen) == frame:
                        previous = self.seen[-2] if frame > 1 else None
                        forged = tamper(entry, previous, other.rms_id)
                        carried.message.payload = encode_bundle([forged])
                return False

        bodies = [bytes([index + 1]) * 8_000 for index in range(4)]
        other_bodies = [b"o" * 8_000, b"p" * 8_000]
        rms.send(bodies[0])
        other.send(other_bodies[0])
        context.run(until=context.now + 0.5)
        network.segment.impairment = RewriteFragment()
        for body in bodies[1:]:
            rms.send(body)
        other.send(other_bodies[1])
        context.run(until=context.now + 0.5)

        assert [m.payload for m in got] == [bodies[0], bodies[2], bodies[3]]
        assert [m.payload for m in got_other] == other_bodies
        assert st_b.stats.auth_drops == 1
        partials = 0 if frame == 1 else 1
        assert st_b.stats.partials_discarded == partials
        assert st_b.stats.checksum_drops == st_b.stats.garbled_bundles == 0
        assert drop_reasons(context) == (
            ["authentication failure"] + ["partial discarded"] * partials
        )

    def test_trusted_stream_plaintext_on_wire(self):
        context, network, st_a, st_b = build_pair(trusted=True)
        rms = open_rms(context, st_a, p=params().with_(privacy=True))
        wire = []
        network.add_sniffer(lambda frame: wire.append(bytes(frame.message.payload)))
        rms.send(b"VISIBLE-CONTENT")
        context.run(until=context.now + 1.0)
        assert any(b"VISIBLE-CONTENT" in w for w in wire)

    def test_corruption_detected_by_software_checksum(self):
        context, network, st_a, st_b = build_pair(
            trusted=True, link_checksum=False, bit_error_rate=2e-4, seed=5
        )
        rms = open_rms(context, st_a)
        assert rms.plan.checksum
        got = []
        rms.port.set_handler(got.append)
        for index in range(50):
            rms.send(bytes([index]) * 800)
        context.run(until=context.now + 10.0)
        # Some frames were corrupted; every *delivered* payload is intact.
        assert st_b.stats.checksum_drops + st_b.stats.garbled_bundles > 0
        for message in got:
            assert len(set(message.payload)) == 1

    def test_corruption_undetected_without_checksum(self):
        context, network, st_a, st_b = build_pair(
            trusted=True, link_checksum=False, bit_error_rate=0.0, seed=5
        )
        # Manually corrupt: no checksum planned on a clean network, so a
        # corrupted payload passes through to the client.
        rms = open_rms(context, st_a)
        assert not rms.plan.checksum

    @pytest.mark.parametrize("flag, counter, network", [
        (FLAG_MAC, "auth_drops", dict(trusted=False)),
        (FLAG_CHECKSUM, "checksum_drops",
         dict(trusted=True, link_checksum=False, bit_error_rate=1e-9)),
    ], ids=["mac", "checksum"])
    def test_component_shorter_than_its_tag_is_dropped(
        self, flag, counter, network
    ):
        """A component too short to hold the tag its stream's plan
        appends fails verification like a bad tag does: the ST counter
        *and* the stream's drop accounting both see it."""
        context, _net, st_a, st_b = build_pair(**network)
        rms = open_rms(context, st_a, p=params().with_(authentication=True))
        assert rms.security.flags == flag
        crafted = (rms.rms_id, 0, flag, b"abc", context.now, 0, 0)
        st_b._data_arrived(None, Message(encode_bundle([crafted])))
        assert getattr(st_b.stats, counter) == 1
        assert rms.stats.messages_dropped == 1
        assert st_b.stats.components_received == 0

    @pytest.mark.parametrize("flags, trusted", [
        (FLAG_ENCRYPTED, True),
        (0, False),
        (FLAG_CHECKSUM | FLAG_ENCRYPTED | FLAG_MAC, False),
    ], ids=["encrypted-on-elided", "unflagged-on-secured", "checksum-on-sealed"])
    def test_flags_other_than_the_plan_are_an_auth_drop(self, flags, trusted):
        """The receiver undoes its stream's plan, never what the
        unauthenticated flags on the wire announce: a component whose
        security flags are not the plan's is one ``auth_drops`` and is
        never delivered, whatever its bytes."""
        context, _net, st_a, st_b = build_pair(observe=True, trusted=trusted)
        rms = open_rms(context, st_a, p=params().with_(
            privacy=True, authentication=True))
        assert rms.security.flags != flags
        got = []
        rms.port.set_handler(got.append)
        forged = (rms.rms_id, 0, flags, b"FORGED-BY-ATTACKER" + bytes(12),
                  context.now, 0, 0)
        st_b._data_arrived(None, Message(encode_bundle([forged])))
        context.run(until=context.now + 1.0)
        assert got == []
        assert st_b.stats.auth_drops == 1
        assert st_b.stats.checksum_drops == st_b.stats.components_received == 0
        assert drop_reasons(context) == ["authentication failure"]
        rms.send(b"genuine")
        context.run(until=context.now + 1.0)
        assert [m.payload for m in got] == [b"genuine"]

    def test_fast_ack_service(self):
        """Section 3.2: the ST arranges fast acknowledgement."""
        context, _net, st_a, st_b = build_pair()
        rms = open_rms(context, st_a, fast_ack=True)
        acks = []
        rms.on_fast_ack.listen(acks.append)
        rms.send(b"ping")
        context.run(until=context.now + 1.0)
        assert len(acks) == 1
        assert st_b.stats.fast_acks_sent == 1


class TestStHostileControlFrames:
    """Anyone on an untrusted medium can write to the control port: a
    frame that is not a tagged JSON object is a counted, typed drop --
    never an exception out of the event loop."""

    @pytest.mark.parametrize("body, counter", [
        (b'{"op":"st_close","st_id":%d,"_mac":"zz"}', "auth_drops"),
        (b'{"op":"st_close","st_id":%d,"_mac":"ab"}', "auth_drops"),
        (b'{"op":"st_close","st_id":%d,"_mac":5}', "auth_drops"),
        (b"[1,%d]", "garbled_bundles"),
    ], ids=["mac-not-hex", "mac-too-short", "mac-not-a-string", "not-an-object"])
    def test_untagged_frame_is_a_typed_drop(self, body, counter):
        context, _net, st_a, st_b = build_pair(trusted=False)
        first = open_rms(context, st_a, port="before")
        counters = ("auth_drops", "garbled_bundles")
        before = {name: getattr(st_b.stats, name) for name in counters}
        hostile = Message(
            b"\x01" + body % first.rms_id,
            source=Label("a", CONTROL_PORT),
            target=Label("b", CONTROL_PORT),
        )
        st_a._peer("b").control.out.send(hostile, deadline=context.now + 0.05)
        context.run(until=context.now + 1.0)  # nothing raises
        after = {name: getattr(st_b.stats, name) for name in counters}
        before[counter] += 1
        assert after == before
        # The forged "st_close" did not take the open stream down.
        assert first.rms_id in st_b._rx
        rms = open_rms(context, st_a, port="after")
        got = []
        rms.port.set_handler(got.append)
        rms.send(b"still here")
        context.run(until=context.now + 1.0)
        assert [m.payload for m in got] == [b"still here"]

    @pytest.mark.parametrize("fields", [
        {"op": "auth1", "from": "a"},
        {"op": "auth2", "from": "a", "na": 1},
        {"op": "auth3", "from": "a"},
        {"op": "st_create", "req": 7},
        {"op": "st_close"},
        {"op": "fast_ack", "st_id": 1},
        {"op": "auth9", "from": "a"},
        {"from": "a"},
    ], ids=lambda fields: fields.get("op", "no-op"))
    def test_tagged_frame_outside_the_table_is_a_control_drop(self, fields):
        """A frame under the right key and label whose kind is unknown
        or which lacks a required field: counted, never answered, never
        an exception out of ``EventLoop.run`` (``auth1`` without ``na``
        was a ``KeyError`` there before the handshake was a table)."""
        context, _net, st_a, st_b = build_pair(trusted=False)
        first = open_rms(context, st_a, port="before")
        before = (st_b.stats.control_drops, st_b.stats.control_messages,
                  st_b.stats.auth_drops)
        tag = compute_mac(
            st_a._session_key("b"), control_mac_material(fields), context=b"a"
        )
        st_a._peer("b").control.out.send(
            Message(encode_control(fields, mac=tag),
                    source=Label("a", CONTROL_PORT),
                    target=Label("b", CONTROL_PORT)),
            deadline=context.now + 0.05,
        )
        context.run(until=context.now + 1.0)
        assert (st_b.stats.control_drops, st_b.stats.control_messages,
                st_b.stats.auth_drops) == (before[0] + 1, before[1], before[2])
        assert first.rms_id in st_b._rx
        assert st_b._peer("a").control.authenticated

    def test_auth3_with_an_unissued_nb_does_not_authenticate(self):
        """With ``a`` silent after its ``auth1``, ``b`` has answered and
        awaits an ``auth3``: one that carries a nonce ``b`` never issued
        is an ``auth_drops`` and leaves ``a`` unauthenticated at ``b``
        (any tagged ``auth3`` authenticated before)."""
        context, _net, st_a, st_b = build_pair(trusted=False)
        channel_a = st_a._peer("b").control
        # a answers neither b's auth2 nor b's own challenge
        channel_a._answer_auth2 = channel_a._answer_auth1 = lambda fields: None
        st_a.ensure_control("b")
        context.run(until=context.now + 0.2)
        channel_b = st_b._peer("a").control
        assert channel_b.state == "crossed" and not channel_b.authenticated
        channel_a.send({"op": "auth3", "from": "a", "nb": 1234})
        context.run(until=context.now + 0.1)
        assert not channel_b.authenticated
        assert st_b.stats.auth_drops == 1

    def test_wrong_source_label_under_the_right_key_is_an_auth_drop(self):
        context, _net, st_a, st_b = build_pair(trusted=False)
        first = open_rms(context, st_a, port="before")
        fields = {"op": "st_close", "st_id": first.rms_id}
        key = st_a._session_key("b")

        def send_labelled(label):
            tag = compute_mac(key, control_mac_material(fields), context=label)
            st_a._peer("b").control.out.send(
                Message(encode_control(fields, mac=tag),
                        source=Label("a", CONTROL_PORT),
                        target=Label("b", CONTROL_PORT)),
                deadline=context.now + 0.05,
            )
            context.run(until=context.now + 1.0)

        for label in (b"", b"b", b"mallory"):
            before = st_b.stats.auth_drops
            send_labelled(label)
            assert st_b.stats.auth_drops == before + 1
            assert first.rms_id in st_b._rx
        send_labelled(b"a")  # the sender's own label: accepted
        assert first.rms_id not in st_b._rx

    def test_reflected_frames_do_not_authenticate(self):
        """Section 2.1: "delivery of a message with incorrect source
        label is impossible".  The pairwise key is symmetric, so the tag
        has to bind who is speaking: with ``b`` silent, an attacker who
        plays ``a``'s own frames back to it under ``b``'s label must not
        be able to walk ``a`` through the handshake."""
        context, network, st_a, st_b = build_pair(trusted=False)
        future = network.create_rms(
            Label("b", CONTROL_PORT), Label("a", CONTROL_PORT),
            CONTROL_PARAMS, CONTROL_PARAMS,
        )
        context.run(until=context.now + 1.0)
        back = future.result()

        def reflect(message):  # b is deaf; the attacker is not
            back.send(
                Message(message.payload, source=Label("b", CONTROL_PORT),
                        target=Label("a", CONTROL_PORT)),
                deadline=context.now + 0.05,
            )

        st_b._peer("a").control.arrived = reflect
        ready = st_a.ensure_control("b")
        context.run(until=context.now + 0.2)  # before the first retry
        channel = st_a._peer("b").control
        # a's own auth1 came back: dropped, not answered with an auth2.
        assert st_a.stats.auth_drops == 1
        assert st_a.stats.control_messages == 1
        # The auth2 a would have answered with, reflected in its turn.
        channel._answer_auth1({"na": channel._nonce})
        context.run(until=context.now + 0.05)
        assert st_a.stats.auth_drops == 2
        assert not channel.authenticated and not ready.done
        context.run(until=context.now + 60.0)  # the whole retry budget
        assert st_a.stats.auth_drops == 2 + control.CONTROL_MAX_RETRIES
        assert st_a.stats.control_drops == 0
        assert st_b.stats.control_messages == 0
        assert not channel.authenticated
        with pytest.raises(AuthenticationError):
            ready.result()


class TestStFailure:
    def test_network_rms_failure_propagates(self):
        context, network, st_a, st_b = build_pair()
        rms = open_rms(context, st_a)
        reasons = []
        rms.on_failure.listen(lambda r, reason: reasons.append(reason))
        network.segment.set_down()
        context.run(until=context.now + 1.0)
        assert reasons


class TestClosePeer:
    """``close_peer`` on both hosts releases everything the pair
    reserved: every network RMS between them is closed and the
    segment's admission totals are back where they were before the
    first stream (checked against the admission controller's own
    totals, not a pinned trace)."""

    @pytest.mark.parametrize("trusted", [True, False],
                             ids=["trusted", "untrusted"])
    def test_close_peer_releases_every_network_rms_and_reservation(
            self, trusted):
        context, network, st_a, st_b = build_pair(trusted=trusted)
        pool = network.admission
        before = (pool.reserved_bandwidth, pool.reserved_buffer)
        # Guaranteed streams: best-effort ones reserve nothing.
        guaranteed = params(delay_bound_type=DelayBoundType.DETERMINISTIC)
        opened = [open_rms(context, st_a, port=port, p=guaranteed)
                  for port in ("x", "y")]
        for rms in opened:
            rms.send(b"payload" * 10)
        context.run(until=context.now + 0.05)
        network_rmss = {rms.binding.network_rms for rms in opened} | {
            st_a._peers["b"].control.out, st_b._peers["a"].control.out}
        assert all(rms.is_open for rms in network_rmss)
        assert (pool.reserved_bandwidth, pool.reserved_buffer) != before
        st_a.close_peer("b")
        st_b.close_peer("a")
        context.run(until=context.now + 1.0)
        assert not any(rms.is_open for rms in network_rmss)
        assert (pool.reserved_bandwidth, pool.reserved_buffer) == before
