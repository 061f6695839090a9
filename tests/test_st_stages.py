"""Each per-stream ST stage alone, and a component accepted only once.

The send stage runs on the stream (``StRms``) and the receive stage on
its receiver (``RxStream``), both resolved when the stream is created.
The contracts below hold of each resolved stage by itself: what the
security provider is asked to do, what the fast-acknowledgement service
sends, how many receive-stage CPU items a message costs and how their
deadlines move.

Nothing on the wire stops a component from arriving twice: an attacker
replays a recorded frame, or the network duplicates one (the duplicating
channel of Dolev et al.).  The receiver accepts a component only when
its sequence number is above the last one it accepted on the stream.
"""

from __future__ import annotations

import math

import pytest

from repro.core.message import Label, Message
from repro.core.params import DelayBound, DelayBoundType, RmsParams
from repro.core.rms import Rms
from repro.dash.system import DashSystem
from repro.security.providers import ShakeBlake2Provider
from repro.sim.context import FIGURE_TABLE_CAP, SimContext
from repro.subtransport.binding import DATA_PORT
from repro.subtransport.security import SecurityContext
from repro.subtransport.wire import FLAG_FRAGMENT, decode_bundle, encode_bundle


def params(secured: bool = True, size: int = 8000) -> RmsParams:
    return RmsParams(
        privacy=secured,
        authentication=secured,
        capacity=64 * 1024,
        max_message_size=size,
        delay_bound=DelayBound(0.1, 1e-5),
        delay_bound_type=DelayBoundType.BEST_EFFORT,
    )


def stream(
    trusted: bool, secured: bool = True, fast_ack: bool = False,
    request: RmsParams = None, **network
):
    """``(system, network, rms, delivered)``: one ST RMS from alice to
    bob, its deliveries collected; ``network`` goes to the Ethernet and
    ``request`` (default ``params(secured)``) is what alice asks for."""
    system = DashSystem(seed=3)
    network = system.add_ethernet(trusted=trusted, **network)
    alice = system.add_node("alice")
    system.add_node("bob")
    request = request or params(secured)
    future = alice.st.create_st_rms(
        "bob", port="stages", desired=request, acceptable=request,
        fast_ack=fast_ack,
    )
    system.run(until=system.now + 2.0)
    rms = future.result()
    delivered = []
    rms.port.set_handler(lambda message: delivered.append(message.payload))
    return system, network, rms, delivered


def data_frames(network) -> list:
    """The payload of every data bundle seen on ``network`` from now."""
    captured = []
    network.add_sniffer(
        lambda frame: captured.append(bytes(frame.message.payload))
        if frame.message.target.port == DATA_PORT else None
    )
    return captured


#: A mix of whole and fragmented messages (the Ethernet MTU is 1,500 B).
SIZES = (24, 4000, 100, 3000, 1)


def payloads():
    return [bytes([index + 1]) * size for index, size in enumerate(SIZES)]


def send_all(system, rms, messages) -> None:
    for payload in messages:
        rms.send(payload)
    system.run(until=system.now + 1.0)


class TestReplayedComponents:
    def replay(self, trusted: bool, secured: bool) -> None:
        system, network, rms, delivered = stream(trusted, secured)
        bob = system.nodes["bob"].st
        captured = data_frames(network)
        rms.send(b"24 bytes of client data!")
        system.run(until=system.now + 1.0)
        (frame,) = captured
        bob._data_arrived(None, Message(frame))
        system.run(until=system.now + 1.0)
        assert delivered == [b"24 bytes of client data!"]
        assert rms.stats.messages_delivered == rms.stats.messages_sent == 1
        assert bob.stats.duplicate_drops == 1
        assert bob.stats.auth_drops == bob.stats.checksum_drops == 0
        # Not a drop of a send: the sender's accounting is untouched.
        assert rms.stats.messages_dropped == 0
        assert rms.outstanding_bytes == 0

    def test_a_replayed_secured_bundle_is_delivered_once(self):
        self.replay(trusted=False, secured=True)

    def test_a_replayed_unsecured_bundle_is_delivered_once(self):
        self.replay(trusted=True, secured=False)

    def test_a_duplicated_middle_fragment_is_dropped_not_reassembled(
        self, monkeypatch
    ):
        system, _network, rms, delivered = stream(trusted=True, secured=False)
        bob = system.nodes["bob"].st
        arrived = bob._data_arrived
        middles = []

        def duplicating(network_rms, message):
            arrived(network_rms, message)
            (component,) = decode_bundle(bytes(message.payload))[:1]
            offset, total = component[5], component[6]
            if (component[2] & FLAG_FRAGMENT and offset
                    and offset + len(component[3]) < total and not middles):
                middles.append(offset)
                arrived(network_rms, message)  # the channel sends it twice

        monkeypatch.setattr(bob, "_data_arrived", duplicating)
        messages = payloads()
        send_all(system, rms, messages)
        assert middles
        assert delivered == messages
        assert bob.stats.duplicate_drops == 1
        assert bob.stats.partials_discarded == 0
        assert rms.stats.messages_dropped == 0


class TestChecksumCoversTheSubheader:
    """On a checksum-only stream (no link checksum, a medium with bit
    errors, no MAC) a bit error in a subheader field the receiver acts on
    fails the checksum: it never moves the duplicate floor, so the stream
    goes on delivering."""

    @pytest.mark.parametrize("field, flip", [
        (1, 1 << 31),  # seq raised far past every later component's
        (1, 1),        # seq 1 lowered to 0, at the floor
        (4, 1.0),      # send_time
    ], ids=["seq-raised", "seq-lowered", "send-time"])
    def test_a_flipped_field_is_a_checksum_drop(self, monkeypatch, field, flip):
        system, _network, rms, delivered = stream(
            trusted=True, secured=False, link_checksum=False,
            bit_error_rate=1e-12)
        assert rms.plan.checksum and not rms.plan.mac
        bob = system.nodes["bob"].st
        arrived = bob._data_arrived
        hit = []

        def corrupting(network_rms, message):
            components = decode_bundle(bytes(message.payload))
            (component,) = components
            if component[1] == 1 and not hit:
                component = list(component)
                value = component[field]
                component[field] = (
                    value ^ flip if type(value) is int else value + flip)
                hit.append(field)
                message.payload = encode_bundle([tuple(component)])
            arrived(network_rms, message)

        monkeypatch.setattr(bob, "_data_arrived", corrupting)
        messages = [bytes([index + 1]) * 24 for index in range(4)]
        for payload in messages:
            send_all(system, rms, [payload])
        assert hit
        assert delivered == messages[:1] + messages[2:]
        assert bob.stats.checksum_drops == 1
        assert bob.stats.duplicate_drops == 0
        assert rms.stats.messages_dropped == 1

    def test_a_component_demultiplexed_to_another_stream_is_a_checksum_drop(
        self
    ):
        system, _network, rms, delivered = stream(
            trusted=True, secured=False, link_checksum=False,
            bit_error_rate=1e-12)
        future = system.nodes["alice"].st.create_st_rms(
            "bob", port="other", desired=params(False),
            acceptable=params(False))
        system.run(until=system.now + 2.0)
        other = future.result()
        assert other.plan.checksum
        received = []
        other.port.set_handler(lambda message: received.append(message))
        bob = system.nodes["bob"].st
        captured = data_frames(_network)
        send_all(system, rms, [b"for the first stream"])
        (frame,) = captured
        (component,) = decode_bundle(frame)
        moved = (other.rms_id,) + tuple(component[1:])
        bob._data_arrived(None, Message(encode_bundle([moved])))
        system.run(until=system.now + 1.0)
        assert delivered == [b"for the first stream"]
        assert received == []
        assert bob.stats.checksum_drops == 1


class TestResolvedStages:
    @pytest.fixture
    def provider_calls(self, monkeypatch):
        calls = []
        for name in ("seal", "open", "mac", "verify"):
            original = getattr(ShakeBlake2Provider, name)

            def counted(self, *args, _name=name, _original=original):
                calls.append(_name)
                return _original(self, *args)

            monkeypatch.setattr(ShakeBlake2Provider, name, counted)
        return calls

    def test_a_stream_on_a_trusted_network_calls_no_provider(
        self, provider_calls
    ):
        system, _network, rms, delivered = stream(trusted=True, secured=True)
        messages = payloads()
        send_all(system, rms, messages)
        assert delivered == messages
        assert rms.security.protect is None and rms.security.provider is None
        assert provider_calls == []

    def test_a_secured_stream_protects_and_unprotects_each_component_once(
        self, monkeypatch
    ):
        calls = []
        for name in ("_protect", "_unprotect"):
            original = getattr(SecurityContext, name)

            def counted(self, *args, _name=name, _original=original):
                calls.append(_name)
                return _original(self, *args)

            monkeypatch.setattr(SecurityContext, name, counted)
        system, _network, rms, delivered = stream(trusted=False, secured=True)
        alice, bob = system.nodes["alice"].st, system.nodes["bob"].st
        messages = payloads()
        send_all(system, rms, messages)
        assert delivered == messages
        sent = alice.stats.components_sent
        assert sent > len(messages)  # some messages fragmented
        assert calls.count("_protect") == sent
        assert calls.count("_unprotect") == bob.stats.components_received == sent

    @pytest.mark.parametrize("fast_ack", [False, True], ids=["plain", "fast-ack"])
    def test_fast_acks_only_on_a_fast_ack_stream_one_per_delivery(
        self, fast_ack
    ):
        system, _network, rms, delivered = stream(
            trusted=True, secured=False, fast_ack=fast_ack)
        bob = system.nodes["bob"].st
        acked = []
        rms.on_fast_ack.listen(acked.append)
        control = bob.stats.control_messages
        messages = payloads()
        send_all(system, rms, messages)
        assert delivered == messages
        sent = list(range(1, len(messages) + 1)) if fast_ack else []
        assert acked == sent
        assert bob.stats.fast_acks_sent == len(sent)
        assert bob.stats.control_messages - control == len(sent)

    def receive_items(self, monkeypatch, system, rms) -> list:
        """The deadline of each receive-stage item queued for ``rms`` at
        bob, in the order they are queued."""
        cpu = system.nodes["bob"].host.cpu
        submit = cpu.submit
        stage = f"st/recv:{rms.rms_id}"
        queued = []

        def recording(name, cpu_time, deadline, *args, **kwargs):
            if name == stage:
                queued.append(deadline)
            return submit(name, cpu_time, deadline, *args, **kwargs)

        monkeypatch.setattr(cpu, "submit", recording)
        return queued

    def test_a_fragmented_and_a_whole_message_cost_one_receive_item_each(
        self, monkeypatch
    ):
        system, _network, rms, delivered = stream(trusted=True, secured=False)
        bob = system.nodes["bob"].st
        queued = self.receive_items(monkeypatch, system, rms)
        for payload, fragments in ((bytes(4000), 3), (bytes(100), 0)):
            before = bob.stats.fragments_received
            send_all(system, rms, [payload])
            assert bob.stats.fragments_received - before == fragments
            assert len(queued) == len(delivered)
        assert len(delivered) == 2

    @pytest.mark.parametrize("trusted", [True, False], ids=["plain", "sealed"])
    def test_each_stage_costs_the_literal_sum(self, trusted, monkeypatch):
        # 50 us, then 10 ns/B of copying and, on a sealed stream, 120 ns/B
        # of encryption and 60 ns/B of authentication, added in that
        # order: the stream's terms must give these very floats.
        system, _network, rms, delivered = stream(trusted=trusted)
        submitted = []
        for name in ("alice", "bob"):
            cpu = system.nodes[name].host.cpu

            def recording(name, cpu_time, *args, submit=cpu.submit, **kwargs):
                submitted.append((name, cpu_time))
                return submit(name, cpu_time, *args, **kwargs)

            monkeypatch.setattr(cpu, "submit", recording)
        sizes = (1, 700, 1000, 4000)
        send_all(system, rms, [bytes(size) for size in sizes])
        assert len(delivered) == len(sizes)
        for stage in ("st/send", "st/recv"):
            costs = [cpu_time for name, cpu_time in submitted
                     if name == f"{stage}:{rms.rms_id}"]
            expected = []
            for size in sizes:
                cost = 50e-6 + 10e-9 * size
                if not trusted:
                    cost += 120e-9 * size
                    cost += 60e-9 * size
                expected.append(cost)
            assert costs == expected, stage

    def test_receive_deadlines_of_a_stream_never_decrease(self, monkeypatch):
        system, _network, rms, delivered = stream(trusted=True, secured=False)
        queued = self.receive_items(monkeypatch, system, rms)
        # A large message then small ones, sent together: a later small
        # message's own deadline falls before its predecessor's.
        messages = [bytes(6000), bytes(10), bytes(2000), bytes(1)]
        send_all(system, rms, messages)
        assert delivered == messages
        assert len(queued) == len(messages)
        assert queued == sorted(queued)
        assert queued[1] == queued[0]  # floored at the 6,000 B message's

    # -- the per-size figure tables -----------------------------------

    #: Each plan's per-byte CPU rates after the 10 ns/B copy, in the
    #: order they are added, and the ``stream()`` arguments that get it.
    PLANS = {
        "plain": ((), dict(trusted=True, secured=False)),
        "checksummed": ((30e-9,), dict(
            trusted=True, secured=False, link_checksum=False,
            bit_error_rate=1e-12)),
        "sealed": ((120e-9, 60e-9), dict(trusted=False, secured=True)),
    }

    @pytest.mark.parametrize("bound", [
        DelayBound(0.1, 1e-5), DelayBound.unbounded(),
    ], ids=["bounded", "unbounded"])
    @pytest.mark.parametrize("plan", sorted(PLANS))
    def test_every_size_gets_the_literal_figures(self, plan, bound, monkeypatch):
        """Every size from 0 to the maximum message size, each twice
        (the first fills the tables, the second hits them), past the cap
        several times (so tables are emptied and filled again): each of
        ``Rms.send``, ``StRms._transmit`` and ``RxStream.receive`` reads
        the very float its literal expression gives."""
        rates, network = self.PLANS[plan]
        request = params(network["secured"], size=2000).with_(
            delay_bound=bound)
        system, _network, rms, _delivered = stream(
            request=request, **network)
        assert rms.params.delay_bound == bound
        assert [rms.plan.checksum, rms.plan.encrypt or rms.plan.mac] == [
            plan == "checksummed", plan == "sealed"]
        net = rms.binding.network_rms.params.delay_bound
        offered = {}
        for name in ("alice", "bob"):
            monkeypatch.setattr(  # record each stage, run none
                system.nodes[name].host.cpu, "submit",
                lambda *item, _name=name: offered.__setitem__(_name, item))
        rx = rms.rx
        protect = rms.security.protect
        now = system.now
        a, b = bound.a, bound.b
        seq = rx.last_seq
        for size in range(rms.params.max_message_size + 1):
            cost = 50e-6 + 10e-9 * size
            for rate in rates:
                cost += rate * size
            if bound.is_unbounded or net.is_unbounded:
                slack = 1.0
            else:
                slack = (a + b * size) - (net.a + net.b * size)
                slack = max(slack - (2e-3 + 2e-3), 0.0)
            for _ in range(2):
                # Rms.send: the default transmission deadline.
                message = rms.send(bytes(size))
                if bound.is_unbounded:
                    assert message.deadline is None
                else:
                    assert message.deadline == now + (a + b * size)
                # StRms._transmit: the send stage's cost and deadlines.
                name, cpu_time, deadline, _done, args = offered["alice"][:5]
                assert (cpu_time, deadline, args[3]) == (
                    cost, now + 2e-3, now + slack), size
                # RxStream.receive: the receive stage's cost and deadline.
                seq += 1
                data = bytes(size)
                if protect is not None:
                    data = protect(seq, data, now, 0, 0)
                rx.last_cpu_deadline = 0.0  # no floor from the last size
                rx.receive(seq, rms.security.flags, data, now, 0, 0, None)
                name, cpu_time, deadline = offered.pop("bob")[:3]
                assert name == f"st/recv:{rms.rms_id}"
                if bound.is_unbounded:
                    assert (cpu_time, deadline) == (cost, now + 2e-3)
                else:
                    assert (cpu_time, deadline) == (
                        cost, now + (a + b * size)), size
            for table in system.context.figures.values():
                assert len(table) <= FIGURE_TABLE_CAP

    def test_late_exactly_past_the_literal_threshold_at_every_size(self):
        """``Rms._deliver`` (the fourth site): a message is late when its
        delay exceeds ``a + b * size + 1e-12``, probed at that very float
        and the next one up, each size twice, past the cap."""
        bound = DelayBound(0.1, 1e-5)
        context = SimContext()  # the clock reads 0: a delay is -send_time
        rms = Rms(context, params(False, size=2000).with_(delay_bound=bound),
                  Label("a", "p"), Label("b", "p"))
        rms.port.set_handler(lambda message: None)
        order = 0
        for size in range(rms.params.max_message_size + 1):
            threshold = bound.a + bound.b * size + 1e-12
            for _ in range(2):
                for delay, late in ((threshold, 0), (
                        math.nextafter(threshold, math.inf), 1)):
                    before = rms.stats.messages_late
                    order += 1
                    rms._deliver(
                        Message(bytes(size), send_time=-delay), order)
                    assert rms.stats.messages_late - before == late, size
            assert len(rms._bounds) <= FIGURE_TABLE_CAP
        assert rms.stats.out_of_order == 0

    def test_a_table_holds_at_most_the_cap_and_one_set_of_terms_one_table(
        self
    ):
        """More distinct sizes than the cap, on two streams with equal
        terms: the tables follow the terms, never the sizes sent."""
        system, _network, rms, delivered = stream(trusted=True, secured=False)
        future = system.nodes["alice"].st.create_st_rms(
            "bob", port="twin", desired=params(False),
            acceptable=params(False))
        system.run(until=system.now + 2.0)
        twin = future.result()
        twin.port.set_handler(lambda message: None)
        tables = system.context.figures
        assert twin.send_figures is rms.send_figures
        assert twin.rx._figures is rms.rx._figures
        assert twin._bounds is rms._bounds
        count = len(tables)
        sizes = range(1, FIGURE_TABLE_CAP + 60)
        for size in sizes:
            for each in (rms, twin):
                each.send(bytes(size))
            system.run(until=system.now + 0.05)
            assert all(len(table) <= FIGURE_TABLE_CAP
                       for table in tables.values())
        assert len(delivered) == len(sizes)
        assert len(tables) == count
        # Filled and emptied: what is left is the sizes since the last
        # time the table was full.
        assert 0 < len(rms.send_figures) <= FIGURE_TABLE_CAP
        assert len(rms.send_figures) == (len(sizes) - 1) % FIGURE_TABLE_CAP + 1


class TestInSequenceAtTheSt:
    def test_a_delivery_behind_a_later_sequence_number_is_counted(self):
        """The receiver builds a fresh ``Message`` per delivery, so ST
        order is the sender's sequence number, not a message id."""
        system, _network, rms, delivered = stream(trusted=True, secured=False)
        rx = rms.rx
        now = system.now
        rx.deliver(b"first", now, None, 4)
        rx.deliver(b"second", now, None, 7)
        assert rms.stats.out_of_order == 0
        rx.deliver(b"late", now, None, 5)
        assert delivered == [b"first", b"second", b"late"]
        assert rms.stats.out_of_order == 1
        rx.deliver(b"next", now, None, 8)
        assert rms.stats.out_of_order == 1
