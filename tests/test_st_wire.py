"""Tests for ST wire formats and the piggybacking queue algorithm."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.errors import TransportError
from repro.sim.context import SimContext
from repro.sim.events import TimerGroup
from repro.subtransport.piggyback import PiggybackQueue
from repro.subtransport.wire import (
    FLAG_FRAGMENT,
    SUBHEADER_BYTES,
    control_mac_material,
    decode_bundle,
    decode_control,
    encode_bundle,
    encode_control,
)


def entry(st_id=1, seq=0, payload=b"data", flags=0, send_time=0.0,
          frag_offset=0, frag_total=0):
    """One component: ``(st_rms_id, seq, flags, payload, send_time,
    frag_offset, frag_total)``."""
    return (st_id, seq, flags, payload, send_time, frag_offset, frag_total)


class TestBundleCodec:
    def test_roundtrip_single(self):
        data = encode_bundle([entry(payload=b"hello", seq=3)])
        decoded = decode_bundle(data)
        assert decoded == [(1, 3, 0, b"hello", 0.0, 0, 0)]

    def test_roundtrip_multiple(self):
        entries = [entry(st_id=i, seq=i, payload=bytes([i]) * (i + 1)) for i in range(5)]
        decoded = decode_bundle(encode_bundle(entries))
        assert [e[0] for e in decoded] == list(range(5))
        assert [e[3] for e in decoded] == [bytes([i]) * (i + 1) for i in range(5)]
        assert decoded == entries

    def test_fragment_fields_roundtrip(self):
        frag = entry(
            flags=FLAG_FRAGMENT, payload=b"chunk", frag_offset=100, frag_total=500
        )
        decoded = decode_bundle(encode_bundle([frag]))[0]
        assert decoded == frag

    def test_send_time_roundtrips(self):
        decoded = decode_bundle(encode_bundle([entry(send_time=1.25)]))[0]
        assert decoded[4] == 1.25

    def test_empty_bundle_rejected(self):
        with pytest.raises(TransportError):
            encode_bundle([])

    def test_truncated_bundle_rejected(self):
        data = encode_bundle([entry(payload=b"hello")])
        with pytest.raises(TransportError):
            decode_bundle(data[:-3])

    def test_trailing_garbage_rejected(self):
        data = encode_bundle([entry()])
        with pytest.raises(TransportError):
            decode_bundle(data + b"junk")

    def test_encoded_size_matches_wire(self):
        single = entry(payload=b"x" * 100)
        assert len(encode_bundle([single])) == 2 + SUBHEADER_BYTES + 100

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**31),
                st.integers(min_value=0, max_value=2**31),
                st.binary(max_size=200),
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_roundtrip_property(self, raw):
        entries = [entry(st_id=i, seq=s, payload=p) for i, s, p in raw]
        assert decode_bundle(encode_bundle(entries)) == entries


class TestControlCodec:
    def test_roundtrip_without_mac(self):
        fields = {"op": "st_create", "st_id": 7}
        decoded = decode_control(encode_control(fields))
        assert decoded == fields

    def test_roundtrip_with_mac(self):
        mac = bytes(range(8))
        decoded = decode_control(encode_control({"op": "x"}, mac=mac))
        assert decoded["_mac"] == mac.hex()
        assert decoded["op"] == "x"

    def test_mac_containing_separator_byte(self):
        """Regression: a 0x02 byte inside the MAC must not split wrong."""
        mac = b"\x02" * 8
        decoded = decode_control(encode_control({"op": "y"}, mac=mac))
        assert decoded["_mac"] == mac.hex()

    def test_garbage_rejected(self):
        with pytest.raises(TransportError):
            decode_control(b"\x01\xff\xfe{bad json")

    def test_wrong_tag_rejected(self):
        with pytest.raises(TransportError):
            decode_control(b"\x07{}")

    @pytest.mark.parametrize("body", [b"[1,2]", b"5", b'"st_close"', b"null"])
    def test_body_that_is_not_an_object_rejected(self, body):
        with pytest.raises(TransportError, match="not a JSON object"):
            decode_control(b"\x01" + body)

    @pytest.mark.parametrize("forged", ['"zz"', '"ab"', "5", "null"])
    def test_mac_key_in_the_body_is_discarded(self, forged):
        """``"_mac"`` is reserved for the positional tag: a body cannot
        plant its own, with or without a real tag behind it."""
        body = b'\x01{"op":"st_close","_mac":' + forged.encode() + b"}"
        assert decode_control(body) == {"op": "st_close"}
        mac = bytes(range(8))
        assert decode_control(body + b"\x02" + mac) == {
            "op": "st_close", "_mac": mac.hex(),
        }

    def test_mac_material_excludes_mac_and_is_canonical(self):
        one = control_mac_material({"b": 2, "a": 1, "_mac": "ff"})
        two = control_mac_material({"a": 1, "b": 2})
        assert one == two


class TestPiggybackQueue:
    def piggyback_queue(self, context, enabled=True, max_payload=500):
        flushes = []

        def flush(payload, deadline, st_ids, count):
            flushes.append((payload, deadline, st_ids, count))

        queue = PiggybackQueue(
            context,
            max_bundle_payload=max_payload,
            flush_fn=flush,
            ordering_floor=lambda ids: 0.0,
            timer_group=TimerGroup(context.loop),
            enabled=enabled,
        )
        return queue, flushes

    def test_disabled_queue_sends_immediately(self):
        context = SimContext()
        queue, flushes = self.piggyback_queue(context, enabled=False)
        queue.submit(entry(payload=b"a"), max_deadline=context.now + 1.0)
        assert len(flushes) == 1
        assert flushes[0][3] == 1

    def test_components_accumulate_until_timer(self):
        context = SimContext()
        queue, flushes = self.piggyback_queue(context)
        queue.submit(entry(seq=0, payload=b"a" * 10), max_deadline=0.010)
        queue.submit(entry(seq=1, payload=b"b" * 10), max_deadline=0.012)
        assert flushes == []
        context.run()
        assert len(flushes) == 1
        payload, deadline, st_ids, count = flushes[0]
        assert count == 2
        # Flush fires at the earliest max deadline...
        assert context.now == pytest.approx(0.010)
        # ...but the deadline passed down is the queue's maximum.
        assert deadline == pytest.approx(0.012)

    def test_overflow_flushes_before_append(self):
        context = SimContext()
        queue, flushes = self.piggyback_queue(context, max_payload=120)
        queue.submit(entry(seq=0, payload=b"a" * 60), max_deadline=1.0)
        queue.submit(entry(seq=1, payload=b"b" * 60), max_deadline=1.0)
        assert len(flushes) == 1  # first flushed to make room
        assert flushes[0][3] == 1
        assert queue.flushes["overflow"] == 1

    def test_overdue_message_flushes_whole_queue(self):
        context = SimContext()
        queue, flushes = self.piggyback_queue(context)
        queue.submit(entry(seq=0, payload=b"a"), max_deadline=context.now + 1.0)
        queue.submit(entry(seq=1, payload=b"b"), max_deadline=context.now)  # no slack
        assert len(flushes) == 1
        assert flushes[0][3] == 2  # sent together, order preserved
        assert queue.flushes["immediate"] == 1

    def test_ordering_floor_raises_deadline(self):
        context = SimContext()
        flushes = []
        queue = PiggybackQueue(
            context,
            max_bundle_payload=500,
            flush_fn=lambda p, d, ids, c: flushes.append(d),
            ordering_floor=lambda ids: 9.0,
            timer_group=TimerGroup(context.loop),
        )
        queue.submit(entry(payload=b"a"), max_deadline=0.5)
        context.run()
        assert flushes[0] == pytest.approx(9.0)

    def test_oversized_component_rejected(self):
        context = SimContext()
        queue, _ = self.piggyback_queue(context, max_payload=50)
        with pytest.raises(TransportError):
            queue.submit(entry(payload=b"x" * 100), max_deadline=1.0)

    def test_forced_flush_empty_is_noop(self):
        context = SimContext()
        queue, flushes = self.piggyback_queue(context)
        queue.flush("forced")
        assert flushes == []

    def test_bundle_decodes_after_flush(self):
        context = SimContext()
        queue, flushes = self.piggyback_queue(context)
        queue.submit(entry(seq=0, payload=b"first"), max_deadline=0.001)
        queue.submit(entry(seq=1, payload=b"second"), max_deadline=0.002)
        context.run()
        decoded = decode_bundle(flushes[0][0])
        assert [e[3] for e in decoded] == [b"first", b"second"]

    def test_timer_rearms_for_earlier_deadline(self):
        context = SimContext()
        queue, flushes = self.piggyback_queue(context)
        queue.submit(entry(seq=0, payload=b"later"), max_deadline=0.5)
        queue.submit(entry(seq=1, payload=b"sooner"), max_deadline=0.1)
        context.run()
        # Queue must have flushed at 0.1, not 0.5.
        assert context.now == pytest.approx(0.1)
        assert len(flushes) == 1
        assert flushes[0][3] == 2

    @given(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("submit"), st.integers(0, 200),
                    st.sampled_from([0.0, 0.001, 0.002, 0.005, 0.01, 0.05]),
                    st.sampled_from([None, 0.0, 0.0005, 0.002, 0.004, 0.08]),
                ),
                st.tuples(st.just("flush")),
                st.tuples(st.just("run"),
                          st.sampled_from([0.0, 0.0005, 0.001, 0.003, 0.02])),
            ),
            max_size=40,
        ),
        st.booleans(),
    )
    def test_flush_timer_matches_the_scan(self, steps, enabled):
        """The O(1) timer against the scan it replaced: after every step
        the armed timer sits at ``max(min(flush_by of the queued), now)``,
        an empty queue holds no live timer, a disabled queue never arms
        one, and the flush counts by reason are the model's."""
        context = SimContext()
        queue, flushes = self.piggyback_queue(context, enabled=enabled)
        queued = []  # (flush_by, encoded size) of what should be waiting
        expected = []  # component count of every flush, in order
        reasons = dict(timer=0, overflow=0, immediate=0, forced=0)

        def flushed(reason):
            reasons[reason] += 1
            expected.append(len(queued))
            queued.clear()

        for seq, step in enumerate(steps):
            now = context.now
            if step[0] == "submit":
                _, size, slack, window = step
                flush_by = now + slack if window is None else min(
                    now + slack, now + window)
                queue.submit(
                    entry(seq=seq, payload=b"x" * size), now + slack,
                    None if window is None else now + window)
                if 2 + sum(n for _, n in queued) + 22 + size > 500:
                    flushed("overflow")
                queued.append((flush_by, 22 + size))
                if flush_by <= now or not enabled:
                    flushed("immediate")
            elif step[0] == "flush":
                queue.flush()
                if queued:
                    flushed("forced")
            else:
                context.run(until=now + step[1])
                if queued and min(queued)[0] <= context.now:
                    flushed("timer")
            assert len(queue) == len(queued)
            assert [count for _, _, _, count in flushes] == expected
            if queued:
                scan = min(flush_by for flush_by, _ in queued)
                assert not queue._timer.cancelled
                assert queue._timer.time == max(scan, context.now)
            else:
                assert queue._timer is None and queue._timers.live == 0
        assert reasons == queue.flushes
