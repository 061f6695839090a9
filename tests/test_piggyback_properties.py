"""Property-based tests on the piggybacking queue invariants (4.3.1)."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.sim.context import SimContext
from repro.sim.events import TimerGroup
from repro.subtransport.piggyback import PiggybackQueue
from repro.subtransport.wire import decode_bundle

MAX_PAYLOAD = 600


def make_entry(st_id, seq, size):
    return (st_id, seq, 0, bytes([seq % 256]) * size, 0.0, 0, 0)


submissions = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=3),        # st rms id
        st.integers(min_value=1, max_value=200),      # payload size
        st.floats(min_value=0.0, max_value=0.05,      # slack before deadline
                  allow_nan=False),
        st.floats(min_value=0.0, max_value=0.01,      # gap to next submit
                  allow_nan=False),
    ),
    min_size=1,
    max_size=30,
)


def drive(items, enabled=True):
    """Feed generated submissions through a queue inside a simulation."""
    context = SimContext(seed=0)
    flushed = []

    def flush(payload, deadline, st_ids, count):
        flushed.append((context.now, payload, deadline, st_ids, count))

    floors = {}

    def ordering_floor(st_ids):
        return max((floors.get(st_id, 0.0) for st_id in st_ids), default=0.0)

    queue = PiggybackQueue(
        context,
        max_bundle_payload=MAX_PAYLOAD,
        flush_fn=lambda p, d, ids, c: (
            flushed.append((context.now, p, d, ids, c)),
            [floors.__setitem__(st_id, d) for st_id in ids],
        ),
        ordering_floor=ordering_floor,
        timer_group=TimerGroup(context.loop),
        enabled=enabled,
    )

    def producer():
        seq = 0
        for st_id, size, slack, gap in items:
            queue.submit(make_entry(st_id, seq, size),
                         max_deadline=context.now + slack)
            seq += 1
            if gap > 0:
                yield gap

    context.spawn(producer())
    context.run(until=60.0)
    queue.flush("forced")
    return flushed


@settings(max_examples=60, deadline=None)
@given(items=submissions)
def test_every_submitted_entry_is_flushed_exactly_once(items):
    flushed = drive(items)
    seqs = []
    for _, payload, _, _, _ in flushed:
        for entry in decode_bundle(payload):
            seqs.append(entry[1])
    assert sorted(seqs) == list(range(len(items)))


@settings(max_examples=60, deadline=None)
@given(items=submissions)
def test_bundles_never_exceed_network_mms(items):
    flushed = drive(items)
    for _, payload, _, _, _ in flushed:
        assert len(payload) <= MAX_PAYLOAD


@settings(max_examples=60, deadline=None)
@given(items=submissions)
def test_no_entry_flushed_after_its_max_deadline(items):
    """The flush timer fires no later than the earliest component's
    maximum transmission deadline."""
    context_now_of_flush = drive(items)
    # Reconstruct per-seq deadlines from the generated schedule.
    deadlines = {}
    now = 0.0
    for seq, (st_id, size, slack, gap) in enumerate(items):
        deadlines[seq] = now + slack
        now += gap
    for flush_time, payload, _, _, _ in context_now_of_flush:
        for entry in decode_bundle(payload):
            assert flush_time <= deadlines[entry[1]] + 1e-9


@settings(max_examples=60, deadline=None)
@given(items=submissions)
def test_per_stream_order_preserved_within_and_across_bundles(items):
    flushed = drive(items)
    last_seq = {}
    for _, payload, _, _, _ in flushed:
        for st_id, seq, *_ in decode_bundle(payload):
            if st_id in last_seq:
                assert seq > last_seq[st_id]
            last_seq[st_id] = seq


@settings(max_examples=60, deadline=None)
@given(items=submissions)
def test_network_deadlines_monotone_per_stream(items):
    """The ordering-floor rule: the deadline passed to the network never
    decreases for bundles carrying the same ST RMS (so deadline-ordered
    interfaces preserve per-stream order)."""
    flushed = drive(items)
    last_deadline = {}
    for _, payload, deadline, st_ids, _ in flushed:
        for st_id in st_ids:
            if st_id in last_deadline:
                assert deadline >= last_deadline[st_id] - 1e-12
            last_deadline[st_id] = deadline


@settings(max_examples=40, deadline=None)
@given(items=submissions)
def test_disabled_queue_is_one_to_one(items):
    flushed = drive(items, enabled=False)
    assert len(flushed) == len(items)
    for _, payload, _, _, count in flushed:
        assert count == 1
