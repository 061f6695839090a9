"""Tests for the flow-control mechanisms of section 4.4."""

from __future__ import annotations

import functools

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.params import DelayBound, DelayBoundType, RmsParams
from repro.errors import ParameterError
from repro.sim.context import SimContext
from repro.transport.flowcontrol import (
    FlowControlMode,
    RateBasedEnforcer,
    ReceiverCredit,
    WindowEnforcer,
)

from tests.flowcontrol_reference import RETURNS, run_script


def enforced_params(capacity=1000, delay=0.1):
    return RmsParams(
        capacity=capacity,
        max_message_size=min(500, capacity),
        delay_bound=DelayBound(delay, 0.0),
        delay_bound_type=DelayBoundType.BEST_EFFORT,
    )


class TestFlowControlMode:
    def test_capacity_flags(self):
        assert FlowControlMode.CAPACITY_ONLY.enforces_capacity
        assert FlowControlMode.END_TO_END.enforces_capacity
        assert not FlowControlMode.NONE.enforces_capacity
        assert not FlowControlMode.RECEIVER_ONLY.enforces_capacity

    def test_receiver_flags(self):
        assert FlowControlMode.RECEIVER_ONLY.has_receiver_fc
        assert FlowControlMode.END_TO_END.has_receiver_fc
        assert not FlowControlMode.CAPACITY_ONLY.has_receiver_fc

    def test_sender_flags(self):
        assert FlowControlMode.END_TO_END.has_sender_fc
        assert not FlowControlMode.CAPACITY_AND_RECEIVER.has_sender_fc


class TestRateBasedEnforcer:
    def test_burst_up_to_capacity_is_immediate(self):
        context = SimContext()
        enforcer = RateBasedEnforcer(context, enforced_params(capacity=1000))
        sent = []
        enforcer.request(600, lambda: sent.append(context.now))
        enforcer.request(400, lambda: sent.append(context.now))
        assert sent == [0.0, 0.0]

    def test_excess_waits_for_window_to_clear(self):
        context = SimContext()
        enforcer = RateBasedEnforcer(context, enforced_params(capacity=1000, delay=0.1))
        sent = []
        enforcer.request(1000, lambda: sent.append(context.now))
        enforcer.request(500, lambda: sent.append(context.now))
        context.run()
        assert sent[0] == 0.0
        # The window is A + C*B = 0.1 s; the 500 B send must wait until
        # the opening 1000 B burst ages out of the sliding window.
        assert sent[1] == pytest.approx(0.1, abs=1e-6)
        assert enforcer.sends_delayed == 1

    def test_window_rule_never_exceeded(self):
        """No window of duration A + C*B carries more than C bytes."""
        context = SimContext()
        params = enforced_params(capacity=1000, delay=0.1)
        enforcer = RateBasedEnforcer(context, params)
        events = []
        for _ in range(20):
            enforcer.request(250, lambda: events.append((context.now, 250)))
        context.run()
        window = params.delay_bound.a + params.capacity * params.delay_bound.b
        for start_index in range(len(events)):
            start_time = events[start_index][0]
            in_window = sum(
                size
                for time, size in events
                if start_time <= time < start_time + window
            )
            assert in_window <= params.capacity + 1e-9

    def test_oversized_request_rejected(self):
        context = SimContext()
        enforcer = RateBasedEnforcer(context, enforced_params(capacity=100))
        with pytest.raises(ParameterError):
            enforcer.request(200, lambda: None)

    def test_unbounded_delay_rejected(self):
        context = SimContext()
        with pytest.raises(ParameterError):
            RateBasedEnforcer(context, RmsParams())

    def test_fifo_order_preserved(self):
        context = SimContext()
        enforcer = RateBasedEnforcer(context, enforced_params(capacity=500, delay=0.1))
        order = []
        for tag in range(5):
            enforcer.request(400, lambda t=tag: order.append(t))
        context.run()
        assert order == list(range(5))


class TestWindowEnforcer:
    def test_window_fills_then_blocks(self):
        context = SimContext()
        window = WindowEnforcer(context, capacity=1000)
        sent = []
        window.request(600, lambda: sent.append("a"))
        window.request(600, lambda: sent.append("b"))
        assert sent == ["a"]
        assert window.queued == 1

    def test_ack_opens_window(self):
        context = SimContext()
        window = WindowEnforcer(context, capacity=1000)
        sent = []
        window.request(600, lambda: sent.append("a"))
        window.request(600, lambda: sent.append("b"))
        window.acknowledge(600)
        assert sent == ["a", "b"]

    def test_outstanding_tracks_bytes(self):
        context = SimContext()
        window = WindowEnforcer(context, capacity=1000)
        window.request(300, lambda: None)
        window.request(200, lambda: None)
        assert window.outstanding == 500
        window.acknowledge(300)
        assert window.outstanding == 200

    def test_over_ack_clamps_at_zero(self):
        context = SimContext()
        window = WindowEnforcer(context, capacity=1000)
        window.request(300, lambda: None)
        window.acknowledge(900)
        assert window.outstanding == 0

    def test_head_of_line_blocking(self):
        """A large blocked head does not let smaller followers pass."""
        context = SimContext()
        window = WindowEnforcer(context, capacity=1000)
        sent = []
        window.request(900, lambda: sent.append("big1"))
        window.request(900, lambda: sent.append("big2"))
        window.request(10, lambda: sent.append("small"))
        assert sent == ["big1"]

    def test_invalid_capacity(self):
        context = SimContext()
        with pytest.raises(ParameterError):
            WindowEnforcer(context, capacity=0)


class TestReceiverCredit:
    def test_credit_consumed_and_granted(self):
        credit = ReceiverCredit(SimContext(), 1000)
        sent = []
        credit.request(700, lambda: sent.append("a"))
        credit.request(700, lambda: sent.append("b"))
        assert sent == ["a"]
        assert credit.sends_delayed == 1
        credit.grant(700)
        assert sent == ["a", "b"]

    def test_grant_clamps_at_buffer_size(self):
        credit = ReceiverCredit(SimContext(), 1000)
        credit.grant(5000)
        assert credit.available == 1000

    def test_message_larger_than_buffer_rejected(self):
        credit = ReceiverCredit(SimContext(), 100)
        with pytest.raises(ParameterError):
            credit.request(200, lambda: None)

    def test_invalid_buffer(self):
        with pytest.raises(ParameterError):
            ReceiverCredit(SimContext(), 0)


class TestTryAdmit:
    """The no-alloc admit-or-decline fast path shared by all enforcers."""

    def test_rate_admit_does_request_bookkeeping(self):
        context = SimContext()
        enforcer = RateBasedEnforcer(context, enforced_params(capacity=1000))
        assert enforcer.try_admit(600)
        assert enforcer._in_window == 600
        # A queued request sees exactly the state request() would leave.
        sent = []
        enforcer.request(600, lambda: sent.append(context.now))
        assert sent == []
        context.run()
        assert sent and sent[0] > 0.0

    def test_rate_declines_when_window_full(self):
        context = SimContext()
        enforcer = RateBasedEnforcer(context, enforced_params(capacity=1000))
        assert enforcer.try_admit(1000)
        assert not enforcer.try_admit(1)
        assert enforcer._in_window == 1000  # declined admit left no trace

    def test_rate_declines_when_contested(self):
        context = SimContext()
        enforcer = RateBasedEnforcer(context, enforced_params(capacity=1000))
        enforcer.request(1000, lambda: None)
        enforcer.request(100, lambda: None)  # queued behind the window
        assert enforcer.queued == 1
        # FIFO fairness: nothing may jump the queue via the fast path.
        assert not enforcer.try_admit(1)

    def test_rate_evicts_aged_history(self):
        context = SimContext()
        enforcer = RateBasedEnforcer(context, enforced_params(capacity=1000, delay=0.1))
        assert enforcer.try_admit(1000)
        context.loop.call_after(1.0, lambda: None)
        context.run()
        assert enforcer.try_admit(1000)

    def test_rate_oversize_raises_like_request(self):
        context = SimContext()
        enforcer = RateBasedEnforcer(context, enforced_params(capacity=1000))
        with pytest.raises(ParameterError):
            enforcer.try_admit(1001)

    def test_window_admit_and_decline(self):
        context = SimContext()
        enforcer = WindowEnforcer(context, capacity=1000)
        assert enforcer.try_admit(800)
        assert enforcer.outstanding == 800
        assert not enforcer.try_admit(300)
        enforcer.acknowledge(800)
        assert enforcer.try_admit(300)

    def test_window_declines_when_contested(self):
        context = SimContext()
        enforcer = WindowEnforcer(context, capacity=1000)
        enforcer.request(1000, lambda: None)
        enforcer.request(10, lambda: None)
        assert not enforcer.try_admit(1)

    def test_window_oversize_raises(self):
        context = SimContext()
        enforcer = WindowEnforcer(context, capacity=1000)
        with pytest.raises(ParameterError):
            enforcer.try_admit(1001)

    def test_credit_admit_and_decline(self):
        credit = ReceiverCredit(SimContext(), 1000)
        assert credit.try_admit(900)
        assert credit.available == 100
        assert not credit.try_admit(200)
        credit.grant(900)
        assert credit.try_admit(200)

    def test_credit_declines_when_contested(self):
        credit = ReceiverCredit(SimContext(), 1000)
        credit.request(1000, lambda: None)
        credit.request(10, lambda: None)
        assert not credit.try_admit(1)

    def test_credit_oversize_raises(self):
        credit = ReceiverCredit(SimContext(), 100)
        with pytest.raises(ParameterError):
            credit.try_admit(200)


# -- against the independent model (tests/flowcontrol_reference.py) ------

#: Script times sit on a binary grid and the rate window (A + C*B =
#: 0.25 + 1024 * 2**-12 = 0.5 s) is a multiple of it, so "exactly one
#: window later" happens, exactly, and the <= of the rule is exercised.
GRID, LIMIT = 0.125, 1024
RATE_PARAMS = RmsParams(
    capacity=LIMIT,
    max_message_size=LIMIT,
    delay_bound=DelayBound(0.25, 2.0 ** -12),
    delay_bound_type=DelayBoundType.BEST_EFFORT,
)
RATE_WINDOW = 0.5


def scripts(rule):
    """``(time, op, size)`` steps for one rule; ~6% of sizes are oversize."""
    ops = ["request", "request", "advance", RETURNS[rule] or "request"]
    step = st.tuples(
        st.integers(0, 6), st.sampled_from(ops), st.integers(1, LIMIT + 64)
    )

    def on_the_clock(steps):
        script, ticks = [], 0
        for gap, op, size in steps:
            ticks += gap
            script.append((ticks * GRID, op, size))
        return script

    return st.lists(step, max_size=40).map(on_the_clock)


def play(rule, script):
    """Drive the real gate with ``request`` only; check what can be seen
    from outside at every step; return what the model also returns."""
    context = SimContext()
    if rule == "rate":
        gate = RateBasedEnforcer(context, RATE_PARAMS)
        assert (gate.window, gate.capacity) == (RATE_WINDOW, LIMIT)
    elif rule == "window":
        gate = WindowEnforcer(context, LIMIT)
    else:
        gate = ReceiverCredit(context, LIMIT)

    def in_use():
        if rule == "window":
            return gate.outstanding
        if rule == "credit":
            return gate.buffer_bytes - gate.available
        return None  # the rate gate's count is private: judged below

    admitted, refused, held, tag = [], [], [], 0
    for time, op, size in script:
        context.run(until=time)
        if op == "request":
            before = (len(admitted), gate.queued, gate.sends_delayed,
                      in_use(), context.loop.pending_events)
            try:
                gate.request(
                    size,
                    functools.partial(
                        lambda t, s: admitted.append((t, context.now, s)),
                        tag, size,
                    ),
                )
            except ParameterError:
                assert size > LIMIT
                assert before == (len(admitted), gate.queued,
                                  gate.sends_delayed, in_use(),
                                  context.loop.pending_events)
                refused.append(tag)
            else:
                assert size <= LIMIT
            tag += 1
        elif op == "acknowledge":
            gate.acknowledge(size)
        elif op == "grant":
            gate.grant(size)
        if rule != "rate":
            assert 0 <= in_use() <= LIMIT
        held.append(in_use())
    context.run()
    assert context.loop.pending_events == 0
    if rule == "rate":
        assert gate.queued == 0
        for start, (_, opened, _) in enumerate(admitted):
            inside = sum(size for _, time, size in admitted[start:]
                         if time < opened + RATE_WINDOW)
            assert inside <= LIMIT
    assert [t for t, _, _ in admitted] == sorted(t for t, _, _ in admitted)
    return gate, admitted, refused, held


class TestAgainstReference:
    """Seeded scripts through the real gates and the list-and-loop model."""

    @pytest.mark.parametrize("rule", ["rate", "window", "credit"])
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_same_admissions_same_times_same_delays(self, rule, data):
        script = data.draw(scripts(rule))
        model = run_script(rule, LIMIT, script, window=RATE_WINDOW)
        gate, admitted, refused, held = play(rule, script)
        assert [t for t, _, _ in admitted] == model.order
        assert [time for _, time, _ in admitted] == pytest.approx(
            [model.times[t] for t in model.order], abs=1e-12)
        assert refused == model.refused
        assert gate.sends_delayed == len(model.delayed)
        assert gate.queued == len(model.waiting)
        if rule != "rate":
            assert held == model.in_use

    def test_a_request_exactly_one_window_later_is_not_delayed(self):
        """The boundary the recorded mutation (< for <=) gets wrong."""
        script = [(0.0, "request", LIMIT), (RATE_WINDOW, "request", LIMIT)]
        gate, admitted, _, _ = play("rate", script)
        assert [time for _, time, _ in admitted] == [0.0, RATE_WINDOW]
        assert gate.sends_delayed == 0


def observed_gates():
    """Each gate with a limit of 1000 B on an observed context, and how
    room for the oldest admitted bytes comes back to it."""
    context = SimContext(observe=True)
    rate = RateBasedEnforcer(context, enforced_params(capacity=1000, delay=0.1))
    window = WindowEnforcer(context, 1000)
    credit = ReceiverCredit(context, 1000)
    return context, {
        "rate": (rate, lambda size: context.run(until=context.now + 0.11)),
        "window": (window, window.acknowledge),
        "credit": (credit, credit.grant),
    }


@pytest.mark.parametrize("mechanism", ["rate", "window", "credit"])
class TestOneGateEnteredOneWay:
    def test_a_request_that_finds_room_sends_inside_the_call(self, mechanism):
        context, gates = observed_gates()
        gate, _ = gates[mechanism]
        spans = context.obs.spans
        sent = []
        gate.request(400, lambda *args: sent.append(args), "seq", b"payload",
                     trace_id=spans.new_trace())
        gate.request(600, lambda: sent.append(()), trace_id=spans.new_trace())
        assert sent == [("seq", b"payload"), ()]
        assert gate.queued == 0 and gate.sends_delayed == 0
        assert len(spans) == 0 and context.loop.pending_events == 0

    def test_waiting_sends_leave_in_order_with_one_hold_release_pair(
            self, mechanism):
        """A send found at the head of the line without room is held
        once, however often the line is looked at, and released once;
        one that never heads a blocked line records nothing."""
        context, gates = observed_gates()
        gate, give_back = gates[mechanism]
        spans = context.obs.spans
        sent = []
        traces = [spans.new_trace() for _ in range(4)]
        for trace, size in zip(traces, (1000, 600, 600, 300)):
            gate.request(size, sent.append, trace, trace_id=trace)
        assert sent == traces[:1] and gate.queued == 3
        give_back(1000)  # room for the second; the third now heads the line
        assert sent == traces[:2] and gate.queued == 2
        give_back(600)  # room for the third, and the fourth fits behind it
        assert sent == traces and gate.queued == 0
        assert gate.sends_delayed == 2
        fc = {trace: [(e.layer, e.event, e.fields.get("mechanism"))
                      for e in spans.events_for(trace)] for trace in traces}
        pair = [("fc", "hold", mechanism), ("fc", "release", mechanism)]
        assert fc == {traces[0]: [], traces[1]: pair, traces[2]: pair,
                      traces[3]: []}
        context.run()
        assert context.loop.pending_events == 0
