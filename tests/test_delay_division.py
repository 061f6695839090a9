"""Section 4.1's division of an ST RMS delay bound, against literal arithmetic.

"When an upper-level RMS is created, its total delay is divided among its
various stages": 2 ms to the send stage, 2 ms to the receive stage, the
rest to the network RMS.  Each quantity below is recomputed from the
literal ``2e-3`` in the ST's own float order (``(a + S) + S`` is not
``a + (S + S)`` for about a fifth of random ``a``), sharing no code with
the module that divides, and read back through what the ST hands on: the
capability table, the network RMS request, the maximum transmission
deadline given to the piggyback queue and the deadlines of the ``st/send``
and ``st/recv`` CPU work items.
"""

from __future__ import annotations

from collections import namedtuple

import pytest

from repro.core.params import (
    DelayBound,
    DelayBoundType,
    RmsParams,
    StatisticalSpec,
)
from repro.dash.system import DashSystem
from repro.subtransport.piggyback import PiggybackQueue

SIZES = (2, 700, 1000)  # the best-effort row's slack order matters at each
UNBOUNDED = DelayBound.unbounded()

#: One work item as a CPU was offered it.
Offer = namedtuple("Offer", "name deadline submitted_at")

BEST_EFFORT = DelayBoundType.BEST_EFFORT
STATISTICAL = DelayBoundType.STATISTICAL
DETERMINISTIC = DelayBoundType.DETERMINISTIC

#: (type, ST bound) rows: A below and above the 4 ms both stages take,
#: the latter picked where ``a - (S + S) != (a - S) - S``.
BOUNDS = [
    (DETERMINISTIC, DelayBound(0.05625, 3.3e-6)),
    (DETERMINISTIC, DelayBound(3e-3, 1e-6)),
    (STATISTICAL, DelayBound(0.06198, 1e-5)),
    (STATISTICAL, DelayBound(1e-3, 2e-6)),
    (BEST_EFFORT, DelayBound(0.04973, 1e-5)),
    (BEST_EFFORT, DelayBound(0.0041, 7e-7)),
    (BEST_EFFORT, DelayBound(2e-3, 1e-5)),
    (BEST_EFFORT, UNBOUNDED),
]


def _params(bound_type, bound):
    statistical = None
    if bound_type is STATISTICAL:
        statistical = StatisticalSpec(average_load=20_000.0)
    return RmsParams(
        capacity=4096, max_message_size=2000, delay_bound=bound,
        delay_bound_type=bound_type, statistical=statistical,
    )


def _pair(**ethernet):
    system = DashSystem(seed=5)
    system.add_ethernet(trusted=True, **ethernet)
    system.add_node("a")
    system.add_node("b")
    return system


# The second medium's best A is one where ``(a + S) + S != a + (S + S)``.
@pytest.mark.parametrize("ethernet", [
    {}, {"bandwidth": 1e6, "propagation_delay": 1e-5},
], ids=repr)
def test_capability_table_adds_both_stages(ethernet):
    system = _pair(**ethernet)
    network = system.networks["ether0"]
    plain = RmsParams()
    below = network.capability_table("a", "b").limits_for(plain).best_delay
    offered = system.nodes["a"].st.st_capability_table("b")
    best = offered.limits_for(plain).best_delay
    assert (best.a, best.b) == (below.a + 2e-3 + 2e-3, below.b)


@pytest.mark.parametrize("bound_type, bound", BOUNDS, ids=repr)
def test_network_request_gets_what_the_stages_leave(bound_type, bound):
    system = _pair()
    st = system.nodes["a"].st
    peer = st._peer("b")
    desired, acceptable = st._bindings.network_params_for(
        peer, _params(bound_type, bound))
    if bound.is_unbounded:
        assert desired.delay_bound.is_unbounded
        assert acceptable.delay_bound.is_unbounded
        return
    budget = max(bound.a - (2e-3 + 2e-3), 1e-6)
    half = budget * 0.5 if bound_type is BEST_EFFORT else budget
    assert acceptable.delay_bound == DelayBound(budget, bound.b)
    assert desired.delay_bound == DelayBound(half, bound.b)


#: Rows a trusted Ethernet can establish (A well above the stages' 4 ms).
ESTABLISHED = [row for row in BOUNDS if row[1].a > 0.01]


@pytest.mark.parametrize("bound_type, bound", ESTABLISHED, ids=repr)
def test_per_message_deadlines(bound_type, bound, monkeypatch):
    system = _pair()
    params = _params(bound_type, bound)
    session = system.connect("a", "b", port="division", desired=params,
                             acceptable=params)
    # Send as early as possible: at a small arrival time, arrival + slack
    # keeps the slack's last bits.
    while not session.established.done:
        system.run(until=system.now + 1e-4)
    rms = session.established.result()
    assert rms.params.delay_bound == bound
    network_bound = rms.binding.network_rms.params.delay_bound
    offered = []  # every item either CPU is offered, in order
    for name in ("a", "b"):
        cpu = system.nodes[name].cpu

        def offer(name, cpu_time, deadline, *args, submit=cpu.submit, **kwargs):
            offered.append(Offer(name, deadline, system.now))
            return submit(name, cpu_time, deadline, *args, **kwargs)

        monkeypatch.setattr(cpu, "submit", offer)

    max_deadlines = []
    submit = PiggybackQueue.submit

    def recording(queue, entry, max_deadline, *args, **kwargs):
        max_deadlines.append(max_deadline)
        return submit(queue, entry, max_deadline, *args, **kwargs)

    monkeypatch.setattr(PiggybackQueue, "submit", recording)
    received = []
    rms.port.set_handler(received.append)
    sent = [rms.send(bytes(size)) for size in SIZES]
    system.run(until=system.now + 1.0)
    assert [len(message.payload) for message in received] == list(SIZES)

    def items(prefix):
        return [item for item in offered
                if item.name == f"{prefix}:{rms.rms_id}"]

    sends = items("st/send")
    recvs = items("st/recv")
    assert len(sends) == len(recvs) == len(max_deadlines) == len(SIZES)
    for size, message, send, recv, max_deadline in zip(
            SIZES, sent, sends, recvs, max_deadlines):
        arrival = message.send_time
        assert send.deadline == arrival + 2e-3
        if bound.is_unbounded or network_bound.is_unbounded:
            slack = 1.0
        else:
            slack = (bound.a + bound.b * size) - (
                network_bound.a + network_bound.b * size)
            slack -= 2e-3 + 2e-3
            slack = max(slack, 0.0)
        assert max_deadline == arrival + slack
        if bound.is_unbounded:
            assert recv.deadline == recv.submitted_at + 2e-3
        else:
            assert recv.deadline == arrival + (bound.a + bound.b * size)
