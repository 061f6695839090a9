"""A routed grid holds only what its traffic uses (DESIGN 8.9).

On a grid built by ``build_grid`` with best-effort streams established
over it: a compiled route plan holds no per-hop callable (a frame carries
its plan and hop index and the forwarding engine moves it on), every
best-effort reservation on every admission pool is one shared object,
links, their signals and the hosts' ports keep their attributes in slots,
and impairing one link's medium leaves every other link clean.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError

import pytest

from repro import DashSystem
from repro.core.params import DelayBound, DelayBoundType, RmsParams
from repro.netsim.errors_model import ImpairmentModel

BEST_EFFORT = RmsParams(
    capacity=16 * 1024,
    max_message_size=512,
    delay_bound=DelayBound(0.5, 1e-4),
    delay_bound_type=DelayBoundType.BEST_EFFORT,
)
PAIRS = [("h0", "h17"), ("h3", "h12"), ("h5", "h8"), ("h16", "h1")]


@pytest.fixture
def grid():
    system = DashSystem(seed=5)
    network, mesh = system.add_mesh(
        "grid", rows=3, cols=3, hosts_per_router=2,
        network_kwargs={"trusted": True},
    )
    sessions = [system.connect(src, dst, desired=BEST_EFFORT)
                for src, dst in PAIRS]
    system.run(until=2.0)
    assert all(session.is_up for session in sessions)
    for session in sessions:
        session.send(b"x" * 64)
    system.run(until=3.0)
    return system, network, mesh


def test_a_compiled_plan_holds_no_per_hop_callable(grid):
    _, network, mesh = grid
    engine = network._engine
    plans = [engine.plan(src, dst) for src in mesh.hosts[:6]
             for dst in mesh.hosts if dst != src]
    assert max(len(plan.links) for plan in plans) >= 5
    for plan in plans:
        for name in type(plan).__slots__:
            value = getattr(plan, name)
            assert not callable(value), name
            if isinstance(value, (tuple, list)):
                assert not any(callable(item) for item in value), name


def test_every_best_effort_reservation_is_one_shared_object(grid):
    _, network, _ = grid
    reservations = [reservation for pool in network._pools.values()
                    for reservation in pool._reservations.values()]
    # Each established stream's data and control RMSs, both ways, hold
    # one reservation per hop.
    assert len(reservations) > 4 * len(PAIRS)
    assert all(reservation.bound_type is DelayBoundType.BEST_EFFORT
               for reservation in reservations)
    assert len({id(reservation) for reservation in reservations}) == 1


def test_links_signals_and_ports_have_no_instance_dict(grid):
    system, network, _ = grid
    links = list(network._links.values())
    signals = [signal for link in links for signal in (link.on_down, link.on_up)]
    ports = [port for node in system.nodes.values()
             for port in node.host.ports.values()]
    assert links and signals and ports
    for each in links + signals + ports:
        assert not hasattr(each, "__dict__"), type(each).__name__


def clean(link) -> bool:
    model = link.impairment
    return model.frame_loss_rate == 0.0 and model.bit_error_rate == 0.0


def test_impairing_one_medium_leaves_every_other_link_clean(grid):
    system, network, _ = grid
    links = list(network._links.values())
    assert all(clean(link) for link in links)
    impaired = links[0]
    impaired.impairment = ImpairmentModel(frame_loss_rate=0.5)
    assert all(clean(link) for link in links[1:])
    # An in-place edit of a model, as tests of a lossy segment used to
    # make, either is refused (a shared model is frozen) or stays the
    # edited link's own.
    segment = system.add_ethernet("lan", trusted=True).segment
    for link in (segment, links[1]):
        try:
            link.impairment.frame_loss_rate = 1.0
        except FrozenInstanceError:
            pass
    assert all(clean(link) for link in links[2:])
