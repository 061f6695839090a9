"""Simulated network substrate: media, routing, admission, network RMS."""

from repro.netsim.admission import AdmissionController, Reservation
from repro.netsim.chaos import ChaosEvent, ChaosSchedule
from repro.netsim.errors_model import ImpairmentModel
from repro.netsim.ethernet import EthernetNetwork
from repro.netsim.internet import InternetNetwork
from repro.netsim.network import Network, NetworkProperties, NetworkRms
from repro.netsim.packet import FRAME_OVERHEAD_BYTES, Frame
from repro.netsim.routing import ForwardingEngine, ForwardingTable, RoutePlan
from repro.netsim.topology import (
    Host,
    Link,
    LinkStats,
    Mesh,
    MeshSpec,
    build_grid,
    build_two_tier,
)

__all__ = [
    "AdmissionController",
    "ChaosEvent",
    "ChaosSchedule",
    "EthernetNetwork",
    "FRAME_OVERHEAD_BYTES",
    "ForwardingEngine",
    "ForwardingTable",
    "Frame",
    "Host",
    "ImpairmentModel",
    "InternetNetwork",
    "Link",
    "LinkStats",
    "Mesh",
    "MeshSpec",
    "Network",
    "NetworkProperties",
    "NetworkRms",
    "Reservation",
    "RoutePlan",
    "build_grid",
    "build_two_tier",
]
