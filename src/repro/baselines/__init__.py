"""Comparison baselines: datagrams, TCP-like stream, datagram RPC."""

from repro.baselines.datagram import DatagramService
from repro.baselines.rpc import DatagramRpc
from repro.baselines.tcp import TcpConfig, TcpLikeConnection, TcpStats

__all__ = [
    "DatagramRpc",
    "DatagramService",
    "TcpConfig",
    "TcpLikeConnection",
    "TcpStats",
]
