"""Application workloads: voice, window system, RPC."""

from repro.apps.media import MediaReport, VoiceCall, voice_rms_params
from repro.apps.rpcload import RpcReport, RpcWorkload
from repro.apps.sources import PeriodicSource
from repro.apps.window import (
    WindowReport,
    WindowSystemWorkload,
    event_rms_params,
    graphics_rms_params,
)

__all__ = [
    "MediaReport",
    "PeriodicSource",
    "RpcReport",
    "RpcWorkload",
    "VoiceCall",
    "WindowReport",
    "WindowSystemWorkload",
    "event_rms_params",
    "graphics_rms_params",
    "voice_rms_params",
]
