"""What every stream of a scenario did, not just the one a test holds.

In-sequence delivery is basic property 2 of every RMS, at every level;
``RmsStats.out_of_order`` must stay 0 on all of them, so scenario tests
sweep the lot instead of the one stream they hold a handle to.  Drops
are read the same way, from the ``drop`` spans of an observed context.
"""

from __future__ import annotations


def live_streams(layers):
    """The network RMSs of each layer's networks and the ST RMSs the
    layers receive on (a network shared by two layers is swept twice)."""
    for layer in layers:
        for network in layer.networks:
            yield from network._rms_table.values()
        for rx in layer._rx.values():
            yield rx.st_rms


def assert_in_sequence(layers):
    streams = list(live_streams(layers))
    assert streams
    assert [rms.name for rms in streams if rms.stats.out_of_order] == []


def drop_reasons(context):
    """The ``reason`` of every ``drop`` span of an ``observe=True``
    context, in time order (spans are stored per trace)."""
    spans = context.obs.spans
    drops = sorted(
        (event for trace_id in spans.traces()
         for event in spans.events_for(trace_id) if event.event == "drop"),
        key=lambda event: event.time,
    )
    return [event.fields["reason"] for event in drops]
