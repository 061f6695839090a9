"""E12 -- Section 2.5 / Figure 3: per-class RMS parameters end to end.

Claim: choosing RMS parameters per application class -- statistical
low-delay for voice, low-capacity events plus higher-capacity graphics
for the window system, high-capacity high-delay for bulk, low-delay for
request/reply -- lets every class meet its needs *simultaneously* on one
network, because providers schedule by the declared deadlines.
"""

from __future__ import annotations

from common import Table, bench_main, build_lan, make_run, open_st_rms
from repro.apps.media import VoiceCall, voice_rms_params
from repro.apps.rpcload import RpcWorkload
from repro.apps.window import (
    WindowSystemWorkload,
    event_rms_params,
    graphics_rms_params,
)
from repro.core.params import DelayBound, DelayBoundType, RmsParams

DURATION = 4.0


def run_mix(seed: int = 13):
    system = build_lan(seed=seed, nodes=("a", "b"))
    node_a, node_b = system.nodes["a"], system.nodes["b"]

    # Voice: statistical low-delay RMS (section 2.5).
    voice_rms = open_st_rms(system, "a", "b", params=voice_rms_params(),
                            port="voice")
    voice = VoiceCall(system.context, voice_rms, duration=DURATION)

    # Window system: small events up, graphics down.
    events = open_st_rms(system, "a", "b", params=event_rms_params(),
                         port="events")
    graphics = open_st_rms(system, "b", "a", params=graphics_rms_params(),
                           port="graphics")
    window = WindowSystemWorkload(system.context, events, graphics,
                                  duration=DURATION)

    # Bulk: high capacity, high delay; drives the segment hard.
    bulk_params = RmsParams(
        capacity=96 * 1024,
        max_message_size=4000,
        delay_bound=DelayBound(1.0, 1e-5),
        delay_bound_type=DelayBoundType.BEST_EFFORT,
    )
    bulk_rms = open_st_rms(system, "a", "b", params=bulk_params, port="bulk")
    bulk_bytes = {"n": 0}
    bulk_rms.port.set_handler(
        lambda m: bulk_bytes.__setitem__("n", bulk_bytes["n"] + m.size)
    )

    def bulk_producer():
        while True:
            bulk_rms.send(b"\xAA" * 3000)
            yield 0.004  # ~750 kB/s offered

    bulk_process = system.context.spawn(bulk_producer())

    # Request/reply via RKOM.
    node_b.rkom.register_handler("echo", lambda payload, src: payload)
    rpc = RpcWorkload(system.context, node_a.rkom, "b",
                      calls_per_client=60, think_time=0.05)

    start = system.now
    system.run(until=start + DURATION + 2.0)
    bulk_process.stop()
    system.run(until=system.now + 1.0)

    voice_report = voice.report()
    window_report = window.report()
    rpc_report = rpc.report()
    return {
        "voice": voice_report,
        "window": window_report,
        "rpc": rpc_report,
        "bulk_goodput_kBps": bulk_bytes["n"] / DURATION / 1e3,
    }


def render(result) -> Table:
    voice = result["voice"]
    window = result["window"]
    rpc = result["rpc"]
    table = Table(
        "E12: concurrent application mix on one Ethernet (section 2.5)",
        ["class", "metric", "value", "target"],
    )
    table.add_row("voice", "usable fraction", voice.usable_fraction, "> 0.95")
    table.add_row("voice", "p95 delay (ms)", voice.delay.p95 * 1e3, "< 80")
    table.add_row("voice", "jitter (ms)", voice.jitter * 1e3, "small")
    table.add_row("window", "RTTs over 100 ms", window.round_trips_over_budget,
                  "~0")
    table.add_row("window", "event p95 (ms)", window.event_delay.p95 * 1e3,
                  "< 50")
    table.add_row("rpc", "completed", rpc.calls_completed, "60")
    table.add_row("rpc", "p95 RTT (ms)", rpc.rtt.p95 * 1e3, "< 50")
    table.add_row("bulk", "goodput (kB/s)", result["bulk_goodput_kBps"],
                  "> 300")
    return table


def run_experiment():
    return run_mix()


def check(result) -> None:
    voice = result["voice"]
    window = result["window"]
    rpc = result["rpc"]
    # Voice plays out: nearly every packet on time.
    assert voice.usable_fraction > 0.95
    assert voice.delay.p95 < 0.08
    # Interactive round trips stay within human perception budget.
    assert window.round_trips_over_budget <= 0.05 * window.events_sent
    # RPC completes with modest tails despite the bulk load.
    assert rpc.calls_completed == 60
    assert rpc.rtt.p95 < 0.05
    # Bulk still gets most of the leftover bandwidth.
    assert result["bulk_goodput_kBps"] > 300


run = make_run("e12_application_mix", run_experiment, render, check)


if __name__ == "__main__":
    raise SystemExit(bench_main(run))
