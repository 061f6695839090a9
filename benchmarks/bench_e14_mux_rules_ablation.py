"""E14 -- Section 4.2: what the multiplexing rules protect.

Ablation: with ``enforce_mux_rules`` off, the ST packs a tight-deadline
voice stream onto whatever network RMS exists -- here one created for a
bulk stream with a loose delay bound and already-committed capacity.
The aggregate outstanding bytes then exceed the network RMS capacity:
per section 4.4, "if they fail to [honor the capacity], the provider's
guarantees are voided; messages may be delivered late or discarded."
With the rules on, the ST creates a suitable second network RMS, the
capacity clause holds for both, and the voice bound is met with margin.
"""

from __future__ import annotations

from common import Table, bench_main, build_lan, make_run, open_st_rms, report
from repro.core.params import DelayBound, DelayBoundType, RmsParams
from repro.obs.stats import DelayRecorder
from repro.subtransport.config import StConfig

VOICE_PACKETS = 150
VOICE_PERIOD = 0.02
VOICE_BOUND = 0.05


def run_case(enforce: bool, seed: int = 15):
    config = StConfig(enforce_mux_rules=enforce)
    system = build_lan(seed=seed, st_config=config)
    # First, a bulk stream with a loose bound creates the network RMS.
    bulk_params = RmsParams(
        capacity=48 * 1024,
        max_message_size=4000,
        delay_bound=DelayBound(1.0, 1e-5),
        delay_bound_type=DelayBoundType.BEST_EFFORT,
    )
    bulk = open_st_rms(system, "a", "b", params=bulk_params, port="bulk")
    # Then a voice stream with a tight bound asks for transport.
    voice_params = RmsParams(
        capacity=8 * 1024,
        max_message_size=512,
        delay_bound=DelayBound(VOICE_BOUND, 1e-6),
        delay_bound_type=DelayBoundType.BEST_EFFORT,
    )
    voice = open_st_rms(system, "a", "b", params=voice_params, port="voice")
    shares_binding = voice.binding is bulk.binding
    recorder = DelayRecorder()
    voice.port.set_handler(recorder.record_message)
    voice_delays = recorder.delays

    def bulk_producer():
        while True:
            bulk.send(b"\xAA" * 3000)
            yield 0.0025  # ~1.2 MB/s offered: keeps the segment busy

    def voice_producer():
        for index in range(VOICE_PACKETS):
            voice.send(bytes([index % 256]) * 160)
            yield VOICE_PERIOD

    bulk_process = system.context.spawn(bulk_producer())
    system.context.spawn(voice_producer())
    system.run(until=system.now + VOICE_PACKETS * VOICE_PERIOD + 1.0)
    bulk_process.stop()
    system.run(until=system.now + 1.0)
    delivered = voice.stats.messages_delivered
    voice_net = voice.binding.network_rms if voice.binding else None
    return {
        "rules": enforce,
        "shares_network_rms": shares_binding,
        "net_rms_created": system.nodes["a"].st.stats.network_rms_created,
        "voice_delivered": delivered,
        "voice_late_frac": voice.stats.messages_late / max(delivered, 1),
        "voice_p95_ms": 1e3 * (sorted(voice_delays)[
            int(0.95 * (len(voice_delays) - 1))
        ] if voice_delays else 0.0),
        "net_capacity_violations": (
            voice_net.stats.capacity_violations if voice_net else 0
        ),
    }


def run_experiment():
    return [run_case(True), run_case(False)]


def render(rows) -> Table:
    table = Table(
        "E14: multiplexing-rule ablation -- voice onto a bulk network RMS "
        "(section 4.2)",
        ["rules enforced", "shares net RMS", "net RMS created",
         "voice delivered", "voice p95 (ms)", "voice late frac",
         "net capacity violations"],
    )
    for row in rows:
        table.add_row("yes" if row["rules"] else "no",
                      row["shares_network_rms"], row["net_rms_created"],
                      row["voice_delivered"], row["voice_p95_ms"],
                      row["voice_late_frac"],
                      row["net_capacity_violations"])
    return table


def test_e14_mux_rules_ablation(run_once):
    rows = run_once(run_experiment)
    report("e14_mux_rules_ablation", render(rows))
    enforced, ablated = rows
    # With rules on, the capacity rule forces a second network RMS; both
    # streams stay within their negotiated capacities and the voice
    # bound holds.
    assert not enforced["shares_network_rms"]
    assert enforced["net_rms_created"] == 2
    assert enforced["voice_late_frac"] < 0.02
    assert enforced["net_capacity_violations"] == 0
    # Ablated: voice rides the bulk network RMS and the aggregate
    # violates its capacity thousands of times -- every violation is a
    # message for which the provider's guarantees are void (4.4).
    assert ablated["shares_network_rms"]
    assert ablated["net_rms_created"] == 1
    assert ablated["net_capacity_violations"] > 100


run = make_run("e14_mux_rules_ablation", run_experiment, render)


if __name__ == "__main__":
    raise SystemExit(bench_main(run))
