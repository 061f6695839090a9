"""E2 -- Section 2.5: parameter-driven elision of security mechanisms.

Claim: because RMS parameters tell the ST what the client needs *and*
the network properties tell it what the medium provides, the ST runs
software encryption/MAC/checksum only when strictly necessary.  CPU time
and delay drop on trusted or link-encrypted networks without losing the
requested properties.
"""

from __future__ import annotations

from common import Table, bench_main, build_lan, make_run, open_st_rms, report
from repro.core.params import DelayBound, DelayBoundType, RmsParams
from repro.obs.stats import DelayRecorder

MESSAGES = 150
SIZE = 1000


def secure_params():
    return RmsParams(
        privacy=True,
        authentication=True,
        capacity=32 * 1024,
        max_message_size=4000,
        delay_bound=DelayBound(0.1, 1e-5),
        delay_bound_type=DelayBoundType.BEST_EFFORT,
    )


def run_case(label, privacy=True, **net_kwargs):
    system = build_lan(seed=2, **net_kwargs)
    params = secure_params()
    if not privacy:
        params = params.with_(privacy=False, authentication=False)
    rms = open_st_rms(system, "a", "b", params=params, port="secure")
    cpu_before = system.nodes["a"].cpu.busy_time
    start = system.now
    finish = {"at": None}
    count = {"n": 0}
    delays = DelayRecorder()

    def on_message(message):
        delays.record_message(message)
        count["n"] += 1
        if count["n"] == MESSAGES:
            finish["at"] = system.now

    rms.port.set_handler(on_message)

    def producer():
        for index in range(MESSAGES):
            rms.send(bytes([index % 256]) * SIZE)
            yield 0.002

    system.context.spawn(producer())
    system.run(until=system.now + 30.0)
    elapsed = (finish["at"] or system.now) - start
    cpu_used = system.nodes["a"].cpu.busy_time - cpu_before
    return {
        "case": label,
        "plan": rms.plan,
        "delivered": count["n"],
        "sender_cpu_ms": cpu_used * 1e3,
        "mean_delay_ms": delays.summary().mean * 1e3,
        "throughput_kBps": count["n"] * SIZE / max(elapsed, 1e-9) / 1e3,
    }


def run_experiment():
    return [
        run_case("trusted net, privacy requested", trusted=True),
        run_case("link-encryption hw, privacy requested",
                 trusted=False, link_encryption=True),
        run_case("untrusted net, privacy requested", trusted=False),
        run_case("untrusted net, no privacy needed",
                 trusted=False, privacy=False),
    ]


def render(rows) -> Table:
    table = Table(
        "E2: security-mechanism elision by RMS parameters (section 2.5)",
        ["case", "sw encrypt", "sw MAC", "sender CPU (ms)",
         "mean delay (ms)", "throughput (kB/s)"],
    )
    for row in rows:
        table.add_row(
            row["case"], row["plan"].encrypt, row["plan"].mac,
            row["sender_cpu_ms"], row["mean_delay_ms"],
            row["throughput_kBps"],
        )
    return table


def test_e02_security_elision(run_once):
    rows = run_once(run_experiment)
    report("e02_security_elision", render(rows))
    trusted, link_enc, untrusted, no_need = rows
    for row in rows:
        assert row["delivered"] == MESSAGES
    # Only the untrusted+privacy case runs software mechanisms.
    assert untrusted["plan"].encrypt and untrusted["plan"].mac
    assert not trusted["plan"].encrypt and not link_enc["plan"].encrypt
    assert not no_need["plan"].encrypt
    # Elision recovers CPU: software crypto costs measurably more.
    assert untrusted["sender_cpu_ms"] > 1.2 * trusted["sender_cpu_ms"]
    assert untrusted["sender_cpu_ms"] > 1.2 * no_need["sender_cpu_ms"]
    # "If a client does not require privacy, no mechanism is used": the
    # no-privacy case on the untrusted net matches the trusted-net cost.
    assert abs(no_need["sender_cpu_ms"] - trusted["sender_cpu_ms"]) < (
        0.2 * trusted["sender_cpu_ms"] + 1e-6
    )


run = make_run("e02_security_elision", run_experiment, render)


if __name__ == "__main__":
    raise SystemExit(bench_main(run))
