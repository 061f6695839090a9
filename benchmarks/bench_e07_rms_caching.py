"""E7 -- Section 4.2: network-RMS caching.

Claim: "The ST caches network RMS's ... motivated by two assumptions:
1) during a given time period a host will tend to communicate repeatedly
with a small set of remote hosts; 2) it is slow and costly to create
network RMS's."  With the cache, repeated short sessions to the same
peer skip the network setup handshake.
"""

from __future__ import annotations

from common import Table, bench_main, best_effort_params, build_lan, make_run
from repro.subtransport.config import StConfig

SESSIONS = 15


def run_case(cache_enabled: bool, seed: int = 7):
    config = StConfig(cache_enabled=cache_enabled, multiplexing_enabled=False)
    system = build_lan(seed=seed, st_config=config)
    st = system.nodes["a"].st
    network = system.networks["ether0"]
    params = best_effort_params(capacity=16 * 1024, mms=1400)
    latencies = []
    done = {"n": 0}

    def driver():
        for index in range(SESSIONS):
            start = system.now
            rms = yield st.create_st_rms(
                "b", port=f"short{index}", desired=params, acceptable=params
            )
            latencies.append(system.now - start)
            rms.send(b"one shot payload")
            yield 0.01
            rms.close()
            yield 0.02
            done["n"] += 1

    system.context.spawn(driver())
    system.run(until=system.now + 30.0)
    assert done["n"] == SESSIONS
    return {
        "cache": cache_enabled,
        "sessions": SESSIONS,
        "network_setups": network.setup_count,
        "network_rms_created": st.stats.network_rms_created,
        "cache_hits": st.stats.cache_hits,
        "first_ms": latencies[0] * 1e3,
        "mean_rest_ms": 1e3 * sum(latencies[1:]) / (len(latencies) - 1),
    }


def run_experiment():
    return [run_case(False), run_case(True)]


def render(rows) -> Table:
    table = Table(
        f"E7: {SESSIONS} short sessions to one peer, network-RMS cache "
        "off vs on (section 4.2)",
        ["cache", "net setups", "data RMS created", "cache hits",
         "first create (ms)", "mean later create (ms)"],
    )
    for row in rows:
        table.add_row("on" if row["cache"] else "off", row["network_setups"],
                      row["network_rms_created"], row["cache_hits"],
                      row["first_ms"], row["mean_rest_ms"])
    return table


def check(rows) -> None:
    off, on = rows
    # The cache eliminates repeated network-RMS creation...
    assert on["network_rms_created"] == 1
    assert off["network_rms_created"] == SESSIONS
    assert on["cache_hits"] == SESSIONS - 1
    # ...which eliminates setup handshakes on the wire...
    assert on["network_setups"] < off["network_setups"]
    # ...and makes later session establishment faster than the first.
    assert on["mean_rest_ms"] < off["mean_rest_ms"]


run = make_run("e07_rms_caching", run_experiment, render, check)


if __name__ == "__main__":
    raise SystemExit(bench_main(run))
