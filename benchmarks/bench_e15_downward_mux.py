"""E15 -- Section 4.2's road not taken: downward multiplexing.

The paper excludes striping one ST RMS over several network RMSs
"because the expected gain may not outweigh the additional ST protocol
complexity."  This bench measures both sides of that sentence on a
two-path internetwork: the gain (aggregate throughput across disjoint
paths) and the complexity cost (resequencing work, which grows sharply
when the paths are unequal).
"""

from __future__ import annotations

from common import Table, bench_main, make_run
from repro.core.message import Label
from repro.core.params import DelayBound, DelayBoundType, RmsParams
from repro.netsim.internet import InternetNetwork
from repro.netsim.topology import Host
from repro.sim.context import SimContext
from repro.subtransport.downmux import DownwardMux

MESSAGES = 120
SIZE = 400
PATH_BW = 5e4  # bytes/second per path


def build(seed, slow_factor=1.0):
    context = SimContext(seed=seed)
    network = InternetNetwork(context, trusted=True)
    network.attach(Host(context, "a"))
    network.attach(Host(context, "z"))
    network.add_router("g1")
    network.add_router("g2")
    network.add_link("a", "g1", bandwidth=PATH_BW, propagation_delay=0.002)
    network.add_link("g1", "z", bandwidth=PATH_BW, propagation_delay=0.002)
    network.add_link("a", "g2", bandwidth=PATH_BW / slow_factor,
                     propagation_delay=0.002 * slow_factor)
    network.add_link("g2", "z", bandwidth=PATH_BW / slow_factor,
                     propagation_delay=0.002 * slow_factor)
    return context, network


def make_path(context, network, via):
    params = RmsParams(
        capacity=8192,
        max_message_size=512,
        delay_bound=DelayBound(0.5, 1e-3),
        delay_bound_type=DelayBoundType.BEST_EFFORT,
    )
    future = network.create_rms(Label("a"), Label("z"), params, params)
    context.run(until=context.now + 2.0)
    rms = future.result()
    rms.route = ["a", via, "z"]
    return rms


def run_case(label, paths_via, slow_factor=1.0, seed=16):
    context, network = build(seed, slow_factor=slow_factor)
    paths = [make_path(context, network, via) for via in paths_via]
    done = {"bytes": 0, "last": None}

    def record(size):
        done["bytes"] += size
        done["last"] = context.now

    if len(paths) == 1:
        rms = paths[0]
        rms.port.set_handler(lambda m: record(m.size))
        send = rms.send
        resequenced = 0
        stream = None
    else:
        stream = DownwardMux(context, paths)
        stream.port.set_handler(lambda payload: record(len(payload)))
        send = stream.send
    start = context.now

    def producer():
        for index in range(MESSAGES):
            send(bytes([index % 256]) * SIZE)
            yield SIZE / (2.2 * PATH_BW)  # offer ~2.2x one path's rate

    context.spawn(producer())
    context.run(until=context.now + 30.0)
    span = (done["last"] or context.now) - start
    return {
        "case": label,
        "delivered_B": done["bytes"],
        "goodput_kBps": done["bytes"] / max(span, 1e-9) / 1e3,
        "resequenced": stream.stats.resequenced if stream else 0,
        "reseq_depth": stream.stats.max_resequence_depth if stream else 0,
    }


def run_experiment():
    return [
        run_case("single path", ["g1"]),
        run_case("striped, equal paths", ["g1", "g2"]),
        run_case("striped, 4x-unequal paths", ["g1", "g2"], slow_factor=4.0),
    ]


def render(rows) -> Table:
    table = Table(
        "E15: downward multiplexing -- the gain and the complexity "
        "(section 4.2, excluded from DASH; offered ~2.2x one path)",
        ["case", "goodput (kB/s)", "resequenced msgs", "max reseq depth"],
    )
    for row in rows:
        table.add_row(row["case"], row["goodput_kBps"], row["resequenced"],
                      row["reseq_depth"])
    return table


def check(rows) -> None:
    single, equal, unequal = rows
    # The gain is real: two equal paths nearly double goodput.
    assert equal["goodput_kBps"] > 1.6 * single["goodput_kBps"]
    # The complexity is real too: with unequal paths the receiver must
    # resequence, and the gain shrinks -- the paper's trade-off.
    assert unequal["resequenced"] > 0
    assert unequal["goodput_kBps"] < equal["goodput_kBps"]


run = make_run("e15_downward_mux", run_experiment, render, check)


if __name__ == "__main__":
    raise SystemExit(bench_main(run))
