"""E21 -- secured-channel throughput: the vectorized transform engine.

E19/E20 made the *plain* datapath cheap, which left software security as
the dominant per-byte cost on untrusted media: the scalar XTEA keystream
runs the 32-round loop once per 8-byte block, and the MAC walks the
message again.  This bench measures the provider engine built to close
that gap (``repro.security.providers``): the ``"xtea-ct"`` provider
generates keystream in wide batches -- many counter blocks packed into
64-bit lanes of one big int, the round loop run once per batch -- XORs
it in one big-int operation, and computes the polynomial MAC in a single
pass over a memoryview, sixteen blocks per step in eight 128-bit lanes.
Both ends of an in-process stream hold one provider object, so ``seal``
leaves the keystream it generated for the matching ``open`` (the
in-flight map): the "open hits" column counts how many ``open`` calls
were served from it and how many had to regenerate.

The headline workload is bulk transfer over an *untrusted* Ethernet
with privacy and authentication requested, so every fragment is sealed
and tagged in software -- the configuration section 3.1 says must still
be cheap because only channels that *ask* for security pay for it.  The
claim, asserted by ``test_e21_securedpath``:

* >= 3x secured bytes/sec over the byte-identical scalar oracle
  (``StConfig(security_provider="xtea-ct-ref")``, the in-process
  ablation), with ciphertext and MAC tags equal byte-for-byte;
* the ``"null"`` provider row bounds what the crypto costs end-to-end.

A piggybacked small-message mix is reported (not gated: small messages
amortize little per-call overhead) plus raw transform microbenches;
``benchmarks/check_baselines.py`` holds the MAC microbench to >= 4x the
scalar loop.  Results go to the repo-root ``BENCH_e21.json`` for the CI
perf-smoke job; see DESIGN.md section 8.5 for the schema.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict

from common import Table, bench_main, build_lan, make_run, open_st_rms, report
from repro.core.params import DelayBound, DelayBoundType, RmsParams
from repro.security.providers import resolve_provider
from repro.subtransport.config import StConfig

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_JSON_SCHEMA = "dash-bench-e21/1"

SEED = 21
#: Bulk transfer: client messages far above the Ethernet MTU, so each
#: fragments into ~6 frames and the per-byte transforms dominate.
BULK_PAYLOAD = 8000
BULK_BURSTS = 30
BULK_BURST_WIDTH = 4
#: The E19 small-message mix on the same untrusted medium: piggybacked
#: 100-byte messages, where per-call overhead rivals per-byte cost.
SMALL_PAYLOAD = 100
SMALL_BURSTS = 150
SMALL_BURST_WIDTH = 40

#: Transform microbench buffer (one keystream/MAC call per iteration).
MICRO_BYTES = 1 << 16
KEY = bytes(range(16))

PROVIDERS = ("xtea-ct", "xtea-ct-ref", "null")


def _run_workload(
    seed: int,
    provider: str,
    payload_bytes: int,
    bursts: int,
    burst_width: int,
) -> Dict[str, float]:
    """Push secured traffic a->b over an untrusted LAN; return rates."""
    system = build_lan(
        seed=seed,
        st_config=StConfig(security_provider=provider),
        trusted=False,
    )
    params = RmsParams(
        privacy=True,
        authentication=True,
        capacity=64 * 1024,
        max_message_size=BULK_PAYLOAD,
        delay_bound=DelayBound(0.1, 1e-5),
        delay_bound_type=DelayBoundType.BEST_EFFORT,
    )
    rms = open_st_rms(system, "a", "b", params=params, port="e21")
    assert rms.plan.encrypt and rms.plan.mac, "medium must force software security"
    delivered = [0, 0]

    def on_message(message):
        delivered[0] += 1
        delivered[1] += len(message.payload)

    rms.port.set_handler(on_message)
    payload = b"\xe2" * payload_bytes
    send = rms.send
    run = system.run

    # Warm-up burst: pools, caches, and the provider's lane constants.
    for _ in range(burst_width):
        send(payload)
    run(until=system.now + 0.1)

    total = bursts * burst_width
    delivered[0] = delivered[1] = 0
    started = time.perf_counter()
    for _ in range(bursts):
        for _ in range(burst_width):
            send(payload)
        run(until=system.now + 0.1)
    run(until=system.now + 1.0)
    elapsed = time.perf_counter() - started
    assert delivered[0] == total, (provider, delivered[0], total)
    engine = rms.security.provider
    return {
        # Only the wide engine keeps the map and its two counters.
        "keystream_hits": getattr(engine, "keystream_hits", None),
        "keystream_misses": getattr(engine, "keystream_misses", None),
        "bytes_per_sec": delivered[1] / max(elapsed, 1e-9),
        "msgs_per_sec": total / max(elapsed, 1e-9),
        "messages": total,
        "payload_bytes": payload_bytes,
    }


def _microbench(provider_name: str) -> Dict[str, float]:
    """Raw transform rates, out of the simulator: one provider instance,
    repeated keystream/MAC calls over a 64 KiB buffer."""
    provider = resolve_provider(provider_name)(KEY)
    buffer = b"\xab" * MICRO_BYTES

    def rate(call) -> float:
        call(0)  # warm caches outside the timed region
        iterations = 0
        started = time.perf_counter()
        while True:
            call(iterations + 1)
            iterations += 1
            elapsed = time.perf_counter() - started
            if elapsed >= 0.15 and iterations >= 3:
                return iterations * MICRO_BYTES / elapsed / 1e6

    return {
        "keystream_mb_per_sec": rate(lambda n: provider.keystream(n, MICRO_BYTES)),
        "mac_mb_per_sec": rate(lambda n: provider.mac(buffer, b"ctx")),
    }


def run_experiment(seed: int = SEED):
    bulk = {
        name: _run_workload(seed, name, BULK_PAYLOAD, BULK_BURSTS, BULK_BURST_WIDTH)
        for name in PROVIDERS
    }
    small = {
        name: _run_workload(
            seed, name, SMALL_PAYLOAD, SMALL_BURSTS, SMALL_BURST_WIDTH
        )
        for name in ("xtea-ct", "xtea-ct-ref")
    }
    micro = {name: _microbench(name) for name in ("xtea-ct", "xtea-ct-ref")}

    fast = bulk["xtea-ct"]
    scalar = bulk["xtea-ct-ref"]
    result = {
        "bulk": bulk,
        "small": small,
        "micro": micro,
        "secured_bytes_per_sec": fast["bytes_per_sec"],
        "scalar_bytes_per_sec": scalar["bytes_per_sec"],
        "speedup_vs_scalar": fast["bytes_per_sec"] / max(scalar["bytes_per_sec"], 1e-9),
        "null_bytes_per_sec": bulk["null"]["bytes_per_sec"],
        "small_mix_speedup": (
            small["xtea-ct"]["msgs_per_sec"]
            / max(small["xtea-ct-ref"]["msgs_per_sec"], 1e-9)
        ),
        "keystream_speedup": (
            micro["xtea-ct"]["keystream_mb_per_sec"]
            / max(micro["xtea-ct-ref"]["keystream_mb_per_sec"], 1e-9)
        ),
        "mac_speedup": (
            micro["xtea-ct"]["mac_mb_per_sec"]
            / max(micro["xtea-ct-ref"]["mac_mb_per_sec"], 1e-9)
        ),
        "seed": seed,
    }
    _write_bench_json(result)
    return result


def _write_bench_json(result) -> None:
    payload = {
        "schema": BENCH_JSON_SCHEMA,
        "secured_bytes_per_sec": round(result["secured_bytes_per_sec"], 1),
        "scalar_bytes_per_sec": round(result["scalar_bytes_per_sec"], 1),
        "speedup_vs_scalar": round(result["speedup_vs_scalar"], 3),
        "null_bytes_per_sec": round(result["null_bytes_per_sec"], 1),
        "small_mix_speedup": round(result["small_mix_speedup"], 3),
        "keystream_mb_per_sec": round(
            result["micro"]["xtea-ct"]["keystream_mb_per_sec"], 2
        ),
        "keystream_speedup": round(result["keystream_speedup"], 3),
        "mac_speedup": round(result["mac_speedup"], 3),
        "seed": result["seed"],
    }
    with open(os.path.join(REPO_ROOT, "BENCH_e21.json"), "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def render(result) -> Table:
    table = Table(
        "E21: secured-channel throughput by provider (untrusted LAN)",
        ["workload", "provider", "msgs", "bytes/s", "msg/s", "vs scalar",
         "open hits"],
    )

    def open_hits(row) -> str:
        hits = row["keystream_hits"]
        if hits is None:
            return ""
        return f"{hits}/{hits + row['keystream_misses']}"

    scalar_bulk = result["bulk"]["xtea-ct-ref"]["bytes_per_sec"]
    for name in PROVIDERS:
        row = result["bulk"][name]
        table.add_row(
            "bulk 8000B", name, row["messages"],
            round(row["bytes_per_sec"]),
            round(row["msgs_per_sec"]),
            round(row["bytes_per_sec"] / max(scalar_bulk, 1e-9), 2),
            open_hits(row),
        )
    for name in ("xtea-ct", "xtea-ct-ref"):
        row = result["small"][name]
        table.add_row(
            "small 100B mix", name, row["messages"],
            round(row["bytes_per_sec"]),
            round(row["msgs_per_sec"]),
            "",
            open_hits(row),
        )
    micro_table = Table(
        "E21: raw transform rates (64 KiB calls)",
        ["provider", "keystream MB/s", "MAC MB/s"],
    )
    for name in ("xtea-ct", "xtea-ct-ref"):
        micro = result["micro"][name]
        micro_table.add_row(
            name,
            round(micro["keystream_mb_per_sec"], 1),
            round(micro["mac_mb_per_sec"], 1),
        )
    return table, micro_table


def test_e21_securedpath(run_once):
    result = run_once(run_experiment)
    report("e21_securedpath", *render(result))
    # The tentpole claim: >= 3x secured end-to-end throughput with the
    # vectorized engine over the byte-identical scalar oracle.
    assert result["speedup_vs_scalar"] >= 3.0
    # Crypto elided must not be slower than crypto present.
    assert result["null_bytes_per_sec"] >= result["secured_bytes_per_sec"] * 0.9
    # The raw keystream engine is where the ratio comes from.
    assert result["keystream_speedup"] >= 3.0
    # Small piggybacked messages must not regress under the engine.
    assert result["small_mix_speedup"] >= 0.9


run = make_run("e21_securedpath", run_experiment, render)


if __name__ == "__main__":
    raise SystemExit(bench_main(run))
