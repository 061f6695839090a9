"""Self-tests of the benchmark harness.

Run with ``python -m pytest benchmarks/e2e -q``; tier-1 does not collect
this directory.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))

from e2e import compare, harness, metrics, trace  # noqa: E402
from e2e.workloads import WORKLOADS, Tally  # noqa: E402

RUN = os.path.join(HERE, "run.py")
NAME = re.compile(r"[A-Za-z0-9_.-]+")


# -- self-time arithmetic ------------------------------------------------------


def test_self_time_of_nested_spans():
    #  0: [0, 100)   1: [10, 40)   2: [20, 30)   3: [50, 90)
    self_ns, children = trace.self_times([0, 10, 20, 50], [100, 40, 30, 90])
    assert self_ns == [100 - 30 - 40, 30 - 10, 10, 40]
    assert children == [2, 1, 0, 0]
    assert sum(self_ns) == 100  # self times partition the root


def test_loop_crossing_span_is_charged_to_the_loop_not_its_scheduler():
    tracer = trace.Tracer()
    driver = tracer.name_id("timed_region", "driver")
    send = tracer.name_id("StRms.send", "subtransport.st_send")
    run = tracer.name_id("EventLoop.run", "sim.events")
    done = tracer.name_id("SubtransportLayer._send_stage_done_fast",
                          "subtransport.st_send")
    # root [0,1000); send [100,200) schedules a callback that runs at
    # [500,650) inside EventLoop.run [400,900): its parent is the send
    # span, but the time it covers comes out of run's self time.
    for name, start, end, parent in (
        (driver, 0, 1000, -1), (send, 100, 200, 0), (run, 400, 900, 0),
        (done, 500, 650, 1),
    ):
        tracer.name_ids.append(name)
        tracer.starts.append(start)
        tracer.ends.append(end)
        tracer.parents.append(parent)
        tracer.traces.append(0)
    report = trace.layer_report(tracer)
    layers = report["layers"]
    assert layers["sim.events"]["self_ns"] == 500 - 150
    assert layers["subtransport.st_send"]["self_ns"] == 100 + 150
    assert layers["driver"]["self_ns"] == 1000 - 100 - 500
    assert layers["driver"]["calls"] == 0
    assert sum(cell["self_ns"] for cell in layers.values()) == report["wall_ns"]
    spans = list(tracer.spans())
    assert spans[3].parent == 1 and spans[3].layer == "subtransport.st_send"


def test_span_overhead_moves_out_of_the_enclosing_span():
    tracer = trace.Tracer()
    root = tracer.name_id("timed_region", "driver")
    leaf = tracer.name_id("Link.transmit", "netsim.link")
    for name, start, end in ((root, 0, 1000), (leaf, 100, 300), (leaf, 400, 600)):
        tracer.name_ids.append(name)
        tracer.starts.append(start)
        tracer.ends.append(end)
        tracer.parents.append(-1 if name == root else 0)
        tracer.traces.append(0)
    report = trace.layer_report(tracer, span_overhead_ns=50, scale=2.0,
                                root_excluded_ns=100)
    assert report["layers"]["driver"]["self_ns"] == (600 - 100) * 2 - 2 * 50
    assert report["layers"]["netsim.link"]["self_ns"] == 400 * 2
    assert report["trace_ns"] == 100
    assert report["wall_ns"] == 900 * 2


def test_layer_map():
    assert trace.layer_of("repro.sim.events", "EventLoop.run") == "sim.events"
    assert trace.layer_of("repro.sim.events", "TimerGroup._fire") == "sim.timers"
    assert trace.layer_of(
        "repro.subtransport.st", "SubtransportLayer._data_arrived"
    ) == "subtransport.st_recv"
    assert trace.layer_of(
        "repro.subtransport.st", "SubtransportLayer._send_stage_done_fast"
    ) == "subtransport.st_send"
    assert trace.layer_of("repro.netsim.routing", "x") == "netsim.routing"
    assert trace.layer_of("repro.netsim.topology", "Link.transmit") == "netsim.link"
    assert trace.layer_of("repro.apps.media", "x") == trace.UNATTRIBUTED
    assert trace.layer_of("e2e.workloads", "x") == "driver"


def test_install_records_spans_and_uninstall_restores():
    from repro.sim.events import EventLoop

    original = EventLoop.run
    tracer = trace.Tracer()
    tracer.install()
    seen = []
    try:
        assert EventLoop.run is not original
        loop = EventLoop()

        def first():
            loop.call_after(1.0, seen.append, "fired")

        tracer.start()
        loop.call_soon(first)
        loop.run(until=2.0)
        tracer.stop()
    finally:
        tracer.uninstall()
    assert EventLoop.run is original
    assert seen == ["fired"]
    by_name = {span.name.rsplit(".", 1)[-1]: span for span in tracer.spans()}
    scheduler, callback, run = by_name["first"], by_name["append"], by_name["run"]
    # The callback ran inside run(), later than the span that caused it.
    assert callback.parent == scheduler.id
    assert scheduler.end <= callback.start
    assert run.start <= callback.start and callback.end <= run.end
    assert scheduler.layer == callback.layer == "driver"
    assert by_name["call_after"].layer == "sim.events"


# -- statistics ------------------------------------------------------------------


@pytest.mark.parametrize("count, expected", [
    (5, None), (19, None), (20, 50), (99, 50), (100, 90), (199, 90),
    (200, 95), (999, 95), (1000, 99), (9999, 99), (10000, 99.9),
])
def test_highest_percentile_with_ten_samples_beyond(count, expected):
    assert metrics.supported_percentile(count) == expected


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert metrics.percentile(values, 50) == 50
    assert metrics.percentile(values, 95) == 95
    assert metrics.percentile(values, 100) == 100
    assert metrics.percentile([7.0], 95) == 7.0


# -- rates ------------------------------------------------------------------------


class _Spinning:
    """A stand-in workload: a round does a fixed loop of arithmetic (some
    0.2 ms) and delivers ten messages; every ``stall_every``-th round
    does sixty rounds' worth first."""

    prefix_rounds = quick_prefix_rounds = 20
    stall_every = 0

    def __init__(self, seed):
        self.tally = Tally()
        self.loop = types.SimpleNamespace(now=0.0)
        self.rounds = 0

    def build(self):
        pass

    def warmup(self):
        pass

    def start_measuring(self):
        pass

    def round(self):
        self.rounds += 1
        work = 5000
        if self.stall_every and not self.rounds % self.stall_every:
            work *= 61
        total = 0
        for i in range(work):
            total += i * i
        tally = self.tally
        tally.attempted += 10
        tally.delivered += 10
        tally.payload_bytes += 1000
        tally.delays.extend([0.001] * 10)
        self.loop.now += 0.01

    def drain(self):
        pass

    def leftover_errors(self):
        return []


class _Stalling(_Spinning):
    stall_every = 200


def test_a_periodic_stall_lowers_the_rates():
    # Sixty rounds' worth of work in every 200th round: 23% of the time,
    # in one 20 ms block of three and one round of two hundred.  A median
    # over blocks or rounds does not see it; the rates must.
    plain = harness.end_to_end(_Spinning, 1, 1.5, 3)["values"]
    stalled = harness.end_to_end(_Stalling, 1, 1.5, 3)["values"]
    assert 0.6 < stalled["msgs_per_s"] / plain["msgs_per_s"] < 0.9
    assert 0.6 < stalled["payload_mb_per_s"] / plain["payload_mb_per_s"] < 0.9
    assert stalled["round_ms_p50"] / plain["round_ms_p50"] < 1.15


# -- compare.py --------------------------------------------------------------------


@pytest.mark.parametrize("base, value, better, bound, spread, expected", [
    (100, 100, "higher", 0.10, 0.02, "same"),
    (100, 91, "higher", 0.10, 0.02, "same"),
    (100, 89, "higher", 0.10, 0.02, "worse"),
    (100, 111, "higher", 0.10, 0.02, "better"),
    (100, 111, "lower", 0.10, 0.02, "worse"),
    (100, 89, "lower", 0.10, 0.02, "better"),
    # A spread wider than the bound cannot resolve a small move ...
    (100, 95, "higher", 0.10, 0.15, "unresolved"),
    (100, 88, "higher", 0.10, 0.15, "unresolved"),
    # ... but a move larger than the spread is still a verdict.
    (100, 80, "higher", 0.10, 0.15, "worse"),
    (100, 125, "higher", 0.10, 0.15, "better"),
    (1.0, 1.0, "higher", 0.001, 0.0, "same"),
    (1.0, 0.99, "higher", 0.001, 0.0, "worse"),
])
def test_verdict(base, value, better, bound, spread, expected):
    assert compare.verdict(base, value, better, bound, spread) == expected


@pytest.mark.parametrize("base, value, spread, expected", [
    # A 3 ms set-up that doubles, or jitters widely, is within 0.05 s ...
    (0.003, 0.006, 0.02, "same"),
    (0.003, 0.004, 0.40, "same"),
    # ... a 0.4 s one is held to the share.
    (0.40, 0.46, 0.02, "same"),
    (0.40, 0.52, 0.02, "worse"),
    (0.40, 0.47, 0.30, "unresolved"),
])
def test_verdict_with_an_absolute_floor(base, value, spread, expected):
    floor = compare.ABSOLUTE_FLOOR["setup_s"]
    assert compare.verdict(base, value, "lower", 0.25, spread,
                           floor) == expected


def _write_run(directory, workload, values, spread=0.01, digest="00000001"):
    os.makedirs(directory, exist_ok=True)
    record = {
        "workload": workload, "seed": 1, "sim_digest": digest,
        "metrics": {
            name: {"value": values.get(name, 1.0), "unit": unit}
            for name, unit, _better, _bound in metrics.END_TO_END
        },
        "spreads": {name: spread for name, *_ in metrics.END_TO_END},
    }
    path = os.path.join(directory, workload + compare.SUFFIX)
    with open(path, "w") as handle:
        json.dump(record, handle)


def test_compare_directories(tmp_path, monkeypatch):
    manifest = tmp_path / "BENCHMARK.json"
    manifest.write_text(json.dumps(metrics.manifest(WORKLOADS.values())))
    monkeypatch.setattr(compare, "MANIFEST", str(manifest))
    base, change = str(tmp_path / "a"), str(tmp_path / "b")
    _write_run(base, "lan_small_burst", {"msgs_per_s": 30000.0})
    _write_run(change, "lan_small_burst", {"msgs_per_s": 21000.0},
               digest="00000002")
    rows, notes = compare.compare(base, change)
    verdicts = {row[1]: row[-1] for row in rows}
    assert verdicts["msgs_per_s"] == "worse"
    assert verdicts["setup_s"] == "same"
    assert any("sim_digest differs" in note for note in notes)
    assert compare.main([base, change]) == 1
    assert compare.main([base, base]) == 0
    # Several runs per side: medians, and quartile spreads.
    for run, value in enumerate([29000.0, 30000.0, 31000.0, 30500.0, 29500.0]):
        _write_run(os.path.join(base, f"run{run}"), "grid_static",
                   {"msgs_per_s": value})
        _write_run(os.path.join(change, f"run{run}"), "grid_static",
                   {"msgs_per_s": value * 1.5})
    rows, _ = compare.compare(base, change)
    row = next(r for r in rows if r[:2] == ("grid_static", "msgs_per_s"))
    assert row[2] == 30000.0 and row[3] == pytest.approx(1.5)
    assert 0 < row[5] < 0.10 and row[-1] == "better"


# -- the declared metrics --------------------------------------------------------


def test_manifest_matches_the_contract_file():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        pytest.skip("no BENCHMARK.json beside this checkout")
    with open(path) as handle:
        assert json.load(handle) == metrics.manifest(WORKLOADS.values())


def test_declared_names_are_well_formed_and_unique():
    declared = metrics.names(metrics.END_TO_END) + metrics.names(metrics.PER_LAYER)
    assert len(declared) == len(set(declared))
    for name in declared + list(WORKLOADS):
        assert NAME.fullmatch(name) and len(name) <= 64
    assert len(metrics.PER_LAYER) <= 128
    assert ("setup_s", "s", "lower") in [e[:3] for e in metrics.END_TO_END]
    assert all(0 < bound <= 0.25 for *_, bound in metrics.END_TO_END)
    assert all(len(cls.why) <= 200 for cls in WORKLOADS.values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("traced", [0, 1])
def test_quick_smoke_emits_every_declared_metric(workload, traced):
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--quick",
         "--trace", str(traced), "--seed", "3"],
        capture_output=True, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = metrics.PER_LAYER if traced else [
        entry[:3] for entry in metrics.END_TO_END
    ]
    assert list(result["metrics"]) == [name for name, *_ in declared]
    for name, unit, _better in declared:
        cell = result["metrics"][name]
        assert NAME.fullmatch(name)
        assert cell["unit"] == unit
        assert metrics.finite(cell["value"]), name
        assert cell["value"] != metrics.MISSING, f"{name}: counter is gone"
    if traced:
        if "secured" not in workload:
            assert result["metrics"]["security.calls_per_msg"]["value"] == 0
        assert result["metrics"]["sim.timers.live_after_close"]["value"] == 0
    else:
        assert all(cell["value"] != 0 for cell in result["metrics"].values())
    assert elapsed < 5.0, f"{workload} quick run took {elapsed:.1f} s"


def test_a_failed_check_exits_non_zero(tmp_path):
    # A workload that loses a message must not pass.
    script = tmp_path / "lossy.py"
    script.write_text(
        "import sys\n"
        f"sys.argv = ['run.py', '--workload', 'lan_small_burst', '--quick']\n"
        f"sys.path.insert(0, {HERE!r})\n"
        "import run\n"
        "run.bootstrap()\n"
        "from e2e import workloads\n"
        "original = workloads.check_delivery\n"
        "def lossy(stream, tally, payload, now):\n"
        "    if stream.expected == 100:\n"
        "        stream.expected = 101\n"
        "    original(stream, tally, payload, now)\n"
        "workloads.check_delivery = lossy\n"
        "sys.exit(run.run_one(run.parse_args()))\n"
    )
    done = subprocess.run([sys.executable, str(script)], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 1
    assert "FAILED" in done.stdout
    assert json.loads(done.stdout.strip().splitlines()[-1])["correct"] is False


# -- source lint -------------------------------------------------------------------


def _sources():
    for name in sorted(os.listdir(HERE)):
        if name.endswith(".py") and name != os.path.basename(__file__):
            with open(os.path.join(HERE, name)) as handle:
                yield name, handle.read()


def test_only_public_attributes_of_the_stack_are_touched():
    # ``x._name`` is allowed on the benchmark's own objects only.
    private = re.compile(r"\b(\w+)\._(?!_)\w+")
    for name, text in _sources():
        for match in private.finditer(text):
            assert match.group(1) == "self", f"{name}: {match.group(0)}"


def test_no_import_from_benchmarks_common():
    pattern = re.compile(r"^\s*(?:from|import)\s+(?:benchmarks\.)?common\b",
                         re.MULTILINE)
    for name, text in _sources():
        assert not pattern.search(text), name


def test_no_datapath_knob_is_named():
    knobs = ["batch" + "_dispatch", "link" + "_batching", "coalesced" + "_timers",
             "message" + "_fastpath", "route" + "_engine", "security" + "_provider"]
    for name, text in _sources():
        for knob in knobs:
            assert knob not in text, f"{name} names {knob}"
