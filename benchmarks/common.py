"""Shared machinery for the experiment benches.

Every bench builds small simulated systems, runs a workload, and renders
the series its paper claim predicts as a table.  Tables are printed (run
pytest with ``-s`` to see them) and appended to
``benchmarks/results/<experiment>.txt`` so EXPERIMENTS.md can cite them.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import time
from typing import Any, Callable, Dict, Optional

from repro.core.params import DelayBound, DelayBoundType, RmsParams
from repro.dash.system import DashSystem
from repro.obs.export import flight_recorder, write_metrics_json
from repro.obs.report import Table
from repro.subtransport.config import StConfig

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

__all__ = [
    "Table",
    "bench_main",
    "best_effort_params",
    "build_lan",
    "build_wan",
    "make_run",
    "open_st_rms",
    "report",
]


def report(
    experiment: str,
    *tables: Table,
    extra: Optional[Dict[str, Any]] = None,
    obs: Optional[Any] = None,
    echo: bool = True,
    out_dir: Optional[str] = None,
) -> str:
    """Persist bench output under benchmarks/results/ (or ``out_dir``).

    Writes ``<experiment>.txt`` (the rendered tables, plus the flight
    recorder when an enabled observability facade is passed) and
    ``<experiment>.metrics.json`` (the machine-readable snapshot:
    tables, registry metrics, span summary, and ``extra`` metadata).
    """
    parts = [str(table) for table in tables]
    if obs is not None and obs.enabled:
        parts.append(flight_recorder(obs))
    text = "\n\n".join(parts)
    if echo:
        print("\n" + text)
    results_dir = out_dir or RESULTS_DIR
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{experiment}.txt"), "w") as handle:
        handle.write(text + "\n")
    write_metrics_json(
        os.path.join(results_dir, f"{experiment}.metrics.json"),
        obs=obs,
        experiment=experiment,
        tables=tables,
        extra=extra,
    )
    return text


def make_run(
    experiment: str,
    run_experiment: Callable[..., Any],
    render: Callable[[Any], Any],
) -> Callable[..., Dict[str, Any]]:
    """Build the uniform ``run(seed, out_dir) -> dict`` bench entry point.

    Every ``bench_e*`` module exposes one of these: it runs the
    experiment, persists the rendered tables plus the machine-readable
    ``.metrics.json`` snapshot (to ``out_dir`` or the default results
    directory), and returns a JSON-ready summary dict.  ``seed`` is
    forwarded to ``run_experiment`` only when its signature takes one;
    passing ``seed=None`` always reproduces the committed default run.
    """

    def run(
        seed: Optional[int] = None,
        out_dir: Optional[str] = None,
        echo: bool = False,
    ) -> Dict[str, Any]:
        kwargs = {}
        if seed is not None:
            if "seed" in inspect.signature(run_experiment).parameters:
                kwargs["seed"] = seed
        started = time.time()
        result = run_experiment(**kwargs)
        rendered = render(result)
        elapsed = time.time() - started
        tables = rendered if isinstance(rendered, tuple) else (rendered,)
        obs = result.get("obs") if isinstance(result, dict) else None
        extra: Dict[str, Any] = {"elapsed_s": elapsed}
        if seed is not None:
            extra["seed"] = seed
        report(experiment, *tables, extra=extra, obs=obs, echo=echo,
               out_dir=out_dir)
        return {
            "experiment": experiment,
            "seed": seed,
            "elapsed_s": elapsed,
            "tables": [table.to_payload() for table in tables],
        }

    run.experiment = experiment
    return run


def bench_main(run: Callable[..., Dict[str, Any]], argv=None) -> int:
    """Shared CLI for the bench modules: ``python bench_eNN_x.py [...]``."""
    parser = argparse.ArgumentParser(
        description=f"Run the {getattr(run, 'experiment', 'bench')} experiment"
    )
    parser.add_argument("--seed", type=int, default=None,
                        help="override the experiment's baked-in seeds")
    parser.add_argument("--out-dir", default=None,
                        help="write results here instead of benchmarks/results/")
    parser.add_argument("--json", action="store_true",
                        help="print the summary dict as JSON instead of tables")
    args = parser.parse_args(argv)
    summary = run(seed=args.seed, out_dir=args.out_dir, echo=not args.json)
    if args.json:
        print(json.dumps(summary, indent=2, default=str))
    return 0


def build_lan(
    seed: int = 0,
    st_config: Optional[StConfig] = None,
    nodes=("a", "b"),
    cpu_policy: str = "edf",
    observe: bool = False,
    **net_kwargs,
) -> DashSystem:
    """A DASH system on one Ethernet segment."""
    defaults = dict(trusted=True)
    defaults.update(net_kwargs)
    system = DashSystem(
        seed=seed, st_config=st_config, cpu_policy=cpu_policy, observe=observe,
    )
    system.add_ethernet(**defaults)
    for name in nodes:
        system.add_node(name)
    return system


def build_wan(
    seed: int = 0,
    propagation: float = 0.01,
    trunk_bandwidth: float = 1.25e5,
    access_bandwidth: float = 2.5e5,
    trunk_buffer: int = 16 * 1024,
    senders=("a",),
    receiver: str = "z",
    st_config: Optional[StConfig] = None,
    observe: bool = False,
    **net_kwargs,
) -> DashSystem:
    """A DASH system on a dumbbell internetwork.

    ``senders`` each get an access link to gateway g1; the g1-g2 trunk is
    the shared bottleneck; ``receiver`` hangs off g2.
    """
    defaults = dict(trusted=True)
    defaults.update(net_kwargs)
    system = DashSystem(seed=seed, st_config=st_config, observe=observe)
    internet = system.add_internet(**defaults)
    internet.add_router("g1")
    internet.add_router("g2")
    for name in senders:
        system.add_node(name)
        internet.add_link(name, "g1", bandwidth=access_bandwidth,
                          propagation_delay=0.001)
    system.add_node(receiver)
    internet.add_link("g1", "g2", bandwidth=trunk_bandwidth,
                      propagation_delay=propagation,
                      buffer_bytes=trunk_buffer)
    internet.add_link("g2", receiver, bandwidth=access_bandwidth,
                      propagation_delay=0.001)
    return system


def best_effort_params(
    capacity: int = 32 * 1024,
    mms: int = 4000,
    delay: float = 0.1,
) -> RmsParams:
    return RmsParams(
        capacity=capacity,
        max_message_size=mms,
        delay_bound=DelayBound(delay, 1e-5),
        delay_bound_type=DelayBoundType.BEST_EFFORT,
    )


def open_st_rms(system: DashSystem, sender: str, receiver: str,
                params: Optional[RmsParams] = None, port: str = "bench",
                fast_ack: bool = False, extra_time: float = 2.0):
    """Create an ST RMS between two nodes and wait for it."""
    params = params or best_effort_params()
    session = system.connect(
        sender, receiver, desired=params, acceptable=params,
        port=port, fast_ack=fast_ack,
    )
    system.run(until=system.now + extra_time)
    return session.established.result()
