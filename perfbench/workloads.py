"""One benchmark run of one workload, in a fresh process.

``run.py`` starts this file as a child process with a wall-time bound;
it can also be run directly with the same arguments::

    python3 perfbench/workloads.py --workload macaque512_1rank --seed 3 \
        --seconds 12 --trace 0

It prints a measurement record line and, last, the result line
``{"correct", "attempted", "failed", "metrics"}``.  See README.md for
the workloads, the metrics and how each is measured.

Keep this module free of import-time work: the pool workload spawns
workers, and spawned workers re-import the main script.
"""

from __future__ import annotations

import argparse
import functools
import gc
import multiprocessing
import hashlib
import json
import os
import resource
import signal
import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCES = BENCH_DIR / "references.json"

#: Ticks run before timing: the macaque models are silent until about
#: tick 60 and their firing settles after about tick 150.
WARMUP_TICKS = 200
#: Ticks per timed rep; every rep restores the warm checkpoint first, so
#: each rep simulates the same steady window and must match one reference.
WINDOW_TICKS = 50
#: Inputs cycle with this period in ``--seed`` so that every seed has a
#: recorded reference (see record_references.py).
INPUT_PERIOD = 16
#: A steady window firing below this rate is a silent network, not a
#: measurement (the macaque models fire 5.5-7.6 Hz once settled).
FIRING_FLOOR_HZ = 2.0
#: Wall-time bound of one operation (set-up, warm-up, one rep).
OP_LIMIT_S = 60.0
#: Tick length of the simulated clock.
TICK_S = 1e-3


class OpTimeout(Exception):
    """An operation ran past :data:`OP_LIMIT_S`."""


class SilentNetworkError(RuntimeError):
    """The steady window fired below :data:`FIRING_FLOOR_HZ`."""


@contextmanager
def bounded(limit_s: float):
    """Raise :class:`OpTimeout` in the block once ``limit_s`` has passed."""

    def on_alarm(signum, frame):
        raise OpTimeout(f"operation exceeded {limit_s:.0f} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# -- host conditions ------------------------------------------------------


class HostSpeed:
    """A fixed calibration workload, timed next to every measurement.

    On a shared host the same code runs up to twice as slow for
    stretches of seconds; CPU time inflates with wall time, so the
    slowdown is the host's, not the program's.  The probe, a NumPy
    scatter-add over a fixed random input, runs before each set-up and
    between reps, and each timing is scaled to reference host speed by
    :data:`REF_MS` over the probe's current time (the mean of the probes
    around a rep).  The probe's code never changes with the program, so
    a program change moves the scaled times fully while host phases
    largely cancel.  Raw times and probe times stay in the measurement
    record.
    """

    #: Probe time at reference host speed: its median on a quiet
    #: 2-core host, recorded once and then fixed.
    REF_MS = 2.4

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(12345)
        self._np = np
        self._idx = rng.integers(0, 1 << 16, size=1 << 20)
        self._vals = rng.integers(-4, 5, size=1 << 20).astype(np.int32)

    def _once_ms(self) -> float:
        acc = self._np.zeros(1 << 16, dtype=self._np.int32)
        t0 = time.perf_counter()
        self._np.add.at(acc, self._idx, self._vals)
        int((acc > 2).sum())
        return (time.perf_counter() - t0) * 1e3

    def probe(self) -> float:
        """The probe's time now, in ms: the median of five timings."""
        return statistics.median(self._once_ms() for _ in range(5))

    def factor(self, probe_ms: float) -> float:
        """Scale from the host speed ``probe_ms`` shows to reference speed."""
        return self.REF_MS / probe_ms


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies from the aggregate line of /proc/stat."""
    with open("/proc/stat") as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    steal = fields[7] if len(fields) > 7 else 0
    return steal, sum(fields[:8])


def vm_hwm_mib(pid: int | str = "self") -> float:
    """Resident-set high-water mark of a process, in MiB."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    if pid == "self":
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return 0.0


def reset_hwm(pid: int | str = "self") -> bool:
    """Reset a process's ``VmHWM`` to its resident set now (Linux >= 4.0).

    Peak RSS is measured over the timed reps only: the model build's
    transient peak differs by up to 25 MiB between input models, and
    set-up is timed by ``setup_s``.
    """
    try:
        with open(f"/proc/{pid}/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        return False
    return True


def reset_hwm_all() -> bool:
    """Reset ``VmHWM`` of this process and of each live child (pool workers)."""
    ok = reset_hwm()
    for child in multiprocessing.active_children():
        ok = reset_hwm(child.pid) and ok
    return ok


def assert_unmetered() -> None:
    """Timed reps must run with tracemalloc off and no bench meter patched.

    ``benchmarks/conftest.py`` starts tracemalloc and wraps
    ``CompassBase.__init__``/``run``; neither may be live here.
    """
    from repro.core.simulator import CompassBase

    if tracemalloc.is_tracing():
        raise RuntimeError("tracemalloc is live during a timed rep")
    for name in ("__init__", "run"):
        fn = CompassBase.__dict__[name]
        if fn.__qualname__ != f"CompassBase.{name}":
            raise RuntimeError(f"CompassBase.{name} is wrapped by a meter")


def sha_ints(values) -> str:
    return hashlib.sha256(json.dumps([int(v) for v in values]).encode()).hexdigest()


def load_references() -> dict:
    refs = json.loads(REFERENCES.read_text())
    if (refs["warmup_ticks"], refs["window_ticks"], refs["input_period"]) != (
        WARMUP_TICKS,
        WINDOW_TICKS,
        INPUT_PERIOD,
    ):
        raise RuntimeError(
            "references.json was recorded with other warm-up/window/period "
            "settings; run perfbench/record_references.py"
        )
    return refs


class Tally:
    """Attempted and failed operations of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.errors.append(what)

    def record(self, ok: bool, what: str) -> None:
        self.add(1, 0 if ok else 1, what)


# -- macaque workloads ----------------------------------------------------


@dataclass(frozen=True)
class MacaqueWorkload:
    name: str
    cores: int
    backend: str
    ranks: int
    workers: int = 1
    setup_reps: int = 3

    def make_adapter(self):
        from repro.exec import make_adapter

        if self.backend == "pool":
            return make_adapter("pool", workers=self.workers)
        return make_adapter(self.backend)

    def layout(self):
        from repro.exec import ExecLayout

        return ExecLayout(
            n_processes=self.ranks, record_spikes=True, workers=self.workers
        )


def _setup_macaque(wl: MacaqueWorkload, model_seed: int, tally: Tally, speed: HostSpeed):
    """Build and prepare ``setup_reps`` times; keep the last adapter.

    Returns the adapter, the network and (seconds, probe) per set-up.
    """
    from repro.cocomac.model import build_macaque_model

    times = []
    adapter = model = None
    for i in range(wl.setup_reps):
        if adapter is not None:
            adapter.teardown()
            adapter = model = None
            gc.collect()
        probe = speed.probe()
        with bounded(OP_LIMIT_S):
            t0 = time.perf_counter()
            model = build_macaque_model(total_cores=wl.cores, seed=model_seed)
            adapter = wl.make_adapter().prepare(model.compiled.network, wl.layout())
            times.append((time.perf_counter() - t0, probe))
        tally.record(True, f"setup {i}")
    return adapter, model.compiled.network, times


def run_macaque(wl: MacaqueWorkload, seed: int, seconds: float, trace: bool, speed: HostSpeed):
    """Set up, warm up, then time restored steady windows for ``seconds``."""
    from layers import LayerTracer

    k = seed % INPUT_PERIOD
    ref = load_references()["macaque"][str(wl.cores)][k]
    tally = Tally()
    tracer = LayerTracer()
    if trace:
        tracer.install()
    try:
        adapter, network, setup_times = _setup_macaque(wl, k, tally, speed)
    finally:
        tracer.remove()
    setup_layers = (dict(tracer.self_s), dict(tracer.calls))
    reps: list[dict] = []
    try:
        with bounded(OP_LIMIT_S):
            warm = [adapter.step().fired for _ in range(WARMUP_TICKS)]
        tally.record(sha_ints(warm) == ref["warm_fired_sha"], "warm-up fired counts")
        checkpoint = adapter.capture()
        hwm_reset = reset_hwm_all()
        t_start = time.perf_counter()
        min_reps = 4 if trace else 3
        probe = speed.probe()
        while len(reps) < min_reps or time.perf_counter() - t_start < seconds:
            traced = trace and len(reps) % 2 == 1
            rep = _macaque_rep(adapter, checkpoint, tracer if traced else None)
            after = speed.probe()
            rep["probe"] = (probe + after) / 2
            probe = after
            ok = (
                rep["digest"] == ref["window_digest"]
                and rep["fired"] == ref["window_fired"]
            )
            tally.record(ok, f"rep {len(reps)}: spike digest or fired counts differ")
            reps.append(rep)
        rss = vm_hwm_mib() + sum(
            vm_hwm_mib(p.pid) for p in multiprocessing.active_children()
        )
    except Exception as exc:  # a hang or a crash is a failed operation
        tally.record(False, f"{type(exc).__name__}: {exc}")
        rss = vm_hwm_mib()
        hwm_reset = False
    finally:
        tracer.remove()
        adapter.teardown()
    plain = [r for r in reps if r["tracer"] is None]
    if not plain or (trace and len(plain) == len(reps)):
        raise RuntimeError("too few timed reps completed: " + "; ".join(tally.errors))

    hz = sum(reps[0]["fired"]) / (WINDOW_TICKS * TICK_S) / network.n_neurons
    if hz < FIRING_FLOOR_HZ:
        raise SilentNetworkError(
            f"steady window fired at {hz:.3f} Hz < floor {FIRING_FLOOR_HZ} Hz; "
            "refusing to time a silent network"
        )
    record = {
        "model_seed": k,
        "warmup_ticks": WARMUP_TICKS,
        "window_ticks": WINDOW_TICKS,
        "firing_hz": hz,
        "hwm_reset": hwm_reset,
        "reps": len(plain),
        "rep_ms_per_tick": [r["tick_s"] / WINDOW_TICKS * 1e3 for r in plain],
        "rep_probe_ms": [r["probe"] for r in plain],
        "setup_s_samples": [t for t, _ in setup_times],
        "setup_probe_ms": [p for _, p in setup_times],
    }
    for r in reps:
        r["tick_s_ref"] = r["tick_s"] * speed.factor(r["probe"])
    if trace:
        return tally, _macaque_layers(wl, reps, setup_layers, tally, network, hz), record
    metrics = {
        "rtf": (statistics.median(r["tick_s_ref"] for r in plain) / (WINDOW_TICKS * TICK_S), "s/s"),
        "setup_s": (statistics.median(t * speed.factor(p) for t, p in setup_times), "s"),
        "peak_rss_mib": (rss, "MiB"),
        "jobs_per_s": (
            1.0 / statistics.median(r["job_s"] * speed.factor(r["probe"]) for r in plain),
            "1/s",
        ),
    }
    return tally, metrics, record




def _macaque_rep(adapter, checkpoint, tracer) -> dict:
    """Restore the warm checkpoint and time one steady window.

    ``tracer`` (a LayerTracer or None) is installed around the stepping
    only; restore and collect stay untraced.
    """
    from repro.core.simulator import SpikeRecorder
    from repro.resilience.report import spike_digest

    pool = getattr(adapter, "host_utilization", None)
    with bounded(OP_LIMIT_S):
        assert_unmetered()
        t_job = time.perf_counter()
        adapter.restore(checkpoint)
        adapter.recorder = SpikeRecorder()
        phases0 = _phases(adapter.metrics.host)
        pool0 = pool() if pool else None
        cpu0 = time.process_time()
        if tracer is not None:
            tracer.reset()
            tracer.install()
        t0 = time.perf_counter()
        ticks = [adapter.step() for _ in range(WINDOW_TICKS)]
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.remove()
        cpu1 = time.process_time()
        pool1 = pool() if pool else None
        adapter.collect()
        t_end = time.perf_counter()
        assert_unmetered()
    rep = {
        "tracer": None if tracer is None else (dict(tracer.self_s), dict(tracer.calls)),
        "tick_s": t1 - t0,
        "job_s": t_end - t_job,
        "parent_cpu_s": cpu1 - cpu0,
        "phases": [b - a for a, b in zip(phases0, _phases(adapter.metrics.host))],
        "fired": [tm.fired for tm in ticks],
        "work": _work(ticks),
        "digest": spike_digest(adapter.recorder),
    }
    if pool:
        rep["pool_cpu_s"] = pool1["cpu_s"] - pool0["cpu_s"]
        rep["pool_wall_s"] = pool1["wall_s"] - pool0["wall_s"]
    return rep


def _phases(host) -> tuple[float, float, float]:
    return (host.synapse, host.neuron, host.network)


def _work(ticks) -> dict[str, int]:
    """Exact work counts summed over a list of TickMetrics."""
    return {
        "work.fired": sum(tm.fired for tm in ticks),
        "work.active_axons": sum(tm.active_axons for tm in ticks),
        "work.neurons_evaluated": sum(tm.neurons_evaluated for tm in ticks),
        "work.messages": sum(tm.messages for tm in ticks),
        "work.bytes": sum(tm.bytes_sent for tm in ticks),
    }


# -- per-layer metrics ------------------------------------------------------

#: Every per-layer metric and its unit.  A metric whose layer does not run
#: in the benchmark process on a workload reads 0 there (see README.md).
PER_LAYER = {
    "arch.synapse_phase.ms": "ms",
    "arch.neuron_phase.ms": "ms",
    "arch.neuron_phase.ns_per_neuron": "ns",
    "arch.outgoing.ms": "ms",
    "arch.deliver.ms": "ms",
    "arch.deliver.calls": "count",
    "core.buffers.ms": "ms",
    "runtime.exchange.ms": "ms",
    "core.step.self_ms": "ms",
    "exec.prepare_s": "s",
    "exec.pool.host_utilization": "ratio",
    "exec.pool.parent_busy_frac": "ratio",
    "exec.pool.worker_route_ms": "ms",
    "exec.pool.worker_network_ms": "ms",
    "compiler.compile_s": "s",
    "serve.self_s": "s",
    "serve.sim_runs_per_batch": "ratio",
    "serve.sim_p99_latency_ms": "ms",
    "serve.sim_goodput_per_s": "1/s",
    "work.fired": "count",
    "work.active_axons": "count",
    "work.neurons_evaluated": "count",
    "work.messages": "count",
    "work.bytes": "B",
    "work.firing_hz": "Hz",
    "trace.overhead_frac": "ratio",
    "trace.coverage": "ratio",
    "failed_frac": "ratio",
}

#: Layers whose per-tick self time is reported as ``<layer>.ms``.
_TICK_LAYERS = (
    "arch.synapse_phase",
    "arch.neuron_phase",
    "arch.outgoing",
    "arch.deliver",
    "core.buffers",
    "runtime.exchange",
)


def _sum_layers(traced: list[tuple[dict, dict]]) -> tuple[dict, dict]:
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for rep_self, rep_calls in traced:
        for layer, s in rep_self.items():
            self_s[layer] = self_s.get(layer, 0.0) + s
        for layer, c in rep_calls.items():
            calls[layer] = calls.get(layer, 0) + c
    return self_s, calls


def _tick_layers(self_s: dict, calls: dict, n_neurons: int) -> dict[str, float]:
    """Per-tick self times of the step's layers; ticks = core.step calls."""
    ticks = calls["core.step"]
    out = {f"{layer}.ms": self_s.get(layer, 0.0) * 1e3 / ticks for layer in _TICK_LAYERS}
    out["core.step.self_ms"] = self_s["core.step"] * 1e3 / ticks
    out["arch.deliver.calls"] = calls.get("arch.deliver", 0) / ticks
    out["arch.neuron_phase.ns_per_neuron"] = (
        self_s.get("arch.neuron_phase", 0.0) * 1e9 / (ticks * n_neurons)
    )
    return out


def _macaque_layers(wl, reps, setup_layers, tally, network, hz) -> dict:
    traced = [r for r in reps if r["tracer"] is not None]
    plain = [r for r in reps if r["tracer"] is None]
    self_s, calls = _sum_layers([r["tracer"] for r in traced])
    ticks = WINDOW_TICKS * len(traced)
    if calls.get("core.step") != ticks:
        raise RuntimeError("traced reps lost core.step spans")
    values = dict.fromkeys(PER_LAYER, 0.0)
    values.update(_tick_layers(self_s, calls, network.n_neurons))
    if wl.backend == "pool":
        # The kernels run in the workers; their own phase clocks travel
        # back in RunMetrics.host (synapse / neuron+routing / network).
        syn, route, net = (
            sum(r["phases"][i] for r in traced) * 1e3 / ticks for i in range(3)
        )
        values["arch.synapse_phase.ms"] = syn
        values["exec.pool.worker_route_ms"] = route
        values["exec.pool.worker_network_ms"] = net
        values["exec.pool.host_utilization"] = sum(
            r["pool_cpu_s"] for r in plain
        ) / sum(r["pool_wall_s"] for r in plain)
        values["exec.pool.parent_busy_frac"] = sum(
            r["parent_cpu_s"] for r in plain
        ) / sum(r["tick_s"] for r in plain)
    setup_self, setup_calls = setup_layers
    values["exec.prepare_s"] = setup_self["exec.prepare"] / setup_calls["exec.prepare"]
    values["compiler.compile_s"] = setup_self["compiler.compile"] / wl.setup_reps
    for name, total in traced[0]["work"].items():
        values[name] = total / WINDOW_TICKS
    values["work.firing_hz"] = hz
    values["trace.overhead_frac"] = (
        statistics.median(r["tick_s_ref"] for r in traced)
        / statistics.median(r["tick_s_ref"] for r in plain)
        - 1.0
    )
    values["trace.coverage"] = sum(self_s.values()) / sum(r["tick_s"] for r in traced)
    values["failed_frac"] = tally.failed / tally.attempted
    return {name: (v, PER_LAYER[name]) for name, v in values.items()}


# -- serve_burst ----------------------------------------------------------

SERVE_MODEL = "quickstart"
SERVE_CORES = 16
SERVE_STREAMS = 4
SERVE_JOBS_PER_STREAM = 60
SERVE_RATE_PER_S = 100.0
SERVE_TICKS = (10, 60)
SERVE_SETUP_REPS = 15
#: Host seconds one serve_burst rep takes on a 2-core host; the rep count
#: is ``--seconds`` over this, so the inputs of a seed never depend on
#: host speed.
SERVE_NOMINAL_REP_S = 5.0
#: Wall seconds between host-speed probes inside a serve_burst rep.
SERVE_PROBE_EVERY_S = 0.5


def serve_config():
    from repro.serve.server import ServeConfig

    return ServeConfig(
        backend="pgas",
        processes=4,
        workers=2,
        max_batch_size=8,
        max_batch_delay_us=8000,
    )


def serve_model_seeds(k: int) -> list[int]:
    """The quickstart model seeds of input ``k`` (also the load seeds)."""
    return [SERVE_STREAMS * k + j for j in range(SERVE_STREAMS)]


def _serve_load(server, model_seeds: list[int]) -> int:
    """Submit one open-loop stream per model seed; returns jobs submitted."""
    from repro.serve.loadgen import open_loop_load

    for ms in model_seeds:
        open_loop_load(
            server,
            rate_per_s=SERVE_RATE_PER_S,
            jobs=SERVE_JOBS_PER_STREAM,
            model=SERVE_MODEL,
            cores=SERVE_CORES,
            ticks_lo=SERVE_TICKS[0],
            ticks_hi=SERVE_TICKS[1],
            seed=ms,
            model_seed=ms,
        )
    return SERVE_STREAMS * SERVE_JOBS_PER_STREAM


class _RecordingAdapter:
    """Pass-through adapter that logs every batch simulation's ticks.

    The timed server runs the real backend through this, so each run's
    per-tick fired counts can be checked against the recorded reference.
    """

    def __init__(self, inner, log: list) -> None:
        self._inner = inner
        self._log = log
        self._network = None

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self._inner.teardown()

    def prepare(self, network, layout):
        self._inner.prepare(network, layout)
        self._network = network
        return self

    def run(self, ticks: int):
        result = self._inner.run(ticks)
        self._log.append((id(self._network), result.metrics.per_tick))
        return result

    def state_nbytes(self) -> int:
        return self._inner.state_nbytes()


class _ReplayAdapter:
    """Backend stand-in for the reference server: replays recorded counts."""

    def __init__(self, fired_by_network: dict[int, list[int]]) -> None:
        self._fired_by_network = fired_by_network
        self._fired: list[int] = []

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        pass

    def prepare(self, network, layout):
        self._fired = self._fired_by_network[id(network)]
        return self

    def run(self, ticks: int):
        from types import SimpleNamespace

        per_tick = [SimpleNamespace(fired=f) for f in self._fired[:ticks]]
        return SimpleNamespace(metrics=SimpleNamespace(per_tick=per_tick))

    def state_nbytes(self) -> int:
        return 0


@contextmanager
def _serve_backend(factory):
    """Route SimServer's backend construction through ``factory``."""
    import repro.serve.server as server_mod

    original = server_mod.make_adapter
    server_mod.make_adapter = lambda backend, obs=None, **kw: factory(
        original, backend, obs, kw
    )
    try:
        yield
    finally:
        server_mod.make_adapter = original


def _serve_inputs(k: int) -> dict:
    """Networks, recorded fired counts and the reference report of input ``k``.

    The reference report comes from the same load on a server whose
    backend replays the recorded counts.  ``build_network`` memoises, so
    the timed server reuses the networks built here.
    """
    from repro.serve.loadgen import build_report
    from repro.serve.server import SimServer, build_network

    recorded = load_references()["quickstart"][str(SERVE_CORES)]
    model_seeds = serve_model_seeds(k)
    networks = [build_network(SERVE_MODEL, SERVE_CORES, ms) for ms in model_seeds]
    fired_by_network = {
        id(net): recorded[str(ms)] for net, ms in zip(networks, model_seeds)
    }
    with _serve_backend(lambda make, backend, obs, kw: _ReplayAdapter(fired_by_network)):
        server = SimServer(serve_config())
        _serve_load(server, model_seeds)
        server.run()
    return {
        "k": k,
        "model_seeds": model_seeds,
        "fired_by_network": fired_by_network,
        "report_json": build_report(server).to_json(),
    }


class _IntervalProbe:
    """Completion hook that probes host speed every SERVE_PROBE_EVERY_S.

    A serve rep runs for several seconds, longer than a host phase, so
    probes around it miss what happened inside; probing at job
    completions samples its whole span.  The probes' own wall time is
    kept so that it can be taken out of the rep's time.
    """

    def __init__(self, speed: HostSpeed) -> None:
        self._speed = speed
        self._last = time.perf_counter()
        self.samples: list[float] = []
        self.spent_s = 0.0

    def __call__(self, job) -> None:
        now = time.perf_counter()
        if now - self._last < SERVE_PROBE_EVERY_S:
            return
        self.samples.append(self._speed.probe())
        self._last = time.perf_counter()
        self.spent_s += self._last - now


def _serve_rep(inputs: dict, tracer, speed: HostSpeed) -> dict:
    """One burst on a fresh server: load, run (timed), report, check."""
    from repro.serve.loadgen import build_report
    from repro.serve.server import SimServer

    fired_by_network = inputs["fired_by_network"]
    log: list = []
    with _serve_backend(
        lambda make, backend, obs, kw: _RecordingAdapter(make(backend, obs=obs, **kw), log)
    ):
        assert_unmetered()
        server = SimServer(serve_config())
        submitted = _serve_load(server, inputs["model_seeds"])
        before = speed.probe()
        sampler = _IntervalProbe(speed)
        server.add_completion_hook(sampler)
        if tracer is not None:
            tracer.reset()
            tracer.install()
        t0 = time.perf_counter()
        server.run()
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.remove()
            tracer.self_s["serve"] -= sampler.spent_s
        after = speed.probe()
        assert_unmetered()
    report = build_report(server)
    probe = statistics.mean([before, *sampler.samples, after])
    run_s = t1 - t0 - sampler.spent_s
    sims_ok = all(
        [tm.fired for tm in per_tick] == fired_by_network[net][: len(per_tick)]
        for net, per_tick in log
    )
    ok = sims_ok and report.to_json() == inputs["report_json"]
    done = [j for j in server.finished_jobs() if j.status == "done"]
    return {
        "k": inputs["k"],
        "tracer": None if tracer is None else (dict(tracer.self_s), dict(tracer.calls)),
        "run_s": run_s,
        "run_s_ref": run_s * speed.factor(probe),
        "probe": probe,
        "submitted": submitted,
        "bad": report.jobs_rejected + report.deadline_missed if ok else submitted,
        "completed": report.jobs_completed,
        "sim_s": sum(j.spec.ticks for j in done) * TICK_S,
        "batches": server.n_batches,
        "report": report,
        "work": _work([tm for _, per_tick in log for tm in per_tick]),
        "sim_ticks": sum(len(per_tick) for _, per_tick in log),
    }


def run_serve(seed: int, seconds: float, trace: bool, speed: HostSpeed):
    """Time open-loop bursts through SimServer on the PGAS backend.

    Rep ``r`` serves input index ``seed + r`` (mod the input period), so
    a run averages over several loads; the rep count follows from
    ``seconds`` alone, so a seed's inputs never depend on host speed.
    Traced runs serve each load twice, untraced then traced.
    """
    from repro.serve.server import SimServer, build_network

    from layers import LayerTracer

    k0 = seed % INPUT_PERIOD
    n_reps = max(2, round(seconds / SERVE_NOMINAL_REP_S))
    if trace:
        schedule = [(k, traced) for k in _indices(k0, max(1, n_reps // 2)) for traced in (False, True)]
    else:
        schedule = [(k, False) for k in _indices(k0, n_reps)]
    tally = Tally()
    setup_times = []
    for _ in range(SERVE_SETUP_REPS):
        build_network.cache_clear()
        probe = speed.probe()
        with bounded(OP_LIMIT_S):
            t0 = time.perf_counter()
            for ms in serve_model_seeds(k0):
                build_network(SERVE_MODEL, SERVE_CORES, ms)
            SimServer(serve_config())
            setup_times.append((time.perf_counter() - t0, probe))
    tracer = LayerTracer()
    jobs = SERVE_STREAMS * SERVE_JOBS_PER_STREAM
    reps: list[dict] = []
    hwm_reset = reset_hwm_all()
    try:
        for k, traced in schedule:
            with bounded(OP_LIMIT_S):
                rep = _serve_rep(_serve_inputs(k), tracer if traced else None, speed)
            tally.add(rep["submitted"], rep["bad"], f"input {k}: report or sims differ")
            reps.append(rep)
    except Exception as exc:  # a hang or a crash fails the rep's jobs
        tally.add(jobs, jobs, f"{type(exc).__name__}: {exc}")
    finally:
        tracer.remove()
    plain = [r for r in reps if r["tracer"] is None]
    if len(reps) < len(schedule):
        raise RuntimeError("a serve rep did not complete: " + "; ".join(tally.errors))
    record = {
        "inputs": [r["k"] for r in plain],
        "jobs_per_rep": jobs,
        "hwm_reset": hwm_reset,
        "batches": [r["batches"] for r in plain],
        "reps": len(plain),
        "run_s_samples": [r["run_s"] for r in plain],
        "rep_probe_ms": [r["probe"] for r in plain],
        "setup_s_samples": [t for t, _ in setup_times],
        "setup_probe_ms": [p for _, p in setup_times],
        "sim_p99_latency_ms": [r["report"].p99_us / 1e3 for r in plain],
        "sim_goodput_per_s": [r["report"].goodput_per_s for r in plain],
    }
    if trace:
        return tally, _serve_layers(reps, tally), record
    run_s = sum(r["run_s_ref"] for r in plain)
    metrics = {
        "rtf": (run_s / sum(r["sim_s"] for r in plain), "s/s"),
        "setup_s": (statistics.median(t * speed.factor(p) for t, p in setup_times), "s"),
        "peak_rss_mib": (vm_hwm_mib(), "MiB"),
        "jobs_per_s": (sum(r["completed"] for r in plain) / run_s, "1/s"),
    }
    return tally, metrics, record


def _indices(k0: int, n: int) -> list[int]:
    return [(k0 + i) % INPUT_PERIOD for i in range(n)]


def _serve_layers(reps, tally) -> dict:
    traced = [r for r in reps if r["tracer"] is not None]
    plain = [r for r in reps if r["tracer"] is None]
    self_s, calls = _sum_layers([r["tracer"] for r in traced])
    ticks = sum(r["sim_ticks"] for r in traced)
    if calls.get("core.step") != ticks:
        raise RuntimeError("traced reps lost core.step spans")
    n_neurons = SERVE_CORES * 256
    values = dict.fromkeys(PER_LAYER, 0.0)
    values.update(_tick_layers(self_s, calls, n_neurons))
    values["exec.prepare_s"] = self_s["exec.prepare"] / calls["exec.prepare"]
    values["serve.self_s"] = self_s["serve"] / len(traced)
    values["serve.sim_runs_per_batch"] = calls["exec.prepare"] / sum(
        r["batches"] for r in traced
    )
    report = traced[0]["report"]
    values["serve.sim_p99_latency_ms"] = report.p99_us / 1e3
    values["serve.sim_goodput_per_s"] = report.goodput_per_s
    for name in traced[0]["work"]:
        values[name] = sum(r["work"][name] for r in traced) / ticks
    values["work.firing_hz"] = values["work.fired"] / n_neurons / TICK_S
    values["trace.overhead_frac"] = (
        sum(r["run_s_ref"] for r in traced) / sum(r["run_s_ref"] for r in plain) - 1.0
    )
    values["trace.coverage"] = sum(self_s.values()) / sum(r["run_s"] for r in traced)
    values["failed_frac"] = tally.failed / tally.attempted
    return {name: (v, PER_LAYER[name]) for name, v in values.items()}


# -- entry point ------------------------------------------------------------

WORKLOADS = {
    "macaque512_1rank": functools.partial(
        run_macaque, MacaqueWorkload("macaque512_1rank", 512, "mpi", 1)
    ),
    "macaque128_16rank": functools.partial(
        run_macaque, MacaqueWorkload("macaque128_16rank", 128, "mpi", 16)
    ),
    "pool_8rank_2w": functools.partial(
        run_macaque, MacaqueWorkload("pool_8rank_2w", 128, "pool", 8, workers=2)
    ),
    "serve_burst": run_serve,
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    steal0, total0 = cpu_ticks()
    speed = HostSpeed()
    probe0 = speed.probe()
    assert_unmetered()
    trace = bool(args.trace)
    try:
        tally, metrics, record = WORKLOADS[args.workload](
            args.seed, args.seconds, trace, speed
        )
    except SilentNetworkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    probe1 = speed.probe()
    steal1, total1 = cpu_ticks()
    record.update(
        workload=args.workload,
        seed=args.seed,
        trace=trace,
        tracemalloc=tracemalloc.is_tracing(),
        nproc=len(os.sched_getaffinity(0)),
        steal_frac=(steal1 - steal0) / max(total1 - total0, 1),
        probe_ms=[probe0, probe1],
        reference_probe_ms=HostSpeed.REF_MS,
        errors=tally.errors,
    )
    print(json.dumps({"measurement": record}))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
