"""Per-layer self time, recorded from outside the program.

The traced run wraps the public entry points of each layer (``arch``,
``core``, ``runtime``, ``exec``, ``compiler``, ``serve``) with a timer
that keeps a stack of open calls.  A call's *self* time is its duration
minus the part its wrapped callees cover, so the self times of all
layers add up to the wall time of the outermost wrapped call.  Only
totals and call counts are kept, never individual spans: a 16-rank tick
makes hundreds of wrapped calls and a run makes thousands of ticks.

Nothing here touches ``src/``: :meth:`LayerTracer.install` replaces
class attributes for the traced reps and :meth:`LayerTracer.remove`
puts the originals back before the next untraced rep.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


def _targets():
    """(owner, attribute, layer) for every wrapped entry point."""
    from repro.arch.coreblock import CoreBlock
    from repro.compiler.pcc import ParallelCompassCompiler
    from repro.core.buffers import LocalBuffer, RemoteSendBuffers
    from repro.core.pgas_simulator import PgasCompass
    from repro.core.simulator import Compass
    from repro.exec.pool import ProcessPoolAdapter
    from repro.exec.sequential import SequentialAdapter
    from repro.runtime.mpi import MpiEndpoint, VirtualMpiCluster
    from repro.runtime.pgas import PgasEndpoint
    from repro.serve.server import SimServer

    return [
        (CoreBlock, "synapse_phase", "arch.synapse_phase"),
        (CoreBlock, "neuron_phase", "arch.neuron_phase"),
        (CoreBlock, "outgoing", "arch.outgoing"),
        (CoreBlock, "deliver", "arch.deliver"),
        (LocalBuffer, "push", "core.buffers"),
        (LocalBuffer, "drain", "core.buffers"),
        (RemoteSendBuffers, "push", "core.buffers"),
        (RemoteSendBuffers, "flush", "core.buffers"),
        (MpiEndpoint, "isend", "runtime.exchange"),
        (MpiEndpoint, "reduce_scatter", "runtime.exchange"),
        (MpiEndpoint, "reduce_scatter_fetch", "runtime.exchange"),
        (MpiEndpoint, "iprobe", "runtime.exchange"),
        (MpiEndpoint, "recv", "runtime.exchange"),
        (VirtualMpiCluster, "reduce_scatter_finish", "runtime.exchange"),
        (PgasEndpoint, "put", "runtime.exchange"),
        (PgasEndpoint, "barrier", "runtime.exchange"),
        (PgasEndpoint, "read_window", "runtime.exchange"),
        (Compass, "step", "core.step"),
        (PgasCompass, "step", "core.step"),
        (ProcessPoolAdapter, "step", "core.step"),
        (SequentialAdapter, "prepare", "exec.prepare"),
        (ProcessPoolAdapter, "prepare", "exec.prepare"),
        (ParallelCompassCompiler, "compile", "compiler.compile"),
        (SimServer, "run", "serve"),
    ]


class LayerTracer:
    """Self-time and call-count totals per layer, while installed."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self._stack: list[float] = [0.0]
        self._saved: list[tuple[type, str, object]] = []

    def reset(self) -> None:
        self.self_s.clear()
        self.calls.clear()

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, layer in _targets():
            orig = owner.__dict__[attr]
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(orig, layer))

    def remove(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def _wrap(self, fn, layer: str):
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[layer] += dt - stack.pop()
                calls[layer] += 1
                stack[-1] += dt

        return timed
