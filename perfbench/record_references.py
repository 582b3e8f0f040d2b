"""Record the reference outputs every timed rep is checked against.

For each input index ``k`` in ``range(INPUT_PERIOD)`` this runs the
sequential backend on one simulated rank and stores:

* macaque (512 and 128 cores, model seed ``k``): a hash of the per-tick
  fired counts over the warm-up, the spike digest
  (``repro.resilience.spike_digest``) of the steady window that follows,
  and that window's per-tick fired counts;
* quickstart (16 cores, the serve_burst model seeds of ``k``): per-tick
  fired counts over the longest job length.

Usage (from the repository root)::

    python3 perfbench/record_references.py

Re-record only when the simulated outputs are meant to change, and say
so in the change that does it.
"""

from __future__ import annotations

import json
import sys

from workloads import (
    INPUT_PERIOD,
    REFERENCES,
    ROOT,
    SERVE_CORES,
    SERVE_TICKS,
    WARMUP_TICKS,
    WINDOW_TICKS,
    serve_model_seeds,
    sha_ints,
)


def _sequential(network):
    from repro.exec import ExecLayout, make_adapter

    return make_adapter("sequential").prepare(
        network, ExecLayout(n_processes=1, record_spikes=True)
    )


def macaque_reference(cores: int, model_seed: int) -> dict:
    from repro.cocomac.model import build_macaque_model
    from repro.core.simulator import SpikeRecorder
    from repro.resilience.report import spike_digest

    network = build_macaque_model(total_cores=cores, seed=model_seed).compiled.network
    sim = _sequential(network)
    warm = [sim.step().fired for _ in range(WARMUP_TICKS)]
    sim.recorder = SpikeRecorder()
    window = [sim.step().fired for _ in range(WINDOW_TICKS)]
    return {
        "model_seed": model_seed,
        "warm_fired_sha": sha_ints(warm),
        "window_digest": spike_digest(sim.recorder),
        "window_fired": window,
    }


def quickstart_reference(model_seed: int) -> list[int]:
    from repro.apps.quicknet import build_quickstart_network

    sim = _sequential(build_quickstart_network(n_cores=SERVE_CORES, seed=model_seed))
    return [sim.step().fired for _ in range(SERVE_TICKS[1])]


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    refs = {
        "warmup_ticks": WARMUP_TICKS,
        "window_ticks": WINDOW_TICKS,
        "input_period": INPUT_PERIOD,
        "macaque": {
            str(cores): [macaque_reference(cores, k) for k in range(INPUT_PERIOD)]
            for cores in (512, 128)
        },
        "quickstart": {
            str(SERVE_CORES): {
                str(ms): quickstart_reference(ms)
                for k in range(INPUT_PERIOD)
                for ms in serve_model_seeds(k)
            }
        },
    }
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
