"""The benchmark's own correctness gate, run on two small generator clips.

`perfbench/workloads.py` calls the package through a few one-clip entry
points (`model.forward`, `train.total_loss`, `transport.transport_loss`);
this runs the gate functions that use them, so an API change that breaks
the benchmark fails here too.
"""

import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "perfbench"), str(HERE)]

import gen  # noqa: E402
import workloads  # noqa: E402

import vlgraph.graph as vg  # noqa: E402
import vlgraph.model as vm  # noqa: E402
import vlgraph.train as vt  # noqa: E402


def gate_setup():
    cfg = vt.TrainConfig(dim=8, seed=0)
    width = workloads.WIDTH
    clips = [vg.parse_clip(rec) for rec in
             gen.make_records(0, workloads.TRAIN, 2, workloads.PAPER, width)]
    params = vm.init_params(cfg, width, width, width, np.random.default_rng(11))
    return cfg, clips, params


def test_benchmark_gate_passes_on_small_clips():
    cfg, clips, params = gate_setup()
    assert workloads._grad_check_ok(cfg, clips[0], params, seed=0)
    assert workloads._no_grad_matches(clips, params, cfg)
    out = workloads.Outcome()
    lat_ms, probs = [], []
    assert workloads._infer_pass(clips, params, cfg, out, lat_ms, probs) == 2
    assert out.attempted == 2 and out.failed == 0 and len(lat_ms) == 2
    assert workloads._probabilities_ok(probs)
