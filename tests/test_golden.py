"""Golden outputs on fixed seeds: the forward probability, the total loss and
the norm and sum of every parameter's gradient, for the default model and
each ablation flag.

`golden_outputs.json` was recorded before the cross-modal, intra-modal and
temporal levels shared one message-passing primitive. A refactor that keeps
the model's function reproduces these values to 1e-12 relative. Re-record
with `PYTHONPATH=src python tests/test_golden.py` only when an output change
is intended, and say why in CHANGES.md.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from vlgraph.graph import Clip, FrameNode, SubtitleLine
from vlgraph.mi import NegativeBuffer
from vlgraph.model import forward, init_params
from vlgraph.tensor import backward
from vlgraph.train import TrainConfig, total_loss

GOLDEN = Path(__file__).with_name("golden_outputs.json")
SEEDS = (0, 1, 2)
CASES = {
    "default": {},
    "no_inter_modal": {"inter_modal": False},
    "no_intra_modal": {"intra_modal": False},
    "no_temporal": {"temporal": False},
    "fixed_queries_3": {"fixed_queries": 3},
}
DIM = 8
RAW = 6
REL_TOL = 1e-12


def golden_clip(seed: int) -> Clip:
    """Three segments, one of them a single frame and a single token."""
    rng = np.random.default_rng([seed, 17])
    frames, subs = [], []
    for i, (n_frames, n_tokens) in enumerate([(2, 3), (1, 1), (3, 2)]):
        t0 = 2.0 * i
        subs.append(SubtitleLine(t0=t0, t1=t0 + 2.0, tokens=rng.standard_normal((n_tokens, RAW))))
        frames.extend(FrameNode(t=t0 + 0.2 + 0.5 * k, feature=rng.standard_normal(RAW))
                      for k in range(n_frames))
    return Clip(clip_id=f"golden-{seed}", frames=frames, subs=subs,
                statement=rng.standard_normal((RAW, 3)), label=seed % 2)


def outputs(seed: int, flags: dict) -> dict:
    cfg = TrainConfig(dim=DIM, seed=seed, **flags)
    params = init_params(cfg.model_config(), RAW, RAW, RAW, np.random.default_rng(seed))
    buffer = NegativeBuffer(cfg.neg_buffer)
    rng = np.random.default_rng([seed, 29])
    buffer.push([rng.standard_normal(DIM) for _ in range(6)])
    clip = golden_clip(seed)
    trace = forward(clip, params, cfg.model_config())
    total = total_loss(trace, clip.label, params, cfg, buffer).total
    grads = backward(total, params)
    return {
        "prob": trace.prob.item(),
        "total": total.item(),
        "grads": {name: [float(np.linalg.norm(g)), float(g.sum())] for name, g in grads.items()},
    }


def close(got: float, want: float, scale: float) -> bool:
    return abs(got - want) <= REL_TOL * scale


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("seed", SEEDS)
def test_outputs_match_golden(seed, case):
    want = json.loads(GOLDEN.read_text())[f"{case}/{seed}"]
    got = outputs(seed, CASES[case])
    assert close(got["prob"], want["prob"], abs(want["prob"])), (got["prob"], want["prob"])
    assert close(got["total"], want["total"], abs(want["total"])), (got["total"], want["total"])
    assert sorted(got["grads"]) == sorted(want["grads"])
    for name, (norm, total) in want["grads"].items():
        g_norm, g_sum = got["grads"][name]
        assert close(g_norm, norm, norm), (name, g_norm, norm)
        # a sum can cancel to near zero; its rounding scales with the gradient's norm
        assert close(g_sum, total, max(abs(total), norm)), (name, g_sum, total)
        assert math.isfinite(g_norm) and math.isfinite(g_sum)


if __name__ == "__main__":
    record = {f"{case}/{seed}": outputs(seed, flags)
              for case, flags in sorted(CASES.items()) for seed in SEEDS}
    lines = [f"{json.dumps(key)}: {json.dumps(val, sort_keys=True)}" for key, val in record.items()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(record)} cases to {GOLDEN}")
