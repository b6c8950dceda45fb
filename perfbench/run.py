"""Benchmark for the `vlgraph` package: one workload per call, or all of them.

    python3 perfbench/run.py --workload train-paper --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

Run from the repository root. The package is imported from `src/`, inputs
are generated from the seed into a scratch directory under the root that is
removed on exit, and outputs are checked after the timed region. `--trace 0`
reports the end-to-end metrics of BENCHMARK.json with no hooks installed;
`--trace 1` reports its per-layer metrics from hooked public functions.

Output: a `# env` line (pinned thread count, versions, workload shape), one
`name value unit` line per metric, then the result as one JSON line. The
exit code is 1 when a correctness check fails and 2 when the package source
is missing.
"""

import os
import sys

# BLAS threads are fixed before numpy is first imported. One thread measured
# steadier than two on a shared 2-core machine, at about 15% lower
# train-paper throughput.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"


def _environment(workload) -> dict:
    import numpy as np
    import vlgraph

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    shape = workload.shape
    return {
        "blas_threads": BLAS_THREADS,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "vlgraph": vlgraph.__version__,
        "workload": {
            "name": workload.name, "dim": workload.dim,
            "train_clips": workload.train_clips, "val_clips": workload.val_clips,
            "epochs": workload.epochs, "heldout_clips": workload.heldout_clips,
            "lines": shape.lines, "frames_per_line": shape.frames,
            "tokens_per_line": shape.tokens, "clauses": shape.clauses,
        },
    }


def _run_all(args) -> int:
    worst = 0
    for name in ("train-paper", "train-longseg", "infer-paper"):
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["train-paper", "train-longseg", "infer-paper", "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (SRC / "vlgraph" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'vlgraph'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    workload = workloads.WORKLOADS[args.workload]
    WORKDIR.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORKDIR)
    try:
        out = workloads.run(workload, args.seed, args.seconds, bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass  # another run still uses it

    print("# env " + json.dumps(_environment(workload)))
    for line in out.lines:
        print("# " + line)
    for name, ok in out.checks.items():
        print(f"# check {name} {'ok' if ok else 'FAILED'}")
    correct = bool(out.checks) and all(out.checks.values())
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": out.metrics[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} {out.metrics[m['name']]:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
