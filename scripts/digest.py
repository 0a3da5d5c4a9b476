"""Fingerprints of a benchmark workload's training run and predictions.

    python3 scripts/digest.py --workload long-doc [--steps N] [--one-thread]

Run from the root of a source checkout: the package is imported from
./src. The inputs and the training configuration are those of
perfbench/workloads.py at seed 1 (`make_inputs`, `train_config`); `--steps`
replaces the workload's step count. Prints the platform stamp, then the
first 16 hex digits of the sha256 of:

  records      the training records, as JSON with sorted keys
  params       every parameter's name and bytes, by name
  moments      every optimizer moment's key and bytes, by key
  predictions  the reprs of the predictions on the first three held-out
               documents

Two source trees that print the same lines on one platform trained and
predicted bit for bit alike. The BLAS thread count is part of the
platform: it can change the trained bits. With `--one-thread`, the script
then runs itself again in a subprocess with `OPENBLAS_NUM_THREADS=1` and
prints that run's lines too, each prefixed `one-thread `, so that a
stated bit change can list the digests at both thread counts.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1


def _hex(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()[:16]


def _arrays(named: dict) -> str:
    return _hex(part for key in sorted(named)
                for part in (key.encode(), named[key].tobytes()))


def digests(workload: str, steps: int | None = None) -> dict[str, str]:
    import workloads
    from corefmtl.inference import predict_document
    from corefmtl.training import _platform_stamp, train

    wl = workloads.WORKLOADS[workload]
    data = workloads.make_inputs(wl, SEED)
    result = train(data.train_docs, workloads.train_config(wl, SEED, steps))
    predictions = [predict_document(result.model, doc) for doc in data.heldout[:3]]
    return {
        **_platform_stamp(),
        "records": _hex([json.dumps(result.records, sort_keys=True).encode()]),
        "params": _arrays(result.model.store.state()),
        "moments": _arrays(result.checkpoint.opt["arrays"]),
        "predictions": _hex(repr(p).encode() for p in predictions),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("long-doc", "short-doc"))
    parser.add_argument("--steps", type=int, default=None,
                        help="training steps (default: the workload's)")
    parser.add_argument("--one-thread", action="store_true",
                        help="also print the digests of a run at OPENBLAS_NUM_THREADS=1")
    args = parser.parse_args(argv)
    if args.steps is not None and args.steps < 1:
        parser.error("--steps must be >= 1")
    for path in (ROOT / "perfbench", ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    for key, value in digests(args.workload, args.steps).items():
        print(f"{key}: {value}", flush=True)
    if args.one_thread:
        steps = [] if args.steps is None else ["--steps", str(args.steps)]
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, *steps],
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
            capture_output=True, text=True, check=True)
        for line in proc.stdout.splitlines():
            print(f"one-thread {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
