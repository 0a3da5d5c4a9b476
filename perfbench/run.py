"""Benchmark entry point.

    python3 perfbench/run.py --workload long-doc --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: the package is imported from
./src, never from an installed copy. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics;
with --trace 0 the metrics are the end-to-end figures, with --trace 1 the
per-layer figures of a traced round. See perfbench/README.md.
"""

import argparse
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("long-doc", "short-doc")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "corefmtl" / "__init__.py").is_file():
        print(f"error: no corefmtl sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(BENCH)]
    import corefmtl
    if Path(corefmtl.__file__).resolve().parent != src / "corefmtl":
        print(f"error: corefmtl imported from {corefmtl.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import workloads

    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
