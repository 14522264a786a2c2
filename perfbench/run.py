"""selkd benchmark: run one workload through the selkd CLI and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 20 --trace 0

The workload's inputs come from ``--seed``. Its CLI calls (``selkd.cli.main``,
in this process) repeat until ``--seconds`` have passed; every repetition is
checked and timed, and timings are reported as medians. With ``--trace 0``
the last line of standard output is a JSON object with the end-to-end
metrics; with ``--trace 1`` repetitions alternate between untraced and
traced, and it holds the per-layer metrics instead. Provenance is printed on
the line before it. Work files, results and traces go under
``.perfbench_work/`` in the repository root. See README.md.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    if not os.path.exists(os.path.join(ROOT, "src", "selkd", "__init__.py")):
        print(f"perfbench: no selkd sources under {ROOT}/src; nothing to measure", file=sys.stderr)
        return 2
    # One BLAS thread unless the caller sets it: the matrices are tiny, and a
    # single thread keeps timings steady and results bit-exact.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import harness

    return harness.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
