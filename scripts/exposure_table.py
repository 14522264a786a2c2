#!/usr/bin/env python3
"""Length-bucket score/exposure table from a score TSV.

    python scripts/exposure_table.py SCORES_TSV [T0 T1]

Prints the ``buckets.tsv`` table that ``selkd metrics --scores`` writes:
for each reference-length bucket, the mean evaluator score and the
fraction of a linear T0->T1 curriculum during which those references
would be selected.
"""

import sys

from selkd.cli import EXIT_CONFIG
from selkd.curriculum import ScheduleError, ThresholdSchedule
from selkd.metrics import bucket_table
from selkd.scoring import read_score_tsv


def main(path: str, t0: float = 0.4, t1: float = 1.0) -> None:
    schedule = ThresholdSchedule(start=t0, end=t1, total_updates=1)
    print("\n".join(bucket_table(read_score_tsv(path), schedule)))


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    try:
        main(sys.argv[1], *(float(a) for a in sys.argv[2:4]))
    except ScheduleError as exc:  # the exit code selkd gives the same thresholds
        print(f"exposure_table.py: error: {exc}", file=sys.stderr)
        sys.exit(EXIT_CONFIG)
