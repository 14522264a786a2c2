#!/usr/bin/env python3
"""Run the default synthetic pipeline end to end and print the summary.

Equivalent to `selkd full --out runs/demo`; takes 8-10 s on a 2-core x86 machine.
"""

import sys
from pathlib import Path

from selkd.cli import main

OUT = Path("runs/demo")

if __name__ == "__main__":
    code = main(["full", "--out", str(OUT), *sys.argv[1:]])
    if code == 0:
        print((OUT / "report" / "summary.txt").read_text())
        print(f"artifacts under {OUT}/")
    sys.exit(code)
