#!/usr/bin/env python
"""Rewrite the pin stores from the current code and print what moved.

The families are the digest pins of ``pins.json`` (``packet``,
``fluid``, ``specs``, ``faults``) and the JSON files ``golden``, ``cli``,
``fig3`` and ``keys`` (``tests/pins.py``); the default is all of them.
Each moved case prints as a table row, with each moved statistic or the
first differing JSON path as old -> new: paste the table into
CHANGES.md with the reason. With nothing moved, every file is left
byte-identical.

Usage:  PYTHONPATH=src python tests/data/capture_pins.py [family ...]
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    import pins

    known = [*pins.DIGESTS, *pins.FILES]
    families = sys.argv[1:] or known
    if not set(families) <= set(known):
        sys.exit(f"usage: capture_pins.py [family ...]; families: "
                 f"{' '.join(known)}")
    rows = pins.capture(families)
    print(f"captured {' '.join(families)}: {len(rows)} case(s) moved")
    if rows:
        print("| case | old -> new |\n|---|---|\n" + "\n".join(rows))
