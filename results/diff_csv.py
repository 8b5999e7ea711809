#!/usr/bin/env python3
"""Golden-master check: diff_csv.py GOLDEN_DIR FRESH_DIR

Compares every *.csv in FRESH_DIR with the file of the same name in
GOLDEN_DIR, ignoring columns whose header ends in "_s" (wall-clock seconds).
Prints each differing row and exits 1 if anything differs.
"""
import csv
import os
import sys


def rows(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


def main(golden, fresh):
    bad = 0
    for name in sorted(n for n in os.listdir(fresh) if n.endswith(".csv")):
        want_path = os.path.join(golden, name)
        if not os.path.exists(want_path):
            print(f"{name}: not committed under {golden}")
            bad += 1
            continue
        want, got = rows(want_path), rows(os.path.join(fresh, name))
        if want[0] != got[0] or len(want) != len(got):
            print(f"{name}: shape differs ({len(want)} vs {len(got)} rows, headers {want[0]} vs {got[0]})")
            bad += 1
            continue
        keep = [i for i, h in enumerate(want[0]) if not h.endswith("_s")]
        for n, (w, g) in enumerate(zip(want, got)):
            if [w[i] for i in keep] != [g[i] for i in keep]:
                print(f"{name} row {n}:\n  committed   {w}\n  regenerated {g}")
                bad += 1
    if bad:
        print(f"{bad} difference(s): regenerate with `soclbench -experiment <id> -out results` and commit")
    return 1 if bad else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
