#!/usr/bin/env python3
"""Golden-master check: diff_csv.py GOLDEN_DIR FRESH_DIR [--skip T ...] [--only T ...]

Compares every *.csv committed in GOLDEN_DIR with the file of the same name
in FRESH_DIR, ignoring columns whose header ends in "_s" (wall-clock
seconds). A committed table missing from FRESH_DIR is a difference, unless
it is named with --skip (the run does not regenerate it); with --only, just
the named tables are compared, and each must be there. A table is named by
its file name without ".csv". A fresh table that is not committed is a
difference too. Prints each difference and exits 1 if there is any.
"""
import argparse
import csv
import os
import sys


def rows(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


def tables(d):
    return {n[: -len(".csv")] for n in os.listdir(d) if n.endswith(".csv")}


def main(golden, fresh, skip, only):
    bad = 0
    committed, regenerated = tables(golden), tables(fresh)
    for name in sorted((set(skip) | set(only or ())) - committed):
        print(f"{name}: named but not committed under {golden}")
        bad += 1
    names = committed | regenerated
    if only is not None:
        names &= set(only)
    for name in sorted(names):
        if name not in committed:
            print(f"{name}.csv: not committed under {golden}")
            bad += 1
            continue
        if name not in regenerated:
            if name not in skip:
                print(f"{name}.csv: committed but not regenerated under {fresh}")
                bad += 1
            continue
        want_path = os.path.join(golden, name + ".csv")
        got_path = os.path.join(fresh, name + ".csv")
        want, got = rows(want_path), rows(got_path)
        if want[0] != got[0] or len(want) != len(got):
            print(f"{name}.csv: shape differs ({len(want)} vs {len(got)} rows, headers {want[0]} vs {got[0]})")
            bad += 1
            continue
        keep = [i for i, h in enumerate(want[0]) if not h.endswith("_s")]
        for n, (w, g) in enumerate(zip(want, got)):
            if [w[i] for i in keep] != [g[i] for i in keep]:
                print(f"{name}.csv row {n}:\n  committed   {w}\n  regenerated {g}")
                bad += 1
    if bad:
        print(f"{bad} difference(s): regenerate with `soclbench -experiment <id> -out results` and commit")
    return 1 if bad else 0


if __name__ == "__main__":
    p = argparse.ArgumentParser(usage=__doc__.splitlines()[0].split(": ", 1)[1])
    p.add_argument("golden")
    p.add_argument("fresh")
    p.add_argument("--skip", action="append", default=[], metavar="T",
                   help="a committed table the run does not regenerate")
    p.add_argument("--only", action="append", default=None, metavar="T",
                   help="compare just this table")
    a = p.parse_args()
    sys.exit(main(a.golden, a.fresh, a.skip, a.only))
