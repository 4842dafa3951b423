#!/usr/bin/env python3
"""Gate the cast benchmark's exact counts against a checked-in copy.

Usage:
    scripts/perfbench_counts.py RUN_OUTPUT [EXPECTED]

RUN_OUTPUT is what `python3 perfbench/run.py --workload all --seed 1 ...`
printed. Its `count` lines (`count <workload> seed=<n> <name> = <value>
<unit>`: datagrams, wire bytes, virtual-time p99 and simulator events per
cast over the sim workloads' fixed 100 000-cast window) are deterministic
for a seed, so they are compared exactly, as text, with EXPECTED (default
scripts/perfbench_counts_seed1.txt next to this script). Any changed,
missing or extra line fails with exit status 1. A change that moves a count
on purpose updates EXPECTED and says why.
"""

import os
import sys


def count_lines(path):
    """(workload, seed, name) -> the whole line, for every `count` line."""
    out = {}
    with open(path) as f:
        for line in f:
            parts = line.split()
            if len(parts) >= 6 and parts[0] == "count" and parts[4] == "=":
                out[(parts[1], parts[2], parts[3])] = " ".join(parts)
    return out


def main(argv):
    if len(argv) not in (2, 3):
        sys.stderr.write(__doc__)
        return 2
    expected_path = argv[2] if len(argv) == 3 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "perfbench_counts_seed1.txt")
    got = count_lines(argv[1])
    want = count_lines(expected_path)
    if not want:
        sys.stderr.write("perfbench_counts: no count lines in %s\n" % expected_path)
        return 1
    bad = 0
    for key in sorted(want.keys() | got.keys()):
        if key not in got:
            print("MISSING  %s" % want[key])
        elif key not in want:
            print("EXTRA    %s" % got[key])
        elif got[key] != want[key]:
            print("CHANGED  %s\n   was   %s" % (got[key], want[key]))
        else:
            print("same     %s" % got[key])
            continue
        bad += 1
    if bad:
        print("perfbench_counts: %d of %d count lines differ from %s"
              % (bad, len(want.keys() | got.keys()), expected_path))
        return 1
    print("perfbench_counts: all %d count lines match" % len(want))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
