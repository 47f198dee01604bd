#!/usr/bin/env python3
"""Check that session JSON files hold the same simulation results.

Usage: same_results.py [--ignore PARENT.KEY ...] BASELINE.json OTHER.json
                      [OTHER.json ...]

Host measurements (wall times, phase splits, the host's thread count)
and the fast-path accounting that A/B switches legitimately move (skip
counts, snoop visits, barrier epochs, directory table health) are
stripped from every document; what remains must match the baseline
exactly.  --ignore PARENT.KEY also strips KEY wherever it sits directly
under a PARENT object (e.g. --ignore params.workload, for a trace replay
that has no workload name).  Exits 1 naming the first file that diverges.
"""

import json
import sys

DROP = {
    "wall_time_ms", "sim_time_ms", "sim_cycles_per_sec",
    "skipped_cycles", "skip_fraction", "snoop_visits",
    "snoop_filter_fallbacks", "directory_blocks",
    "directory_max_load_factor", "barrier_epochs", "tick_phase_ms",
    "barrier_wait_ms", "route_phase_ms", "serve_phase_ms",
    "home_latency_p50", "home_latency_p90", "home_latency_p99",
    "hot_home_skew", "hardware_concurrency",
}


def strip(doc, ignore, parent=None):
    if isinstance(doc, dict):
        return {k: strip(v, ignore, k) for k, v in doc.items()
                if k not in DROP and (parent, k) not in ignore}
    if isinstance(doc, list):
        return [strip(v, ignore, parent) for v in doc]
    return doc


def load(path, ignore):
    with open(path) as f:
        return strip(json.load(f), ignore)


def main(argv):
    args = argv[1:]
    ignore = set()
    while len(args) >= 2 and args[0] == "--ignore":
        parent, _, key = args[1].partition(".")
        if not key:
            sys.exit(f"--ignore needs PARENT.KEY, not {args[1]}")
        ignore.add((parent, key))
        args = args[2:]
    if len(args) < 2:
        sys.exit("\n".join(__doc__.strip().splitlines()[2:4]))
    baseline = load(args[0], ignore)
    for path in args[1:]:
        if load(path, ignore) != baseline:
            print(f"{path} diverges from {args[0]}")
            return 1
        print(f"{path} vs {args[0]}: identical after strip")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
