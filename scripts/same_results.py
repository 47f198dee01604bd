#!/usr/bin/env python3
"""Check that session JSON files hold the same simulation results.

Usage: same_results.py BASELINE.json OTHER.json [OTHER.json ...]

Host measurements (wall times, phase splits, the host's thread count)
and the fast-path accounting that A/B switches legitimately move (skip
counts, snoop visits, barrier epochs, directory table health) are
stripped from every document; what remains must match the baseline
exactly.  Exits 1 naming the first file that diverges.
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


def strip(doc):
    if isinstance(doc, dict):
        return {k: strip(v) for k, v in doc.items() if k not in DROP}
    if isinstance(doc, list):
        return [strip(v) for v in doc]
    return doc


def load(path):
    with open(path) as f:
        return strip(json.load(f))


def main(argv):
    if len(argv) < 3:
        sys.exit(__doc__.strip().splitlines()[2])
    baseline = load(argv[1])
    for path in argv[2:]:
        if load(path) != baseline:
            print(f"{path} diverges from {argv[1]}")
            return 1
        print(f"{path} vs {argv[1]}: identical after strip")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
