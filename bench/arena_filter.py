"""Keep the deterministic fields of `bgpbench table3 --prefixes N --json`.

Reads the JSON on stdin and prints, for each cell, only the arena
accounting (table size, updates, interns, hits, hit rate, live sets,
saved bytes) plus the checks; the allocation and throughput
fields are host measurements and are dropped.  CI diffs the result
against bench/arena_250k.golden:

    bgpbench table3 --prefixes 250000 --json \
      | python3 bench/arena_filter.py | diff -u bench/arena_250k.golden -
"""

import json
import sys

KEEP = ["prefixes", "updates", "interns", "hits", "hit_rate", "live",
        "saved_bytes"]

doc = json.load(sys.stdin)
out = {
    "cells": [{k: cell[k] for k in KEEP} for cell in doc["cells"]],
    "checks": doc["checks"],
}
json.dump(out, sys.stdout, indent=2)
sys.stdout.write("\n")
