"""Keep the deterministic fields of `bgpbench topo --json`.

Reads the JSON on stdin and drops, from each run, the two wall-clock
fields (`wall_s`, `events_per_sec_wall`); everything else, including
the FIB-inclusive `fingerprint`, repeats exactly across runs.  CI diffs
the result against bench/topo_ba1000.golden:

    bgpbench topo --kind ba --nodes 1000 --domains 1 --domains 2 --json \
      | python3 bench/topo_filter.py | diff -u bench/topo_ba1000.golden -
"""

import json
import sys

DROP = {"wall_s", "events_per_sec_wall"}

doc = json.load(sys.stdin)
doc["runs"] = [{k: v for k, v in run.items() if k not in DROP}
               for run in doc["runs"]]
json.dump(doc, sys.stdout, indent=2)
sys.stdout.write("\n")
