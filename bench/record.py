"""Record the expected verdict of every item in every workload's input pool.

    python3 bench/record.py [workload ...]

Run from the root of a checkout of the commit whose verdicts are the
reference; it rewrites bench/expected/<workload>.json.gz.  At that commit,
tier-1 criteria 6 and 7 cross-check the sweep verdicts against independent
oracles.
"""

from __future__ import annotations

import gzip
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv: list[str]) -> int:
    os.chdir(ROOT)
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.dirname(os.path.abspath(__file__))]
    import workloads

    for name in argv or ("sweep", "wide", "cross_section"):
        workload = workloads.make(name)
        if name == "sweep":
            workload.setup(0)
        items = workload.all_items()
        digests = {key: workload.digest_of(workload.verdict(payload)) for key, payload in items}
        table = [digests[i] for i in range(len(digests))] if name == "sweep" else digests
        with gzip.open(workloads.expected_path(name), "wt", encoding="utf-8") as fh:
            json.dump(table, fh, separators=(",", ":"), sort_keys=True)
        print(f"{name}: {len(items)} verdicts recorded")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
