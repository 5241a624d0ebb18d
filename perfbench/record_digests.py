"""Record the campaign workload's expected per-seed digests.

Run from the repository root after a change that is meant to alter what
a campaign round computes (never to make a failing benchmark pass)::

    python3 perfbench/record_digests.py

It runs one round per campaign seed with the workload's exact
configuration and rewrites ``perfbench/campaign_digests.json``.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workload_campaign as wc  # noqa: E402


def main() -> int:
    state = wc.State([], wc.planetlab.generate_planetlab(seed=wc.TOPOLOGY_SEED), {})
    digests = {}
    for seed in range(wc.CAMPAIGN_SEEDS):
        result, wall = wc.run_round(state, seed)
        digests[str(seed)] = wc.digest(result)
        print(f"seed {seed}: {len(result.measurements)} transfers, "
              f"{wall:.2f} s", flush=True)
    with open(wc.DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
