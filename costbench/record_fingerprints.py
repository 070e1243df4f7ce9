"""Regenerate ``fingerprints.json``: the committed fingerprints of
episode seeds ``0..POOL-1`` of every workload, which ``run.py`` checks
every episode against.

    python3 costbench/record_fingerprints.py

Run it only when a change alters what the simulation does (events,
calls, transmissions or final metrics) on purpose, and say so in the
change.  A change that only makes the program faster must leave every
fingerprint as it is.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from counters import InstructionCounter  # noqa: E402
from run import FINGERPRINTS, POOL  # noqa: E402
from workloads import WORKLOADS, run_episode  # noqa: E402


def main() -> None:
    table = {}
    with InstructionCounter() as counter:
        for name, workload in WORKLOADS.items():
            table[name] = []
            for seed in range(POOL):
                table[name].append(run_episode(workload, seed, counter).fingerprint())
                print(name, seed, table[name][-1], flush=True)
    with open(FINGERPRINTS, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
