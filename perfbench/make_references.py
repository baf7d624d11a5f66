#!/usr/bin/env python3
"""Regenerate ``references.json``: expected digests per workload and seed.

Every job of each workload's sweep is fully simulated (``replay=False``)
on a fresh serial service, independently of the code paths the
benchmark times, and the experiment's analysis runs on those jobs.
Run from the repository root::

    python3 perfbench/make_references.py [n_seeds]

Only regenerate when a change is *meant* to alter simulation outputs.
"""

from __future__ import annotations

import json
import sys

from run import import_repro


def main(n_seeds: int = 50) -> None:
    import_repro()
    from digest import REFERENCES, oracle_reference
    from repro.session import Session
    from workloads import WORKLOADS, session_seed

    references: dict[str, dict[str, dict]] = {}
    for name, workload in WORKLOADS.items():
        references[name] = {}
        for seed in range(n_seeds):
            with Session(seed=session_seed(name, seed)) as session:
                experiment = session.create(workload.experiment,
                                            **workload.params)
                references[name][str(seed)] = oracle_reference(experiment)
            print(name, seed, flush=True)
    with open(REFERENCES, "w") as f:
        json.dump({"format": "perfbench.references/v2",
                   "references": references}, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main(*(int(arg) for arg in sys.argv[1:]))
