"""Record the reference outcome digests the benchmark checks against.

Usage (from the root of a checkout)::

    python3 perfbench/record_references.py SEED [SEED ...]

Runs one untraced pass of every workload at each seed and writes each
cell's outcome digest into ``perfbench/references.json``, replacing the
entries of those seeds.  A cell that raises or breaks an invariant
aborts the recording.  Re-record only when a change is meant to alter
simulated outcomes; a change meant to leave them alone must pass
against the digests already recorded.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv):
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    os.environ["REPRO_KERNEL"] = "py"
    from perfbench import checks
    from perfbench.run import run_pass
    from perfbench.workloads import WORKLOADS, CommitCounter, run_cell

    references = checks.load_references()
    counter = CommitCounter().install()
    for seed in (int(arg) for arg in argv):
        for name, build in WORKLOADS.items():
            cells = build(seed)
            record = run_pass(cells, counter, lambda cell: run_cell(cell, counter))
            if record.errors:
                print(json.dumps(record.errors, indent=1), file=sys.stderr)
                return 1
            references.setdefault(name, {})[str(seed)] = {
                cell_id: value[:checks.REFERENCE_HEX]
                for cell_id, value in record.digests.items()
            }
            print(f"{name} seed {seed}: {len(cells)} cells in {record.wall_s:.1f} s")
    with open(checks.REFERENCES_PATH, "w", encoding="utf-8") as handle:
        json.dump(references, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
