"""Record reference.json: the exact-output digests of pass 0 of every
workload at the default seed, and the pinned hash-scheme vectors.

    python3 perfbench/record_reference.py

Run from the root of a checkout, only at a commit whose exact outputs are
known to be right; every later run at the default seed is compared with it.
"""

import json
import os
import sys

sys.path.insert(0, os.path.abspath("src"))

import run  # noqa: E402
import workloads as W  # noqa: E402


def main() -> None:
    W._reference = {}  # record from scratch, comparing against nothing
    out = {"seed": W.DEFAULT_SEED, "hash_vectors": W.hash_vectors(), "digests": {}}
    for name, cls in W.WORKLOADS.items():
        state = run.new_state()
        ph = run.Phase()
        run.run_pass(lambda pass_no: cls(W.DEFAULT_SEED, 1.0, pass_no), state, ph)
        if ph.wrong_exact:
            sys.exit(f"{name}: {ph.wrong_exact} ops with wrong exact outputs; not recording")
        out["digests"][name] = {k: d[: run.REF_DIGITS] for k, d in sorted(state["digests"].items())}
        print(f"{name}: {len(state['digests'])} op digests, {ph.failed} failed ops")
    with open(W.REFERENCE_PATH, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
