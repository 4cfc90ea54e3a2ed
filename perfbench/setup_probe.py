"""One set-up in a fresh interpreter: import bloomlab, then build the
workload's inputs. Prints {"setup_s": ..., "inputs_s": ...,
"calibration_s": ...} as JSON: the raw times and the fastest of the
calibrations (speed.py) made before and after them.

Run from the root of a checkout:
    python3 perfbench/setup_probe.py --workload plan --seed 1
"""

import argparse
import json
import os
import sys
from time import perf_counter

import speed

CALIBRATIONS = 3  # before and after the set-up each


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args()
    sys.path.insert(0, os.path.abspath("src"))
    calibrations = [speed.calibrate() for _ in range(CALIBRATIONS)]
    t_import = perf_counter()
    import bloomlab.cli  # noqa: F401  (every CLI call pays this import)
    import workloads

    t_inputs = perf_counter()
    workloads.WORKLOADS[args.workload](args.seed, args.scale).ops()
    t_end = perf_counter()
    calibrations += [speed.calibrate() for _ in range(CALIBRATIONS)]
    print(json.dumps({"setup_s": t_end - t_import, "inputs_s": t_end - t_inputs,
                      "calibration_s": min(calibrations)}))


if __name__ == "__main__":
    main()
