"""Regenerate reference.json: the artifact digests of every pooled seed.

    python3 bench/pin_reference.py [--workload NAME ...]

Run it only on the commit whose outputs are the reference; a faster
path must reproduce them bitwise.  A digest may change only in a change
that says why.  Existing entries of workloads not named are kept.
"""

import argparse
import json
import os
import platform
import shutil
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import numpy  # noqa: E402
import scipy  # noqa: E402

from workloads import NAMES, POOLS, Workload  # noqa: E402

PATH = os.path.join(BENCH_DIR, "reference.json")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", action="append", choices=NAMES)
    args = p.parse_args(argv)
    ref = {"workloads": {}}
    if os.path.exists(PATH):
        with open(PATH) as fh:
            ref = json.load(fh)
    ref["pinned_with"] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }
    for name in args.workload or NAMES:
        workdir = os.path.join(ROOT, ".bench_out", f"pin-{name}-{os.getpid()}")
        wl = Workload(name, workdir)
        try:
            ref["workloads"][name] = {
                pool: {str(s): wl.run_unit(s)[1] for s in seeds} for pool, seeds in POOLS[name].items()
            }
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"pinned {name}", file=sys.stderr)
    with open(PATH, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
