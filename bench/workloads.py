"""The three benchmark workloads and their output digests.

Every workload is a closed loop with one caller and workers = 1: the
next unit starts when the previous one returns.  A unit is the smallest
call whose outputs are pinned in reference.json:

  scaling_fit   one increment_scaling_fit call of N_SCALING realizations
                at the criterion-2 shape (d=1, s=1.5, kmax=1023)
  mc_campaign   one in-process `qspde mc --deterministic` of one
                realization with the march switched on
  solve_norms   `qspde sample-noise`, `solve`, `norms` on one d=2 config

Each unit takes one program root seed from a pinned pool.  The benchmark
seed only chooses the order in which the pool is visited, so every unit
it can run has a reference digest.  The held-out pool is pinned the same
way and is meant to confirm a gain on seeds a change was not tuned on.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import time

import qspde.cli
import qspde.mc_harness
from qspde.config import parse_config
from qspde.spectral_noise import CovarianceSpec

N_SCALING = 4

POOLS = {
    "scaling_fit": {"dev": range(0, 64), "holdout": range(1000, 1016)},
    "mc_campaign": {"dev": range(0, 64), "holdout": range(1000, 1016)},
    "solve_norms": {"dev": range(0, 16), "holdout": range(1000, 1008)},
}

MC_CONFIG = """\
d = 1
s = 2.0
kmax = 15
n_x = 64
dt = 0.00006103515625
t_end = 0.25
save_every = 16
alpha = 0.3
nonlinearity = tanh_perturbed
lambda = 0.5
j_mode = grad_v_negated
mc_solve = true
seed = 0
n_realizations = 1
out_dir = out
"""

SOLVE_NORMS_CONFIG = """\
d = 2
s = 3.0
kmax = 7
n_x = 32
dt = 0.0001220703125
t_end = 0.125
save_every = 1
alpha = 0.3
nonlinearity = tanh_perturbed
lambda = 0.5
j_mode = zero
seed = 0
n_realizations = 1
out_dir = out
"""

CONFIGS = {"mc_campaign": MC_CONFIG, "solve_norms": SOLVE_NORMS_CONFIG}

# realizations per unit
REALIZATIONS = {"scaling_fit": N_SCALING, "mc_campaign": 1, "solve_norms": 1}

NAMES = tuple(POOLS)


class UnitFailure(RuntimeError):
    """A unit raised, exited non-zero, or produced an unpinned digest."""


def seed_order(workload: str, bench_seed: int, pool: str = "dev") -> list:
    """Program root seeds in the order the benchmark seed visits them."""
    seeds = list(POOLS[workload][pool])
    random.Random(bench_seed).shuffle(seeds)
    return seeds


def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Workload:
    """Runs units of one workload inside a private working directory.

    The CLI writes its artifacts under the relative out_dir of the
    config, and the config text (out_dir included) is part of every
    artifact hash, so the working directory must be the process's cwd
    while a unit runs.
    """

    def __init__(self, name: str, workdir: str):
        if name not in POOLS:
            raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
        self.name = name
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        if name in CONFIGS:
            parse_config(CONFIGS[name])
            with open(os.path.join(workdir, "bench.cfg"), "w") as fh:
                fh.write(CONFIGS[name])
        else:
            self.spec = CovarianceSpec(d=1, s=1.5, kmax=1023)

    def run_unit(self, seed: int):
        """Run one unit on program root seed `seed`.

        Returns (seconds spent in the program, artifact name -> sha256).
        Hashing happens outside the timed calls.
        """
        if self.name == "scaling_fit":
            t0 = time.perf_counter()
            # module attributes are looked up per call, so a traced run
            # reaches the wrapped functions
            fit = qspde.mc_harness.increment_scaling_fit(self.spec, N_SCALING, seed)
            elapsed = time.perf_counter() - t0
            blob = json.dumps(fit.to_dict(), sort_keys=True).encode()
            return elapsed, {"fit.json": hashlib.sha256(blob).hexdigest()}
        if self.name == "mc_campaign":
            elapsed = self._cli("mc", seed)
            return elapsed, self._digest(["mc_records.csv", "mc_report.json"])
        elapsed = self._cli("sample-noise", seed)
        digests = self._digest(["v.qspd", "grad_v_0.qspd", "grad_v_1.qspd"], "sample-noise/")
        elapsed += self._cli("solve", seed)
        digests.update(self._digest(["u.qspd", "w.qspd", "v.qspd"], "solve/"))
        elapsed += self._cli("norms", seed)
        digests.update(self._digest(["norms.csv"], "norms/"))
        return elapsed, digests

    def _cli(self, command: str, seed: int) -> float:
        argv = [command, "--config", "bench.cfg", "--deterministic", "--seed", str(seed)]
        out = io.StringIO()
        here = os.getcwd()
        os.chdir(self.workdir)
        try:
            with contextlib.redirect_stdout(out):
                t0 = time.perf_counter()
                code = qspde.cli.main(argv)
                elapsed = time.perf_counter() - t0
        finally:
            os.chdir(here)
        if code != 0:
            raise UnitFailure(f"qspde {command} seed={seed} exited {code}: {out.getvalue().strip()}")
        return elapsed

    def _digest(self, files, prefix="") -> dict:
        out_dir = os.path.join(self.workdir, "out")
        return {prefix + f: _sha256_file(os.path.join(out_dir, f)) for f in files}
