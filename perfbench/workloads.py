"""Workload inputs: the locomanip CLI invocations of one round, made from a seed.

Both the workload process (which runs them) and the checker (which needs the
same scenario parameters to check the outputs) build the plan from here. Only
the standard library is used, so building a plan imports nothing of the
program under test.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("long_walk", "tuning_sweep", "seed_sweep")

# Measurement noise of the seed_sweep runs: CoM position (m) and hand force (N).
COM_NOISE_M = 0.0005
FORCE_NOISE_N = 5.0

TUNING_VARIANTS = 14
TUNING_DURATION_S = 3.0


@dataclass(frozen=True)
class Op:
    """One `locomanip` command: `run`, `gains` or `compare`.

    For `run` and `gains`, `config` is a bundled scenario name and
    `overrides` are `key=value` strings as the CLI takes them. For `compare`,
    `a` and `b` name the two `run` ops whose traces are compared.
    """

    name: str
    kind: str
    config: str = ""
    overrides: tuple = ()
    seed: int | None = None
    a: str = ""
    b: str = ""

    def argv(self, round_dir: Path) -> list:
        if self.kind == "compare":
            return [
                "compare",
                str(round_dir / self.a / "trace.csv"),
                str(round_dir / self.b / "trace.csv"),
            ]
        argv = [self.kind, "--config", self.config]
        for item in self.overrides:
            argv += ["--override", item]
        if self.kind == "run":
            argv += ["--out", str(round_dir / self.name)]
            if self.seed is not None:
                argv += ["--seed", str(self.seed)]
        return argv


def _num(value: float) -> str:
    # always with a decimal point: PyYAML reads "1e-08" as a string
    return "%.9e" % value


def _stratified(rng: random.Random, n: int, lo: float, hi: float) -> list:
    """n values, one drawn in each of n equal slices of [lo, hi), shuffled.

    Every seed then covers the range evenly, so the summed cost of a sweep
    barely depends on the seed, while no two values coincide.
    """
    values = [lo + (hi - lo) * (i + rng.random()) / n for i in range(n)]
    rng.shuffle(values)
    return values


def long_walk(seed: int) -> list:
    # The scenario is noise-free, so the seed reaches the CLI but changes
    # nothing: the same 51 s walk is the input of every run.
    twin = ("ablation.disable_compensation=true",)
    return [
        Op("t3", "run", "testcase3", seed=seed),
        Op("t3_nocomp", "run", "testcase3", twin, seed=seed),
        Op("cmp_nocomp", "compare", a="t3", b="t3_nocomp"),
    ]


def tuning_sweep(seed: int) -> list:
    rng = random.Random(seed)
    n = TUNING_VARIANTS
    log_q = _stratified(rng, n, -0.7, 0.7)  # natural log of q_zmp
    log_r = _stratified(rng, n, -0.7, 0.7)  # natural log of r_jerk / 1e-8
    window = _stratified(rng, n, 1.4, 1.9)
    k_p = _stratified(rng, n, 1.1, 1.9)
    ops = []
    for i in range(n):
        controller = (
            "controller.q_zmp=" + _num(math.exp(log_q[i])),
            "controller.r_jerk=" + _num(1e-8 * math.exp(log_r[i])),
            "controller.preview_window_s=" + _num(window[i]),
            "controller.k_p=" + _num(k_p[i]),
        )
        ops.append(Op(f"g{i:02d}", "gains", "cart-like", controller))
        ops.append(
            Op(
                f"v{i:02d}",
                "run",
                "cart-like",
                ("duration_s=" + _num(TUNING_DURATION_S),) + controller,
                seed=seed,
            )
        )
    ops.append(Op("cmp_sweep", "compare", a="v00", b=f"v{n - 1:02d}"))
    return ops


def seed_sweep(seed: int) -> list:
    rng = random.Random(seed)
    noise_seeds = rng.sample(range(1, 2**31), 4)
    noise = (
        "plant.com_noise_m=" + _num(COM_NOISE_M),
        "plant.force_noise_n=" + _num(FORCE_NOISE_N),
    )
    t1 = (
        "duration_s=10.0",
        "metrics.windows=[{name: tail, start_s: 8.0, end_s: 10.0}]",
    )
    cart = ("duration_s=12.0",)
    t2 = ("duration_s=12.0",)
    ops = [
        Op("t1", "run", "testcase1", t1),
        Op("t1_n0", "run", "testcase1", t1 + noise, noise_seeds[0]),
        Op("t1_n1", "run", "testcase1", t1 + noise, noise_seeds[1]),
        Op("cart", "run", "cart-like", cart),
        Op("cart_n0", "run", "cart-like", cart + noise, noise_seeds[2]),
        Op("cart_n1", "run", "cart-like", cart + noise, noise_seeds[3]),
        Op("t2", "run", "testcase2", t2),
        Op("t2_k1", "run", "testcase2", t2 + ("ablation.force_kappa_one=true",)),
    ]
    for base, other in (
        ("t1", "t1_n0"),
        ("t1", "t1_n1"),
        ("cart", "cart_n0"),
        ("cart", "cart_n1"),
        ("t2", "t2_k1"),
    ):
        ops.append(Op(f"cmp_{other}", "compare", a=base, b=other))
    return ops


def plan(workload: str, seed: int) -> list:
    """The ops of one round of `workload`; the same seed gives the same ops."""
    builders = {"long_walk": long_walk, "tuning_sweep": tuning_sweep, "seed_sweep": seed_sweep}
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return builders[workload](seed)
