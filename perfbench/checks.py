"""Output checks made apart from the program.

Nothing here imports locomanip. The scenario parameters come from the bundled
YAML files with the op's overrides applied here, and every expected value is
computed from them, from the method's laws, or from another library (scipy's
Riccati solver). The checks use tolerances, not digests of today's output,
because the trace bytes depend on which OpenBLAS kernel the host selects.

Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

# Tolerances. The plant law and the band split hold to rounding (about 1e-11
# m/s^2 and 1e-17 m today); the force schedule to rounding of a few sums.
PLANT_LAW_TOL = 1e-7  # m/s^2; moving one CoM sample by 1 um changes it by 0.25
BAND_SPLIT_TOL = 1e-12  # m
FORCE_TOL = 1e-9  # N
GAINS_RTOL = 1e-8
COMPARE_RTOL = 2e-9  # compare prints ten significant digits
NOISE_RTOL = 0.05
NOCOMP_GROWTH = 1.3
KAPPA_ONE_STRAY = 2.0

# ---------------------------------------------------------------------------
# scenario parameters, read from the YAML without the program's parser


def raw_config(root: Path, name: str, overrides=()) -> dict:
    """Bundled scenario `name` with `key=value` overrides applied by dot path."""
    path = root / "src" / "locomanip" / "scenarios" / f"{name}.yaml"
    raw = yaml.safe_load(path.read_text()) or {}
    for item in overrides:
        key, _, text = item.partition("=")
        node = raw
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = yaml.safe_load(text)
    return raw


@dataclass(frozen=True)
class Scenario:
    raw: dict

    def _get(self, section: str, key: str, default):
        return float(self.raw.get(section, {}).get(key, default))

    @property
    def dt(self) -> float:
        return float(self.raw.get("dt_s", 0.002))

    @property
    def n(self) -> int:
        return int(round(float(self.raw["duration_s"]) / self.dt))

    @property
    def mass(self) -> float:
        return self._get("robot", "mass_kg", 100.0)

    @property
    def gravity(self) -> float:
        return self._get("robot", "gravity_mps2", 9.81)

    @property
    def zmp_height(self) -> float:
        return self._get("robot", "zmp_height_m", 0.0)

    @property
    def omega(self) -> float:
        height = self._get("robot", "com_height_m", 0.8) - self.zmp_height
        return math.sqrt(self.gravity / height)

    @property
    def zeta(self) -> float:
        return self.mass * self.gravity

    def flag(self, section: str, key: str) -> bool:
        return bool(self.raw.get(section, {}).get(key, False))

    @property
    def hands(self) -> list:
        return list(self.raw.get("hands", []))

    @property
    def disturbances(self) -> list:
        return list(self.raw.get("disturbances", []))

    def hand_positions(self) -> np.ndarray:
        """(N, 3) contact positions; the checks need them fixed in time."""
        if not self.hands:
            return np.zeros((0, 3))
        pos = np.array([c["position_m"] for c in self.hands[0]["contacts"]], dtype=float)
        for bp in self.hands:
            got = np.array([c["position_m"] for c in bp["contacts"]], dtype=float)
            if got.shape != pos.shape or np.any(got != pos):
                raise ValueError("checks need hand positions fixed over time")
            for c in bp["contacts"]:
                if any(c.get("moment_nm", (0.0, 0.0, 0.0))):
                    raise ValueError("checks need zero hand moments")
                if c.get("force_n", (0, 0, 0)) != bp["contacts"][0].get("force_n", (0, 0, 0)):
                    raise ValueError("checks need equal forces on every hand")
        for d in self.disturbances:
            if d.get("contact_index") is not None:
                raise ValueError("checks need disturbances on every hand")
        return pos

    def force_sum(self, t: np.ndarray, disturbed: bool = True) -> np.ndarray:
        """(n, 3) summed hand force of the schedule, plus its disturbances
        (the true force) unless `disturbed` is False (the desired force)."""
        out = np.zeros((len(t), 3))
        n_hands = len(self.hands[0]["contacts"]) if self.hands else 0
        if not n_hands:
            return out
        times = [float(bp["time_s"]) for bp in self.hands]
        forces = [
            np.sum([c.get("force_n", (0.0, 0.0, 0.0)) for c in bp["contacts"]], axis=0)
            for bp in self.hands
        ]
        for k, tk in enumerate(t):
            i = int(np.searchsorted(times, tk, side="right")) - 1
            if i < 0:
                out[k] = forces[0]
            elif self.hands[i].get("mode", "hold") == "hold" or i + 1 == len(times):
                out[k] = forces[i]
            else:
                s = (tk - times[i]) / (times[i + 1] - times[i])
                out[k] = forces[i] + s * (forces[i + 1] - forces[i])
        for d in self.disturbances if disturbed else ():
            start = float(d.get("start_s", 0.0))
            end = float(d.get("end_s", math.inf))
            amp = float(d.get("amplitude_n", 0.0))
            on = (t >= start) & (t < end)
            if d["kind"] == "sinusoid":
                value = amp * np.sin(2.0 * np.pi * (t - start) / float(d["period_s"]))
            else:
                value = np.full(len(t), amp)
            axis = "xyz".index(d.get("axis", "x"))
            out[:, axis] += np.where(on, value, 0.0) * n_hands
        return out

    def kappa_gamma(self, fsum: np.ndarray):
        """ZMP scale and offset of the true contacts, from the summed force."""
        pos = self.hand_positions()
        if not len(pos):
            return np.ones(len(fsum)), np.zeros((len(fsum), 2))
        f = fsum / len(pos)  # every hand carries the same force
        arm = np.sum(pos[:, 2] - self.zmp_height)
        gx = (arm * f[:, 0] - np.sum(pos[:, 0]) * f[:, 2]) / self.zeta
        gy = (arm * f[:, 1] - np.sum(pos[:, 1]) * f[:, 2]) / self.zeta
        return 1.0 - fsum[:, 2] / self.zeta, np.column_stack([gx, gy])

    def footstep_plan(self, t: np.ndarray) -> np.ndarray:
        """(n, 2) ZMP reference of the footstep plan.

        Each step moves the ZMP from the previous stance point to its own
        over the leading double-support share of the step; the plan starts
        at and returns to the midpoint between the feet.
        """
        feet = self.raw.get("feet", {})
        pos = {
            "left": np.array(feet.get("left_pos_m", (0.0, 0.1)), dtype=float),
            "right": np.array(feet.get("right_pos_m", (0.0, -0.1)), dtype=float),
        }
        gait = self.raw.get("gait", {})
        mid = 0.5 * (pos["left"] + pos["right"])
        if gait.get("kind", "standing") == "standing":
            return np.tile(mid, (len(t), 1))
        ds = float(gait["double_support_fraction"])
        if gait["kind"] == "inplace":
            steps, start, foot = [], float(gait["first_step_s"]), "left"
            period = float(gait["step_period_s"])
            while start + period <= float(gait["last_step_end_s"]) + 1e-9:
                steps.append((foot, pos[foot], start, start + period))
                foot = "right" if foot == "left" else "left"
                start += period
        else:
            steps = [
                (s["foot"], np.array(s["position_m"], dtype=float), s["start_s"], s["end_s"])
                for s in gait["footsteps"]
            ]
        knot_t, knot_p, prev = [0.0], [mid], mid
        final = dict(pos)
        for foot, p, a, b in steps:
            knot_t += [a, a + ds * (b - a)]
            knot_p += [prev, p]
            prev = p
            final[foot] = p
        _, _, a, b = steps[-1]
        knot_t += [b, b + ds * (b - a)]
        knot_p += [prev, 0.5 * (final["left"] + final["right"])]
        knot_p = np.array(knot_p)
        return np.column_stack(
            [np.interp(t, knot_t, knot_p[:, 0]), np.interp(t, knot_t, knot_p[:, 1])]
        )


def load_trace(path: Path) -> dict:
    with open(path) as fh:
        names = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, i] for i, name in enumerate(names)}


def digest(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _rms(v: np.ndarray) -> float:
    return float(np.sqrt(np.mean(v * v)))


def _window(sc: Scenario, start_s: float, end_s: float) -> slice:
    end = sc.n if math.isinf(end_s) else min(sc.n, int(round(end_s / sc.dt)))
    return slice(int(round(start_s / sc.dt)), end)


# ---------------------------------------------------------------------------
# checks on every run


def check_completed(name: str, sc: Scenario, exit_code: int, stdout: str, tr) -> list:
    fails = []
    if exit_code != 0:
        fails.append(f"{name}: exit code {exit_code}")
    if "completed" not in stdout:
        fails.append(f"{name}: run did not report completion")
    if tr is not None and len(tr["time"]) != sc.n:
        fails.append(f"{name}: {len(tr['time'])} samples, expected {sc.n}")
    return fails


def check_plant_law(name: str, sc: Scenario, tr: dict) -> list:
    """Second difference of the actual CoM equals omega^2 (c - kappa z + gamma).

    Row k holds the state before step k and row k+1 the ZMP the plant
    realized during it, so c[k+1] - 2 c[k] + c[k-1] = dt^2 * acc[k].
    """
    kappa, gamma = sc.kappa_gamma(
        np.column_stack([tr["fext_sum_x"], tr["fext_sum_y"], tr["fext_sum_z"]])
    )
    worst = 0.0
    for i, ax in enumerate("xy"):
        c = tr[f"c_{ax}^a"]
        z = tr[f"z_{ax}^a"]
        k = np.arange(1, len(c) - 1)
        second = (c[k + 1] - 2.0 * c[k] + c[k - 1]) / sc.dt**2
        law = sc.omega**2 * (c[k] - kappa[k] * z[k + 1] + gamma[k, i])
        worst = max(worst, float(np.max(np.abs(second - law))))
    if not worst <= PLANT_LAW_TOL:
        return [f"{name}: CoM breaks the plant law by {worst:.3g} m/s^2"]
    return []


def check_band_split(name: str, sc: Scenario, tr: dict) -> list:
    """gammaL + gammaH recombine to gamma_err; both stay zero without compensation."""
    fails = []
    for ax in "xy":
        low, high, err = tr[f"gammaL_{ax}"], tr[f"gammaH_{ax}"], tr[f"gamma_err_{ax}"]
        if sc.flag("ablation", "disable_compensation"):
            if np.any(low != 0.0) or np.any(high != 0.0):
                fails.append(f"{name}: force-error bands move with compensation off")
        else:
            worst = float(np.max(np.abs(low + high - err)))
            if not worst <= BAND_SPLIT_TOL:
                fails.append(f"{name}: gammaL + gammaH misses gamma_err_{ax} by {worst:.3g}")
    return fails


def check_force_schedule(name: str, sc: Scenario, tr: dict) -> list:
    """The logged true hand force is the YAML schedule plus its disturbances."""
    want = sc.force_sum(np.arange(sc.n) * sc.dt)
    fails = []
    for i, ax in enumerate("xyz"):
        worst = float(np.max(np.abs(tr[f"fext_sum_{ax}"] - want[:, i])))
        if not worst <= FORCE_TOL:
            fails.append(f"{name}: fext_sum_{ax} is off the schedule by {worst:.3g} N")
    return fails


def parse_compare(stdout: str) -> dict:
    rows = {}
    for line in stdout.splitlines():
        fields = dict(part.split("=", 1) for part in line.split())
        if "metric" in fields:
            rows[fields["metric"]] = (float(fields["a"]), float(fields["b"]))
    return rows


def trace_rms(tr: dict) -> dict:
    """The rms metrics of a whole trace, computed here from its columns."""
    out = {}
    for ax in "xy":
        series = {
            "zmp_dev": tr[f"z_{ax}^a"] - tr[f"z_{ax}^d"],
            "zmp_cmd": tr[f"z_{ax}^c"] - tr[f"z_{ax}^d"],
            "com_dev": tr[f"c_{ax}^a"] - tr[f"c_{ax}^d"],
            "dcm_err": tr[f"xi_{ax}^a"] - tr[f"xi_{ax}^d"] + tr[f"gammaL_{ax}"],
            "gamma_err": tr[f"gamma_err_{ax}"],
            "gammaH": tr[f"gammaH_{ax}"],
            "gammaL": tr[f"gammaL_{ax}"],
        }
        for kind, v in series.items():
            out[f"rms_{kind}_{ax}"] = _rms(v)
    return out


def check_compare(name: str, stdout: str, tr_a: dict, tr_b: dict) -> list:
    """Every rms that `compare` prints matches numpy's rms of the trace columns."""
    rows = parse_compare(stdout)
    fails = []
    for side, tr in (("a", tr_a), ("b", tr_b)):
        for metric, want in trace_rms(tr).items():
            if metric not in rows:
                fails.append(f"{name}: compare printed no {metric}")
                continue
            got = rows[metric][0 if side == "a" else 1]
            if not abs(got - want) <= COMPARE_RTOL * abs(want) + 1e-300:
                fails.append(f"{name}: {metric} {side}={got!r}, numpy gives {want!r}")
    return fails


# ---------------------------------------------------------------------------
# workload-specific checks


def check_band_windows(name: str, sc: Scenario, tr: dict) -> list:
    """Fast force error lands in the ZMP, slow error in the CoM (x axis).

    Uses the config's first and last metrics windows (the 2 s and 10 s
    disturbance periods of testcase3).
    """
    windows = sc.raw["metrics"]["windows"]
    fails = []
    for w, fast in ((windows[0], True), (windows[-1], False)):
        s = _window(sc, float(w["start_s"]), float(w["end_s"]))
        zmp = _rms(tr["z_x^a"][s] - tr["z_x^d"][s])
        com = _rms(tr["c_x^a"][s] - tr["c_x^d"][s])
        if fast and not zmp > com:
            fails.append(f"{name}: window {w['name']}: ZMP rms {zmp:.3g} <= CoM rms {com:.3g}")
        if not fast and not com > zmp:
            fails.append(f"{name}: window {w['name']}: CoM rms {com:.3g} <= ZMP rms {zmp:.3g}")
    return fails


def check_compensation_helps(name: str, sc: Scenario, base: dict, twin: dict) -> list:
    """Without compensation, ZMP and CoM deviations both grow by > 1.3x."""
    s = _window(sc, float(sc.raw.get("metrics", {}).get("skip_initial_s", 0.0)), math.inf)
    fails = []
    for label, col in (("ZMP", "z"), ("CoM", "c")):
        dev = {
            key: _rms(tr[f"{col}_x^a"][s] - tr[f"{col}_x^d"][s])
            for key, tr in (("base", base), ("twin", twin))
        }
        if not dev["twin"] > NOCOMP_GROWTH * dev["base"]:
            fails.append(
                f"{name}: {label} deviation grows only {dev['twin'] / dev['base']:.3g}x "
                "without compensation"
            )
    return fails


def dare_feedback(sc: Scenario) -> np.ndarray:
    """Preview-control state feedback from scipy's Riccati solver."""
    from scipy.linalg import solve_discrete_are

    dt, w = sc.dt, sc.omega
    ctl = sc.raw.get("controller", {})
    q = float(ctl.get("q_zmp", 1.0))
    r = float(ctl.get("r_jerk", 1e-8))
    A = np.array([[1.0, dt, dt * dt / 2.0], [0.0, 1.0, dt], [0.0, 0.0, 1.0]])
    B = np.array([[dt**3 / 6.0], [dt * dt / 2.0], [dt]])
    C = np.array([[1.0, 0.0, -1.0 / (w * w)]])
    P = solve_discrete_are(A, B, q * C.T @ C, np.array([[r]]))
    return ((B.T @ P @ A) / (r + (B.T @ P @ B).item())).ravel()


def check_gains(name: str, sc: Scenario, exit_code: int, stdout: str) -> list:
    if exit_code != 0:
        return [f"{name}: exit code {exit_code}"]
    fields = dict(line.split("=", 1) for line in stdout.splitlines() if "=" in line)
    got = np.array([float(v) for v in fields["k_fb"].split(",")])
    want = dare_feedback(sc)
    err = float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
    fails = []
    if not err <= GAINS_RTOL:
        fails.append(f"{name}: k_fb is {err:.3g} off scipy's DARE (relative)")
    window = float(sc.raw.get("controller", {}).get("preview_window_s", 1.6))
    if int(fields["n_preview"]) != int(round(window / sc.dt)):
        fails.append(f"{name}: n_preview {fields['n_preview']} for a {window} s window")
    return fails


def check_gamma_error(name: str, sc: Scenario, tr: dict) -> list:
    """gamma_err is the offset of the disturbances plus the force noise.

    Noise-free, it equals gamma(true) - gamma(desired) to rounding. With
    noise sigma on every force axis of every hand, the remainder on x has
    rms sigma * sqrt(sum(arm^2 + px^2)) / (m g): 0.6 sigma / (m g) on
    testcase1.
    """
    t = np.arange(sc.n) * sc.dt
    _, true = sc.kappa_gamma(sc.force_sum(t))
    _, desired = sc.kappa_gamma(sc.force_sum(t, disturbed=False))
    rest = np.column_stack([tr["gamma_err_x"], tr["gamma_err_y"]]) - (true - desired)
    sigma = float(sc.raw.get("plant", {}).get("force_noise_n", 0.0))
    if sigma == 0.0:
        worst = float(np.max(np.abs(rest)))
        if not worst <= BAND_SPLIT_TOL:
            return [f"{name}: gamma_err is {worst:.3g} m off the disturbance offset"]
        return []
    pos = sc.hand_positions()
    want = sigma * math.sqrt(np.sum((pos[:, 2] - sc.zmp_height) ** 2 + pos[:, 0] ** 2)) / sc.zeta
    got = _rms(rest[:, 0])
    if not abs(got / want - 1.0) <= NOISE_RTOL:
        return [f"{name}: noise rms of gamma_err_x {got:.4g}, analytic {want:.4g}"]
    return []


def check_kappa_one(name: str, sc: Scenario, base: dict, twin: dict) -> list:
    """With kappa pinned to one, the actual ZMP strays >= 2x farther from the plan."""
    plan = sc.footstep_plan(np.arange(sc.n) * sc.dt)

    def stray(tr):
        d = np.column_stack([tr["z_x^a"], tr["z_y^a"]]) - plan
        return _rms(np.hypot(d[:, 0], d[:, 1]))

    b, t = stray(base), stray(twin)
    if not t >= KAPPA_ONE_STRAY * b:
        return [f"{name}: ZMP strays {t:.3g} m from the plan, baseline {b:.3g} m"]
    return []


def check_reruns(names, digests_by_round: list) -> list:
    """Every round of a run gives the same trace bytes as the first."""
    fails = []
    first = digests_by_round[0]
    for r, got in enumerate(digests_by_round[1:], start=2):
        for name in names:
            if got.get(name) != first.get(name):
                fails.append(f"{name}: round {r} trace differs from round 1")
    return fails


def check_distinct(ops, digests: dict) -> list:
    """Runs of one scenario with other gains, seeds or ablations differ."""
    fails = []
    seen = {}
    for op in ops:
        other = seen.setdefault((op.config, digests[op.name]), op.name)
        if other != op.name:
            fails.append(f"{op.name}: same trace as {other} from other inputs")
    return fails


# ---------------------------------------------------------------------------


def check_outputs(root: Path, ops, round_dir: Path, codes: dict, digests_by_round: list) -> list:
    """All checks of one workload: the first round's outputs in `round_dir`,
    the exit code of every op, and the trace digests of every round."""
    fails = []
    runs = [op for op in ops if op.kind == "run"]
    scenarios = {
        op.name: Scenario(raw_config(root, op.config, op.overrides))
        for op in ops
        if op.kind != "compare"
    }
    traces = {}
    for op in ops:
        stdout = (round_dir / f"{op.name}.out").read_text()
        sc = scenarios.get(op.name)
        if op.kind == "gains":
            fails += check_gains(op.name, sc, codes[op.name], stdout)
        elif op.kind == "run":
            path = round_dir / op.name / "trace.csv"
            tr = load_trace(path) if path.is_file() else None
            fails += check_completed(op.name, sc, codes[op.name], stdout, tr)
            if tr is None or len(tr["time"]) != sc.n:
                continue
            traces[op.name] = tr
            fails += check_plant_law(op.name, sc, tr)
            fails += check_band_split(op.name, sc, tr)
            fails += check_force_schedule(op.name, sc, tr)
            fails += check_gamma_error(op.name, sc, tr)
        elif op.a in traces and op.b in traces:
            if codes[op.name] != 0:
                fails.append(f"{op.name}: exit code {codes[op.name]}")
            base, twin = traces[op.a], traces[op.b]
            fails += check_compare(op.name, stdout, base, twin)
            sc, twin_sc = scenarios[op.a], scenarios[op.b]
            if twin_sc.flag("ablation", "disable_compensation"):
                fails += check_band_windows(op.a, sc, base)
                fails += check_compensation_helps(op.name, sc, base, twin)
            if twin_sc.flag("ablation", "force_kappa_one"):
                fails += check_kappa_one(op.name, sc, base, twin)
        else:
            fails.append(f"{op.name}: no traces to compare")
    names = [op.name for op in runs]
    fails += check_reruns(names, digests_by_round)
    if all(name in digests_by_round[0] for name in names):
        fails += check_distinct(runs, digests_by_round[0])
    return fails
