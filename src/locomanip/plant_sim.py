"""Deterministic closed-loop point-mass plant with ZMP actuation lag.

The plant integrates the same pendulum-with-external-forces model the
controller assumes; controller/plant mismatch enters only through injected
disturbance forces and a first-order lag between commanded and realized ZMP.
run_closed_loop drives the stabilizer's robot along a plan and logs the CSV
columns and three event flags. It goes through the plan in blocks of
samples, each in three passes. The open-loop pass reads no plant state and
runs on arrays: apply_disturbances, the true contacts' contact_terms, the
measurement noise, Stabilizer.measure_forces and the search for unloaded
feet. The feedback pass runs one step at a time on Python floats, with the
plant state and the DCM memory in local variables: Stabilizer.step and
step_plant. The ground-wrench pass feeds nothing back and runs on arrays:
Stabilizer.ground_wrench gives the cop_clamped flag, once per block. The
plant state, the DCM memory and the force-error bands go from block to
block as the run's own values; the Stabilizer holds none of them. Each law
is defined once. The compiled support hull and the ZMP clamp bounds of
every support phase are built once per run, in one table indexed by phase.
A step that fails (STEP_FAILURES) ends the run: the exception propagates
with the trace of the steps before it attached as ``exc.trace``.
"""

from __future__ import annotations

import functools
import itertools
import math
import zlib
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core_dynamics import (
    compute_coefficients,
    contact_terms,
    dcm_of,
    lipm_accel,
    net_foot_force,
)
from .errors import Infeasible, NonFiniteState, NonPhysical
from .pattern_generator import DesiredTrajectory
from .reference_builder import SoleRect
from .stabilizer import Stabilizer, check_feet_loaded, compile_hull, support_hull

_DISTURBANCE_KINDS = ("constant", "sinusoid", "step")
_AXES = {"x": 0, "y": 1, "z": 2}

DIVERGENCE_LIMIT = 1.0

# what a control step can raise once the run is under way: unloaded feet
# (Infeasible, or NonPhysical with no vertical force left) and a plant state
# that overflowed
STEP_FAILURES = (Infeasible, NonPhysical, NonFiniteState)

# realized ZMP may leave the planned support slightly (sole compliance,
# conservative planning margins); the plant clamps at this inflation
ZMP_CLAMP_MARGIN = 0.02

CSV_COLUMNS = (
    "time",
    "c_x^d",
    "c_y^d",
    "c_x^a",
    "c_y^a",
    "xi_x^d",
    "xi_y^d",
    "xi_x^a",
    "xi_y^a",
    "z_x^d",
    "z_y^d",
    "z_x^c",
    "z_y^c",
    "z_x^a",
    "z_y^a",
    "extzmp_x^ref",
    "extzmp_y^ref",
    "gamma_err_x",
    "gamma_err_y",
    "gammaH_x",
    "gammaH_y",
    "gammaL_x",
    "gammaL_y",
    "fext_sum_x",
    "fext_sum_y",
    "fext_sum_z",
)

# internal diagnostics of TraceLog.extra, outside the CSV schema
EXTRA_COLUMNS = ("zmp_saturated", "cop_clamped", "zmp_clamped")

# samples per block of run_closed_loop and of the trace CSV's read: the
# temporaries grow with it, the per-call overhead per sample shrinks with it.
# A block of the 26 CSV columns (106 KB) stays under glibc's 128 KiB mmap
# threshold.
BLOCK_SAMPLES = 512

# rows per block of the trace CSV's write: _format_rows keeps a 32-byte cell
# per value and up to about 12 arrays of 8 bytes per value alive at once, so
# a block of 64 rows (1664 values) peaks at about 0.31 MB, each array far
# under the mmap threshold
CSV_WRITE_ROWS = 64

# the columns the open-loop pass writes per block, in the order of its values
_MEASURED_COLUMNS = (
    "gamma_err_x", "gamma_err_y", "gammaL_x", "gammaL_y", "gammaH_x", "gammaH_y",
    "fext_sum_x", "fext_sum_y", "fext_sum_z",
)

# the columns a block writes from the feedback pass's tuples, in order (the
# velocity where xi^a is dcm_of(c^a, v)); the other CSV columns view the plan
_STEP_COLUMNS = (
    "c_x^a", "c_y^a", "xi_x^a", "xi_y^a", "z_x^c", "z_y^c", "z_x^a", "z_y^a",
    "zmp_saturated", "zmp_clamped",
)


@dataclass(frozen=True)
class DisturbanceProfile:
    """Additive force signal applied to true contacts, on one axis.

    kind "constant" and "step" hold the amplitude over [start_time,
    end_time); "sinusoid" oscillates with the given period over the same
    window. contact_index targets one contact of the desired set; None
    applies the signal to every contact.
    """

    kind: str
    axis: str = "x"
    amplitude: float = 0.0
    period: float = 1.0
    start_time: float = 0.0
    end_time: float = math.inf
    contact_index: int | None = None

    def __post_init__(self):
        if self.contact_index is not None and self.contact_index < 0:
            raise ValueError("disturbance contact_index must be non-negative")
        if self.kind not in _DISTURBANCE_KINDS:
            raise ValueError(f"unknown disturbance kind {self.kind!r}")
        if self.axis not in _AXES:
            raise ValueError(f"disturbance axis must be one of {sorted(_AXES)}")
        if self.kind == "sinusoid" and not self.period > 0.0:
            raise ValueError("sinusoid period must be positive")
        if not math.isfinite(self.amplitude):
            raise ValueError("disturbance amplitude must be finite")
        if not math.isfinite(self.start_time) or math.isnan(self.end_time):
            raise ValueError("disturbance start_time must be finite, end_time a number")
        if self.end_time < self.start_time:
            raise ValueError("disturbance ends before it starts")

    def value(self, t: np.ndarray) -> np.ndarray:
        """The signal at each time of the array t: 0.0 outside [start_time,
        end_time). A sinusoid's phase 2 pi (t - start_time) / period is
        taken elementwise in that order and math.sin of each phase, so each
        value is the float law's bit for bit. A phase that overflows raises
        ValueError.
        """
        out = np.zeros(t.shape)
        on = (t >= self.start_time) & (t < self.end_time)
        if self.kind != "sinusoid":
            out[on] = self.amplitude
            return out
        with np.errstate(over="ignore"):
            phase = 2.0 * math.pi * (t[on] - self.start_time) / self.period
        if not np.all(np.isfinite(phase)):
            raise ValueError(
                f"sinusoid period {self.period!r} too short: the phase overflows"
            )
        out[on] = self.amplitude * np.fromiter(map(math.sin, phase.tolist()), float)
        return out


def apply_disturbances(rows: tuple, profiles, t: np.ndarray) -> tuple:
    """True contacts at the times of the array t: desired rows plus disturbances.

    rows are contact_rows whose values are arrays of t's shape, as for
    contact_terms. Each sample comes out as the desired contacts plus the
    sum of the profiles active at its time; a sample where no profile is
    active keeps its desired values untouched. Returns rows itself when no
    disturbance is active at any time. A profile raises IndexError while it
    acts on a contact that is not present: one beyond the contacts present
    for a contact_index, any contact for a profile without one.
    """
    deltas = None
    for prof in profiles:
        v = prof.value(t)
        hit = v != 0.0
        if not np.any(hit):
            continue
        if deltas is None:
            deltas = [[0.0, 0.0, 0.0] for _ in rows]
            active = hit
        else:
            active = active | hit
        ax = _AXES[prof.axis]
        # a profile adds nothing where it is 0.0 or -0.0: a delta starts at
        # 0.0 and only sums nonzero values, so it is never -0.0 itself
        targets = deltas if prof.contact_index is None else (deltas[prof.contact_index],)
        if not targets:
            raise IndexError("disturbance acts where no contact is present")
        for d in targets:
            d[ax] = d[ax] + v
    if deltas is None:
        return rows
    return tuple(
        tuple(np.where(active, f + df, f) for f, df in zip(r[:3], d)) + r[3:]
        for r, d in zip(rows, deltas)
    )


def step_plant(px, py, vx, vy, zx, zy, cx, cy, decay, bounds, omega, kappa, gx, gy, dt):
    """Advance the plant one control period.

    The realized ZMP relaxes toward the command through an exact exponential
    first-order lag (or copies it in direct mode), is hard-clamped into the
    enlarged support rectangle, and drives a semi-implicit update of the CoM
    under the true contact forces.

    (px, py), (vx, vy) are the CoM position and velocity, (zx, zy) the
    realized and (cx, cy) the commanded ZMP. decay is the lag factor
    exp(-rho dt), or None for direct actuation; bounds is (xmin, xmax, ymin,
    ymax) of the clamp rectangle, or None. omega, kappa, (gx, gy) are the
    true contacts' coefficients. Returns the new (px, py, vx, vy, zx, zy,
    zmp_clamped); a non-finite CoM state or acceleration raises
    NonFiniteState.
    """
    if decay is None:
        zx, zy = cx, cy
    else:
        zx = cx + (zx - cx) * decay
        zy = cy + (zy - cy) * decay
    clamped = False
    if bounds is not None:
        xmin, xmax, ymin, ymax = bounds
        if not (xmin <= zx <= xmax and ymin <= zy <= ymax):
            zx = min(max(zx, xmin), xmax)
            zy = min(max(zy, ymin), ymax)
            clamped = True
    ax = lipm_accel(omega, kappa, px, zx, gx)
    ay = lipm_accel(omega, kappa, py, zy, gy)
    vx = vx + ax * dt
    vy = vy + ay * dt
    px = px + vx * dt
    py = py + vy * dt
    # x - x is 0.0 for a finite x and NaN otherwise
    if (px - px) + (py - py) + (vx - vx) + (vy - vy) + (ax - ax) + (ay - ay) != 0.0:
        for name, a, b in (
            ("position", px, py), ("velocity", vx, vy), ("acceleration", ax, ay)
        ):
            if not (math.isfinite(a) and math.isfinite(b)):
                raise NonFiniteState(f"{name}: components must be finite")
    return px, py, vx, vy, zx, zy, clamped


@dataclass(eq=False)
class TraceLog:
    """Per-step record of one closed-loop run.

    columns maps every CSV column name to a 1-D array; extra maps each
    EXTRA_COLUMNS flag, outside the CSV schema, to a bool array. In a trace
    of run_closed_loop the columns that equal the plan (time, c_*^d,
    xi_*^d, z_*^d, extzmp_*^ref) are read-only views of the plan's arrays,
    not copies. A diverged trace is truncated at the step the divergence
    was detected. A failed trace holds the steps before the one that
    raised: failure names the exception class (one of STEP_FAILURES),
    failure_detail its message and failed_at the time of the failed step.
    """

    dt: float
    columns: dict
    extra: dict = field(default_factory=dict)
    diverged: bool = False
    diverged_at: float | None = None
    failure: str | None = None
    failure_detail: str = ""
    failed_at: float | None = None

    def __len__(self):
        return len(self.columns["time"])

    def __getitem__(self, name: str) -> np.ndarray:
        return self.columns[name]

    @property
    def duration(self) -> float:
        return len(self) * self.dt

    def to_csv(self, path) -> dict:
        """Write the CSV columns, each value as the text of '%.17g' % value,
        one block of CSV_WRITE_ROWS rows at a time, and return the CRC-32
        and byte length of what was written, as trace_checksum gives them.

        The text comes from _format_rows, which gives the same bytes as
        '%.17g' for every double. Its numpy fast path scales each |x| by
        10**(16 - E), E = floor(log10|x|), to within 1e-14 (a double-double
        product), and rounds that to the 17 digits D. The
        result is certified when D has exactly 17 digits, so that E was
        right, and when the scaled value is more than 1e-9 away from a
        rounding tie, so that its error cannot move D. Every value it
        cannot certify, and every NaN, infinity, subnormal or other
        magnitude outside 1e-250..1e250, is formatted by '%.17g' itself.
        """
        columns = [self.columns[c] for c in CSV_COLUMNS]
        rows = np.empty((CSV_WRITE_ROWS, len(columns)))
        cell = np.empty((rows.size, 4), "<i8")
        seps = np.full(rows.shape, ord(","), np.int64)
        seps[:, -1] = ord("\n")
        seps = (seps << 56).ravel()
        header = (",".join(CSV_COLUMNS) + "\n").encode()
        crc, size = zlib.crc32(header), len(header)
        with open(path, "wb") as fh:
            fh.write(header)
            for b in range(0, len(self), CSV_WRITE_ROWS):
                n = min(CSV_WRITE_ROWS, len(self) - b)
                for j, c in enumerate(columns):
                    rows[:n, j] = c[b : b + n]
                for piece in _format_rows(rows[:n].ravel(), seps, cell):
                    fh.write(piece)
                    crc = zlib.crc32(piece, crc)
                    size += len(piece)
        return {"crc32": crc, "bytes": size}

    @classmethod
    def from_csv(cls, path) -> "TraceLog":
        """Read a trace CSV into one array per column, one block of rows at a
        time. Blank and comment-only lines are skipped."""
        with open(path) as fh:
            names = tuple(fh.readline().strip().split(","))
            rows = sum(1 for _ in _data_lines(fh))
            fh.seek(0)
            fh.readline()
            columns = {name: np.empty(rows) for name in names}
            lines = _data_lines(fh)
            for b in range(0, rows, BLOCK_SAMPLES):
                block = np.loadtxt(
                    itertools.islice(lines, BLOCK_SAMPLES), delimiter=",", ndmin=2
                )
                if block.shape[1] != len(names):
                    raise ValueError(f"{path}: row width does not match header")
                for name, values in zip(names, block.T):
                    columns[name][b : b + len(block)] = values
        time = columns.get("time")
        if time is None or len(time) < 2:
            raise ValueError(f"{path}: need a time column with at least 2 rows")
        dt = float(time[1] - time[0])
        return cls(dt=dt, columns=columns)


def _data_lines(fh):
    """The lines of fh that np.loadtxt reads a row from: those with text
    before any '#'."""
    return (line for line in fh if line.partition("#")[0].strip())


# ---------------------------------------------------------------------------
# '%.17g' text of float64 values, for TraceLog.to_csv
#
# Each value gets a cell of four little-endian int64 words, 32 bytes, which
# hold its text with zero bytes between the parts; dropping the zero bytes
# leaves the text. Word 0 holds the sign and the "0.000" prefix of
# 1e-4 <= |x| < 1; words 1-3 hold the 17 digits with the decimal point
# inserted, then the exponent ("e+05", "e-123") and the separator. In a
# word, the byte at text position j is bits 8j..8j+7, so shifting left by 8
# moves the text one position later.

_G17_E = range(-260, 261)  # the decimal exponents E the tables hold
_G17_MIN, _G17_MAX = 1e-250, 1e250  # |x| the fast path formats
_G17_TIE = 0.5 - 1e-9  # the farthest a certified scaled value lies from an integer
_SPLIT = 134217729.0  # 2**27 + 1: splits a double into two 26-bit halves
_DIGIT = np.arange(48, 58)  # the word of each digit's text


class _G17Tables(NamedTuple):
    p10_hi: np.ndarray  # 10**(16 - E) = hi + lo, by E - _G17_E[0]
    p10_hh: np.ndarray  # hi = hh + hl, for Dekker's product
    p10_hl: np.ndarray
    p10_lo: np.ndarray
    quad: np.ndarray  # the word of a 4-digit group's text
    ends: tuple  # text position after the last nonzero digit, per group
    layout: tuple  # (keep, shift, dot) masks of words 1-3, per layout
    template: np.ndarray  # 18 * the template of E
    prefix: np.ndarray  # word 0 of E, sign aside
    suffix: np.ndarray  # the exponent of E in word 3


def _word(text: bytes) -> int:
    return int.from_bytes(text.ljust(8, b"\0"), "little")


def _pow10_tables():
    """10**(16 - E) for each E of _G17_E as hi + lo, each correctly rounded
    (int / int is), and hi = hh + hl split for Dekker's product."""
    hi, lo = [], []
    for e in _G17_E:
        num, den = (10 ** (16 - e), 1) if e <= 16 else (1, 10 ** (e - 16))
        h = num / den
        n, d = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * d - n * den) / (den * d))
    hi = np.array(hi)
    c = hi * _SPLIT
    hh = c - (c - hi)
    return hi, hh, hi - hh, np.array(lo)


def _digit_tables():
    """The word of each 4-digit group's text, and for each of the groups
    q1..q4 (text positions 1-4, 5-8, 9-12, 13-16) the position after its
    last nonzero digit, or 1 for a zero group."""
    q = np.arange(10000, dtype=np.int16)
    text = np.stack([(q // 10**i % 10 + 48).astype(np.uint8) for i in (3, 2, 1, 0)], 1)
    quad = text.view("<u4")[:, 0].astype(np.int64)
    sig = np.full(len(q), 4, np.uint8)
    for i in (1, 2, 3):
        sig -= q % 10**i == 0
    return quad, tuple(np.where(q == 0, 1, 1 + 4 * k + sig) for k in range(4))


def _layout_tables():
    """The (keep, shift, dot) masks of words 1-3 for each layout 18 * t + n
    of template t and n digits. Template 0-16 is fixed notation with that
    E, 17 fixed notation with -4 <= E < 0, 18 exponent notation. Byte j of
    words 1-3 keeps digit j, takes digit j - 1 (after the point) or is the
    point."""
    t, n = np.divmod(np.arange(19 * 18, dtype=np.int16), 18)
    point = np.select([t < 17, t == 17], [t + 1, 18], 1).astype(np.int8)
    shown = np.select([t < 17, t == 17], [t + 1, 0], 1)  # digits kept if zero
    length = np.where(n > point, n + 1, np.maximum(n, shown)).astype(np.int8)
    j = np.arange(24, dtype=np.int8)
    keep = j < np.minimum(point, length)[:, None]
    shift = (j > point[:, None]) & (j < length[:, None])
    dot = (j == point[:, None]) & (j < length[:, None])
    return tuple(
        tuple(np.ascontiguousarray((m * np.uint8(byte)).view("<i8")[:, k]) for k in range(3))
        for m, byte in ((keep, 0xFF), (shift, 0xFF), (dot, ord(".")))
    )


@functools.cache
def _g17_tables() -> _G17Tables:
    """The fast path's lookup tables (180 KB), built from Python ints and
    bytes on the first write of a process."""
    es = np.array(_G17_E)
    template = np.select([(es >= 0) & (es < 17), (es < 0) & (es >= -4)], [es, 17], 18)
    prefix = [_word(b"\0" + b"0." + b"0" * (-e - 1) if -4 <= e < 0 else b"") for e in _G17_E]
    # at text positions 18-22, after the digits and the point; %g writes
    # at least two exponent digits
    suffix = [_word(b"" if -4 <= e < 17 else b"\0\0e%+03d" % e) for e in _G17_E]
    return _G17Tables(
        *_pow10_tables(), *_digit_tables(), _layout_tables(), 18 * template,
        np.array(prefix, np.int64), np.array(suffix, np.int64),
    )


def _g17_product(a, ei, tab: _G17Tables):
    """(p, t) with p + t within 1e-14 of a * 10**(16 - E): p = fl(a * hi)
    and t the rest of Dekker's exact product a * hi, plus a * lo."""
    p = tab.p10_hi.take(ei)
    p *= a
    ah = a * _SPLIT
    ah -= ah - a
    al = a - ah
    hh, hl = tab.p10_hh.take(ei), tab.p10_hl.take(ei)
    t = ah * hh
    t -= p
    ah *= hl
    t += ah
    np.multiply(al, hh, out=hh)
    t += hh
    al *= hl
    t += al
    np.take(tab.p10_lo, ei, out=hh)
    hh *= a
    t += hh
    return p, t


def _g17_scaled(x, tab: _G17Tables):
    """The fast path's first stage over the float64 array x: (ei, d, fast).

    ei is E - _G17_E[0] with E = floor(log10|x|), d = round(|x| * 10**(16 -
    E)) as int64, and fast marks the values whose d is certified: d has 17
    digits and the scaled value (_g17_product) lies more than 1e-9 from a
    rounding tie. Zeros are fast with d = 0 and E = 0.
    """
    a = np.abs(x)
    zero = a == 0.0
    fast = (a >= _G17_MIN) & (a <= _G17_MAX)
    np.copyto(a, 1.0, where=~fast)
    ei = np.floor(np.log10(a)).astype(np.intp)
    ei -= _G17_E[0]
    p, t = _g17_product(a, ei, tab)
    # p + t >= 1e16, else E was too large (p - 1e16 is exact near 1e16)
    np.subtract(p, 1e16, out=a)
    a += t
    fast &= a >= 0.0
    r = np.rint(t)
    t -= r
    np.abs(t, out=t)
    fast &= t <= _G17_TIE
    d = p.astype(np.int64)
    d += r.astype(np.int64)
    # d < 1e17, else E was too small or the rounding carried
    fast &= d < 10**17
    fast |= zero
    np.copyto(d, 0, where=zero)
    np.copyto(ei, -_G17_E[0], where=zero)
    return ei, d, fast


def _g17_digits(d, ei, tab: _G17Tables, cell):
    """Words 1-3 of each cell: the 17 digits of d (which this consumes)
    with the point where E's template puts it and the fraction's trailing
    zeros dropped."""
    # d0, then the 4-digit groups q1..q4 (q2 and q4 in place)
    d0 = d // 10**16
    d -= d0 * 10**16
    q2 = d // 10**8
    d -= q2 * 10**8
    q1 = q2 // 10**4
    q2 -= q1 * 10**4
    q3 = d // 10**4
    d -= q3 * 10**4
    digits = tab.ends[0].take(q1)
    for ends, q in zip(tab.ends[1:], (q2, q3, d)):
        np.maximum(digits, ends.take(q), out=digits)
    layout = tab.template.take(ei)
    layout += digits
    # the digits' text as the words s0 s1 s2 of positions 0-7, 8-15, 16
    s0 = tab.quad.take(q1) << 8
    s0 |= _DIGIT.take(d0, mode="clip")
    w = tab.quad.take(q2)
    s0 |= w << 40
    s1 = w >> 24
    w = tab.quad.take(q3)
    s1 |= w << 8
    w = tab.quad.take(d)
    s1 |= w << 40
    s2 = w >> 24
    del q1, q2, q3, d0, digits, w
    # each s word as it is before the point, and shifted one position
    # later after it
    prev = np.zeros(len(d), np.int64)
    for k, s in enumerate((s0, s1, s2)):
        keep, shift, dot = (masks[k].take(layout) for masks in tab.layout)
        later = s << 8
        later |= prev
        np.right_shift(s, 56, out=prev)
        later &= shift
        keep &= s
        keep |= later
        np.bitwise_or(keep, dot, out=cell[:, 1 + k])


def _format_rows(x, seps, cell) -> list:
    """The '%.17g' text of each value of the contiguous float64 array x,
    each followed by its separator, as a list of bytes-like pieces to write
    in order. seps holds each value's separator as (char << 56); cell is
    scratch of at least (len(x), 4) little-endian int64.

    _g17_scaled gives the 17 digits D of the values it certifies (why they
    are exact: TraceLog.to_csv), _g17_digits lays them out in %g's fixed
    notation for -4 <= E < 17 and exponent notation otherwise, with the
    fraction's trailing zeros dropped. Every other value goes through
    '%.17g' one at a time.
    """
    n = len(x)
    cell = cell[:n]
    tab = _g17_tables()
    ei, d, fast = _g17_scaled(x, tab)
    _g17_digits(d, ei, tab, cell)
    del d  # each stage's arrays are freed before the next one allocates
    np.bitwise_or(cell[:, 3], tab.suffix.take(ei), out=cell[:, 3])
    cell[:, 3] |= seps[:n]
    # word 0: x >> 63 is -1 where the sign bit is set
    sign = x.view(np.int64) >> 63
    sign &= ord("-")
    np.bitwise_or(tab.prefix.take(ei), sign, out=cell[:, 0])
    del ei, sign

    slow = np.flatnonzero(~fast)
    cell[slow, :3] = 0
    cell[slow, 3] = seps[slow]
    text = cell.view(np.uint8).ravel()
    kept = text != 0
    out = text[kept]
    if not len(slow):
        return [out]
    # a slow value's cell holds its separator alone: its text goes before it
    pieces, start, done = [], 0, 0
    for i in slow:
        end = start + int(np.count_nonzero(kept[32 * done : 32 * i]))
        pieces += [out[start:end], b"%.17g" % x[i]]
        start, done = end, i
    pieces.append(out[start:])
    return pieces


def _block_contacts(timeline, b0: int, b1: int):
    """Planned contacts of samples b0 to b1, cut where the contact count changes.

    Returns (end, rows): the block ends before the first sample whose count
    differs from sample b0's, and rows are its contacts as contact_rows
    whose values are arrays over the block.
    """
    sets = timeline.contact_index[b0:b1]
    first = timeline.contact_start[sets]
    count = timeline.contact_start[sets + 1] - first
    cut = np.flatnonzero(count != count[0])
    if len(cut):
        b1 = b0 + int(cut[0])
        first = first[: cut[0]]
    table = timeline.contact_table
    return b1, tuple(tuple(table[first + i].T) for i in range(int(count[0])))


def _open_loop_block(traj, b0, stabilizer, disturbances, columns, noise, rng, bands):
    """The open-loop pass over the block from sample b0, on arrays.

    Runs apply_disturbances, the true contacts' contact_terms, the noise
    draws, the measured contacts' contact_terms if force noise was added to
    them, and Stabilizer.measure_forces, against the timeline's planned
    gamma, from the bands of the sample before b0, and writes the block's
    _MEASURED_COLUMNS into columns. None of this reads the plant. Returns
    (b1, inputs, fz, bands, unloaded):

    - b1, the block's end;
    - inputs, the per-sample inputs of the samples before the block's first
      unloaded one (to b1 at most) as lists, in the order _feedback_pass
      takes them: phase, planned kappa, plan (DCM and ZMP), the planned CoM
      of the next sample, bands, noise (None without noise), and the true
      kappa, gamma_x and gamma_y;
    - fz, the measured contacts' vertical foot force (net_foot_force);
    - bands, those of the block's last sample;
    - unloaded, the exception check_feet_loaded raises at the block's first
      sample whose fz is not > 0, as the ground-wrench stage would raise
      there, or None.
    """
    timeline = traj.timeline
    params = stabilizer.params
    n = len(timeline)
    b1, desired = _block_contacts(timeline, b0, min(b0 + BLOCK_SAMPLES, n))
    m = b1 - b0
    true = apply_disturbances(desired, disturbances, traj.time[b0:b1])
    zeta = params.mass * params.gravity
    fsx, fsy, fsz, kappa, gx, gy = contact_terms(true, zeta, params.zmp_height)
    # the measured contacts and their gamma: the true ones without force noise
    measured, mgx, mgy = true, gx, gy
    sample_noise = None
    if rng is not None:
        com_noise, vel_noise, force_noise = noise
        # per sample: CoM 2, velocity 2, then 3 per contact with force noise
        width = 4 + 3 * len(true) if force_noise > 0.0 else 4
        draws = rng.standard_normal((m, width)).T
        scales = (com_noise, com_noise, vel_noise, vel_noise)
        sample_noise = np.column_stack([s * e for s, e in zip(scales, draws)])
        if force_noise > 0.0:
            e = iter(draws[4:])
            measured = tuple(
                tuple(f + force_noise * next(e) for f in r[:3]) + r[3:] for r in true
            )
            *_, mgx, mgy = contact_terms(measured, zeta, params.zmp_height)
    gex, gey, bands = stabilizer.measure_forces(mgx, mgy, timeline.gamma[b0:b1], m, bands)
    low_x, low_y, high_x, high_y = _columns(bands, 6)[:4]
    for name, value in zip(
        _MEASURED_COLUMNS, (gex, gey, low_x, low_y, high_x, high_y, fsx, fsy, fsz)
    ):
        columns[name][b0:b1] = value

    fz = np.broadcast_to(net_foot_force(params, 0.0, 0.0, 0.0, measured)[2], m)
    stop = np.flatnonzero(~(fz > 0.0))
    end = int(stop[0]) if len(stop) else m
    unloaded = None
    if end < m:
        try:
            check_feet_loaded(fz[end])
        except STEP_FAILURES as exc:
            unloaded = exc
    # the CoM of each step's next sample (the last sample's own past the
    # end), which the divergence test reads
    ahead = np.minimum(np.arange(b0 + 1, b0 + end + 1), n - 1)
    inputs = (
        timeline.phase[b0 : b0 + end].tolist(),
        timeline.kappa[b0 : b0 + end].tolist(),
        np.column_stack([traj.dcm[b0 : b0 + end], traj.zmp[b0 : b0 + end]]).tolist(),
        traj.com_pos[ahead].tolist(),
        bands[:end],
        [None] * end if sample_noise is None else sample_noise[:end].tolist(),
        *(np.broadcast_to(a, m)[:end].tolist() for a in (kappa, gx, gy)),
    )
    return b1, inputs, fz, bands[-1], unloaded


def _columns(rows: list, width: int) -> np.ndarray:
    """A list of equal tuples of `width` floats (or bools) as a (width,
    len(rows)) array view, one row per tuple position."""
    flat = np.fromiter(itertools.chain.from_iterable(rows), float, width * len(rows))
    return flat.reshape(-1, width).T


def _feedback_pass(step, omega, law, support, plant, memory, inputs):
    """The feedback pass over a block's samples in inputs, one step at a
    time.

    Per sample: read the plant, add the sample's noise, run Stabilizer.step
    on its planned DCM and ZMP, its bands and the DCM memory, advance the
    plant under the true contacts with step_plant, then test the new CoM
    against the next sample's planned CoM. The plant state and the memory
    stay in local variables. law is (decay, plant omega, dt, divergence
    limit), support the run's table (compiled hulls, clamp bounds), two
    lists by phase, plant is (px, py, vx, vy, zx, zy), memory the DCM
    memory of the step before and inputs are the lists of
    _open_loop_block.

    Returns (logged, plant, memory, failure, diverged): per step the tuple
    (px, py, vx, vy, zcx, zcy, zx, zy, zmp_saturated, zmp_clamped) before
    step_plant, the plant and the memory after the last step,
    the STEP_FAILURES exception that stopped the pass (its step is not
    logged) or None, and whether the last step's CoM left the plan by more
    than the limit.
    """
    decay, plant_omega, dt, limit = law
    hulls, clamp_bounds = support
    px, py, vx, vy, zx, zy = plant
    logged = []
    append = logged.append
    phase = None
    try:
        for ph, kappa_d, plan, ahead, band, noise, kappa, gx, gy in zip(*inputs):
            if ph != phase:
                phase = ph
                hull = hulls[ph]
                bounds = clamp_bounds[ph]
            if noise is None:
                zcx, zcy, sat, memory = step(
                    kappa_d, omega, plan, px, py, vx, vy, hull, band, memory
                )
            else:
                ncx, ncy, nvx, nvy = noise
                zcx, zcy, sat, memory = step(
                    kappa_d, omega, plan, px + ncx, py + ncy, vx + nvx, vy + nvy,
                    hull, band, memory,
                )
            stepped = step_plant(
                px, py, vx, vy, zx, zy, zcx, zcy, decay, bounds,
                plant_omega, kappa, gx, gy, dt,
            )
            append((px, py, vx, vy, zcx, zcy, zx, zy, sat, stepped[6]))
            px, py, vx, vy, zx, zy, _ = stepped
            if abs(px - ahead[0]) > limit or abs(py - ahead[1]) > limit:
                return logged, None, memory, None, True
    except STEP_FAILURES as exc:
        return logged, None, memory, exc, False
    return logged, (px, py, vx, vy, zx, zy), memory, None, False


def _closed_loop_block(
    traj, b0, stabilizer, disturbances, columns, noise, rng, law, support, carried
):
    """One block from sample b0 in its three passes: _open_loop_block, then
    _feedback_pass up to the first unloaded sample, then the ground-wrench
    pass over the steps taken, one Stabilizer.ground_wrench call on the
    block's columns. Writes the block's columns.
    carried is what the block continues from: (plant, DCM memory, bands)
    after the sample before b0.

    Returns (b1, k, carried, failure, diverged): the block's end, the first
    sample not logged, what the next block continues from, the
    STEP_FAILURES exception that stopped the run (at k) or None, and
    whether the step before k diverged.
    """
    omega = traj.timeline.omega
    plant, memory, bands = carried
    b1, inputs, fz, bands, unloaded = _open_loop_block(
        traj, b0, stabilizer, disturbances, columns, noise, rng, bands
    )
    logged, plant, memory, failure, diverged = _feedback_pass(
        stabilizer.step, omega, law, support, plant, memory, inputs
    )
    if failure is None and not diverged:
        failure = unloaded
    k = b0 + len(logged)
    if logged:
        steps = slice(b0, k)
        block = _columns(logged, 10)
        com_x, com_y, vel_x, vel_y = block[:4]
        for name, values in zip(
            _STEP_COLUMNS,
            (com_x, com_y, dcm_of(com_x, vel_x, omega), dcm_of(com_y, vel_y, omega),
             *block[4:]),
        ):
            columns[name][steps] = values
        columns["cop_clamped"][steps] = stabilizer.ground_wrench(
            block[4], block[5], traj.timeline.kappa[steps],
            columns["gamma_err_x"][steps], columns["gamma_err_y"][steps],
            fz[: len(logged)], support[0], traj.timeline.phase[steps],
        )
    return b1, k, (plant, memory, bands), failure, diverged


def run_closed_loop(
    traj: DesiredTrajectory,
    stabilizer: Stabilizer,
    disturbances=(),
    direct_zmp: bool = False,
    com_noise: float = 0.0,
    force_noise: float = 0.0,
    seed: int | None = None,
    divergence_limit: float = DIVERGENCE_LIMIT,
) -> TraceLog:
    """Simulate the stabilized plant along a planned trajectory.

    The plant is the stabilizer's robot with the ZMP lag of gains.rho; a
    stabilizer whose dt or omega is not the plan's raises ValueError. It
    starts from the plan's first sample: planned CoM position and velocity,
    realized ZMP on the planned ZMP. Before the first block, it builds one
    support table for the run: per support phase of timeline.support_regions,
    the support hull compiled for the inside test (compile_hull) and the ZMP
    clamp bounds (the soles' bounding rectangle grown by ZMP_CLAMP_MARGIN),
    which every pass indexes by phase. The run goes in blocks of at most
    BLOCK_SAMPLES samples, cut where the number of hand contacts changes,
    and each block in three passes:

    - open loop, on arrays over the block (_open_loop_block): the true
      contacts by apply_disturbances and their contact_terms; white
      measurement noise from np.random.default_rng(seed), drawn per sample
      in the order CoM (2), velocity (2), then 3 per contact with force
      noise; Stabilizer.measure_forces, which measures the force error of
      every sample and splits it into bands; and the first sample whose
      measured contacts leave the feet no downward force.
    - feedback, per step on floats (_feedback_pass): read the plant, add the
      sample's noise, run Stabilizer.step, log, then advance the plant under
      the true (disturbed) contacts with step_plant, up to that unloaded
      sample, where the run stops with the exception check_feet_loaded
      raises for its fz, as the ground-wrench stage would. The block then
      writes its columns; xi_*^a is dcm_of of the logged CoM and velocity.
    - ground wrench, on arrays over the steps taken: one
      Stabilizer.ground_wrench call at the planned CoM, on the logged command
      ZMP and gamma_err, for the cop_clamped flag; its hull test runs on each
      phase's slice of the block. Nothing reads the net wrench back, and the
      plant never reads a per-foot split.

    Aborts and marks the trace when the actual CoM leaves the desired one
    by more than divergence_limit. A step that raises one of STEP_FAILURES
    ends the run; the exception propagates with the truncated trace as
    ``exc.trace``. The controller's memory is the run's own: the bands and
    the DCM-error memory start at zero and go from block to block with the
    plant state, and the stabilizer is only read, so one Stabilizer can
    drive any number of runs with the same result as a fresh one. A
    disturbance whose contact_index is past the contacts present raises
    IndexError from the open-loop pass of the block where it first acts. A
    divergence_limit that is not positive, a noise level that is negative
    or not finite, and noise without a seed raise ValueError.
    """
    timeline = traj.timeline
    dt = timeline.dt
    omega = timeline.omega
    if abs(stabilizer.dt - dt) > 1e-12:
        raise ValueError("stabilizer and plan sample at different rates")
    if abs(stabilizer.omega - omega) > 1e-9 * omega:
        raise ValueError("stabilizer built for a different pendulum frequency")
    if not divergence_limit > 0.0:
        raise ValueError("divergence_limit must be positive")
    if not all(math.isfinite(v) and v >= 0.0 for v in (com_noise, force_noise)):
        raise ValueError("noise levels must be finite and non-negative")
    n = len(traj.time)
    noisy = com_noise > 0.0 or force_noise > 0.0
    if noisy and seed is None:
        raise ValueError("measurement noise needs a seed, so that a rerun gives the same trace")
    rng = np.random.default_rng(seed) if noisy else None

    # the plan's columns are read-only views of its arrays; the loop writes
    # one preallocated array per other column, a block at a time. One 2-D
    # buffer would hold the same bytes, but once freed it raises glibc's
    # dynamic mmap threshold above the trace-sized temporaries of later runs
    # in the process, which then stay resident on the heap (+1.8 MB peak RSS
    # over a seed sweep).
    plan_columns = {
        "time": traj.time,
        "c_x^d": traj.com_pos[:, 0],
        "c_y^d": traj.com_pos[:, 1],
        "xi_x^d": traj.dcm[:, 0],
        "xi_y^d": traj.dcm[:, 1],
        "z_x^d": traj.zmp[:, 0],
        "z_y^d": traj.zmp[:, 1],
        "extzmp_x^ref": timeline.ext_zmp_ref[:, 0],
        "extzmp_y^ref": timeline.ext_zmp_ref[:, 1],
    }
    columns = {name: np.zeros(n) for name in CSV_COLUMNS if name not in plan_columns}
    columns.update((name, np.zeros(n, dtype=bool)) for name in EXTRA_COLUMNS)

    decay = None if direct_zmp else math.exp(-stabilizer.gains.rho * dt)
    law = (decay, compute_coefficients(stabilizer.params).omega, dt, divergence_limit)
    # per support phase: the compiled hull and the ZMP clamp bounds
    m = ZMP_CLAMP_MARGIN
    hulls, clamp_bounds = [], []
    for region in timeline.support_regions:
        base = SoleRect.bounding(region)
        hulls.append(compile_hull(support_hull(region)))
        clamp_bounds.append((base.xmin - m, base.xmax + m, base.ymin - m, base.ymax + m))
    support = (hulls, clamp_bounds)
    plant = (
        *traj.com_pos[0].tolist(), *traj.com_vel[0].tolist(), *traj.zmp[0].tolist()
    )
    noise = (com_noise, com_noise * omega, force_noise)
    # the plant, the DCM memory and the bands, each block's from the last
    carried = (plant, (0.0,) * 6, (0.0,) * 6)

    failure = None
    diverged = False
    last = n
    b0 = 0
    while b0 < n:
        # a block's lists and arrays are freed when its call returns, before
        # the next block builds its own
        b1, k, carried, failure, diverged = _closed_loop_block(
            traj, b0, stabilizer, disturbances, columns, noise, rng, law, support,
            carried,
        )
        if failure is not None or diverged:
            last = k
            break
        b0 = b1

    if last < n:
        columns = {name: col[:last].copy() for name, col in columns.items()}
    columns.update((name, view[:last]) for name, view in plan_columns.items())
    diverged_at = None
    if diverged:
        # the plant's clock, advanced by dt once per step
        diverged_at = float(traj.time[0])
        for _ in range(last):
            diverged_at = diverged_at + dt
    trace = TraceLog(
        dt=dt,
        columns={name: columns[name] for name in CSV_COLUMNS},
        extra={name: columns[name] for name in EXTRA_COLUMNS},
        diverged=diverged,
        diverged_at=diverged_at,
    )
    if failure is not None:
        trace.failure = type(failure).__name__
        trace.failure_detail = str(failure)
        trace.failed_at = float(traj.time[last])
        failure.trace = trace
        raise failure
    return trace
