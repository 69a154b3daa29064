"""Computations made apart from the program, and the output checks built on them.

Nothing here imports ``cavity_eit``.  The probe response is recomputed by
solving the linearised equations of motion

    dc/dt = -(2k + iD) c - i g q c + eps_c + eps_p e^{-i d t}
    m (q'' + gm q' + om^2 q) = -hbar g |c|^2

about the probe-off fixed point c0 = eps_c / (2k + iD), with
c = c0 + c+ e^{-idt} + c- e^{idt} and q = q0 + Q e^{-idt} + conj(Q) e^{idt},
as a 3x3 linear system for (c+, conj(c-), Q) at unit probe drive.  Delays
are finite differences of that solution's phase; the transparency
half-width Gamma and the static shift q0 are direct arithmetic on the
definitions.

Every ``check_*`` function returns a list of problems, empty when the
output passes.  Parameters are plain dicts with the SI keys of the
program's parameter documents (the ``params`` of a figure sidecar).
"""

from __future__ import annotations

import math

import numpy as np

HBAR = 1.054571817e-34  # J*s
C_LIGHT = 2.99792458e8  # m/s

# |eps| below which the program reports a delay as NaN
AMPLITUDE_FLOOR = 1e-9

SPECTRUM_COLUMNS = (
    "delta_rad_s", "delta_over_omega_m", "T", "R",
    "re_eps_t", "im_eps_t", "phase_t_rad", "tau_t_s", "tau_r_s",
)
SWEEP_COLUMNS = ("power_w", "tau_t_s", "tau_r_s", "gamma_rad_s")
DYNAMICS_COLUMNS = (
    "t_s", "re_q_plus", "im_q_plus", "re_c_plus", "im_c_plus", "q_total_m",
)

# tolerances, each with the worst case seen on the reference setup
EPS_RTOL = 1e-9  # eps_T against the 3x3 solve; worst seen 2.5e-14
COLUMN_RTOL = 1e-13  # T, R, phase against re/im eps_T; a few ulp
DELAY_RTOL = 1e-5  # delays against the oracle's phase difference; worst seen 1.5e-6
RESONANCE_RTOL = 1e-4  # tau_R(om) = 1/Gamma over 0.2-5 uW; worst seen 2.4e-6
RESONANCE_RTOL_WIDE = 1e-2  # 0.1 nW .. 50 uW; worst seen 2.2e-3 at 0.1 nW
INTEGRATOR_RTOL = 1e-5  # rk4 against expm, share of the peak; worst seen 2.4e-7
FIXED_POINT_RTOL = 1e-6  # c+ under constant drive; worst seen 2.6e-8


def optics(p: dict) -> tuple[float, float]:
    """Optical angular frequency and the coupling constant g = -omega_c/L."""
    oc = 2.0 * math.pi * C_LIGHT / p["wavelength"]
    return oc, -oc / p["cavity_length"]


def cavity_amp(p: dict, power: float) -> complex:
    oc, _ = optics(p)
    k = p["cavity_decay"]
    return math.sqrt(2.0 * k * power / (HBAR * oc)) / (2.0 * k + 1j * p["effective_detuning"])


def gamma(p: dict, power: float) -> float:
    """Transparency half-width gm/2 + hbar g^2 |c0|^2 / (4 m om k)."""
    _, g = optics(p)
    alpha = HBAR * g * g * abs(cavity_amp(p, power)) ** 2
    return p["mirror_damping"] / 2.0 + alpha / (
        4.0 * p["mirror_mass"] * p["mirror_freq"] * p["cavity_decay"]
    )


def static_shift(p: dict, power: float) -> float:
    """q0 = -hbar g |c0|^2 / (m om^2)."""
    _, g = optics(p)
    return -HBAR * g * abs(cavity_amp(p, power)) ** 2 / (p["mirror_mass"] * p["mirror_freq"] ** 2)


def eps_t(p: dict, power: float, delta) -> np.ndarray:
    """Transmitted amplitude 2k c+ from the 3x3 linearised system, per detuning."""
    d = np.atleast_1d(np.asarray(delta, dtype=float))
    m, om, gm = p["mirror_mass"], p["mirror_freq"], p["mirror_damping"]
    k, det = p["cavity_decay"], p["effective_detuning"]
    _, g = optics(p)
    c0 = cavity_amp(p, power)
    a = np.zeros((d.size, 3, 3), dtype=complex)
    a[:, 0, 0] = 2.0 * k + 1j * (det - d)
    a[:, 0, 2] = 1j * g * c0
    a[:, 1, 1] = 2.0 * k - 1j * (det + d)
    a[:, 1, 2] = -1j * g * np.conj(c0)
    a[:, 2, 0] = HBAR * g * np.conj(c0)
    a[:, 2, 1] = HBAR * g * c0
    a[:, 2, 2] = m * (om * om - d * d - 1j * gm * d)
    b = np.zeros((d.size, 3, 1), dtype=complex)
    b[:, 0, 0] = 1.0
    return 2.0 * k * np.linalg.solve(a, b)[:, 0, 0]


def delays(p: dict, power: float, delta) -> tuple[np.ndarray, np.ndarray]:
    """tau = d(phase)/d(delta) of both ports, Richardson-extrapolated central differences.

    The step is 1e-4 of the narrower of the transparency and cavity
    half-widths.  Where |eps_R| is within a few 1e-5 of a zero the
    subtraction eps_T - 1 leaves too few digits for this step; no workload
    samples such rows except where the program reports NaN.
    """
    d = np.atleast_1d(np.asarray(delta, dtype=float))
    h = 1e-4 * min(gamma(p, power), p["cavity_decay"])

    def slope(step):
        hi, lo = eps_t(p, power, d + step), eps_t(p, power, d - step)
        return (np.angle(hi / lo) / (2.0 * step), np.angle((hi - 1.0) / (lo - 1.0)) / (2.0 * step))

    (t1, r1), (t2, r2) = slope(h), slope(0.5 * h)
    return (4.0 * t2 - t1) / 3.0, (4.0 * r2 - r1) / 3.0


def _close(got, want, rtol: float, atol: float = 0.0) -> np.ndarray:
    got, want = np.asarray(got), np.asarray(want)
    return np.abs(got - want) <= rtol * np.abs(want) + atol


def _report(label: str, ok: np.ndarray, got, want, where) -> list[str]:
    bad = np.flatnonzero(~np.asarray(ok))
    if bad.size == 0:
        return []
    i = bad[0]
    return [
        f"{label}: {bad.size} of {ok.size} rows off; first at {where[i]!r}: "
        f"got {np.asarray(got)[i]!r}, want {np.asarray(want)[i]!r}"
    ]


def check_eps(p: dict, power: float, delta, eps) -> list[str]:
    """Program eps_T against the 3x3 solve."""
    want = eps_t(p, power, delta)
    return _report("eps_T vs 3x3 solve", _close(eps, want, EPS_RTOL), eps, want, np.atleast_1d(delta))


def check_delays(p: dict, power: float, delta, tau_t, tau_r) -> list[str]:
    """Analytic delays against the oracle's phase difference.

    A NaN delay passes only where the oracle amplitude is itself near the
    floor.  Near a zero of the delay the tolerance falls back to 1e-7/Gamma.
    """
    d = np.atleast_1d(np.asarray(delta, dtype=float))
    want_t, want_r = delays(p, power, d)
    e = eps_t(p, power, d)
    atol = 1e-7 / gamma(p, power)
    out = []
    for label, got, want, amp in (
        ("tau_T", tau_t, want_t, np.abs(e)),
        ("tau_R", tau_r, want_r, np.abs(e - 1.0)),
    ):
        got = np.atleast_1d(np.asarray(got, dtype=float))
        nan = np.isnan(got)
        ok = np.where(nan, amp < 10.0 * AMPLITUDE_FLOOR, _close(got, want, DELAY_RTOL, atol))
        out += _report(f"{label} vs oracle phase difference", ok, got, want, d)
    return out


def check_resonance_delay(p: dict, powers, tau_r) -> list[str]:
    """tau_R at the probe resonance equals 1/Gamma: 1e-4 over 0.2-5 uW, 1e-2 up to 50 uW."""
    pw = np.atleast_1d(np.asarray(powers, dtype=float))
    want = np.array([1.0 / gamma(p, x) for x in pw])
    rtol = np.where((pw >= 0.2e-6) & (pw <= 5e-6), RESONANCE_RTOL, RESONANCE_RTOL_WIDE)
    ok = np.abs(np.asarray(tau_r) - want) <= rtol * want
    return _report("tau_R(om) vs 1/Gamma", ok, tau_r, want, pw)


def check_widths(p: dict, powers, widths) -> list[str]:
    pw = np.atleast_1d(np.asarray(powers, dtype=float))
    want = np.array([gamma(p, x) for x in pw])
    return _report("Gamma vs inline arithmetic", _close(widths, want, 1e-12), widths, want, pw)


def check_spectrum_columns(om: float, cols: dict) -> list[str]:
    """T, R, phase and delta/om agree with re/im eps_T and delta on every given row."""
    re, im, d = cols["re_eps_t"], cols["im_eps_t"], cols["delta_rad_s"]
    out = []
    out += _report("T = |eps_T|^2", _close(cols["T"], re * re + im * im, COLUMN_RTOL), cols["T"], re * re + im * im, d)
    r_want = (re - 1.0) ** 2 + im * im
    out += _report("R = |eps_T - 1|^2", _close(cols["R"], r_want, COLUMN_RTOL), cols["R"], r_want, d)
    if "phase_t_rad" in cols:
        ph = np.arctan2(im, re)
        out += _report("phase_t = arg eps_T", _close(cols["phase_t_rad"], ph, 0.0, 1e-14), cols["phase_t_rad"], ph, d)
    if "delta_over_omega_m" in cols:
        out += _report("delta_over_omega_m", _close(cols["delta_over_omega_m"], d / om, 1e-15), cols["delta_over_omega_m"], d / om, d)
    return out


def check_spectrum_rows(p: dict, power: float, cols: dict) -> list[str]:
    """All spectrum checks on a set of rows given as column arrays."""
    d = cols["delta_rad_s"]
    out = check_spectrum_columns(p["mirror_freq"], cols)
    out += check_eps(p, power, d, cols["re_eps_t"] + 1j * cols["im_eps_t"])
    out += check_delays(p, power, d, cols["tau_t_s"], cols["tau_r_s"])
    return out


def check_unwrapped_phase(phase, unwrapped) -> list[str]:
    """The stitched phase equals the principal phase modulo 2pi and never jumps by pi."""
    phase, unwrapped = np.asarray(phase), np.asarray(unwrapped)
    turns = (unwrapped - phase) / (2.0 * math.pi)
    out = []
    if phase.shape != unwrapped.shape:
        return [f"unwrapped phase has {unwrapped.size} rows, spectrum {phase.size}"]
    off = np.abs(turns - np.round(turns))
    if np.any(off > 1e-9):
        out.append(f"unwrapped phase differs from phase_t by a non-multiple of 2pi (worst {off.max():.3e} turns)")
    steps = np.abs(np.diff(unwrapped))
    if np.any(steps >= math.pi):
        out.append(f"unwrapped phase steps by {steps.max():.3e} >= pi")
    return out


def check_displacement(p: dict, power: float, delta: float, times, q_plus, q_total) -> list[str]:
    """q_total = q0 + 2 Re[q+ e^{-i delta t}], recomputed with q0 from inline arithmetic."""
    q0 = static_shift(p, power)
    want = q0 + 2.0 * np.real(np.asarray(q_plus) * np.exp(-1j * delta * np.asarray(times)))
    osc = np.max(np.abs(want - q0))
    # a few ulp of q0, which can exceed the oscillation by 1e6, plus 1e-9 of the oscillation
    atol = 4.0 * np.spacing(abs(q0) + osc) + 1e-9 * osc
    return _report("q_total recomputed", _close(q_total, want, 0.0, atol), q_total, want, np.asarray(times))


def check_integrators(rk4, expm) -> list[str]:
    """Two trajectories (``times``, ``q_plus``, ``c_plus``) share their times and agree to 1e-5 of the peak."""
    if rk4.times.shape != expm.times.shape or np.any(rk4.times != expm.times):
        return ["rk4 and expm trajectories sample different times"]
    out = []
    for key in ("q_plus", "c_plus"):
        peak = np.max(np.abs(getattr(expm, key)))
        worst = np.max(np.abs(getattr(rk4, key) - getattr(expm, key)))
        if not worst <= INTEGRATOR_RTOL * peak:
            out.append(f"rk4 and expm {key} differ by {worst / peak:.3e} of the peak")
    return out


def check_steps(times, t_span, steps: int) -> list[str]:
    """A trajectory spans ``t_span`` and is sampled every k-th of ``steps`` equal steps, plus the last."""
    times = np.asarray(times)
    t0, t1 = (float(t) for t in t_span)
    h = (t1 - t0) / steps
    if times.size < 2 or times[0] != t0 or not abs(times[-1] - t1) <= 1e-12 * (t1 - t0):
        return [f"trajectory does not span [{t0!r}, {t1!r}]"]
    stride = (times[1] - times[0]) / h
    k = round(stride)
    if k < 1 or abs(stride - k) > 1e-6 or times.size != -(-steps // k) + 1:
        return [f"trajectory of {times.size} samples is not sampled on {steps} steps of {h!r} s"]
    return []


def check_fixed_point(p: dict, power: float, delta: float, amplitude: float, c_end: complex) -> list[str]:
    """Under a constant drive c+ settles to amplitude * eps_T / (2k) of the 3x3 solve."""
    want = amplitude * eps_t(p, power, delta)[0] / (2.0 * p["cavity_decay"])
    if abs(c_end - want) <= FIXED_POINT_RTOL * abs(want):
        return []
    return [f"constant drive: c+ ends at {c_end!r}, fixed point {want!r}"]


def check_comparison_report(p: dict, doc: dict) -> list[str]:
    """The computed entries of comparison_report.json against inline arithmetic."""
    out = []
    k, om = p["cavity_decay"], p["mirror_freq"]
    try:
        empty = doc["empty_cavity_transmission_delay_s"]["computed"]
        reflected = doc["reflection_delay_s_at_probe_resonance"]["computed"]
        dip = doc["transparency_dip_transmission_at_5uW"]["computed"]
        width = doc["transparency_width_rad_s_at_5uW"]["computed"]
        q_factor = doc["mechanical_quality_factor"]["computed"]
    except (KeyError, TypeError) as exc:
        return [f"comparison report lacks {exc}"]
    # empty cavity at delta = Delta: eps_T = 2k / (2k - i(delta - Delta)), tau = 1/(2k)
    pairs = [("empty-cavity delay", empty, 1.0 / (2.0 * k), 1e-9)]
    for key, tau in reflected.items():
        power = float(key.rstrip("uW")) * 1e-6
        pairs.append((f"reflected delay at {key}", tau, 1.0 / gamma(p, power), RESONANCE_RTOL))
    pairs.append(("dip transmission at 5 uW", dip, abs(eps_t(p, 5e-6, om)[0]) ** 2, EPS_RTOL))
    pairs.append(("width at 5 uW", width, gamma(p, 5e-6), 1e-12))
    pairs.append(("quality factor", q_factor, om / p["mirror_damping"], 1e-15))
    for label, got, want, rtol in pairs:
        if not abs(got - want) <= rtol * abs(want):
            out.append(f"comparison report {label}: got {got!r}, want {want!r}")
    return out


def parse_csv(data: bytes, columns: tuple[str, ...]) -> tuple[dict, list[str]]:
    """Columns of a program CSV as float arrays, or the problems met reading it."""
    lines = data.decode("ascii").splitlines()
    if not lines or tuple(lines[0].split(",")) != columns:
        return {}, [f"CSV header {lines[0] if lines else ''!r} is not {','.join(columns)!r}"]
    try:
        table = np.array([[float(x) for x in line.split(",")] for line in lines[1:]], dtype=float)
    except ValueError as exc:
        return {}, [f"CSV holds a non-number: {exc}"]
    if table.ndim != 2 or table.shape[1] != len(columns):
        return {}, ["CSV rows do not match the header"]
    return {name: table[:, i] for i, name in enumerate(columns)}, []
