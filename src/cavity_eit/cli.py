"""Command-line front end: deterministic CSV/JSON artifacts from one config.

Commands map one-to-one onto the library: ``steady-state``, ``spectrum``,
``delay-sweep``, ``width-sweep``, ``dynamics``, plus ``figure`` which
writes the data bundle underlying each published figure of the reference
configuration: a fixed list of runs of those commands, a sidecar JSON of
the record each run resolved, and a comparison report of computed vs
previously reported scalars.

Floats are written in fixed 17-significant-digit scientific notation so
CSV output round-trips doubles losslessly and is byte-stable across runs.
Undefined delays are emitted as the literal ``NaN``.  The bytes are those
``'%.16e' % v`` writes, but made a block of rows at a time by array
arithmetic that rounds each float exactly, with the same bytes on every
machine; a float within 1e-6 of a rounding tie, inf and NaN are written by
``'%.16e'`` itself.

Exit codes: 0 success, 1 validation error (message names the offending
field), 2 numerical error (instability, undefined delay at a requested
single point).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .params import (
    DriveParams,
    ParameterError,
    SystemParams,
    _param_dict,
    derive,
    load_params,
    reference_defaults,
)
from .steady_state import solve_steady
from .response import (
    DegenerateDenominatorError,
    eit_width,
    group_delay_analytic,
    power_sweep,
    spectrum,
    transmitted_amplitude,
)
from .dynamics import (
    METHOD_EXPM,
    METHOD_RK4,
    PULSE_SHAPES,
    InstabilityError,
    PulseSpec,
    StepSizeError,
    build_matrix,
    integrate,
    reconstruct_displacement,
)

SPECTRUM_HEADER = (
    "delta_rad_s,delta_over_omega_m,T,R,re_eps_t,im_eps_t,phase_t_rad,tau_t_s,tau_r_s"
)
SWEEP_HEADER = "power_w,tau_t_s,tau_r_s,gamma_rad_s"
DYNAMICS_HEADER = "t_s,re_q_plus,im_q_plus,re_c_plus,im_c_plus,q_total_m"


class UndefinedDelayError(ArithmeticError):
    """The group delay at the single requested sweep point is undefined."""


NUMERICAL_ERRORS = (
    InstabilityError, StepSizeError, DegenerateDenominatorError, UndefinedDelayError
)


# The CSV float formatter.  A finite v != 0 is written as the 17 significant
# digits N of |v| * 10^(16 - E), N in [10^16, 10^17), rounded half-even as
# '%.16e' rounds it.  |v| * 10^(16 - E) is formed as a double-double from
# frexp's mantissa and a 107-bit 10^k = (hi + lo) * 2^b (Dekker's exact
# product of the mantissa and hi, plus mantissa * lo), so its error is under
# 1e-13 and N is exact unless the fraction lies within _TIE_MARGIN of 1/2.
# Such elements, and inf and NaN, are written by '%.16e' itself.  Only exactly
# rounded float64 and int64 ops are used (no log10, exp or FMA), so the bytes
# do not depend on numpy's SIMD dispatch.
_E_MIN, _E_MAX = -326, 309  # every E the estimate and its two steps reach
_LOG10_2 = 0.30102999566398120
_SPLIT = 134217729.0  # 2^27 + 1 splits a double into two 26-bit halves
_TIE_MARGIN = 1e-6
# A field is 7 little-endian words, "\0-d." "dddd" x 4 "e-dd" "d,\0\0": every
# byte but a pad byte (0) is written, so the row bytes are the nonzero ones.
_WORDS = 7
_BLOCK_ROWS = 512  # rows formatted at once: memory stays flat for long tables


@functools.cache
def _format_tables() -> tuple[np.ndarray, ...]:
    """The formatter's lookup tables, built on the first CSV.

    Indexed by E - _E_MIN: hi, hi's two Dekker halves, lo and b with
    10^(16 - E) = (hi + lo) * 2^b to 107 bits, from exact integers, and the
    words "e+dd" / "e-dd" and "d" of the exponent (a pad byte for the hundreds
    digit of a two-digit exponent).  Indexed by g: the word "dddd" of 0 <= g < 10^4.
    """
    his, los, bs = [], [], []
    for k in range(16 - _E_MIN, 16 - _E_MAX - 1, -1):
        if k >= 0:  # 10^k truncated to 107 bits: m * 2^s
            n = 10**k
            s = n.bit_length() - 107
            m = n >> s if s >= 0 else n << -s
        else:  # 2^-s / 10^-k, floored to 107 bits
            s = -(10 ** -k).bit_length() - 106
            m = (1 << -s) // 10**-k
        his.append(m >> 54)
        los.append(m & ((1 << 54) - 1))
        bs.append(s + 54)
    hi = np.array(his, dtype=float)
    c = hi * _SPLIT
    hi1 = c - (c - hi)
    lo = np.array(los, dtype=float) * 2.0**-54

    g = np.arange(10_000)
    digits = _word(g // 1000 + 48, g // 100 % 10 + 48, g // 10 % 10 + 48, g % 10 + 48)
    e = np.arange(_E_MIN, _E_MAX + 1)
    a = np.abs(e)
    hundreds = np.where(a < 100, 0, a // 100 + 48)
    exp_head = _word(ord("e"), np.where(e < 0, ord("-"), ord("+")), hundreds, a // 10 % 10 + 48)
    exp_tail = _word(a % 10 + 48, 0, 0, 0)
    return hi, hi1, hi - hi1, lo, np.array(bs, dtype=np.int32), exp_head, exp_tail, digits


def _word(b0, b1, b2, b3) -> np.ndarray:
    """The little-endian uint32 words of the bytes b0..b3."""
    b0, b1, b2, b3 = map(np.asarray, (b0, b1, b2, b3))
    return (b0 | b1 << 8 | b2 << 16 | b3 << 24).astype("<u4")


def _round17(m, e, E, tables):
    """N = |v| * 10^(16 - E) rounded half-even, |v| = m * 2^e, and whether N may be off by one."""
    hi, hi1, hi2, lo, b = (t[E - _E_MIN] for t in tables[:5])
    c = m * _SPLIT
    m1 = c - (c - m)
    m2 = m - m1
    p = m * hi
    r = ((m1 * hi1 - p) + m1 * hi2 + m2 * hi1) + m2 * hi2 + m * lo
    shift = e + b
    p = np.ldexp(p, shift)  # an integer once N >= 10^16 > 2^53
    r = np.ldexp(r, shift)
    ri = np.rint(r)
    return p.astype(np.int64) + ri.astype(np.int64), np.abs(r - ri) > 0.5 - _TIE_MARGIN


def _format_block(block: np.ndarray, tables) -> bytes:
    """The rows of a 2-D float64 block as CSV lines, each float as '%.16e' writes it."""
    v = block.ravel()
    finite = np.isfinite(v)
    zero = v == 0
    m, e = np.frexp(np.where(finite & ~zero, np.abs(v), 1.0))
    E = np.floor((e - 1) * _LOG10_2).astype(np.intp)  # at most one below the true exponent
    N, unsure = _round17(m, e, E, tables)
    # step E until N has 17 digits: once for the estimate, once more for a carry
    wrong = np.flatnonzero((N < 10**16) | (N >= 10**17))
    for _ in range(2):
        if not wrong.size:
            break
        E[wrong] += np.where(N[wrong] >= 10**17, 1, -1)
        N[wrong], unsure[wrong] = _round17(m[wrong], e[wrong], E[wrong], tables)
        wrong = wrong[(N[wrong] < 10**16) | (N[wrong] >= 10**17)]
    unsure[wrong] = True
    N[zero] = 0
    E[zero] = 0

    # N = d0 g1 g2 g3 g4 in 1- and 4-digit groups; floor(x / 1e4) is exact for x < 1e9
    q, r = np.divmod(N, 10**8)
    q = q.astype(float)
    r = r.astype(float)
    t = np.floor(q / 1e4)
    d0 = np.floor(t / 1e4)
    g3 = np.floor(r / 1e4)
    groups = np.stack([t - d0 * 1e4, q - t * 1e4, g3, r - g3 * 1e4], axis=1).astype(np.intp)

    exp_head, exp_tail, digits = tables[5:]
    fields = np.empty((v.size, _WORDS), dtype="<u4")
    fields[:, 0] = _word(0, np.signbit(v) * ord("-"), d0.astype(np.int64) + 48, ord("."))
    fields[:, 1:5] = digits[groups]
    fields[:, 5] = exp_head[E - _E_MIN]
    sep = _word(0, [ord(",")] * (block.shape[1] - 1) + [ord("\n")], 0, 0)
    fields[:, 6] = (exp_tail[E - _E_MIN].reshape(block.shape) | sep).ravel()
    text_bytes = fields.view(np.uint8)
    for i in np.flatnonzero(~finite | unsure):
        # %e prints every NaN, sign bit or not, as "nan"
        text = ("%.16e" % v[i]).replace("nan", "NaN").encode()
        text_bytes[i, :25] = 0  # all but the separator
        text_bytes[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
    return text_bytes[text_bytes != 0].tobytes()


def _csv(header: str, *columns) -> bytes:
    """The header, then one row per index of the equal-length columns, as ASCII bytes.

    Each float is written as ``'%.16e' % v`` writes it, NaN as ``NaN``.
    """
    table = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    tables = _format_tables()
    blocks = (_format_block(table[i:i + _BLOCK_ROWS], tables)
              for i in range(0, len(table), _BLOCK_ROWS))
    return header.encode() + b"\n" + b"".join(blocks)


def _emit(data: bytes, out: str | Path) -> None:
    if out == "-":
        sys.stdout.flush()
        sys.stdout.buffer.write(data)
    else:
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(data)


def _emit_json(doc: dict, out: str | Path) -> None:
    _emit(json.dumps(doc, indent=2, sort_keys=True).encode() + b"\n", out)


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def _resolve_params(args) -> tuple[SystemParams, DriveParams]:
    """Config file first, then flags override individual fields."""
    if args.config:
        params, drive = load_params(args.config)
    else:
        params, drive = reference_defaults()
    if args.power_uw is not None:
        drive = replace(drive, pump_power=args.power_uw * 1e-6)
    return params, drive


def _powers_uw(raw: str | None) -> list[float]:
    """Pump powers in microwatts: the --powers-uw list, else 20 points over 0.1..5."""
    if raw is None:
        return np.linspace(0.1, 5.0, 20).tolist()
    try:
        return [float(tok) for tok in raw.split(",") if tok.strip() != ""]
    except ValueError:
        raise ParameterError(f"--powers-uw must be a comma-separated number list, got {raw!r}")


# ---------------------------------------------------------------------------
# subcommands
#
# Each data command writes its output and returns the record of the values
# it resolved (parameters, grid, powers, pulse, step); a figure bundle writes
# that record to its sidecar under the run's command, so the sidecar replays it.


def _cmd_steady_state(args) -> dict:
    params, drive = _resolve_params(args)
    st = solve_steady(params, derive(params, drive))
    doc = {
        "c0_re": st.cavity_amp.real,
        "c0_im": st.cavity_amp.imag,
        "photon_number": st.photon_number,
        "q0_m": st.mirror_displacement,
        "alpha_si": st.alpha,
    }
    _emit_json(doc, args.out)
    _note(
        f"steady-state: photon_number={st.photon_number:.6e} "
        f"alpha={st.alpha:.6e} -> {args.out}"
    )
    return {"params": _param_dict(params, drive)}


def _make_grid(args, params: SystemParams) -> np.ndarray:
    if args.grid_n < 1:
        raise ParameterError(f"--grid-n must be >= 1, got {args.grid_n}")
    lo, hi = args.grid_min * params.mirror_freq, args.grid_max * params.mirror_freq
    for flag, raw, scaled in (("--grid-min", args.grid_min, lo), ("--grid-max", args.grid_max, hi)):
        if not math.isfinite(scaled):
            raise ParameterError(f"{flag} times mirror_freq must be finite, got {raw}")
    if not (args.grid_max > args.grid_min):
        raise ParameterError(
            f"--grid-max must exceed --grid-min, got {args.grid_min} .. {args.grid_max}"
        )
    return np.linspace(lo, hi, args.grid_n)


def _cmd_spectrum(args) -> dict:
    params, drive = _resolve_params(args)
    st = solve_steady(params, derive(params, drive))
    grid = _make_grid(args, params)
    table = spectrum(grid, params, st, power=drive.pump_power)
    columns = (table.delta, table.delta / params.mirror_freq, table.transmission, table.reflection,
               table.eps_t.real, table.eps_t.imag, table.phase_t, table.tau_t, table.tau_r)
    _emit(_csv(SPECTRUM_HEADER, *columns), args.out)
    i_min = int(np.nanargmin(table.transmission))
    _note(
        f"spectrum: {len(table)} rows, min T={table.transmission[i_min]:.4e} at "
        f"delta/omega_m={table.delta[i_min] / params.mirror_freq:.6f} -> {args.out}"
    )
    return {
        "params": _param_dict(params, drive),
        "grid": {
            "min": args.grid_min, "max": args.grid_max, "n": args.grid_n, "unit": "mirror_freq"
        },
    }


def _cmd_power_sweep(args) -> dict:
    params, drive = _resolve_params(args)
    powers_uw = _powers_uw(args.powers_uw)
    delta = args.delta_over_omega_m * params.mirror_freq
    points = power_sweep([p * 1e-6 for p in powers_uw], delta, params)
    if args.command == "delay-sweep" and len(points) == 1:
        p = points[0]
        if math.isnan(p.tau_t) or math.isnan(p.tau_r):
            raise UndefinedDelayError(
                "group delay undefined at the single requested point "
                f"(power={p.power:.6e} W, delta={delta:.6e} rad/s): output amplitude "
                "magnitude below threshold"
            )
    _emit(_csv(SWEEP_HEADER, *zip(*points)), args.out)
    _note(
        f"{args.command}: {len(points)} rows, tau_t range "
        f"[{min(p.tau_t for p in points):.4e}, {max(p.tau_t for p in points):.4e}] s "
        f"-> {args.out}"
    )
    return {
        "params": _param_dict(params, drive),
        "powers_uw": powers_uw,
        "delta_over_omega_m": args.delta_over_omega_m,
    }


def _cmd_dynamics(args) -> dict:
    params, drive = _resolve_params(args)
    derived = derive(params, drive)
    st = solve_steady(params, derived)
    delta = args.delta_over_omega_m * params.mirror_freq
    matrix = build_matrix(delta, params, derived, st)

    width = args.pulse_width_s
    if width is None:
        # a tenth of a mirror period: a sudden kick on the mechanical timescale
        width = 0.1 * 2.0 * math.pi / params.mirror_freq
    center = args.pulse_center_s if args.pulse_center_s is not None else 25.0 * width
    pulse = PulseSpec(
        shape=args.pulse_shape, amplitude=args.pulse_amp, width=width, center=center
    )
    span = (args.t_start, args.t_end if args.t_end is not None else center + 55.0 * width)
    dt = args.dt if args.dt is not None else min(0.02 / matrix.spectral_radius, width / 64.0)

    traj = integrate(matrix, pulse, span, dt, method=args.method, samples=args.samples)
    traj = reconstruct_displacement(traj, st, delta)
    q, c = traj.q_plus, traj.c_plus
    _emit(_csv(DYNAMICS_HEADER, traj.times, q.real, q.imag, c.real, c.imag, traj.q_total), args.out)
    _note(
        f"dynamics: {len(traj.times)} rows, max |q_plus|={np.max(np.abs(traj.q_plus)):.4e} m "
        f"-> {args.out}"
    )
    return {
        "params": _param_dict(params, drive),
        "pulse": {
            "shape": pulse.shape,
            "amplitude": pulse.amplitude,
            "width_s": pulse.width,
            "center_s": pulse.center,
        },
        "t_span_s": list(span),
        "dt_s": dt,
        "delta_over_omega_m": args.delta_over_omega_m,
    }


def _phase_unwrap(spectrum_csv: Path, out: Path) -> dict:
    """Stitch the phase column of a spectrum CSV into a continuous curve."""
    delta, delta_over_omega_m, phase = np.loadtxt(
        spectrum_csv, delimiter=",", skiprows=1, usecols=(0, 1, 6), ndmin=2, unpack=True
    )
    header = "delta_rad_s,delta_over_omega_m,phase_t_unwrapped_rad"
    _emit(_csv(header, delta, delta_over_omega_m, np.unwrap(phase)), out)
    return {}


# ---------------------------------------------------------------------------
# figure bundles


def comparison_report(params: SystemParams) -> dict:
    """Computed scalars next to previously reported values for this setup.

    The reported group advance of the reflected port (about -2 s) is not
    reproduced by the response formulas implemented here: the reflected
    delay at the probe resonance evaluates positive at every pump power
    in the sweep.  The numbers are listed side by side rather than forced
    to agree.
    """
    _, drive5 = reference_defaults()
    st0 = solve_steady(params, derive(params, DriveParams(pump_power=0.0)))
    st5 = solve_steady(params, derive(params, drive5))
    omega_m = params.mirror_freq
    empty = group_delay_analytic(omega_m, params, st0)
    sweep = power_sweep([p * 1e-6 for p in (0.2, 0.5, 1.0, 2.0, 5.0)], omega_m, params)
    t_res = abs(transmitted_amplitude(omega_m, params, st5)) ** 2
    return {
        "empty_cavity_transmission_delay_s": {
            "computed": empty.tau_t,
            "reference_reported": 1.48e-6,
        },
        "transmission_delay_s_at_probe_resonance": {
            "computed": {f"{p.power * 1e6:.1f}uW": p.tau_t for p in sweep},
            "reference_reported": "millisecond scale at sub-microwatt power, decreasing with power",
        },
        "reflection_delay_s_at_probe_resonance": {
            "computed": {f"{p.power * 1e6:.1f}uW": p.tau_r for p in sweep},
            "reference_reported": -2.0,
            "note": "computed values are positive at every swept power; "
            "the reported sign is not reproduced by the response formulas",
        },
        "transparency_dip_transmission_at_5uW": {
            "computed": t_res,
            "reference_reported": "deep dip, about 0.01",
        },
        "transparency_width_rad_s_at_5uW": {
            "computed": eit_width(params, st5),
            "reference_reported_scale": 4.0e4,
        },
        "mechanical_quality_factor": {
            "computed": params.quality_factor,
            "reference_reported": 1.1e6,
        },
    }


# Probe at 5% of the reference pump rate: still linear-response weak, but the
# reconstructed displacement excursion is comparable to the static shift,
# which is the regime the published time traces show.
_KICK = ["--pulse-amp", repr(0.05 * derive(*reference_defaults()).drive_amplitude)]
_FIG4_POWERS = ["--powers-uw", ",".join(map(repr, np.linspace(0.1, 5.0, 50).tolist()))]

# Each figure is a list of runs (command, flags, output file).  A run is
# parsed and executed exactly as ``cavity-eit <command> <flags>`` would be.
# The 5 uW runs leave out --power-uw: it would resolve 5 * 1e-6, one ulp
# below the reference pump of 5e-6 W.  ``phase-unwrap`` is the one step
# that is not a command: it post-processes the named spectrum CSV.
FIGURE_RUNS = {
    "fig2": [("spectrum", [], "fig2_spectrum_5uw.csv")],
    "fig3": [
        ("spectrum", ["--power-uw", "1"], "fig3_spectrum_1uw.csv"),
        ("phase-unwrap", ["fig3_spectrum_1uw.csv"], "fig3_phase_unwrapped.csv"),
    ],
    "fig4": [("delay-sweep", _FIG4_POWERS, "fig4_delay_sweep.csv")],
    "fig5": [("delay-sweep", _FIG4_POWERS, "fig5_delay_sweep.csv")],
    "fig6": [
        ("spectrum", ["--power-uw", "0"], "fig6_spectrum_0uw.csv"),
        ("spectrum", [], "fig6_spectrum_5uw.csv"),
    ],
    "fig7": [
        ("spectrum", ["--power-uw", "0"], "fig7_spectrum_0uw.csv"),
        ("spectrum", [], "fig7_spectrum_5uw.csv"),
    ],
    "fig8": [("width-sweep", [], "fig8_width_sweep.csv")],
    "fig9": [("dynamics", _KICK, "fig9_dynamics.csv")],
    "fig10": [("dynamics", _KICK, "fig10_dynamics.csv")],
}
FIGURE_IDS = tuple(FIGURE_RUNS)


def emit_figure_bundle(figure_id: str, out_dir: str | Path) -> list[Path]:
    """Write the data bundle for one published figure of the reference setup.

    Every bundle contains the data CSV(s), a ``<figure>_config.json``
    sidecar holding the record of each run (its ``params`` reloadable
    through ``--config``), and ``comparison_report.json``.
    """
    if figure_id not in FIGURE_RUNS:
        raise ParameterError(
            f"figure id must be one of {', '.join(FIGURE_IDS)}, got {figure_id!r}"
        )
    out = Path(out_dir)
    parser = _build_parser()
    written: list[Path] = []
    runs = []
    for command, flags, name in FIGURE_RUNS[figure_id]:
        path = out / name
        if command == "phase-unwrap":
            record = _phase_unwrap(out / flags[0], path)
        else:
            args = parser.parse_args([command, *flags, "--out", str(path)])
            record = args.func(args)
        runs.append({**record, "command": command, "output": name})
        written.append(path)

    config_path = out / f"{figure_id}_config.json"
    _emit_json({"figure": figure_id, "runs": runs}, config_path)
    written.append(config_path)

    report_path = out / "comparison_report.json"
    params, _ = reference_defaults()
    _emit_json(comparison_report(params), report_path)
    written.append(report_path)
    return written


def _cmd_figure(args) -> None:
    files = emit_figure_bundle(args.figure_id, args.out_dir)
    _note(f"figure {args.figure_id}: wrote {len(files)} files to {args.out_dir}")


# ---------------------------------------------------------------------------
# parser


@functools.cache  # built on first use, then shared by main and emit_figure_bundle
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavity-eit",
        description=(
            "Probe response and pulsed dynamics of a double-ended "
            "optomechanical cavity under a strong coupling laser."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON parameter file (SI keys or *_hz/*_nm/*_ng/*_uw)")
        p.add_argument("--power-uw", type=float, help="pump power in microwatts (overrides config)")
        p.add_argument("--out", default="-", help="output path, '-' for stdout")

    p = sub.add_parser("steady-state", help="probe-off working point as JSON")
    common(p)
    p.set_defaults(func=_cmd_steady_state)

    p = sub.add_parser("spectrum", help="probe response over a detuning grid as CSV")
    common(p)
    p.add_argument("--grid-min", type=float, default=0.5, help="grid start, units of mirror_freq")
    p.add_argument("--grid-max", type=float, default=1.5, help="grid end, units of mirror_freq")
    p.add_argument("--grid-n", type=int, default=2001, help="number of grid points")
    p.set_defaults(func=_cmd_spectrum)

    for name in ("delay-sweep", "width-sweep"):
        p = sub.add_parser(name, help="delays and transparency width vs pump power as CSV")
        common(p)
        p.add_argument(
            "--powers-uw",
            help="comma-separated pump powers in microwatts (default 20 points in 0.1..5)",
        )
        p.add_argument(
            "--delta-over-omega-m",
            type=float,
            default=1.0,
            help="probe detuning in units of mirror_freq",
        )
        p.set_defaults(func=_cmd_power_sweep)

    p = sub.add_parser("dynamics", help="pulsed-probe time evolution as CSV")
    common(p)
    p.add_argument("--delta-over-omega-m", type=float, default=1.0)
    p.add_argument("--pulse-shape", choices=PULSE_SHAPES, default="sech")
    p.add_argument("--pulse-width-s", type=float, help="envelope timescale (default: 0.1 mirror periods)")
    p.add_argument("--pulse-center-s", type=float, help="pulse centre (default: 25 widths)")
    p.add_argument("--pulse-amp", type=float, default=1.0, help="peak probe drive in 1/s")
    p.add_argument("--t-start", type=float, default=0.0)
    p.add_argument("--t-end", type=float, help="default: centre + 55 widths")
    p.add_argument("--dt", type=float, help="integration step (default: stability-limited)")
    p.add_argument("--samples", type=int, default=4096, help="max output rows")
    p.add_argument("--method", choices=(METHOD_RK4, METHOD_EXPM), default=METHOD_RK4)
    p.set_defaults(func=_cmd_dynamics)

    p = sub.add_parser("figure", help="write the data bundle behind one published figure")
    p.add_argument("figure_id", choices=list(FIGURE_IDS))
    p.add_argument("--out-dir", default="figures", help="directory for the bundle files")
    p.set_defaults(func=_cmd_figure)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits with 2 on usage errors
        return 0 if exc.code in (0, None) else 1
    try:
        args.func(args)
        return 0
    except (ParameterError, OSError) as exc:
        _note(f"error: {exc}")
        return 1
    except NUMERICAL_ERRORS as exc:
        _note(f"numerical error: {exc}")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
