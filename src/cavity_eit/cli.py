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
arithmetic, with the same bytes on every machine: each float's decimal
exponent is found exactly and its 17 digits are rounded once, and the pad
bytes of the fixed-width fields are dropped by one ``bytes.translate``.  A
float within 1e-6 of a rounding tie, inf and NaN are written by ``'%.16e'``
itself.  Each block is written as soon as it is formatted, so writing holds
one block beyond the table's columns: a 10^6-point spectrum peaks at 208 MB
of RSS, of which the spectrum computation, still O(grid), takes about 180 MB.

Exit codes: 0 success, 1 validation error (message names the offending
field), 2 numerical error (instability, undefined delay at a requested
single point).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from collections.abc import Iterable, Iterator
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
from .response import power_sweep, spectrum
from .dynamics import (
    PULSE_SHAPES,
    InstabilityError,
    PulseSpec,
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


# The CSV float formatter.  A finite v != 0 is written as the 17 significant
# digits N of |v| * 10^(16 - E), N in [10^16, 10^17), rounded half-even as
# '%.16e' rounds it.  The decade E is exact: frexp's exponent e gives
# floor((e - 1) * log10 2), which is E or E - 1, and one comparison of |v| with
# the smallest double >= 10^(E + 1) settles it.  |v| * 10^(16 - E) is then
# formed once, as a double-double from frexp's mantissa and a 107-bit
# 10^k = (hi + lo) * 2^b (Dekker's exact product of the mantissa and hi, plus
# mantissa * lo), so its error is under 1e-13 and N is exact unless the fraction
# lies within _TIE_MARGIN of 1/2.  A carry to N = 10^17 is 10^16 one decade up.
# Elements near a tie, and inf and NaN, are written by '%.16e' itself.  Only
# exactly rounded float64 and int64 ops are used (no log10, exp or FMA), so the
# bytes do not depend on numpy's SIMD dispatch.
_E_MIN, _E_MAX = -324, 308  # the decades of 5e-324 and of the largest double
_SPLIT = 134217729.0  # 2^27 + 1 splits a double into two 26-bit halves
_TIE_MARGIN = 1e-6
# A field is 7 little-endian words, "\0-d." "dddd" x 4 "e-dd" "d,\0\0": every
# byte but a pad byte (0) is written, so the row bytes are the nonzero ones,
# and one bytes.translate per block deletes the pads.
_WORDS = 7
_BLOCK_ROWS = 512  # rows formatted and written at once: one block is held beyond the table


@functools.cache
def _format_tables() -> tuple[np.ndarray, ...]:
    """The formatter's lookup tables, built on the first CSV.

    Indexed by E - _E_MIN: the rows (hi, hi's two Dekker halves, lo) and b with
    10^(16 - E) = (hi + lo) * 2^b to 107 bits, from exact integers; the smallest
    double >= 10^E (one entry more, inf past the largest double); and the words
    "e+dd" / "e-dd" (a pad byte for the hundreds digit of a two-digit exponent)
    and "d,".  Indexed by d + 10 * sign: the word "\0-d.".  Indexed by g: the
    word "dddd" of 0 <= g < 10^4.
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

    decades = [math.inf] * (_E_MAX - _E_MIN + 2)  # no double reaches 10^(_E_MAX + 1)
    for k in range(_E_MIN, _E_MAX + 1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        t = num / den  # int / int is correctly rounded
        a, b = t.as_integer_ratio()
        decades[k - _E_MIN] = t if a * den >= num * b else math.nextafter(t, math.inf)

    g = np.arange(10_000)
    digits = _word(g // 1000 + 48, g // 100 % 10 + 48, g // 10 % 10 + 48, g % 10 + 48)
    lead = _word(0, np.repeat([0, ord("-")], 10), np.tile(np.arange(48, 58), 2), ord("."))
    e = np.arange(_E_MIN, _E_MAX + 1)
    a = np.abs(e)
    hundreds = np.where(a < 100, 0, a // 100 + 48)
    exp_head = _word(ord("e"), np.where(e < 0, ord("-"), ord("+")), hundreds, a // 10 % 10 + 48)
    exp_tail = _word(a % 10 + 48, ord(","), 0, 0)
    return (np.stack([hi, hi1, hi - hi1, lo], axis=1), np.array(bs, dtype=np.int32),
            np.array(decades), lead, exp_head, exp_tail, digits)


def _word(b0, b1, b2, b3) -> np.ndarray:
    """The little-endian uint32 words of the bytes b0..b3."""
    b0, b1, b2, b3 = map(np.asarray, (b0, b1, b2, b3))
    return (b0 | b1 << 8 | b2 << 16 | b3 << 24).astype("<u4")


def _round17(m, e, i, tables):
    """N = |v| * 10^(16 - E) rounded half-even, and whether N may be off by one.

    |v| = m * 2^e, and i = E - _E_MIN indexes the tables.
    """
    hi, hi1, hi2, lo = tables[0].take(i, axis=0).T
    c = m * _SPLIT
    m1 = c - (c - m)
    m2 = m - m1
    p = m * hi
    r = m1 * hi1  # then ((r - p) + m1 * hi2 + m2 * hi1) + m2 * hi2 + m * lo, in place
    r -= p
    t = np.empty_like(r)
    for x, y in ((m1, hi2), (m2, hi1), (m2, hi2), (m, lo)):
        r += np.multiply(x, y, out=t)
    shift = tables[1].take(i) + e
    np.ldexp(p, shift, out=p)  # an integer once N >= 10^16 > 2^53
    np.ldexp(r, shift, out=r)
    ri = np.rint(r)
    n = p.astype(np.int64)
    n += ri.astype(np.int64)
    r -= ri
    return n, np.abs(r, out=r) > 0.5 - _TIE_MARGIN


def _format_block(block: np.ndarray, tables) -> bytes:
    """The rows of a 2-D float64 block as CSV lines, each float as '%.16e' writes it."""
    v = block.ravel()
    finite = np.isfinite(v)
    a = np.where(finite, np.abs(v), 0.0)
    m, e = np.frexp(a)
    # i = E - _E_MIN from here on; (e - 1) * 78913 >> 18 = floor((e - 1) * log10 2)
    # for every exponent of a double, and one up where |v| >= 10^(E + 1)
    i = ((e.astype(np.intp) - 1) * 78913 >> 18) - _E_MIN
    i += a >= tables[2].take(i + 1)
    N, unsure = _round17(m, e, i, tables)
    i += a == 0  # zero, inf and NaN have E = 0
    carry = np.flatnonzero(N == 10**17)
    N[carry] = 10**16
    i[carry] += 1

    # N = d0 g1 g2 g3 g4 in 1- and 4-digit groups, by int64 floor division
    lead, exp_head, exp_tail, digits = tables[3:]
    fields = np.empty((v.size, _WORDS), dtype="<u4")
    q = N // 10**8
    r = N - q * 10**8
    t = q // 10**4
    d0 = t // 10**4
    g3 = r // 10**4
    fields[:, 0] = lead.take(d0 + np.signbit(v) * 10)
    for col, g in enumerate((t - d0 * 10**4, q - t * 10**4, g3, r - g3 * 10**4), 1):
        fields[:, col] = digits.take(g)
    fields[:, 5] = exp_head.take(i)
    fields[:, 6] = exp_tail.take(i)
    fields.reshape(*block.shape, _WORDS)[:, -1, 6] ^= (ord(",") ^ ord("\n")) << 8
    text_bytes = fields.view(np.uint8)
    for j in np.flatnonzero(~finite | unsure):
        # %e prints every NaN, sign bit or not, as "nan"
        text = ("%.16e" % v[j]).replace("nan", "NaN").encode()
        text_bytes[j, :25] = 0  # all but the separator
        text_bytes[j, :len(text)] = np.frombuffer(text, dtype=np.uint8)
    return text_bytes.tobytes().translate(None, b"\0")


def _csv(header: str, *columns) -> Iterator[bytes]:
    """The header, then one row per index of the equal-length columns, as ASCII byte chunks.

    Each float is written as ``'%.16e' % v`` writes it, NaN as ``NaN``.  The float
    table is built here, before any file is opened; the chunks are the header line,
    then each _BLOCK_ROWS block as it is formatted, so a writer holds one block
    beyond the table.
    """
    table = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    tables = _format_tables()
    blocks = (_format_block(table[i:i + _BLOCK_ROWS], tables)
              for i in range(0, len(table), _BLOCK_ROWS))
    return itertools.chain([header.encode() + b"\n"], blocks)


def _emit(chunks: Iterable[bytes], out: str | Path) -> None:
    """Write the byte chunks to out as they come, through one open file after its
    parents are made; '-' is stdout.  Only the chunk being written is held."""
    if out == "-":
        sys.stdout.flush()
        sys.stdout.buffer.writelines(chunks)
        return
    Path(out).parent.mkdir(parents=True, exist_ok=True)
    with Path(out).open("wb") as f:
        f.writelines(chunks)


def _emit_json(doc: dict, out: str | Path) -> None:
    _emit([json.dumps(doc, indent=2, sort_keys=True).encode() + b"\n"], out)


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
# _run resolves a data command's parameters and records them; the command writes
# its output and returns the rest of the record (grid, powers, pulse, step).  A
# figure bundle writes the record to its sidecar, so the sidecar replays the run.


def _run(args) -> dict:
    """Run a data command on its --config, --power-uw replacing the pump; return its record."""
    params, drive = load_params(args.config or {})
    if getattr(args, "power_uw", None) is not None:
        drive = replace(drive, pump_power=args.power_uw * 1e-6)
    record = args.command_func(args, params, drive)
    return {"params": _param_dict(params, drive), **record}


def _cmd_steady_state(args, params: SystemParams, drive: DriveParams) -> dict:
    st = solve_steady(params, derive(params, drive))
    doc = {
        "c0_re": st.cavity_amp.real,
        "c0_im": st.cavity_amp.imag,
        "photon_number": st.photon_number,
        "q0_m": st.mirror_displacement,
        "alpha_si": st.alpha,
    }
    _emit_json(doc, args.out)
    print(f"steady-state: photon_number={st.photon_number:.6e} alpha={st.alpha:.6e} -> {args.out}",
          file=sys.stderr)
    return {}


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


def _cmd_spectrum(args, params: SystemParams, drive: DriveParams) -> dict:
    st = solve_steady(params, derive(params, drive))
    grid = _make_grid(args, params)
    table = spectrum(grid, params, st)
    columns = (table.delta, table.delta / params.mirror_freq, table.transmission, table.reflection,
               table.eps_t.real, table.eps_t.imag, table.phase_t, table.tau_t, table.tau_r)
    _emit(_csv(SPECTRUM_HEADER, *columns), args.out)
    args.columns = columns  # what a figure bundle's phase-unwrap step reads
    # np.nanargmin, but row 0 (min T = nan) when no transmission is defined
    i_min = int(np.argmin(np.where(np.isnan(table.transmission), np.inf, table.transmission)))
    print(f"spectrum: {len(grid)} rows, min T={table.transmission[i_min]:.4e} at "
          f"delta/omega_m={table.delta[i_min] / params.mirror_freq:.6f} -> {args.out}", file=sys.stderr)
    return {
        "grid": {
            "min": args.grid_min, "max": args.grid_max, "n": args.grid_n, "unit": "mirror_freq"
        },
    }


def _cmd_power_sweep(args, params: SystemParams, drive: DriveParams) -> dict:
    powers_uw = _powers_uw(args.powers_uw)
    delta = args.delta_over_omega_m * params.mirror_freq
    points = power_sweep([p * 1e-6 for p in powers_uw], delta, params)
    if args.command == "delay-sweep" and len(points) == 1:
        p = points[0]
        if math.isnan(p.tau_t) or math.isnan(p.tau_r):
            raise UndefinedDelayError(
                "group delay undefined at the single requested point "
                f"(power={p.power:.6e} W, delta={delta:.6e} rad/s)"
            )
    columns = ([getattr(p, name) for p in points] for name in ("power", "tau_t", "tau_r", "gamma_width"))
    _emit(_csv(SWEEP_HEADER, *columns), args.out)
    print(f"{args.command}: {len(points)} rows, tau_t range "
          f"[{min(p.tau_t for p in points):.4e}, {max(p.tau_t for p in points):.4e}] s -> {args.out}",
          file=sys.stderr)
    return {
        "powers_uw": powers_uw,
        "delta_over_omega_m": args.delta_over_omega_m,
    }


def _cmd_dynamics(args, params: SystemParams, drive: DriveParams) -> dict:
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
    dt = args.dt if args.dt is not None else width / 64.0

    traj = integrate(matrix, pulse, span, dt, samples=args.samples)
    traj = reconstruct_displacement(traj, st, delta)
    q, c = traj.q_plus, traj.c_plus
    _emit(_csv(DYNAMICS_HEADER, traj.times, q.real, q.imag, c.real, c.imag, traj.q_total), args.out)
    print(f"dynamics: {len(traj.times)} rows, max |q_plus|={np.max(np.abs(traj.q_plus)):.4e} m "
          f"-> {args.out}", file=sys.stderr)
    return {
        "pulse": {
            "shape": pulse.shape,
            "amplitude": pulse.amplitude,
            "width_s": pulse.width,
            "center_s": pulse.center,
        },
        "t_span_s": list(span),
        "dt_s": dt,
        "samples": args.samples,
        "delta_over_omega_m": args.delta_over_omega_m,
    }


def _phase_unwrap(columns: tuple, out: Path) -> dict:
    """Stitch the phase column of a spectrum run's CSV columns into a continuous curve."""
    delta, delta_over_omega_m, phase = columns[0], columns[1], columns[6]
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
    to agree.  Every computed value but Q comes from one power sweep at the
    probe resonance, so the 5 uW delays, dip and width share one pump.
    """
    empty, *sweep = power_sweep([0.0, 0.2e-6, 0.5e-6, 1e-6, 2e-6, 5e-6], params.mirror_freq, params)
    at5 = sweep[-1]
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
            "computed": at5.transmission,
            "reference_reported": "deep dip, about 0.01",
        },
        "transparency_width_rad_s_at_5uW": {
            "computed": at5.gamma_width,
            "reference_reported_scale": 4.0e4,
        },
        "mechanical_quality_factor": {
            "computed": params.quality_factor,
            "reference_reported": 1.1e6,
        },
    }


# Probe at 5% of the reference pump rate: its reconstructed displacement excursion
# is comparable to the static shift, the regime the published time traces show.
# Linearising costs 2.0% of the peak at this amplitude: the unlinearised equations,
# integrated with DOP853 at amplitudes 1 and 0.1, differ by that (ROADMAP item 13).
_KICK = ["--pulse-amp", repr(0.05 * derive(*reference_defaults()).drive_amplitude)]
_FIG4_POWERS = ["--powers-uw", ",".join(map(repr, np.linspace(0.1, 5.0, 50).tolist()))]

# Each figure is a list of runs (command, flags, output file).  A run is
# parsed and executed exactly as ``cavity-eit <command> <flags>`` would be.
# The 5 uW runs leave out --power-uw: it would resolve 5 * 1e-6, one ulp
# below the reference pump of 5e-6 W.  ``phase-unwrap`` is the one step
# that is not a command: it post-processes the columns of the named spectrum
# CSV, as that run wrote them.
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


def emit_figure_bundle(figure_id: str, out_dir: str | Path) -> list[Path]:
    """Write the data bundle for one published figure of the reference setup.

    Every bundle contains the data CSV(s), a ``<figure>_config.json``
    sidecar holding the record of each run (its ``params`` reloadable
    through ``--config``), and ``comparison_report.json``.
    """
    if figure_id not in FIGURE_RUNS:
        raise ParameterError(
            f"figure id must be one of {', '.join(FIGURE_RUNS)}, got {figure_id!r}"
        )
    out = Path(out_dir)
    parser = _build_parser()
    written: list[Path] = []
    runs = []
    columns = {}  # output name -> the columns a spectrum run wrote
    for command, flags, name in FIGURE_RUNS[figure_id]:
        path = out / name
        if command == "phase-unwrap":
            record = _phase_unwrap(columns[flags[0]], path)
        else:
            args = parser.parse_args([command, *flags, "--out", str(path)])
            record = args.func(args)
            columns[name] = getattr(args, "columns", None)
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
    print(f"figure {args.figure_id}: wrote {len(files)} files to {args.out_dir}", file=sys.stderr)


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

    def common(p, power=True):
        p.add_argument("--config", help="JSON parameter file (SI keys or *_hz/*_nm/*_ng/*_uw)")
        if power:  # the sweeps take their powers from --powers-uw only
            p.add_argument("--power-uw", type=float, help="pump power in microwatts (overrides config)")
        p.add_argument("--out", default="-", help="output path, '-' for stdout")

    p = sub.add_parser("steady-state", help="probe-off working point as JSON")
    common(p)
    p.set_defaults(func=_run, command_func=_cmd_steady_state)

    p = sub.add_parser("spectrum", help="probe response over a detuning grid as CSV")
    common(p)
    p.add_argument("--grid-min", type=float, default=0.5, help="grid start, units of mirror_freq")
    p.add_argument("--grid-max", type=float, default=1.5, help="grid end, units of mirror_freq")
    p.add_argument("--grid-n", type=int, default=2001, help="number of grid points")
    p.set_defaults(func=_run, command_func=_cmd_spectrum)

    for name in ("delay-sweep", "width-sweep"):
        p = sub.add_parser(name, help="delays and transparency width vs pump power as CSV")
        common(p, power=False)
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
        p.set_defaults(func=_run, command_func=_cmd_power_sweep)

    p = sub.add_parser("dynamics", help="pulsed-probe time evolution as CSV")
    common(p)
    p.add_argument("--delta-over-omega-m", type=float, default=1.0)
    p.add_argument("--pulse-shape", choices=PULSE_SHAPES, default="sech")
    p.add_argument("--pulse-width-s", type=float, help="envelope timescale (default: 0.1 mirror periods)")
    p.add_argument("--pulse-center-s", type=float, help="pulse centre (default: 25 widths)")
    p.add_argument("--pulse-amp", type=float, default=1.0, help="peak probe drive in 1/s")
    p.add_argument("--t-start", type=float, default=0.0)
    p.add_argument("--t-end", type=float, help="default: centre + 55 widths")
    p.add_argument("--dt", type=float, help="integration step (default: width/64)")
    p.add_argument("--samples", type=int, default=4096, help="max output rows")
    p.set_defaults(func=_run, command_func=_cmd_dynamics)

    p = sub.add_parser("figure", help="write the data bundle behind one published figure")
    p.add_argument("figure_id", choices=list(FIGURE_RUNS))
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
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InstabilityError, UndefinedDelayError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
