"""Command-line surface emitting plot-ready data files.

Subcommands: `ground-state` solves one ring sector (and warms the solver
cache); `fig1` exports the normalized critical-scaling curves, `fig2`
discord versus spin separation, `fig3` discord versus anisotropy, `fig4`
the correlator ratio and optimal basis versus anisotropy, `fig5` the
conditional-entropy histogram of one pair, and `fig6` conditional-entropy
moments versus anisotropy.

fig2, fig3, fig4 and fig6 are the rows of one pair-state sweep over
(Δ, r), served by one handler: each row is a record of `correlators` or
`distribution` whose fields are the columns, in order (fig4 is fig3 without
the discord column).  Every table, fig1 and fig5 included, goes through one
writer.  CSV is the primary format; `--format json` mirrors the same
columns and adds a config echo, and fig5's summary (a JSON sidecar beside a
CSV table).  Identical arguments and seeds reproduce identical bytes, apart
from one leading timestamp comment that `--deterministic` suppresses.

Exit codes: 0 success; 1 bad arguments, among them a `--delta-range` of
more than 10^6 points, an `--rs` that repeats a separation, a fig1 `--r`
below 4, a grid of more than 2^24 points or a `--quadrature` of more than
2048 Gauss nodes, a `--bin-width` below 1e-6, or an `--out` or
`--cache-dir` that cannot be written (`error: <message>`, no traceback);
2 numerical failure.

`main` may be called many times in one process: the parser is built on the
first call and reused, and its defaults are tuples that no call can mutate.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

from .correlators import (
    discord_profile_vs_delta,
    discord_profile_vs_r,
    pair_state_sweep,
)
from .distribution import (
    AngleGrid,
    GaussGrid,
    UniformSphere,
    _check_bin_width,
    moments_vs_delta,
    sample_distribution,
)
from .scaling import PairKind, ScalingParams, normalized_discord_curve
from .spinchain import cache_path, check_ring_size, ground_state
from .xstate import OptimalTheta

__all__ = ["main", "entry"]

_ENV_CACHE = "SPINDISCORD_CACHE"
_DEFAULT_CACHE = "cache"
_SCHEMES = {"gauss": GaussGrid, "angle": AngleGrid, "mc": UniformSphere}
_MAX_RANGE_POINTS = 1_000_000


# ── argument parsing ────────────────────────────────────────────────────────


def _tol_arg(text: str) -> float:
    value = float(text)
    if not 0.0 < value <= 1e-4:
        raise argparse.ArgumentTypeError(f"tolerance {text} outside (0, 1e-4]")
    return value


def _range_arg(text: str) -> list:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"range {text!r} is not of the form a:b:step")
    start, stop, step = (float(p) for p in parts)
    if not all(map(math.isfinite, (start, stop, step))):
        raise argparse.ArgumentTypeError(f"range {text!r} is not finite")
    if step <= 0.0:
        raise argparse.ArgumentTypeError(f"range step {step!r} must be positive")
    if stop < start:
        raise argparse.ArgumentTypeError(f"range {text!r} is empty")
    # counted before any list is built; a subnormal step makes the quotient inf
    steps = (stop - start) / step + 1e-9
    if not steps < _MAX_RANGE_POINTS:
        raise argparse.ArgumentTypeError(
            f"range {text!r} has more than {_MAX_RANGE_POINTS:,} points"
        )
    count = int(steps) + 1
    # grid points rounded so sweep values like 1.0 land exactly on the axis;
    # adding 0.0 turns a rounded -0.0 into the 0.0 every other path writes
    points = [round(start + i * step, 12) + 0.0 for i in range(count)]
    if any(b <= a for a, b in zip(points, points[1:])):
        raise argparse.ArgumentTypeError(
            f"range {text!r} repeats points once rounded to 12 decimals"
        )
    return points


def _int_list_arg(text: str) -> list:
    try:
        values = [int(p) for p in text.split(",") if p.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma-separated int list")
    if not values:
        raise argparse.ArgumentTypeError("empty separation list")
    if len(set(values)) < len(values):
        raise argparse.ArgumentTypeError(f"separation list {text!r} repeats a value")
    return values


def _quadrature_arg(text: str) -> tuple:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"quadrature {text!r} is not of the form NxM")
    try:
        n_theta, n_phi = int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"quadrature {text!r} is not of the form NxM")
    return n_theta, n_phi


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spindiscord",
        description="Discord and conditional-entropy data for XXZ ring spin pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    io = argparse.ArgumentParser(add_help=False)
    io.add_argument("--out", help="output file (default: stdout)")
    io.add_argument("--format", choices=("csv", "json"), default="csv")
    io.add_argument(
        "--deterministic",
        action="store_true",
        help="suppress the timestamp comment for byte-identical reruns",
    )

    solver = argparse.ArgumentParser(add_help=False)
    solver.add_argument("--n", type=int, default=12, help="ring size (even, >= 4)")
    solver.add_argument("--tol", type=_tol_arg, default=1e-12)
    solver.add_argument(
        "--cache-dir",
        help=f"ground-state cache (default ./{_DEFAULT_CACHE}; env {_ENV_CACHE})",
    )

    quad = argparse.ArgumentParser(add_help=False)
    quad.add_argument(
        "--scheme",
        choices=tuple(_SCHEMES),
        default="gauss",
        help="basis-sampling scheme: solid-angle quadrature, uniform angle "
        "grid, or seeded Monte Carlo",
    )
    quad.add_argument("--quadrature", type=_quadrature_arg, help="grid size NxM")
    quad.add_argument(
        "--samples", type=int, default=UniformSphere.n_samples, help="mc sample count"
    )
    quad.add_argument("--bin-width", type=float, default=0.005)
    quad.add_argument("--seed", type=int, default=0, help="mc sampler seed")

    p = sub.add_parser("ground-state", parents=[io, solver], help="solve one sector")
    p.add_argument("--delta", type=float, default=1.0)
    p.set_defaults(handler=_cmd_ground_state)

    p = sub.add_parser("fig1", parents=[io], help="normalized critical-scaling curves")
    p.add_argument(
        "--delta-range",
        type=_range_arg,
        default=tuple(_range_arg("0.5:1.5:0.005")),
        help="reduced-temperature grid t (default 0.5:1.5:0.005)",
    )
    p.add_argument("--r", type=int, default=20, help="far-pair separation (>= 4)")
    p.set_defaults(handler=_cmd_fig1)

    p = sub.add_parser("fig2", parents=[io, solver], help="discord vs separation")
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--delta-range", type=_range_arg, default=None)
    p.set_defaults(
        handler=_cmd_sweep,
        columns=("delta", "r", "discord", "symmetric_form", "isotropic_form"),
    )

    p = sub.add_parser("fig3", parents=[io, solver], help="discord vs anisotropy")
    p.add_argument("--rs", type=_int_list_arg, default=(1, 2, 4))
    p.add_argument(
        "--delta-range", type=_range_arg, default=tuple(_range_arg("-1.5:2.5:0.05"))
    )
    p.set_defaults(handler=_cmd_sweep, columns=("delta", "r", "discord", "k", "basis"))

    p = sub.add_parser("fig4", parents=[io, solver], help="correlator ratio vs anisotropy")
    p.add_argument("--rs", type=_int_list_arg, default=(1, 3))
    p.add_argument("--delta-range", type=_range_arg, default=tuple(_range_arg("0:2:0.05")))
    p.set_defaults(handler=_cmd_sweep, columns=("delta", "r", "k", "basis"))

    p = sub.add_parser(
        "fig5", parents=[io, solver, quad], help="conditional-entropy histogram"
    )
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--r", type=int, default=1)
    p.set_defaults(handler=_cmd_fig5)

    p = sub.add_parser(
        "fig6", parents=[io, solver, quad], help="conditional-entropy moments"
    )
    p.add_argument("--rs", type=_int_list_arg, default=(1, 2, 4))
    p.add_argument("--delta-range", type=_range_arg, default=tuple(_range_arg("0:2:0.1")))
    p.set_defaults(
        handler=_cmd_sweep, columns=("delta", "r", "mean_c", "var_c", "min_c", "max_c")
    )

    return parser


# ── output assembly ─────────────────────────────────────────────────────────


def _utc_stamp() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _cell(value) -> str:
    if type(value) is float:  # nearly every cell: tested first
        return repr(value)
    if value is None:
        return ""
    if isinstance(value, OptimalTheta):
        return value.value
    return str(value)  # a numpy float's str has the digits of its repr as a float


def _json_cell(value):
    if isinstance(value, OptimalTheta):
        return value.value
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def _emit(args, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _emit_table(args, config, columns, rows, summary=None) -> int:
    """Write `rows` under `columns` in the chosen format; one writer for every figure.

    Each row is written as the iterable yields it, its cells in column order.
    If the iterable raises, the rows so far are written and marked incomplete
    (nothing is written if there are none).  A summary goes under the JSON
    document's "summary" key, or beside a CSV table to
    `<out stem>.summary.json` (stderr without --out).
    """
    collected, exc = [], None
    try:
        for row in rows:
            collected.append(row)
    except (ValueError, RuntimeError) as err:
        exc = err
    stamp = None if args.deterministic else _utc_stamp()
    if args.format == "json":
        doc = {"command": args.command}
        if stamp is not None:
            doc["generated"] = stamp
        doc["config"] = config
        if summary is not None:
            doc["summary"] = summary
        doc["columns"] = list(columns)
        doc["rows"] = [[_json_cell(v) for v in row] for row in collected]
        if exc is not None:
            doc["incomplete"] = True
        text = json.dumps(doc, indent=2) + "\n"
    else:
        lines = [] if stamp is None else [f"# generated {stamp}"]
        lines.append(",".join(columns))
        lines.extend(",".join(map(_cell, row)) for row in collected)
        if exc is not None:
            lines.append("# INCOMPLETE")
        text = "\n".join(lines) + "\n"
    if collected or exc is None:
        _emit(args, text)
    if summary is not None and args.format == "csv":
        summary_text = json.dumps(summary, indent=2) + "\n"
        if args.out:
            out = Path(args.out)
            out.with_name(out.stem + ".summary.json").write_text(summary_text, encoding="utf-8")
        else:
            sys.stderr.write(summary_text)
    if exc is not None:
        print(f"error: sweep aborted: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, RuntimeError) else 1
    return 0


# ── shared argument resolution ──────────────────────────────────────────────


def _solver_config(args) -> dict:
    """The solver flags as every config echoes them: n, tol and the cache directory.

    The ring size is checked first, so a bad --n is refused before any
    scheme or row is built.
    """
    check_ring_size(args.n)
    if args.n > 22:
        print(f"warning: n={args.n} runs take seconds and over 100 MB cold (a fresh n=26 process "
              "on 2 CPUs: ground-state 3.5 s and 0.14 GB, fig2 9 s and 0.16 GB)", file=sys.stderr)
    cache_dir = args.cache_dir
    if cache_dir is None:
        cache_dir = os.environ.get(_ENV_CACHE, _DEFAULT_CACHE)
    return {"n": args.n, "tol": args.tol, "cache_dir": cache_dir}


def _sampling(args, where: dict):
    """fig5/fig6: the scheme and bin width, checked before any solve, and their config echo."""
    if args.scheme == "mc":
        scheme = UniformSphere(n_samples=args.samples, seed=args.seed)
    else:
        scheme = _SCHEMES[args.scheme](*(args.quadrature or ()))
    _check_bin_width(args.bin_width)
    # the scheme echo: its kind, then its dataclass fields in declaration order
    descriptor = {"kind": args.scheme, **vars(scheme)}
    return scheme, {"seed": args.seed, **where, "scheme": descriptor, "bin_width": args.bin_width}


# ── subcommands ─────────────────────────────────────────────────────────────


def _cmd_ground_state(args) -> int:
    config = _solver_config(args)
    state = ground_state(args.n, args.delta, tol=args.tol, cache_dir=config["cache_dir"])
    path = cache_path(config["cache_dir"], args.n, state.sector.n_up, args.delta, args.tol)
    print(f"iterations {state.iterations}", file=sys.stderr)
    if args.format == "json":
        doc = {
            "command": "ground-state",
            "config": {**config, "delta": args.delta},
            "energy": state.energy,
            "residual": state.residual,
            "cache": str(path),
        }
        if not args.deterministic:
            doc["generated"] = _utc_stamp()
        _emit(args, json.dumps(doc, indent=2) + "\n")
    else:
        text = (
            f"energy {state.energy!r}\n"
            f"residual {state.residual!r}\n"
            f"cache {path}\n"
        )
        _emit(args, text)
    return 0


def _cmd_fig1(args) -> int:
    ts = args.delta_range
    params = ScalingParams(r=args.r)
    nn = normalized_discord_curve(params, ts, PairKind.NN)
    far = normalized_discord_curve(params, ts, PairKind.FAR)
    config = {"r": args.r, "t_grid": [ts[0], ts[-1], len(ts)]}
    return _emit_table(args, config, ("t", "nn", "far"), zip(ts, nn, far))


def _cmd_sweep(args) -> int:
    """fig2, fig3, fig4 and fig6: the rows of one pair-state sweep over (Δ, r)."""
    config = _solver_config(args)
    if args.command == "fig2":
        deltas = args.delta_range if args.delta_range is not None else [args.delta]
        rs, where = range(1, args.n // 2 + 1), {"deltas": deltas}
    else:
        deltas, rs = args.delta_range, args.rs
        where = {"rs": rs, "deltas": deltas}
    pairs = pair_state_sweep(args.n, deltas, rs, tol=args.tol, cache_dir=config["cache_dir"])
    if args.command == "fig2":
        rows = discord_profile_vs_r(pairs)
    elif args.command == "fig6":
        scheme, where = _sampling(args, where)
        rows = moments_vs_delta(pairs, scheme, bin_width=args.bin_width)
    else:
        rows = discord_profile_vs_delta(pairs)
        if args.command == "fig4":  # fig3's rows without the discord column
            rows = (row[:2] + row[3:] for row in rows)
    return _emit_table(args, {**config, **where}, args.columns, rows)


def _cmd_fig5(args) -> int:
    config = _solver_config(args)
    scheme, sampling = _sampling(args, {"delta": args.delta, "r": args.r})
    [(_, _, state)] = pair_state_sweep(
        args.n, [args.delta], [args.r], tol=args.tol, cache_dir=config["cache_dir"]
    )
    hist = sample_distribution(state, scheme, bin_width=args.bin_width)
    rows = [
        (idx * hist.bin_width, (idx + 1) * hist.bin_width, mass)
        for idx, mass in sorted(hist.bins.items())
    ]
    summary = {
        "mean": hist.mean,
        "variance": hist.variance,
        "min_c": hist.min_c,
        "max_c": hist.max_c,
        "scheme": sampling["scheme"],
        "seed": args.seed,
        "n_samples": hist.n_samples,
        "bin_width": hist.bin_width,
    }
    columns = ("bin_left", "bin_right", "mass")
    return _emit_table(args, {**config, **sampling}, columns, rows, summary)


# ── entry points ────────────────────────────────────────────────────────────


def _normalize(argv):
    """Fold `--delta-range -1.5:2.5:0.05` into one token.

    argparse would otherwise read a leading-minus range value as an option.
    """
    out, it = [], iter(argv)
    for token in it:
        if token == "--delta-range":
            value = next(it, None)
            out.append(token if value is None else f"--delta-range={value}")
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_normalize(argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:  # OSError: an unwritable --out or --cache-dir
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
