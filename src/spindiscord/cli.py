"""Command-line surface emitting plot-ready data files.

Subcommands: `ground-state` solves one ring sector (and warms the solver
cache); `fig1` exports the normalized critical-scaling curves, `fig2`
discord versus spin separation, `fig3` discord versus anisotropy, `fig4`
the correlator ratio and optimal basis versus anisotropy, `fig5` the
conditional-entropy histogram of one pair, and `fig6` conditional-entropy
moments versus anisotropy.

CSV is the primary format; `--format json` mirrors the same columns and
adds a config echo.  Identical arguments and seeds reproduce identical
bytes, apart from one leading timestamp comment that `--deterministic`
suppresses.  Exit codes: 0 success, 1 bad arguments, 2 numerical failure.
"""

from __future__ import annotations

import argparse
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
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    # grid points rounded so sweep values like 1.0 land exactly on the axis;
    # adding 0.0 turns a rounded -0.0 into the 0.0 every other path writes
    return [round(start + i * step, 12) + 0.0 for i in range(count)]


def _int_list_arg(text: str) -> list:
    try:
        values = [int(p) for p in text.split(",") if p.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma-separated int list")
    if not values:
        raise argparse.ArgumentTypeError("empty separation list")
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
        default=None,
        help="reduced-temperature grid t (default 0.5:1.5:0.005)",
    )
    p.add_argument("--r", type=int, default=20, help="far-pair separation")
    p.set_defaults(handler=_cmd_fig1)

    p = sub.add_parser("fig2", parents=[io, solver], help="discord vs separation")
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--delta-range", type=_range_arg, default=None)
    p.set_defaults(handler=_cmd_fig2)

    p = sub.add_parser("fig3", parents=[io, solver], help="discord vs anisotropy")
    p.add_argument("--rs", type=_int_list_arg, default=[1, 2, 4])
    p.add_argument("--delta-range", type=_range_arg, default=_range_arg("-1.5:2.5:0.05"))
    p.set_defaults(handler=_cmd_fig3)

    p = sub.add_parser("fig4", parents=[io, solver], help="correlator ratio vs anisotropy")
    p.add_argument("--rs", type=_int_list_arg, default=[1, 3])
    p.add_argument("--delta-range", type=_range_arg, default=_range_arg("0:2:0.05"))
    p.set_defaults(handler=_cmd_fig4)

    p = sub.add_parser(
        "fig5", parents=[io, solver, quad], help="conditional-entropy histogram"
    )
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--r", type=int, default=1)
    p.set_defaults(handler=_cmd_fig5)

    p = sub.add_parser(
        "fig6", parents=[io, solver, quad], help="conditional-entropy moments"
    )
    p.add_argument("--rs", type=_int_list_arg, default=[1, 2, 4])
    p.add_argument("--delta-range", type=_range_arg, default=_range_arg("0:2:0.1"))
    p.set_defaults(handler=_cmd_fig6)

    return parser


# ── output assembly ─────────────────────────────────────────────────────────


def _utc_stamp() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, OptimalTheta):
        return value.value
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _json_cell(value):
    if isinstance(value, OptimalTheta):
        return value.value
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def _csv_text(columns, rows, deterministic: bool, incomplete: bool) -> str:
    lines = []
    if not deterministic:
        lines.append(f"# generated {_utc_stamp()}")
    lines.append(",".join(columns))
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    if incomplete:
        lines.append("# INCOMPLETE")
    return "\n".join(lines) + "\n"


def _json_text(args, config, columns, rows, incomplete: bool, extra=None) -> str:
    doc = {"command": args.command}
    if not args.deterministic:
        doc["generated"] = _utc_stamp()
    doc["config"] = config
    if extra:
        doc.update(extra)
    doc["columns"] = list(columns)
    doc["rows"] = [[_json_cell(v) for v in row] for row in rows]
    if incomplete:
        doc["incomplete"] = True
    return json.dumps(doc, indent=2) + "\n"


def _emit(args, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _emit_table(args, config, columns, rows, exc) -> int:
    incomplete = exc is not None
    if args.format == "json":
        text = _json_text(args, config, columns, rows, incomplete)
    else:
        text = _csv_text(columns, rows, args.deterministic, incomplete)
    if rows or not incomplete:
        _emit(args, text)
    if incomplete:
        print(f"error: sweep aborted: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, RuntimeError) else 1
    return 0


def _sweep(rows):
    """Collect rows until the iterable fails; a failure returns the partial table."""
    collected = []
    try:
        for row in rows:
            collected.append(row)
    except (ValueError, RuntimeError) as exc:
        return collected, exc
    return collected, None


# ── shared argument resolution ──────────────────────────────────────────────


def _resolve_cache_dir(args) -> str:
    if args.cache_dir is not None:
        return args.cache_dir
    return os.environ.get(_ENV_CACHE, _DEFAULT_CACHE)


def _solver_kwargs(args) -> dict:
    check_ring_size(args.n)
    if args.n > 22:
        print(f"warning: n={args.n} runs take seconds and hundreds of MB cold (at n=26: "
              "ground-state 1.0 s and 0.16 GB, fig2 3.4 s and 0.41 GB)", file=sys.stderr)
    return {"tol": args.tol, "cache_dir": _resolve_cache_dir(args)}


def _pair_states(args, deltas, rs):
    return pair_state_sweep(args.n, deltas, rs, **_solver_kwargs(args))


def _solver_config(args) -> dict:
    return {
        "n": args.n,
        "tol": args.tol,
        "cache_dir": str(_resolve_cache_dir(args)),
    }


def _build_scheme(args):
    if args.scheme == "mc":
        return UniformSphere(n_samples=args.samples, seed=args.seed)
    return _SCHEMES[args.scheme](*(args.quadrature or ()))


def _scheme_descriptor(scheme) -> dict:
    """{"kind", then the scheme's dataclass fields in declaration order}."""
    kind = next(k for k, cls in _SCHEMES.items() if type(scheme) is cls)
    return {"kind": kind, **vars(scheme)}


# ── subcommands ─────────────────────────────────────────────────────────────


def _cmd_ground_state(args) -> int:
    kwargs = _solver_kwargs(args)
    state = ground_state(args.n, args.delta, **kwargs)
    path = cache_path(kwargs["cache_dir"], args.n, args.n // 2, args.delta, args.tol)
    print(f"iterations {state.iterations}", file=sys.stderr)
    if args.format == "json":
        doc = {
            "command": "ground-state",
            "config": {**_solver_config(args), "delta": args.delta},
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
    ts = args.delta_range if args.delta_range is not None else _range_arg("0.5:1.5:0.005")
    params = ScalingParams(r=args.r)
    nn = normalized_discord_curve(params, ts, PairKind.NN)
    far = normalized_discord_curve(params, ts, PairKind.FAR)
    rows = list(zip(ts, nn, far))
    config = {"r": args.r, "t_grid": [ts[0], ts[-1], len(ts)]}
    return _emit_table(args, config, ("t", "nn", "far"), rows, None)


def _cmd_fig2(args) -> int:
    deltas = args.delta_range if args.delta_range is not None else [args.delta]
    pairs = _pair_states(args, deltas, range(1, args.n // 2 + 1))
    rows, exc = _sweep(
        (row.delta, row.r, row.discord, row.symmetric_closed_form, row.isotropic_closed_form)
        for row in discord_profile_vs_r(pairs)
    )
    config = {**_solver_config(args), "deltas": deltas}
    columns = ("delta", "r", "discord", "symmetric_form", "isotropic_form")
    return _emit_table(args, config, columns, rows, exc)


def _cmd_fig3(args) -> int:
    rows, exc = _sweep(
        (row.delta, row.r, row.discord, row.k, row.chosen_theta)
        for row in discord_profile_vs_delta(_pair_states(args, args.delta_range, args.rs))
    )
    config = {**_solver_config(args), "rs": args.rs, "deltas": args.delta_range}
    columns = ("delta", "r", "discord", "k", "basis")
    return _emit_table(args, config, columns, rows, exc)


def _cmd_fig4(args) -> int:
    rows, exc = _sweep(
        (row.delta, row.r, row.k, row.chosen_theta)
        for row in discord_profile_vs_delta(_pair_states(args, args.delta_range, args.rs))
    )
    config = {**_solver_config(args), "rs": args.rs, "deltas": args.delta_range}
    return _emit_table(args, config, ("delta", "r", "k", "basis"), rows, exc)


def _cmd_fig5(args) -> int:
    pairs = _pair_states(args, [args.delta], [args.r])
    scheme = _build_scheme(args)
    [(_, _, state)] = pairs
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
        "scheme": _scheme_descriptor(scheme),
        "seed": args.seed,
        "n_samples": hist.n_samples,
        "bin_width": hist.bin_width,
    }
    config = {
        **_solver_config(args),
        "seed": args.seed,
        "delta": args.delta,
        "r": args.r,
        "scheme": _scheme_descriptor(scheme),
        "bin_width": args.bin_width,
    }
    columns = ("bin_left", "bin_right", "mass")
    if args.format == "json":
        _emit(args, _json_text(args, config, columns, rows, False, {"summary": summary}))
        return 0
    _emit(args, _csv_text(columns, rows, args.deterministic, False))
    summary_text = json.dumps(summary, indent=2) + "\n"
    if args.out:
        out = Path(args.out)
        out.with_name(out.stem + ".summary.json").write_text(
            summary_text, encoding="utf-8"
        )
    else:
        sys.stderr.write(summary_text)
    return 0


def _cmd_fig6(args) -> int:
    pairs = _pair_states(args, args.delta_range, args.rs)
    scheme = _build_scheme(args)
    rows, exc = _sweep(
        (row.delta, row.r, row.mean_c, row.var_c, row.min_c, row.max_c)
        for row in moments_vs_delta(pairs, scheme, bin_width=args.bin_width)
    )
    config = {
        **_solver_config(args),
        "seed": args.seed,
        "rs": args.rs,
        "deltas": args.delta_range,
        "scheme": _scheme_descriptor(scheme),
        "bin_width": args.bin_width,
    }
    columns = ("delta", "r", "mean_c", "var_c", "min_c", "max_c")
    return _emit_table(args, config, columns, rows, exc)


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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
