"""The three benchmark workloads, their input sizes and their output checks.

Each workload has a `prepare` step (set-up: inputs from the seed, caches
the workload declares warm) and a `run_pass` that issues a fixed sequence of
timed operations in a closed loop: each starts when the previous returns.
CLI operations call `spindiscord.cli.main(argv)` in-process; the others call
the public library functions.  Every call looks its target up on the module
at call time, so the traced run sees the wrappers installed by tracing.py.

  large_solve     matvec- and Lanczos-bound: cold `ground-state` solves at
                  N=18 (full reorthogonalization, 300-vector cycles) and N=20
                  (restarted, 80-vector cycles), then N=20 again from cache.
  ring_sweep      many medium solves with cache writes, then cache reads plus
                  pair-state reduction: fig3 N=12 cold (the first BLAS use in
                  the process), fig3 N=16 cold, fig4 and fig2 N=16 warm.
  pair_analytics  no solver in the timed region: histograms of ring pair
                  states (y = 0) and of random X states (y != 0), Monte Carlo,
                  discord of random X states, and the fig1 scaling curves.
"""

from __future__ import annotations

import contextlib
import io
import os

import numpy as np

import checks

# Ring inputs are fixed grids; only random X states and the MC seed vary.
FULL = {
    "solve_small": (18, (0.5, 1.0, 1.5)),
    "solve_large": (20, (0.5, 1.0)),
    "ring_small": 12,
    "ring_large": 16,
    "grid": "-1.5:2.5:0.05",
    # fig2 rejects delta <= -1, so its grid starts above -1.
    "fig2_grid": "-0.95:2.5:0.05",
    "pair_n": 12,
    "fig6_args": [],
    "fig5_angle_args": [],
    "mc_samples": 1_000_000,
    "hist_states": 20,
    "hist_grid": (256, 256),
    "discord_states": 20_000,
    "fig1_grid": "0:2:0.0001",
}

SMOKE = {
    "solve_small": (8, (0.5, 1.0, 1.5)),
    "solve_large": (10, (0.5, 1.0)),
    "ring_small": 8,
    "ring_large": 10,
    "grid": "-1.5:2.5:0.5",
    "fig2_grid": "-0.5:2.5:0.5",
    "pair_n": 8,
    "fig6_args": ["--quadrature", "32x32", "--delta-range", "0:2:0.5"],
    "fig5_angle_args": ["--quadrature", "64x16"],
    "mc_samples": 1000,
    "hist_states": 3,
    "hist_grid": (32, 32),
    "discord_states": 200,
    "fig1_grid": "0:2:0.01",
}

FIG3_COLUMNS = {0: "key", 1: "key", 2: "value", 3: "k", 4: "basis"}
FIG4_COLUMNS = {0: "key", 1: "key", 2: "k", 3: "basis"}
FIG2_COLUMNS = {0: "key", 1: "key", 2: "value", 3: "value", 4: "value"}
FIG6_COLUMNS = {0: "key", 1: "key", 2: "value", 3: "value", 4: "value", 5: "value"}
FIG1_COLUMNS = {0: "key", 1: "value", 2: "value"}
FIG1_STRIDE = 100
DENSE_HIST_STATES = 2


class Context:
    """Everything a pass needs: the package, sizes, inputs, goldens, temp dirs."""

    def __init__(self, pkg, size, seed, tmp, goldens, record=False):
        self.pkg = pkg
        self.size = size
        self.seed = seed
        self.tmp = tmp
        self.goldens = goldens
        self.record = record
        self.recorded = {}
        self.pass_state = {}
        self.known_defects = {}
        self._dirs = 0

    def fresh_dir(self, stem):
        self._dirs += 1
        path = os.path.join(self.tmp, f"{stem}{self._dirs}")
        os.makedirs(path)
        return path

    def golden(self, key, value, compare):
        """Record `value` as the golden, or compare it with the stored one."""
        if self.record:
            self.recorded[key] = value
            return []
        if key not in self.goldens:
            return [f"no golden for {key}"]
        return compare(value, self.goldens[key])

    def cli(self, argv, out):
        """Run one subcommand in-process; raise on a non-zero exit."""
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = self.pkg.cli.main(list(argv) + ["--out", out, "--deterministic"])
        if code != 0:
            raise RuntimeError(f"{argv[0]} exited {code}: {err.getvalue()[-400:]}")
        return out

    def out(self, name, ext="csv"):
        return os.path.join(self.tmp, f"{name}.{ext}")


# ── large_solve ─────────────────────────────────────────────────────────────


def _ground_state_op(ctx, op, name, n, delta, cache, warm):
    key = f"n{n}_d{delta!r}"
    out = ctx.out(f"gs_{key}", "txt")
    argv = ["ground-state", "--n", str(n), "--delta", repr(delta), "--cache-dir", cache]

    def check(path):
        got = checks.read_ground_state(path)
        problems = [] if got["residual"] <= 1e-8 else [f"{key}: residual {got['residual']!r}"]
        if warm:
            cold = ctx.pass_state[key]
            if abs(got["energy"] - cold) > 1e-12:
                problems.append(f"{key}: cache returned {got['energy']!r}, solved {cold!r}")
        else:
            ctx.pass_state[key] = got["energy"]
        return problems + ctx.golden(
            f"energy_{key}",
            got["energy"],
            lambda a, b: [] if abs(a - b) <= checks.ENERGY_TOL else [f"{key}: energy {a!r} != golden {b!r}"],
        )

    op(name, lambda: ctx.cli(argv, out), check)


def large_solve_pass(ctx, op):
    cache = ctx.fresh_dir("cache")
    n, deltas = ctx.size["solve_small"]
    for delta in deltas:
        _ground_state_op(ctx, op, "solve_n18_s", n, delta, cache, warm=False)
    n, deltas = ctx.size["solve_large"]
    for delta in deltas:
        _ground_state_op(ctx, op, "solve_n20_s", n, delta, cache, warm=False)
    for delta in deltas:
        _ground_state_op(ctx, op, "reload_n20_s", n, delta, cache, warm=True)


# ── ring_sweep ──────────────────────────────────────────────────────────────


def _table_check(ctx, key, columns, k_col=None):
    def check(path):
        rows = checks.read_csv(path)
        problems = ctx.golden(key, rows, lambda a, b: checks.compare_rows(a, b, columns, key))
        if k_col is not None:
            problems += checks.isotropic_k(rows, 0, k_col, key)
        return problems

    return check


def ring_sweep_pass(ctx, op):
    cache = ctx.fresh_dir("cache")
    grid = ctx.size["grid"]
    for name, n in (("fig3_cold_n12_s", ctx.size["ring_small"]), ("fig3_cold_n16_s", ctx.size["ring_large"])):
        argv = ["fig3", "--n", str(n), "--delta-range", grid, "--cache-dir", cache]
        op(name, lambda a=argv, o=ctx.out(name): ctx.cli(a, o), _table_check(ctx, f"fig3_n{n}", FIG3_COLUMNS, 3))
    n = str(ctx.size["ring_large"])
    argv = ["fig4", "--n", n, "--delta-range", grid, "--cache-dir", cache]
    op("fig4_warm_n16_s", lambda: ctx.cli(argv, ctx.out("fig4")), _table_check(ctx, f"fig4_n{n}", FIG4_COLUMNS, 2))
    argv2 = ["fig2", "--n", n, "--delta-range", ctx.size["fig2_grid"], "--cache-dir", cache]
    op("fig2_warm_n16_s", lambda: ctx.cli(argv2, ctx.out("fig2")), _table_check(ctx, f"fig2_n{n}", FIG2_COLUMNS))


# ── pair_analytics ──────────────────────────────────────────────────────────


def pair_analytics_prepare(ctx):
    """Fill the warm N=12 cache over the default fig3 grid; draw inputs."""
    cache = ctx.fresh_dir("warm")
    ctx.cli(["fig3", "--n", str(ctx.size["pair_n"]), "--delta-range", ctx.size["grid"], "--cache-dir", cache],
            ctx.out("fill"))
    rng = np.random.default_rng(ctx.seed)
    random_xstate = ctx.pkg.xstate.random_xstate
    ctx.warm_cache = cache
    ctx.discord_states = [random_xstate(rng) for _ in range(ctx.size["discord_states"])]
    ctx.hist_states = [random_xstate(rng) for _ in range(ctx.size["hist_states"])]
    ctx.mc_seed = int(rng.integers(0, 2**31 - 1))


def _fig6_check(ctx):
    def check(path):
        rows = checks.read_csv(path)
        problems = ctx.golden("fig6", rows, lambda a, b: checks.compare_rows(a, b, FIG6_COLUMNS, "fig6"))
        for delta, r, mean, var, lo, hi in rows:
            problems += checks.moments_order(lo, mean, var, hi, f"fig6 delta={delta} r={r}")
            if delta == 1.0 and r == 1.0:
                ctx.pass_state["gauss_ref"] = (mean, var)
        return problems

    return check


def _fig5_angle_check(ctx):
    def check(path):
        summary = checks.read_summary(path)
        moments = [summary[k] for k in ("mean", "variance", "min_c", "max_c")]
        problems = checks.histogram_mass([row[2] for row in checks.read_csv(path)], "fig5 angle")
        problems += checks.moments_order(moments[2], moments[0], moments[1], moments[3], "fig5 angle")
        return problems + ctx.golden(
            "fig5_angle_moments",
            moments,
            lambda a, b: [] if all(checks.close(x, y, checks.VALUE_TOL) for x, y in zip(a, b))
            else [f"fig5 angle moments {a!r} != golden {b!r}"],
        )

    return check


def _fig5_mc_check(ctx):
    def check(path):
        summary = checks.read_summary(path)
        problems = checks.histogram_mass([row[2] for row in checks.read_csv(path)], "fig5 mc")
        if "gauss_ref" not in ctx.pass_state:
            return problems + ["fig5 mc: no Gauss reference from fig6 in this pass"]
        mean, var = ctx.pass_state["gauss_ref"]
        return problems + checks.mc_vs_gauss(summary, mean, var, "fig5 mc")

    return check


def _hist_check(ctx):
    n_theta, n_phi = ctx.size["hist_grid"]

    def check(hists):
        problems = []
        for i, h in enumerate(hists):
            problems += checks.histogram_mass(h.bins.values(), f"hist state {i}")
            problems += checks.moments_order(h.min_c, h.mean, h.variance, h.max_c, f"hist state {i}")
        for i, (state, h) in enumerate(zip(ctx.hist_states[:DENSE_HIST_STATES], hists)):
            ref = checks.dense_gauss_mean(state, n_theta, n_phi)
            if abs(h.mean - ref) > checks.VALUE_TOL:
                problems.append(f"hist state {i}: mean {h.mean!r} != dense quadrature {ref!r}")
        return problems

    return check


def _fig1_check(ctx):
    def check(path):
        rows = checks.read_csv(path)
        problems = [f"fig1: t=1 row {row!r} not normalized to 1"
                    for row in rows if row[0] == 1.0 and not (abs(row[1] - 1) <= 1e-12 and abs(row[2] - 1) <= 1e-12)]
        problems += ctx.golden("fig1_rows", len(rows), lambda a, b: [] if a == b else [f"fig1: {a} rows, golden {b}"])
        sample = rows[::FIG1_STRIDE]
        return problems + ctx.golden("fig1", sample, lambda a, b: checks.compare_rows(a, b, FIG1_COLUMNS, "fig1"))

    return check


def pair_analytics_pass(ctx, op):
    cache = ctx.warm_cache
    size = ctx.size
    argv6 = ["fig6", "--n", str(size["pair_n"]), "--cache-dir", cache] + size["fig6_args"]
    op("fig6_gauss_s", lambda: ctx.cli(argv6, ctx.out("fig6")), _fig6_check(ctx))
    argv5 = ["fig5", "--n", str(size["pair_n"]), "--cache-dir", cache, "--scheme"]
    op("fig5_angle_s", lambda: ctx.cli(argv5 + ["angle"] + size["fig5_angle_args"], ctx.out("fig5_angle")),
       _fig5_angle_check(ctx))
    mc = ["mc", "--samples", str(size["mc_samples"]), "--seed", str(ctx.mc_seed)]
    op("fig5_mc_s", lambda: ctx.cli(argv5 + mc, ctx.out("fig5_mc")), _fig5_mc_check(ctx))

    def histograms():
        dist = ctx.pkg.distribution
        grid = dist.GaussGrid(*size["hist_grid"])
        return [dist.sample_distribution(s, grid) for s in ctx.hist_states]

    op("hist_xstate_s", histograms, _hist_check(ctx))

    def discords():
        discord = ctx.pkg.xstate.discord
        return [discord(s) for s in ctx.discord_states]

    def discord_check(results):
        problems, ctx.known_defects["discord_closed_form_gap"] = checks.discord_bounds(ctx.discord_states, results)
        return problems

    op("discord_xstate_s", discords, discord_check)
    argv1 = ["fig1", "--delta-range", size["fig1_grid"]]
    op("fig1_s", lambda: ctx.cli(argv1, ctx.out("fig1")), _fig1_check(ctx))


WORKLOADS = {
    "large_solve": (None, large_solve_pass),
    "ring_sweep": (None, ring_sweep_pass),
    "pair_analytics": (pair_analytics_prepare, pair_analytics_pass),
}
