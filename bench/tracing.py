"""Outside-in span tracing of the spindiscord layers, for the traced run.

The benchmark does not change the package.  It replaces selected public
functions, both on the module that defines them and on every module that
bound them with `from ... import`, by wrappers that record one span per
call: name, start, end, parent span and run id (one run id per traced pass).
Spans stay in memory and are reduced to per-layer metrics after the run.
The layers are the package modules; root spans opened by the benchmark
around each timed operation form the `bench` layer.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

MODULES = ("spinchain", "correlators", "xstate", "distribution", "scaling", "cli")


def _matvec_info(args, kwargs, result):
    basis = args[0]
    pairs = basis.__dict__.get("_flip_pairs")
    return basis.dim, (pairs[0].size if pairs is not None else 0)


def _iterations_info(args, kwargs, result):
    return result.iterations


def _load_info(args, kwargs, result):
    return os.path.getsize(args[0]) if result is not None else 0


def _save_info(args, kwargs, result):
    return os.path.getsize(args[0])


def _size_info(args, kwargs, result):
    return int(result.size)


def _samples_info(args, kwargs, result):
    return result.n_samples


def _len_info(args, kwargs, result):
    return len(result)


def _cli_info(args, kwargs, result):
    """Bytes the subcommand wrote to its --out file (and fig5's summary)."""
    argv = list(args[0])
    if "--out" not in argv:
        return 0
    out = argv[argv.index("--out") + 1]
    total = os.path.getsize(out) if os.path.exists(out) else 0
    root, _ext = os.path.splitext(out)
    summary = root + ".summary.json"
    if os.path.exists(summary):
        total += os.path.getsize(summary)
    return total


# (defining module, function, hook deriving a span's info from its call)
TARGETS = (
    ("spinchain", "build_sector", None),
    ("spinchain", "apply_hamiltonian", _matvec_info),
    ("spinchain", "ground_state", _iterations_info),
    ("spinchain", "load_ground_state", _load_info),
    ("spinchain", "save_ground_state", _save_info),
    ("correlators", "two_site_rdm", None),
    ("correlators", "pair_correlations", None),
    ("correlators", "discord_profile_vs_delta", None),
    ("correlators", "discord_profile_vs_r", None),
    ("correlators", "discord_isotropic", None),
    ("xstate", "discord", None),
    ("xstate", "conditional_entropy_values", _size_info),
    ("distribution", "sample_distribution", _samples_info),
    ("distribution", "moments_vs_delta", None),
    ("scaling", "normalized_discord_curve", _len_info),
    ("cli", "main", _cli_info),
)


class Tracer:
    """Records spans of wrapped calls while `active`; a no-op pass-through otherwise."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, run id, info)
        self.run_id = -1
        self.active = False
        self._stack = []
        self._restore = []

    def _wrap(self, fn, name, hook):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (name, start, time.perf_counter(), parent, self.run_id, None)
                stack.pop()
                raise
            end = time.perf_counter()
            stack.pop()
            info = hook(args, kwargs, result) if hook is not None else None
            spans[idx] = (name, start, end, parent, self.run_id, info)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every TARGETS function wherever the package binds it."""
        import importlib

        modules = [package] + [importlib.import_module(f"{package.__name__}.{m}") for m in MODULES]
        for mod_name, func_name, hook in TARGETS:
            original = getattr(importlib.import_module(f"{package.__name__}.{mod_name}"), func_name)
            wrapper = self._wrap(original, f"{mod_name}.{func_name}", hook)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def root(self, name: str, fn):
        """Run fn() under a root span of the `bench` layer."""
        return self._wrap(fn, f"bench.{name}", None)()


def _self_times(spans):
    child = defaultdict(float)
    for name, start, end, parent, _run, _info in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - child[i] for i, (_n, start, end, *_rest) in enumerate(spans)]


def layer_metrics(tracer: Tracer, run_ids) -> dict:
    """Per-layer metrics averaged over the traced passes `run_ids`.

    Counts are per pass; for an exact count every pass gives the same value.
    """
    spans = tracer.spans
    self_t = _self_times(spans)
    run_set = set(run_ids)
    hit_spans = {
        i for i, s in enumerate(spans) if s[0] == "spinchain.ground_state" and s[5] == 0
    }
    m = defaultdict(float)
    for i, (name, start, end, parent, run, info) in enumerate(spans):
        if run not in run_set:
            continue
        dur = end - start
        layer = name.split(".", 1)[0]
        m[f"{layer}.self_s"] += self_t[i]
        if name == "spinchain.apply_hamiltonian":
            dim, npairs = info
            m["spinchain.matvec_calls"] += 1
            m["spinchain.matvec_s"] += dur
            # Array traffic of one matvec: 12 dim-length and 5 bond-length
            # float64/intp streams (computed from array sizes, not measured).
            m["spinchain.matvec_bytes"] += 8 * (12 * dim + 5 * npairs)
            if parent in hit_spans:
                m["spinchain.verify_s"] += dur
        elif name == "spinchain.ground_state":
            m["spinchain.solve_calls"] += 1
            m["spinchain.solve_self_s"] += self_t[i]
            m["spinchain.iterations"] += info or 0
            m["spinchain.cache_hits"] += info == 0
        elif name == "spinchain.build_sector":
            m["spinchain.sector_s"] += dur
        elif name == "spinchain.load_ground_state":
            m["spinchain.cache_load_s"] += dur
            m["spinchain.cache_bytes_read"] += info
        elif name == "spinchain.save_ground_state":
            m["spinchain.cache_save_s"] += dur
            m["spinchain.cache_bytes_written"] += info
        elif name == "correlators.two_site_rdm":
            m["correlators.rdm_calls"] += 1
            m["correlators.rdm_s"] += dur
        elif name == "correlators.pair_correlations":
            m["correlators.pair_corr_calls"] += 1
            m["correlators.pair_corr_s"] += dur
        elif name in ("correlators.discord_profile_vs_delta", "correlators.discord_profile_vs_r"):
            m["correlators.sweep_self_s"] += self_t[i]
        elif name == "correlators.discord_isotropic":
            if parent >= 0 and spans[parent][0] == "scaling.normalized_discord_curve":
                m["scaling.closed_form_s"] += dur
        elif name == "xstate.discord":
            m["xstate.discord_calls"] += 1
            m["xstate.discord_s"] += dur
        elif name == "xstate.conditional_entropy_values":
            m["xstate.ce_calls"] += 1
            m["xstate.ce_points"] += info
            m["xstate.ce_s"] += dur
        elif name == "distribution.sample_distribution":
            m["distribution.hist_calls"] += 1
            m["distribution.samples"] += info
            m["distribution.hist_s"] += dur
            m["distribution.hist_self_s"] += self_t[i]
        elif name == "scaling.normalized_discord_curve":
            m["scaling.curve_s"] += dur
            m["scaling.points"] += info
        elif name == "cli.main":
            m["cli.main_s"] += dur
            m["cli.bytes_out"] += info
        elif layer == "bench":
            m["trace.wall_s"] += dur
    passes = max(len(run_set), 1)
    out = {key: value / passes for key, value in m.items()}
    calls = out.pop("spinchain.solve_calls", 0.0)
    out["spinchain.cache_hit_ratio"] = out.pop("spinchain.cache_hits", 0.0) / calls if calls else 0.0
    out["trace.spans"] = sum(1 for s in spans if s[4] in run_set) / passes
    return out
