"""Output checks for the benchmark.  None of them depends on the workload seed.

* Ring outputs are compared with goldens recorded from the package at the
  commit that introduced the benchmark.  The solver stops at a residual
  ||H v - E v|| <= 10 tol = 1e-11, which bounds the energy error by the same
  amount and the correlator error by ~1e-11/gap; the tolerances below leave a
  margin of 100x over that and are no looser than the acceptance gate in
  tests/test_acceptance.py (energy 1e-8, discord and k 1e-9).
* Histogram masses sum to 1; Monte Carlo moments agree with the Gauss
  quadrature moments of the same state within MC_SIGMAS standard errors.
* Discord of arbitrary X states is checked one-sidedly against this module's
  own dense 4x4 evaluation: 0 <= D <= C(basis) - S_AB + S_B at the closed
  form's candidate bases.  It is one-sided because an exact minimizer may
  lower the two-angle closed form; random bases that already undercut it
  are reported as a measured gap, not as a failure.
"""

from __future__ import annotations

import json
import math

import numpy as np

ENERGY_TOL = 1e-9
VALUE_TOL = 1e-9      # discord, moments, scaling curves; k scaled as below
# k = gamma_o/gamma_d with |gamma_o| ~ 0.1 propagates a correlator error dg
# as ~ 10 dg k^2, so k is compared to VALUE_TOL * max(1, k^2); where |k|
# exceeds K_ILL (or is NaN) gamma_d vanishes, e.g. at even r for delta = 0,
# and k is rounding noise that is not compared.
K_ILL = 1e3
MASS_TOL = 1e-9
K_ISOTROPIC_TOL = 1e-9
TIE_MARGIN = 1e-6     # the optimal basis is compared only where |k - 2| exceeds this
DISCORD_FLOOR = -1e-12
BOUND_SLACK = 1e-10
MC_SIGMAS = 5.0


def read_csv(path):
    """Rows of a CLI CSV file as lists of cells (floats where they parse)."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    for line in lines[1:]:
        rows.append([_cell(c) for c in line.split(",")])
    return rows


def _cell(text):
    if text == "":
        return None
    try:
        return float(text)
    except ValueError:
        return text


def read_ground_state(path):
    """{'energy': .., 'residual': ..} from `ground-state` text output."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, _, value = line.partition(" ")
            if key in ("energy", "residual"):
                out[key] = float(value)
    return out


def read_summary(csv_path):
    root = csv_path[: -len(".csv")] if csv_path.endswith(".csv") else csv_path
    with open(root + ".summary.json", encoding="utf-8") as fh:
        return json.load(fh)


def close(a, b, tol):
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= tol


def _close_k(a, b):
    if b is None or math.isnan(b) or abs(b) > K_ILL:
        return True
    return isinstance(a, float) and abs(a - b) <= VALUE_TOL * max(1.0, b * b)


def compare_rows(rows, golden, columns, label):
    """Problems found comparing a CLI table with its golden rows.

    columns maps a column index to 'key' (exact), 'value', 'k' or 'basis'.
    """
    if len(rows) != len(golden):
        return [f"{label}: {len(rows)} rows, golden has {len(golden)}"]
    problems = []
    k_col = next((i for i, kind in columns.items() if kind == "k"), None)
    for n, (row, gold) in enumerate(zip(rows, golden)):
        for i, kind in columns.items():
            a, b = row[i], gold[i]
            if kind == "key":
                ok = a == b
            elif kind == "basis":
                k = gold[k_col] if k_col is not None else None
                ok = a == b or k is None or math.isnan(k) or abs(k - 2.0) <= TIE_MARGIN
            elif kind == "k":
                ok = _close_k(a, b)
            else:
                ok = close(a, b, VALUE_TOL)
            if not ok:
                problems.append(f"{label} row {n} col {i}: {a!r} != golden {b!r}")
    return problems[:5]


def isotropic_k(rows, delta_col, k_col, label):
    """At delta = 1 the ring is SU(2) symmetric and k = 2."""
    problems = []
    for row in rows:
        if row[delta_col] == 1.0 and not abs(row[k_col] - 2.0) <= K_ISOTROPIC_TOL:
            problems.append(f"{label}: k = {row[k_col]!r} at delta = 1")
    return problems


def histogram_mass(masses, label):
    total = math.fsum(masses)
    return [] if abs(total - 1.0) <= MASS_TOL else [f"{label}: mass {total!r} != 1"]


def moments_order(min_c, mean, var, max_c, label):
    ok = -1e-12 <= min_c <= mean + 1e-12 and mean <= max_c + 1e-12 and var >= 0.0 and max_c <= 1.0 + 1e-12
    return [] if ok else [f"{label}: moments out of order {(min_c, mean, var, max_c)!r}"]


def mc_vs_gauss(mc, gauss_mean, gauss_var, label):
    """MC mean and variance within MC_SIGMAS standard errors of the quadrature.

    SE(mean) = sqrt(var/n).  For the variance, E[(C-m)^4] <= a^2 var with
    a = max|C - m|, so SE(var) <= a sqrt(var/n).
    """
    n = mc["n_samples"]
    se = math.sqrt(gauss_var / n)
    a = max(mc["max_c"] - gauss_mean, gauss_mean - mc["min_c"], 0.0)
    problems = []
    if abs(mc["mean"] - gauss_mean) > MC_SIGMAS * se + 1e-9:
        problems.append(f"{label}: MC mean {mc['mean']!r} vs Gauss {gauss_mean!r} (SE {se:.3g})")
    if abs(mc["variance"] - gauss_var) > MC_SIGMAS * a * se + 1e-9:
        problems.append(f"{label}: MC variance {mc['variance']!r} vs Gauss {gauss_var!r}")
    return problems


# ── dense reference for X states ────────────────────────────────────────────


def _entropy_terms(eigs):
    eigs = np.clip(eigs, 0.0, None)
    return -np.sum(np.where(eigs > 0.0, eigs * np.log2(np.where(eigs > 0.0, eigs, 1.0)), 0.0), axis=-1)


def dense_matrices(states):
    return np.stack([s.matrix() for s in states])


def dense_conditional_entropy(rho, theta, phi):
    """C(theta, phi) of 4x4 states rho[..., 4, 4], measuring qubit B.

    Each outcome |k> of the basis |0~> = cos(t/2)|0> + e^{i phi} sin(t/2)|1>,
    |1~> orthogonal, leaves the unnormalized A state <k|_B rho |k>_B with
    eigenvalues mu; its term is p S(mu/p) = -sum mu log mu + p log p.
    """
    theta = np.asarray(theta, dtype=float)[..., None]
    phi = np.asarray(phi, dtype=float)[..., None]
    c = np.cos(theta / 2.0) + 0j
    s = np.exp(1j * phi) * np.sin(theta / 2.0)
    r = rho.reshape(rho.shape[:-2] + (2, 2, 2, 2))
    total = 0.0
    for k in (np.concatenate([c, s], -1), np.concatenate([-np.conj(s), c], -1)):
        cond = np.einsum("...abcd,...b,...d->...ac", r, np.conj(k), k)
        mu = np.linalg.eigvalsh(cond)
        p = np.clip(mu, 0.0, None).sum(-1)
        total = total + _entropy_terms(mu) - _entropy_terms(p[..., None])
    return total


def dense_entropies(rho):
    """(S_AB, S_B) of rho[..., 4, 4]."""
    r = rho.reshape(rho.shape[:-2] + (2, 2, 2, 2))
    rho_b = np.einsum("...abad->...bd", r)
    return _entropy_terms(np.linalg.eigvalsh(rho)), _entropy_terms(np.linalg.eigvalsh(rho_b))


def discord_bounds(states, results, rng_seed=12345):
    """Check 0 <= D <= C(basis) - S_AB + S_B, and measure the closed-form gap.

    The hard upper bound uses the two candidate angles of the closed form:
    theta = 0, and theta = pi/2 at the reported phi*, at phi = 0 and at
    phi = pi/2.  Three fixed random directions (a fixed RNG, not the workload
    seed) can undercut the two-angle closed form, a known gap of the package
    (the optimum can lie strictly inside (0, pi/2)); states where they do are
    counted and returned, not failed.  Returns (problems, gap report).
    """
    rho = dense_matrices(states)
    d = np.array([r.discord for r in results])
    phi_star = np.array([r.phi_star for r in results])
    s_ab, s_b = dense_entropies(rho)
    n = len(states)
    half = np.full(n, math.pi / 2)
    candidates = [(np.zeros(n), np.zeros(n)), (half, phi_star), (half, np.zeros(n)), (half, half)]
    upper = np.min([dense_conditional_entropy(rho, t, p) for t, p in candidates], axis=0) - s_ab + s_b
    rng = np.random.default_rng(rng_seed)
    randoms = [(np.full(n, math.acos(rng.uniform(-1, 1))), np.full(n, rng.uniform(0, 2 * math.pi)))
               for _ in range(3)]
    random_upper = np.min([dense_conditional_entropy(rho, t, p) for t, p in randoms], axis=0) - s_ab + s_b
    problems = []
    low = np.nonzero(d < DISCORD_FLOOR)[0]
    if low.size:
        problems.append(f"discord below 0 for {low.size} states, e.g. {d[low[0]]!r}")
    high = np.nonzero(d > upper + BOUND_SLACK)[0]
    if high.size:
        i = high[0]
        problems.append(f"discord above dense bound for {high.size} states, e.g. {d[i]!r} > {upper[i]!r}")
    gap = d - random_upper
    report = {"states": int(np.sum(gap > BOUND_SLACK)), "of": n, "max": float(max(gap.max(), 0.0))}
    return problems, report


def dense_gauss_mean(state, n_theta, n_phi):
    """Mean of C over the sphere by this module's dense evaluation on the
    GaussGrid nodes (Gauss-Legendre in cos theta, midpoint phi)."""
    nodes, weights = np.polynomial.legendre.leggauss(n_theta)
    theta = np.repeat(np.arccos(nodes), n_phi)
    phi = np.tile((np.arange(n_phi) + 0.5) * (2.0 * math.pi / n_phi), n_theta)
    w = np.repeat(weights, n_phi) / (2.0 * n_phi)
    values = dense_conditional_entropy(state.matrix()[None], theta, phi)
    return float(np.sum(w * values))
