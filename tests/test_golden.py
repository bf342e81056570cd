"""Saved deterministic outputs of `fig1`–`fig6` at small sizes.

Each case runs one subcommand with `--deterministic` and compares its CSV
(and, for `fig5`, the summary sidecar) with the file of the same name under
`tests/golden/`.  Row counts, headers and text cells must match exactly;
numeric cells agree within 1e-12, which leaves room for a changed summation
order and nothing else.  The correlator ratio k = gamma_o/gamma_d turns an
error dg into ~ 10 dg k^2, so k is compared to 1e-12 * max(1, k^2), and not
at all where |k| > 1e3 or k is NaN: there gamma_d vanishes and k is rounding
noise.

The JSON cases run the same argv with `--format json`.  Their documents
must keep every key in order, the config echo included, except
`config.cache_dir`, which names wherever the test's cache lives; row cells
are compared as in the CSV, and a `fig5` summary as in its sidecar.

To re-record a case after an intended output change, run its argv with
`--deterministic --out tests/golden/<name>.csv` (or `--format json
--deterministic --out tests/golden/<name>.json`) from a directory with no
`SPINDISCORD_CACHE` set, and review the diff.
"""

import json
import math
from pathlib import Path

import pytest

from spindiscord import cli

GOLDEN = Path(__file__).with_name("golden")

TOL = 1e-12
K_ILL = 1e3

CASES = {
    "fig1": ["fig1", "--delta-range", "0.5:1.5:0.05"],
    # Delta > -1 only: fig2 rejected the polarized regime when this was recorded.
    "fig2": ["fig2", "--n", "8", "--delta-range", "-0.5:2:0.5"],
    "fig3": ["fig3", "--n", "8", "--rs", "1,2,4", "--delta-range", "-1.5:2.5:0.25"],
    "fig4": ["fig4", "--n", "8", "--rs", "1,3", "--delta-range", "0:2:0.25"],
    "fig5_gauss": ["fig5", "--n", "8", "--delta", "0.5", "--r", "1", "--quadrature", "32x32"],
    "fig5_angle": ["fig5", "--n", "8", "--delta", "2.0", "--r", "2", "--scheme", "angle",
                   "--quadrature", "64x16"],
    "fig5_mc": ["fig5", "--n", "8", "--delta", "1.5", "--r", "3", "--scheme", "mc",
                "--samples", "4000", "--seed", "11"],
    "fig6_gauss": ["fig6", "--n", "8", "--rs", "1,2,4", "--delta-range", "-1.5:2:0.5",
                   "--quadrature", "32x32"],
    "fig6_mc": ["fig6", "--n", "8", "--rs", "1,3", "--delta-range", "-1:1.5:0.5",
                "--scheme", "mc", "--samples", "3000", "--seed", "5"],
}

JSON_CASES = ("fig2", "fig3", "fig4", "fig5_gauss", "fig6_gauss")


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def _cells_match(got, want, is_k):
    a, b = _number(got), _number(want)
    if a is None or b is None:
        return got == want
    if is_k:
        if math.isnan(b) or abs(b) > K_ILL:
            return True
        return abs(a - b) <= TOL * max(1.0, b * b)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= TOL


def _compare_csv(got_text, want_text):
    got = [ln.split(",") for ln in got_text.splitlines()]
    want = [ln.split(",") for ln in want_text.splitlines()]
    assert got[0] == want[0]
    assert len(got) == len(want)
    k_cols = {i for i, name in enumerate(want[0]) if name == "k"}
    for n, (g, w) in enumerate(zip(got[1:], want[1:]), start=1):
        assert len(g) == len(w), f"row {n}: {g} vs {w}"
        for i, (a, b) in enumerate(zip(g, w)):
            assert _cells_match(a, b, i in k_cols), f"row {n} col {want[0][i]}: {a} vs {b}"


def _compare_summary(got, want):
    assert got.keys() == want.keys()
    for key, value in want.items():
        if isinstance(value, float):
            assert abs(got[key] - value) <= TOL, f"{key}: {got[key]} vs {value}"
        else:
            assert got[key] == value, key


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SPINDISCORD_CACHE", str(tmp_path / "cache"))
    out = tmp_path / f"{name}.csv"
    assert cli.main(CASES[name] + ["--deterministic", "--out", str(out)]) == 0
    capsys.readouterr()
    _compare_csv(out.read_text(), (GOLDEN / f"{name}.csv").read_text())
    summary = GOLDEN / f"{name}.summary.json"
    if summary.exists():
        _compare_summary(
            json.loads((tmp_path / f"{name}.summary.json").read_text()),
            json.loads(summary.read_text()),
        )


def _compare_json(got, want):
    assert list(got) == list(want)
    assert list(got["config"].items()) == list(want["config"].items())
    if "summary" in want:
        _compare_summary(got["summary"], want["summary"])
    assert got["columns"] == want["columns"]
    assert len(got["rows"]) == len(want["rows"])
    k_cols = {i for i, name in enumerate(want["columns"]) if name == "k"}
    for n, (g, w) in enumerate(zip(got["rows"], want["rows"])):
        assert len(g) == len(w), f"row {n}: {g} vs {w}"
        for i, (a, b) in enumerate(zip(g, w)):
            # JSON text of a cell: a number, null (NaN or no value) or a string
            a, b = json.dumps(a), json.dumps(b)
            assert _cells_match(a, b, i in k_cols), f"row {n} col {want['columns'][i]}: {a} vs {b}"


@pytest.mark.parametrize("name", JSON_CASES)
def test_json_matches_golden(name, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SPINDISCORD_CACHE", str(tmp_path / "cache"))
    out = tmp_path / f"{name}.json"
    argv = CASES[name] + ["--format", "json", "--deterministic", "--out", str(out)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    got = json.loads(out.read_text())
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    assert got["config"]["cache_dir"] == str(tmp_path / "cache")
    got["config"]["cache_dir"] = want["config"]["cache_dir"] = None
    _compare_json(got, want)
