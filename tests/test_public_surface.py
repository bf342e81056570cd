"""The package's public names: each one resolves, and the README example runs."""

import contextlib
import importlib
import io
from pathlib import Path

import pytest

MODULES = ("xstate", "spinchain", "correlators", "distribution", "scaling", "cli")
# reference implementations and report types that live in tests/oracles.py or are gone
REMOVED = ("MeasurementBasis", "GridVerifyReport", "C90Result", "joint_eigenvalues",
           "discord_grid_verify", "pure_state_discord", "AsymptoticCheck",
           "asymptotic_discord_check", "find_peaks", "NormalizedDiscordPoint",
           "SectorBasis", "dense_sector_hamiltonian", "dense_spectrum_oracle", "ScalingForm",
           "ScalingParams", "KRatio", "UndefinedRatioError")
README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("mod", MODULES)
def test_every_exported_name_resolves(mod):
    module = importlib.import_module(f"spindiscord.{mod}")
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_not_importable(name):
    for mod in ("", *(f".{m}" for m in MODULES)):
        assert not hasattr(importlib.import_module(f"spindiscord{mod}"), name), f"spindiscord{mod}.{name}"


def test_the_solver_sector_has_no_full_sector_expansion():
    from spindiscord.spinchain import MomentumSector

    assert not hasattr(MomentumSector, "expand")


def test_readme_quick_start_runs(tmp_path, monkeypatch):
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)  # the example caches ground states under ./cache
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    first, second = (line.split() for line in out.getvalue().splitlines()[:2])
    assert float(first[0]) == pytest.approx(0.04881798480574462, abs=1e-12)
    assert first[1] == "OptimalTheta.NINETY"
    assert float(second[1]) == pytest.approx(2.0, abs=1e-9)  # k at the isotropic point
    assert (tmp_path / "cache").is_dir()
