"""The run summary run_scenario prints: one line set per kind, checked against meta.json."""

from pathlib import Path

import pytest

from fluxlattice import run_scenario

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

DRIVE = """\
[drive]
waveform = sinusoidal
{omega}Gamma = 0.717
M = 1
sigma = pi
rho = pi

[coupling]
J_x = 1
J_y = 1
"""

EVOLVE = """\
[lattice]
n_half = {n_half}

[input]
width = {width}
imprint = true

[time]
t_max = {t_max}
{sampling}
"""


def _ini(kind, *, omega="omega = 8\n", body=""):
    return f"[scenario]\nkind = {kind}\nlabel = run\n\n" + DRIVE.format(omega=omega) + body


def _evolve(n_half=6, width="1e6", t_max=6, sampling="dt_sample = 0.1"):
    return "\n" + EVOLVE.format(n_half=n_half, width=width, t_max=t_max,
                                sampling=sampling)


def _run(tmp_path, capsys, ini, strict=False):
    path = tmp_path / "run.ini"
    path.write_text(ini, encoding="utf-8")
    result = run_scenario(path, tmp_path / "out", strict=strict, quiet=False)
    lines = capsys.readouterr().out.splitlines()
    s = result.scenario
    assert lines[0] == (f"{s.label}: {s.kind} -> {len(result.files)} "
                        f"file(s) in {tmp_path / 'out'}")
    return result, result.metadata["derived"], lines[1:]


def test_spectrum_bands_summary(tmp_path, capsys):
    ini = _ini("spectrum", body="\n[spectrum]\nflux = 1/3\nk_grid = 32\n")
    _, d, lines = _run(tmp_path, capsys, ini)
    assert d["band_count"] == 3
    assert lines == [f"  flux 1/3: 3 band(s), total bandwidth {d['total_bandwidth']:.6g}"]


def test_butterfly_summary(tmp_path, capsys):
    ini = _ini("spectrum", body="\n[spectrum]\nflux = farey:3\nk_grid = 32\n")
    _, d, lines = _run(tmp_path, capsys, ini)
    # farey:3 fluxes 0/1, 1/3, 1/2, 2/3, 1/1 give 1+3+2+3+1 band rows
    assert (d["flux_count"], d["band_rows"]) == (5, 10)
    assert lines == ["  butterfly: 5 fluxes, 10 band rows"]


def test_compare_summary(tmp_path, capsys):
    ini = _ini("compare", omega="",
               body=_evolve(n_half=4, width=1.5, t_max=0.5, sampling="")
               + "\n[compare]\nomegas = 20, 40\n")
    _, d, lines = _run(tmp_path, capsys, ini)
    (p20, p40), (ratio,) = d["peak_deviation"], d["peak_ratios"]
    assert ratio == pytest.approx(p40 / p20, rel=1e-15)
    assert lines == [f"  peak deviations: {p20:.3e}, {p40:.3e}",
                     f"  consecutive ratios: {ratio:.3f}"]


def test_semiclassical_summary(tmp_path, capsys):
    ini = _ini("semiclassical", body=_evolve(width=2.0, t_max=2, sampling="dt_sample = 0.5"))
    _, d, lines = _run(tmp_path, capsys, ini)
    assert lines == [f"  energy drift = {d['energy_drift']:.3e}"]


def test_units_summary(tmp_path, capsys):
    ini = (CONFIGS / "units.ini").read_text(encoding="utf-8")
    _, d, lines = _run(tmp_path, capsys, ini)
    assert lines == [f"  R = {d['R_cm']:.4g} cm, Lambda = {d['Lambda_mod_mm']:.4g} mm, "
                     f"A = {d['A_per_cm']:.4g} /cm, delta_n = {d['delta_n']:.4g}"]


def test_effective_summary_reports_drift_edge_mass_and_revival(tmp_path, capsys):
    # a plane wave on a 13 x 13 window: the fringes revive every 2 time units,
    # and the flagged truncation is not fatal without strict
    result, d, lines = _run(tmp_path, capsys, _ini("effective_evolve", body=_evolve()))
    assert result.exit_code == 0 and d["truncation"] is True
    assert d["revival"] == pytest.approx(2.0)
    assert lines == [f"  norm drift = {d['norm_drift']:.3e}, "
                     f"edge mass max = {d['edge_mass_max']:.3e}",
                     f"  revival period = {d['revival']:.6g}"]


def test_full_summary_prints_warnings_and_the_strict_exit(tmp_path, capsys):
    # a zero norm-drift budget makes the RK4 run warn; the truncated window
    # makes strict exit with 4
    ini = (_ini("full_evolve", body=_evolve(t_max=1, sampling="dt_sample = 0.5"))
           + "\n[integrator]\nnorm_drift_tol = 0\n")
    result, d, lines = _run(tmp_path, capsys, ini, strict=True)
    assert result.exit_code == result.metadata["exit_code"] == 4
    assert d["norm_drift"] > 0.0 and d["truncation"] is True
    warning, = result.metadata["warnings"]
    assert warning.startswith("norm drift ")
    assert lines == [f"  norm drift = {d['norm_drift']:.3e}, "
                     f"edge mass max = {d['edge_mass_max']:.3e}",
                     f"  warning: {warning}",
                     "  strict: truncation warning treated as fatal"]
