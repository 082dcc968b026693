"""Config grammar, scenario runner outputs, CLI exit codes."""

import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import fluxlattice
from fluxlattice import config as config_module
from fluxlattice import run_scenario
from fluxlattice.cli import main
from fluxlattice.config import (
    ConfigError,
    ValidationError,
    expand_sweep,
    load_config,
    load_sections,
    parse_bool,
    parse_flux_spec,
    parse_int,
    parse_real,
    parse_reals,
    scenario_from_sections,
)
from fluxlattice.hopping import hoppings_from_drive
from fluxlattice.physical import PhysicalParams
from fluxlattice.spectrum import RationalFlux, harper_bands

PI = math.pi
CONFIGS = Path(__file__).resolve().parent.parent / "configs"

HOPPINGS_INI = """\
[scenario]
kind = hoppings
label = hop

[drive]
waveform = sinusoidal
omega = 8
Gamma = 0.717
M = 1
sigma = pi
rho = pi

[coupling]
J_x = 1
J_y = 1
method = auto
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _sections():
    return {
        "scenario": {"kind": "hoppings", "label": "h"},
        "drive": {"waveform": "sinusoidal", "omega": "8", "Gamma": "0.717",
                  "M": "1", "sigma": "pi", "rho": "pi"},
        "coupling": {"J_x": "1", "J_y": "1"},
    }


# -- token parsing -------------------------------------------------------------

def test_parse_real_accepts_common_forms():
    assert parse_real("pi") == pytest.approx(PI)
    assert parse_real("-pi/25") == pytest.approx(-PI / 25)
    assert parse_real("2*pi/3") == pytest.approx(2 * PI / 3)
    assert parse_real("3/4") == pytest.approx(0.75)
    assert parse_real("1e-3") == pytest.approx(1e-3)
    assert parse_real(2) == 2.0
    assert parse_real(" -0.5 ") == -0.5


def test_parse_real_rejections():
    with pytest.raises(ConfigError, match="boolean"):
        parse_real(True)
    with pytest.raises(ConfigError):
        parse_real("banana")
    with pytest.raises(ConfigError):
        parse_real("1/0")


@pytest.mark.parametrize("value", [
    "inf", "-inf", "nan", "Infinity", "inf/2", "1e400", "inf*pi",
    math.inf, -math.inf, math.nan, 10 ** 400,
], ids=["inf", "-inf", "nan", "Infinity", "inf/2", "1e400", "inf*pi",
        "float-inf", "float--inf", "float-nan", "int-10**400"])
def test_parse_real_rejects_non_finite(value):
    with pytest.raises(ConfigError, match="finite"):
        parse_real(value)


def test_parse_scalar_helpers():
    assert parse_int("7") == 7
    with pytest.raises(ConfigError):
        parse_int("7.5")
    assert parse_bool("Yes") is True
    assert parse_bool("off") is False
    with pytest.raises(ConfigError):
        parse_bool("maybe")
    assert parse_reals("1, pi, 3/2") == pytest.approx((1.0, PI, 1.5))


def test_parse_flux_spec():
    assert parse_flux_spec("auto") == "auto"
    assert parse_flux_spec("farey:3") == "farey:3"
    assert parse_flux_spec(" 1/3 ") == "1/3"
    with pytest.raises(ConfigError):
        parse_flux_spec("half")
    with pytest.raises(ValidationError):
        parse_flux_spec("2/4")
    with pytest.raises(ValidationError):
        parse_flux_spec("farey:0")


# -- scenario validation ---------------------------------------------------------

def test_scenario_minimal_hoppings():
    s = scenario_from_sections(_sections())
    assert s.kind == "hoppings"
    assert s.method == "auto"
    d = s.drive
    assert d.omega == 8.0
    assert d.Gamma == pytest.approx(0.717)
    # canonical form re-ingests to the same scenario
    assert scenario_from_sections(s.resolved_config()) == s


@pytest.mark.parametrize("mutate,match", [
    (lambda c: c.pop("scenario"), "missing"),
    (lambda c: c["scenario"].update(kind="wibble"), "unknown scenario kind"),
    (lambda c: c.update(spectrum={"k_grid": "64"}), "not allowed"),
    (lambda c: c["drive"].update(phase="0"), "unknown key"),
    (lambda c: c.pop("coupling"), "missing section"),
    (lambda c: c["scenario"].update(label="a b"), "file stem"),
    (lambda c: c["drive"].update(waveform="square"), "unknown waveform"),
    (lambda c: c["drive"].update(sigma="2*pi"), "sigma"),
    (lambda c: c["coupling"].update(method="guess"), "hopping method"),
    (lambda c: c["drive"].pop("omega"), "missing required key"),
])
def test_scenario_rejections(mutate, match):
    cfg = _sections()
    mutate(cfg)
    with pytest.raises(ValidationError, match=match):
        scenario_from_sections(cfg)


def _evolve_sections():
    cfg = _sections()
    cfg["scenario"] = {"kind": "effective_evolve", "label": "e"}
    cfg["lattice"] = {"n_half": "3"}
    cfg["input"] = {"width": "1.5"}
    cfg["time"] = {"t_max": "1.0", "dt_sample": "0.5"}
    return cfg


@pytest.mark.parametrize("mutate,match", [
    (lambda c: c["time"].update(stroboscopic="true"), "not both"),
    (lambda c: c["time"].pop("dt_sample"), "dt_sample or stroboscopic"),
    (lambda c: c["time"].update(dt_sample="2.0"), "must lie in"),
    (lambda c: c["time"].update(t_start="0.5"), "t_start"),
    (lambda c: c["time"].update(t_max="-1"), "t_max"),
    (lambda c: c["lattice"].update(n_half="-1"), "half-sizes"),
    (lambda c: c["input"].update(width="0"), "width"),
])
def test_evolve_time_grid_rejections(mutate, match):
    cfg = _evolve_sections()
    mutate(cfg)
    with pytest.raises(ValidationError, match=match):
        scenario_from_sections(cfg)


def test_compare_scenario_constraints():
    cfg = _evolve_sections()
    cfg["scenario"] = {"kind": "compare", "label": "c"}
    cfg["compare"] = {"omegas": "20, 40"}
    cfg["drive"].pop("omega")
    cfg["time"].pop("dt_sample")
    s = scenario_from_sections(cfg)
    assert s.omegas == (20.0, 40.0)
    assert s.stroboscopic is True
    bad = {k: dict(v) for k, v in cfg.items()}
    bad["drive"]["omega"] = "8"
    with pytest.raises(ValidationError, match="omega from"):
        scenario_from_sections(bad)
    bad2 = {k: dict(v) for k, v in cfg.items()}
    bad2["time"]["dt_sample"] = "0.5"
    with pytest.raises(ValidationError, match="stroboscopically"):
        scenario_from_sections(bad2)
    bad3 = {k: dict(v) for k, v in cfg.items()}
    bad3["compare"]["omegas"] = "20, -40"
    with pytest.raises(ValidationError, match="positive"):
        scenario_from_sections(bad3)


def test_readme_key_table_matches_the_config_table():
    # README's table of sections and keys is the key table of config, row by row
    from fluxlattice.config import _KEYS, _REQUIRED

    def default(value):
        return str(value).lower() if isinstance(value, bool) else str(value)

    expected = [(f"`[{name}]`",
                 ", ".join(f"`{k}`" for k, (_, d) in keys.items() if d is _REQUIRED),
                 ", ".join(f"`{k}`" if d is None else f"`{k} = {default(d)}`"
                           for k, (_, d) in keys.items() if d is not _REQUIRED))
                for name, keys in _KEYS.items()]
    readme = (CONFIGS.parent / "README.md").read_text(encoding="utf-8")
    rows = [tuple(cell.strip() for cell in line.strip().strip("|").split("|"))
            for line in readme.splitlines() if line.startswith("| `[")]
    assert rows == expected


def test_units_scenario_requires_all_keys():
    cfg = {"scenario": {"kind": "units", "label": "u"},
           "units": {"J_per_cm": "1", "Gamma": "0.717", "omega_over_J": "8",
                     "M": "1", "d_m": "19e-6", "lambda_m": "633e-9"}}
    with pytest.raises(ValidationError, match="n_s"):
        scenario_from_sections(cfg)


# -- runner end-to-end -------------------------------------------------------------

def test_run_hoppings_csv_and_metadata(tmp_path, capsys):
    cfg = _write(tmp_path, "hop.ini", HOPPINGS_INI)
    assert main(["run", str(cfg), "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "hop" in out

    header, rows = _read_csv(tmp_path / "hop_hoppings.csv")
    assert header[:3] == ["method", "kappa_x_re", "kappa_x_im"]
    by_method = {r[0]: [float(x) for x in r[1:]] for r in rows}
    assert set(by_method) == {"quadrature", "closed"}
    # Gamma = 0.717, sigma = rho = pi: kappa_x = J0(1.434), kappa_y = J1(1.434)
    assert by_method["closed"][0] == pytest.approx(0.5483275887203334, abs=1e-9)
    assert by_method["closed"][2] == pytest.approx(0.5478308605460803, abs=1e-9)
    assert by_method["closed"][6] == pytest.approx(0.5)  # alpha
    assert by_method["closed"][7] == pytest.approx(PI)  # flux angle

    meta = json.loads((tmp_path / "hop_meta.json").read_text())
    assert meta["exit_code"] == 0
    assert meta["derived"]["route_max_diff"] < 1e-9
    assert meta["outputs"]["hoppings"] == "hop_hoppings.csv"


def test_metadata_rerun_is_reproducible(tmp_path):
    cfg = _write(tmp_path, "hop.ini", HOPPINGS_INI)
    first = tmp_path / "a"
    second = tmp_path / "b"
    assert main(["run", str(cfg), "--out-dir", str(first), "--quiet"]) == 0
    meta = first / "hop_meta.json"
    assert main(["run", str(meta), "--out-dir", str(second), "--quiet"]) == 0
    assert ((first / "hop_hoppings.csv").read_bytes()
            == (second / "hop_hoppings.csv").read_bytes())


def test_run_spectrum_bands(tmp_path):
    # rho = 2 pi / 3 makes kappa_y complex; the alpha = 1/2 bands still touch
    for case, rho in enumerate(("pi", "2*pi/3")):
        ini = HOPPINGS_INI.replace("kind = hoppings", "kind = spectrum")
        ini = ini.replace("label = hop", "label = sp")
        ini = ini.replace("rho = pi", f"rho = {rho}")
        ini += "\n[spectrum]\nflux = 1/2\nk_grid = 64\n"
        out = tmp_path / str(case)
        cfg = _write(tmp_path, "sp.ini", ini)
        assert main(["run", str(cfg), "--out-dir", str(out), "--quiet"]) == 0
        header, rows = _read_csv(out / "sp_bands.csv")
        assert header == ["band", "E_min", "E_max", "touching_next"]
        assert len(rows) == 2
        meta = json.loads((out / "sp_meta.json").read_text())
        assert meta["derived"]["band_count"] == 2
        assert meta["derived"]["touching"] == [True]


def test_run_butterfly(tmp_path):
    ini = HOPPINGS_INI.replace("kind = hoppings", "kind = spectrum")
    ini = ini.replace("label = hop", "label = bf")
    ini += "\n[spectrum]\nflux = farey:3\nk_grid = 32\n"
    cfg = _write(tmp_path, "bf.ini", ini)
    assert main(["run", str(cfg), "--out-dir", str(tmp_path), "--quiet"]) == 0
    header, rows = _read_csv(tmp_path / "bf_butterfly.csv")
    assert header == ["alpha", "E_min", "E_max"]
    # farey:3 fluxes 0/1, 1/3, 1/2, 2/3, 1/1 give 1+3+2+3+1 band rows
    assert len(rows) == 10


def test_run_effective_evolution_outputs(tmp_path):
    ini = """\
[scenario]
kind = effective_evolve
label = eff

[drive]
waveform = sinusoidal
omega = 8
Gamma = 0.717
M = 1
sigma = pi
rho = pi

[coupling]
J_x = 1
J_y = 1

[lattice]
n_half = 3

[input]
width = 1.5

[time]
t_max = 0.4
dt_sample = 0.2

[output]
fields = true
"""
    cfg = _write(tmp_path, "eff.ini", ini)
    assert main(["run", str(cfg), "--out-dir", str(tmp_path), "--quiet"]) == 0
    header, rows = _read_csv(tmp_path / "eff_kinematics.csv")
    assert header == ["t", "n_mean", "m_mean", "Pn", "Pm",
                      "sin_Pn", "sin_Pm", "v_n", "v_m"]
    assert len(rows) == 3  # t = 0, 0.2, 0.4
    _, prof = _read_csv(tmp_path / "eff_profile.csv")
    assert len(prof) == 3 and len(prof[0]) == 1 + 7
    _, com = _read_csv(tmp_path / "eff_com.csv")
    assert float(com[0][1]) == pytest.approx(0.0, abs=1e-9)
    with open(tmp_path / "eff_field_final_re.csv", newline="") as fh:
        grid = list(csv.reader(fh))
    assert len(grid) == 7 and len(grid[0]) == 7
    meta = json.loads((tmp_path / "eff_meta.json").read_text())
    assert meta["derived"]["norm_drift"] <= 1e-8


def test_run_semiclassical_invariants_in_metadata(tmp_path):
    ini = """\
[scenario]
kind = semiclassical
label = sc

[drive]
waveform = sinusoidal
omega = 20
Gamma = 0.9
M = 1
sigma = -pi/25
rho = pi

[coupling]
J_x = 1
J_y = 2

[lattice]
n_half = 5

[input]
width = 2.0
tilt = pi/2

[time]
t_max = 4.0
dt_sample = 1.0
"""
    cfg = _write(tmp_path, "sc.ini", ini)
    assert main(["run", str(cfg), "--out-dir", str(tmp_path), "--quiet"]) == 0
    header, rows = _read_csv(tmp_path / "sc_semiclassical.csv")
    assert header == ["t", "n_mean", "m_mean", "Pn", "Pm"]
    assert len(rows) == 5
    meta = json.loads((tmp_path / "sc_meta.json").read_text())
    assert meta["derived"]["energy_drift"] <= 1e-8
    assert max(meta["derived"]["invariant_drift"]) <= 1e-8


def test_run_compare_deviation_table(tmp_path):
    ini = """\
[scenario]
kind = compare
label = cmp

[drive]
waveform = sinusoidal
Gamma = 0.717
M = 1
sigma = pi
rho = pi

[coupling]
J_x = 1
J_y = 1

[lattice]
n_half = 4

[input]
width = 1.5

[time]
t_max = 0.5

[compare]
omegas = 20, 40
"""
    cfg = _write(tmp_path, "cmp.ini", ini)
    assert main(["run", str(cfg), "--out-dir", str(tmp_path), "--quiet"]) == 0
    header, rows = _read_csv(tmp_path / "cmp_deviation.csv")
    assert header == ["omega", "t", "max_abs", "infidelity"]
    omegas = {float(r[0]) for r in rows}
    assert omegas == {20.0, 40.0}
    meta = json.loads((tmp_path / "cmp_meta.json").read_text())
    assert len(meta["derived"]["peak_deviation"]) == 2
    assert len(meta["derived"]["peak_ratios"]) == 1


def test_compare_prepares_both_models_at_t_start(tmp_path):
    # a run that starts before the first sample must imprint and map its
    # input at t_start, or the full and effective models start from
    # different states and the deviation grows with omega
    ini = """\
[scenario]
kind = compare
label = early

[drive]
waveform = delta_kicks
Gamma = 0.717
M = 1
sigma = pi
rho = pi

[coupling]
J_x = 1
J_y = 1

[lattice]
n_half = 8

[input]
width = 3
imprint = true

[time]
t_max = 1
t_start = -0.0785

[compare]
omegas = 20, 40
"""
    cfg = _write(tmp_path, "early.ini", ini)
    assert main(["run", str(cfg), "--out-dir", str(tmp_path), "--quiet"]) == 0
    meta = json.loads((tmp_path / "early_meta.json").read_text())
    peaks = meta["derived"]["peak_deviation"]
    assert len(peaks) == 2
    assert max(peaks) < 0.06, peaks


def test_strict_mode_escalates_truncation(tmp_path):
    ini = """\
[scenario]
kind = full_evolve
label = tight

[drive]
waveform = sinusoidal
omega = 20
Gamma = 0.717
M = 1
sigma = pi
rho = pi

[coupling]
J_x = 1
J_y = 1

[lattice]
n_half = 4

[input]
width = 3.0

[time]
t_max = 0.2
dt_sample = 0.1
"""
    cfg = _write(tmp_path, "tight.ini", ini)
    # a width-3 packet on a 9x9 window leaks past the edge-mass budget
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "a"),
                 "--quiet"]) == 0
    meta = json.loads((tmp_path / "a" / "tight_meta.json").read_text())
    assert meta["derived"]["truncation"] is True
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "b"),
                 "--quiet", "--strict"]) == 4


# -- CLI surface ---------------------------------------------------------------------

def test_validate_command(tmp_path, capsys):
    cfg = _write(tmp_path, "hop.ini", HOPPINGS_INI)
    assert main(["validate", str(cfg)]) == 0
    assert "OK: hoppings scenario 'hop'" in capsys.readouterr().out


def test_exit_codes_for_broken_configs(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.ini")]) == 2
    bad = _write(tmp_path, "bad.ini", "not a config ][\n")
    assert main(["validate", str(bad)]) == 2
    garble = _write(tmp_path, "garble.ini",
                    HOPPINGS_INI.replace("Gamma = 0.717", "Gamma = banana"))
    assert main(["validate", str(garble)]) == 2
    wrong = _write(tmp_path, "wrong.ini",
                   HOPPINGS_INI.replace("kind = hoppings", "kind = wibble"))
    assert main(["validate", str(wrong)]) == 3
    err = capsys.readouterr().err
    assert "config error" in err and "validation error" in err


def test_malformed_json_configs_fail_at_load(tmp_path, capsys):
    for name, text in (("garbled.json", '{"scenario": '), ("list.json", "[1, 2]"),
                       ("flat.json", '{"scenario": "hoppings"}')):
        cfg = _write(tmp_path, name, text)
        assert main(["validate", str(cfg)]) == 2
        assert main(["run", str(cfg), "--out-dir", str(tmp_path), "--quiet"]) == 2
    err = capsys.readouterr().err
    for message in ("cannot parse JSON", "must be an object", "key/value objects"):
        assert message in err
    assert not list(tmp_path.glob("*_meta.json"))


def test_semiclassical_runs_start_at_zero(tmp_path, capsys):
    ini = (CONFIGS / "fig2_semiclassical.ini").read_text()
    cfg = _write(tmp_path, "sc.ini", ini.replace("dt_sample = 0.5",
                                                 "dt_sample = 0.5\nt_start = -0.1"))
    assert main(["validate", str(cfg)]) == 3
    assert "semiclassical runs start at t = 0" in capsys.readouterr().err


def test_a_units_scenario_has_no_drive():
    with pytest.raises(ValidationError, match="carries no drive"):
        load_config(CONFIGS / "units.ini").drive


def _json_with(tmp_path, ini_path, section, key, token):
    """ini_path's sections as a JSON config, with section.key written as token."""
    sections = load_sections(ini_path)
    sections[section][key] = "@"
    return _write(tmp_path, "cfg.json", json.dumps(sections).replace('"@"', token))


_INTEGER_KEYS = [("fig2_effective.ini", "lattice", "n_half"), ("units.ini", "units", "M")]


@pytest.mark.parametrize("name, section, key", _INTEGER_KEYS)
@pytest.mark.parametrize("token", ["Infinity", "-Infinity", "NaN", "1e400", "true"])
def test_json_integer_keys_reject_non_integers(tmp_path, capsys, name, section, key, token):
    cfg = _json_with(tmp_path, CONFIGS / name, section, key, token)
    assert main(["validate", str(cfg)]) == 2
    assert main(["run", str(cfg), "--out-dir", str(tmp_path), "--quiet"]) == 2
    assert "expected an integer" in capsys.readouterr().err
    assert not list(tmp_path.glob("*_meta.json"))


@pytest.mark.parametrize("name, section, key", _INTEGER_KEYS)
def test_json_integer_keys_accept_integral_floats(tmp_path, name, section, key):
    cfg = _json_with(tmp_path, CONFIGS / name, section, key, "30.0")
    assert main(["validate", str(cfg)]) == 0
    value = load_config(cfg).resolved_config()[section][key]
    assert value == 30 and type(value) is int


EFFECTIVE_INI = """\
[scenario]
kind = effective_evolve
label = eff

[drive]
waveform = sinusoidal
omega = 8
Gamma = 0.717
M = 1
sigma = pi
rho = pi

[coupling]
J_x = 1
J_y = 1

[lattice]
n_half = 2

[input]
width = 1.5

[time]
t_max = 0.4
dt_sample = 0.2

[integrator]
dt_max = 0.01
norm_drift_tol = 1e-8
"""


def test_stroboscopic_run_shorter_than_one_period(tmp_path):
    # t_max below the period 2 pi / 8 leaves the lone sample t = 0
    ini = EFFECTIVE_INI.replace("dt_sample = 0.2", "stroboscopic = true")
    cfg = _write(tmp_path, "eff.ini", ini.replace("t_max = 0.4", "t_max = 0.1"))
    assert main(["validate", str(cfg)]) == 0
    assert main(["run", str(cfg), "--out-dir", str(tmp_path), "--quiet"]) == 0
    _, rows = _read_csv(tmp_path / "eff_kinematics.csv")
    assert [float(r[0]) for r in rows] == [0.0]


@pytest.mark.parametrize("line, bad", [
    ("t_max = 0.4", "t_max = inf"),
    ("dt_max = 0.01", "dt_max = nan"),
    ("omega = 8", "omega = nan"),
    ("norm_drift_tol = 1e-8", "norm_drift_tol = nan"),
])
def test_non_finite_numbers_fail_at_load(tmp_path, capsys, line, bad):
    good = _write(tmp_path, "good.ini", EFFECTIVE_INI)
    assert main(["validate", str(good)]) == 0
    cfg = _write(tmp_path, "bad.ini", EFFECTIVE_INI.replace(line, bad))
    assert main(["validate", str(cfg)]) == 2
    assert main(["run", str(cfg), "--out-dir", str(tmp_path), "--quiet"]) == 2
    assert "finite" in capsys.readouterr().err
    assert not list(tmp_path.glob("eff_*"))


@pytest.mark.parametrize("bad", ["norm_drift_tol = -1",
                                 "norm_drift_tol = 1e-8\nedge_mass_tol = -1"])
def test_negative_tolerances_fail_validation(tmp_path, capsys, bad):
    cfg = _write(tmp_path, "bad.ini",
                 EFFECTIVE_INI.replace("norm_drift_tol = 1e-8", bad))
    assert main(["validate", str(cfg)]) == 3
    assert main(["run", str(cfg), "--out-dir", str(tmp_path), "--quiet"]) == 3
    assert "non-negative" in capsys.readouterr().err
    assert not list(tmp_path.glob("eff_*"))


def test_units_command_rejects_non_finite(capsys):
    argv = ["units", "--J", "1", "--Gamma", "0.717", "--omega-over-J", "8",
            "--d", "19e-6", "--wavelength", "633e-9", "--n-s", "1.45"]
    for flag, value in (("--J", "nan"), ("--Gamma", "inf"), ("--d", "inf")):
        bad = list(argv)
        bad[bad.index(flag) + 1] = value
        assert main(bad) == 3
        assert "finite" in capsys.readouterr().err


def test_degenerate_derived_units_fail_validation(tmp_path, capsys):
    # omega = omega_over_J * J underflows to 0 (F = 0 would divide by zero),
    # or a subnormal J sends R, Lambda and L to inf
    argv = ["units", "--Gamma", "0.7", "--d", "19e-6", "--wavelength", "633e-9",
            "--n-s", "1.45"]
    for J, ratio in (("1e-200", "1e-200"), ("1e-310", "8")):
        for extra in ([], ["--json"]):
            assert main(argv + ["--J", J, "--omega-over-J", ratio] + extra) == 3
            err = capsys.readouterr().err
            assert "positive" in err and "finite" in err
    ini = ((CONFIGS / "units.ini").read_text()
           .replace("J_per_cm = 1\n", "J_per_cm = 1e-200\n")
           .replace("omega_over_J = 8", "omega_over_J = 1e-200"))
    assert main(["validate", str(_write(tmp_path, "u.ini", ini))]) == 3
    assert "positive" in capsys.readouterr().err


def test_drive_period_overflow_fails_validation(tmp_path, capsys):
    # 2 pi / omega = inf would make the stroboscopic sample step inf
    ini = (EFFECTIVE_INI.replace("dt_sample = 0.2", "stroboscopic = true")
           .replace("omega = 8", "omega = 1e-320"))
    cfg = _write(tmp_path, "eff.ini", ini)
    assert main(["validate", str(cfg)]) == 3
    assert main(["run", str(cfg), "--out-dir", str(tmp_path), "--quiet"]) == 3
    assert "omega" in capsys.readouterr().err
    assert not list(tmp_path.glob("eff_*"))


def test_oversized_trajectory_fails_validation(tmp_path, capsys):
    # 100001 samples of 801x801 sites, about 1e12 B of amplitudes: validated
    # only, never run
    ini = (EFFECTIVE_INI.replace("n_half = 2", "n_half = 400")
           .replace("t_max = 0.4", "t_max = 0.1")
           .replace("dt_sample = 0.2", "dt_sample = 1e-6"))
    assert main(["validate", str(_write(tmp_path, "big.ini", ini))]) == 3
    assert "100001 samples of 801x801 sites" in capsys.readouterr().err


def test_oversized_semiclassical_window_fails_validation(tmp_path, capsys):
    # 40001x40001 sites: the input in both frames would take 51 GB although
    # the run keeps no field; validated only, never run
    ini = (EFFECTIVE_INI.split("[integrator]")[0]
           .replace("kind = effective_evolve", "kind = semiclassical")
           .replace("n_half = 2", "n_half = 20000"))
    assert main(["validate", str(_write(tmp_path, "big.ini", ini))]) == 3
    assert "40001x40001 sites" in capsys.readouterr().err


def test_underflowing_width_fails_at_load(tmp_path, capsys):
    # width**2 = 0 would put 0/0 at the origin of the input Gaussian
    cfg = _write(tmp_path, "eff.ini", EFFECTIVE_INI.replace("width = 1.5", "width = 1e-200"))
    assert main(["validate", str(cfg)]) == 3
    assert main(["run", str(cfg), "--out-dir", str(tmp_path), "--quiet"]) == 3
    assert "width" in capsys.readouterr().err
    assert not list(tmp_path.glob("eff_*"))


@pytest.mark.parametrize("flux", ["1/100000", "farey:3000"])
def test_oversized_spectrum_fails_validation(tmp_path, capsys, flux):
    # a 2e10-entry Bloch stack for 1/100000; farey:3000 is refused from its
    # order alone, before 2.7 million fluxes are listed
    ini = (HOPPINGS_INI.replace("kind = hoppings", "kind = spectrum")
           + f"\n[spectrum]\nflux = {flux}\n")
    start = time.perf_counter()
    assert main(["validate", str(_write(tmp_path, "sp.ini", ini))]) == 3
    assert time.perf_counter() - start < 1.0
    assert "Bloch stacks above" in capsys.readouterr().err


@pytest.mark.parametrize("flux, size", [("1/7", 2 * 7 * 7 * 8), ("farey:5", 5 * 2 * 5 * 5 * 8)])
def test_bloch_stack_cap_counts_real_entries(tmp_path, capsys, monkeypatch, flux, size):
    # a real stack holds fluxes x 2 x q^2 entries of 8 B; farey:N is charged
    # N fluxes of q = N.  The exact fit validates and one byte less does not
    ini = _write(tmp_path, "sp.ini", HOPPINGS_INI.replace("kind = hoppings", "kind = spectrum")
                 + f"\n[spectrum]\nflux = {flux}\n")
    monkeypatch.setattr(config_module, "_TRAJECTORY_BYTES_MAX", size)
    assert main(["validate", str(ini)]) == 0
    monkeypatch.setattr(config_module, "_TRAJECTORY_BYTES_MAX", size - 1)
    assert main(["validate", str(ini)]) == 3
    assert f"{size} B of real" in capsys.readouterr().err


@pytest.mark.parametrize("couplings", ["J_x = 1\nJ_y = 1e308", "J_x = 1e308\nJ_y = 1e308"])
def test_an_overflowing_kappa_fails_validation(tmp_path, capsys, couplings):
    # kappa_y / kappa_x = 1e308 (whose double overflows) in the shipped butterfly,
    # or 2(|kappa_x| + |kappa_y|) past the float range: refused at load,
    # where the run failed in its eigensolve
    ini = (CONFIGS / "butterfly.ini").read_text().replace("J_x = 1\nJ_y = 1", couplings)
    cfg = _write(tmp_path, "bf.ini", ini)
    assert main(["validate", str(cfg)]) == 3
    assert main(["run", str(cfg), "--out-dir", str(tmp_path), "--quiet"]) == 3
    assert "finite" in capsys.readouterr().err
    assert not list(tmp_path.glob("butterfly_*"))


@pytest.mark.parametrize("gamma, code", [("1e7", 3), ("-1e7", 3), ("10001", 3),
                                         ("1e4", 0), ("-1e4", 0)])
def test_large_gamma_fails_fast_at_load(tmp_path, capsys, gamma, code):
    # loading a sinusoidal drive costs time and memory linear in Gamma, so
    # |Gamma| past the cap is refused before any Bessel function is summed
    ini = HOPPINGS_INI.replace("Gamma = 0.717", f"Gamma = {gamma}")
    start = time.perf_counter()
    assert main(["validate", str(_write(tmp_path, "g.ini", ini))]) == code
    assert time.perf_counter() - start < 1.0
    assert ("|Gamma| must be <= 10000" in capsys.readouterr().err) == bool(code)


@pytest.mark.parametrize("M, code", [("1000000000", 3), ("-1000000000", 3), ("10001", 3),
                                     ("10000", 0), ("-10000", 0)])
def test_large_M_fails_fast_at_load(tmp_path, capsys, M, code):
    # the closed form sums J_0 .. J_|M|: |M| = 1e9 asked for a 7.45 GiB table
    # and |M| = 1e6 took 8 s, so |M| past the cap is refused as it is read
    ini = HOPPINGS_INI.replace("M = 1", f"M = {M}")
    start = time.perf_counter()
    assert main(["validate", str(_write(tmp_path, "m.ini", ini))]) == code
    assert time.perf_counter() - start < 1.0
    assert ("|M| must be <= 10000" in capsys.readouterr().err) == bool(code)


def test_oversized_semiclassical_run_fails_fast_at_load(tmp_path, capsys):
    # 1e12 samples would build a 7.28 TiB sample grid at run time
    ini = ((CONFIGS / "fig2_semiclassical.ini").read_text()
           .replace("t_max = 10", "t_max = 1e9").replace("dt_sample = 0.5", "dt_sample = 0.001"))
    start = time.perf_counter()
    assert main(["validate", str(_write(tmp_path, "sc.ini", ini))]) == 3
    assert time.perf_counter() - start < 1.0
    assert "1000000000001 semiclassical samples" in capsys.readouterr().err


@pytest.mark.parametrize("config, waveform, work", [
    ("fig2_semiclassical.ini", "sinusoidal", "1.16e+12 RK4 steps"),
    ("fig1b.ini", "sinusoidal", "1.95e+11 RK4 steps"),
    ("fig1b.ini", "delta_kicks", "5.09e+09 kick stops"),
    ("fig2_effective.ini", "sinusoidal", "4.32e+09 Chebyshev orders"),
])
def test_a_run_of_unbounded_work_fails_fast_at_load(tmp_path, capsys, config, waveform, work):
    # two samples 1e9 apart: RK4 steps of 8.6e-4 or 5.1e-3 over the gap, a kick
    # stop at each of two classes' 2.5e9 kicks, or one series at x = R t = 4.3e9.
    # Validated only, never run
    ini = (CONFIGS / config).read_text().replace("waveform = sinusoidal", f"waveform = {waveform}")
    ini = re.sub(r"(?m)^(t_max|dt_sample) = .*$", r"\1 = 1e9", ini)
    start = time.perf_counter()
    assert main(["validate", str(_write(tmp_path, "long.ini", ini))]) == 3
    assert time.perf_counter() - start < 1.0
    assert f"needs {work}, above the 10000000 limit" in capsys.readouterr().err


@pytest.mark.parametrize("couplings, M, error", [
    ("J_x = 1e307\nJ_y = 1e307", 10000, "semiclassical rates |kappa sigma| overflow"),
    ("J_x = 1e305\nJ_y = 1e305", 1, "needs inf RK4 steps"),
])
def test_a_semiclassical_step_or_step_count_that_overflows_fails_at_load(
        tmp_path, capsys, couplings, M, error):
    # kappa sigma past the float range, or a step so small that t_max / step
    # overflows: exit 3 at validate, where the step or its count raised
    ini = ((CONFIGS / "fig2_semiclassical.ini").read_text()
           .replace("J_x = 1\nJ_y = 2", couplings).replace("M = 1\n", f"M = {M}\n"))
    ini = re.sub(r"(?m)^(t_max|dt_sample) = .*$", r"\1 = 1e9", ini)
    assert main(["validate", str(_write(tmp_path, "sc.ini", ini))]) == 3
    assert error in capsys.readouterr().err


@pytest.mark.parametrize("config, steps", [
    ("fig2_full.ini", 11088), ("fig2_semiclassical.ini", 11640), ("fig1b.ini", 2000)])
def test_the_work_cap_admits_exactly_a_runs_rk4_steps(capsys, monkeypatch, config, steps):
    # fig2_full's 11 088 steps are what a profile of its run counts; fig2_semi
    # takes 20 spans of 582 steps, fig1b 200 of 10
    monkeypatch.setattr(config_module, "_WORK_MAX", steps)
    assert main(["validate", str(CONFIGS / config)]) == 0
    monkeypatch.setattr(config_module, "_WORK_MAX", steps - 1)
    assert main(["validate", str(CONFIGS / config)]) == 3
    assert f"RK4 steps, above the {steps - 1} limit" in capsys.readouterr().err


def test_output_format_is_pinned(tmp_path):
    # CRLF line ends, %.12g floats, integers and 0/1 flags without ".0",
    # one header line except on the field matrices, and RunResult.metadata
    # equal to the meta.json written beside the tables
    def g(x):
        return "%.12g" % x

    spectrum = (HOPPINGS_INI.replace("kind = hoppings", "kind = spectrum")
                .replace("label = hop", "label = sp")
                + "\n[spectrum]\nflux = 1/2\nk_grid = 64\n")
    fields = EFFECTIVE_INI + "\n[output]\nfields = true\n"
    meta = {}
    for label, ini in (("sp", spectrum), ("hop", HOPPINGS_INI),
                       ("units", (CONFIGS / "units.ini").read_text()),
                       ("eff", fields)):
        result = run_scenario(_write(tmp_path, f"{label}.ini", ini), tmp_path,
                              quiet=True)
        meta[label] = json.loads((tmp_path / f"{label}_meta.json").read_text())
        assert result.metadata == meta[label]

    drive = scenario_from_sections(_sections()).drive
    bands = harper_bands(hoppings_from_drive(drive, 1.0, 1.0),
                         RationalFlux(1, 2), 64)
    (lo0, hi0), (lo1, hi1) = bands.intervals
    assert (tmp_path / "sp_bands.csv").read_bytes() == (
        "band,E_min,E_max,touching_next\r\n"
        f"0,{g(lo0)},{g(hi0)},1\r\n1,{g(lo1)},{g(hi1)},0\r\n").encode()

    d = meta["hop"]["derived"]
    rows = "".join(
        f"{m},{g(d[m]['kappa_x'][0])},{g(d[m]['kappa_x'][1])},"
        f"{g(d[m]['kappa_y'][0])},{g(d[m]['kappa_y'][1])},"
        f"{g(d[m]['kappa_x_abs'])},{g(d[m]['kappa_y_abs'])},"
        f"{g(d['alpha'])},{g(d['flux_angle'])}\r\n"
        for m in ("quadrature", "closed"))
    assert (tmp_path / "hop_hoppings.csv").read_bytes() == (
        "method,kappa_x_re,kappa_x_im,kappa_y_re,kappa_y_im,kappa_x_abs,"
        "kappa_y_abs,alpha,flux_angle\r\n" + rows).encode()

    u = meta["units"]["derived"]
    keys = [f.name for f in dataclasses.fields(PhysicalParams)]
    assert u["M"] == 1
    assert (tmp_path / "units_units.csv").read_bytes() == (
        ",".join(keys) + "\r\n"
        + ",".join(str(u[k]) if k == "M" else g(u[k]) for k in keys)
        + "\r\n").encode()

    text = (tmp_path / "eff_field_final_re.csv").read_bytes().decode()
    lines = text.split("\r\n")
    assert lines.pop() == "" and "\n" not in "".join(lines)
    assert len(lines) == 5
    for line in lines:  # no header: every line is five numbers
        values = line.split(",")
        assert len(values) == 5
        assert all(v == g(float(v)) for v in values)


@pytest.mark.parametrize("path", sorted(p.name for p in CONFIGS.glob("*.ini")
                                        if p.name != "sweep_gamma.ini"))
def test_shipped_config_validates(path):
    assert main(["validate", str(CONFIGS / path)]) == 0


def test_shipped_sweep_validates(tmp_path):
    paths = expand_sweep(CONFIGS / "hoppings.ini", CONFIGS / "sweep_gamma.ini",
                         tmp_path)
    assert len(paths) == 4
    for path in paths:
        assert main(["validate", str(path)]) == 0


@pytest.mark.parametrize("ini, message", [
    (EFFECTIVE_INI.replace("sinusoidal", "delta_kicks").replace("rho = pi", "rho = 0"),
     "degenerate drive"),
    (HOPPINGS_INI.replace("sinusoidal", "delta_kicks").replace("M = 1", "M = 0"),
     "degenerate drive"),
    (HOPPINGS_INI.replace("kind = hoppings", "kind = spectrum")
     .replace("J_x = 1", "J_x = 0") + "\n[spectrum]\nflux = farey:5\n",
     "units of kappa_x"),
], ids=["delta-rho-0", "delta-M-0", "farey-J_x-0"])
def test_validate_derives_hoppings(tmp_path, capsys, ini, message):
    # validate derives the hoppings, so it rejects these configs as run does
    cfg = _write(tmp_path, "bad.ini", ini)
    assert main(["validate", str(cfg)]) == 3
    assert message in capsys.readouterr().err
    assert main(["run", str(cfg), "--out-dir", str(tmp_path), "--quiet"]) == 3
    assert message in capsys.readouterr().err


FAST_DRIVE_INI = """\
[scenario]
kind = full_evolve
label = fast

[drive]
waveform = sinusoidal
omega = 1e13
Gamma = 1
M = 1
sigma = pi
rho = pi

[coupling]
J_x = 1
J_y = 1

[lattice]
n_half = 2

[input]
width = 1.5

[time]
t_max = 1e-12
stroboscopic = true
"""


@pytest.mark.parametrize("ini", [
    FAST_DRIVE_INI,
    FAST_DRIVE_INI.replace("full_evolve", "compare").replace("omega = 1e13\n", "")
    + "\n[compare]\nomegas = 1e13\n",
], ids=["full_evolve", "compare"])
def test_step_underflow_fails_at_load(tmp_path, capsys, ini):
    # a sinusoid at omega = 1e13 needs an RK4 step of 3.3e-15 < 1e-12
    cfg = _write(tmp_path, "fast.ini", ini)
    assert main(["validate", str(cfg)]) == 3
    assert "underflow" in capsys.readouterr().err
    assert main(["run", str(cfg), "--out-dir", str(tmp_path), "--quiet"]) == 3
    assert not list(tmp_path.glob("fast_*"))


@pytest.mark.parametrize("ini", [
    FAST_DRIVE_INI,
    FAST_DRIVE_INI.replace("full_evolve", "compare").replace("omega = 1e13\n", "")
    + "\n[compare]\nomegas = 1e13\n",
], ids=["full_evolve", "compare"])
def test_kicked_drives_pass_the_step_check(tmp_path, ini):
    # the two drives above as delta kicks take no RK4 step, so none underflows
    cfg = _write(tmp_path, "fast.ini", ini.replace("sinusoidal", "delta_kicks"))
    assert main(["validate", str(cfg)]) == 0
    assert main(["run", str(cfg), "--out-dir", str(tmp_path), "--quiet"]) == 0


def test_kicked_run_takes_no_step(tmp_path):
    # the same drive as delta kicks is propagated exactly, with no step rule
    cfg = _write(tmp_path, "fast.ini",
                 FAST_DRIVE_INI.replace("sinusoidal", "delta_kicks"))
    assert main(["validate", str(cfg)]) == 0
    assert main(["run", str(cfg), "--out-dir", str(tmp_path), "--quiet"]) == 0
    meta = json.loads((tmp_path / "fast_meta.json").read_text(encoding="utf-8"))
    assert meta["derived"]["samples"] == 2
    assert abs(meta["derived"]["norm_final"] - 1.0) < 1e-12


def test_sweep_expands_grid(tmp_path, capsys):
    template = _write(tmp_path, "hop.ini", HOPPINGS_INI)
    grid = _write(tmp_path, "grid.ini",
                  "[drive]\nGamma = 0.5, 0.9\nsigma = pi/2, pi\n")
    out = tmp_path / "sweep"
    assert main(["sweep", str(template), str(grid),
                 "--out-dir", str(out)]) == 0
    paths = sorted(out.glob("hop_*.ini"))
    assert [p.name for p in paths] == [f"hop_{i:03d}.ini" for i in range(4)]
    for p in paths:
        assert main(["validate", str(p)]) == 0
    capsys.readouterr()
    assert main(["run", str(paths[0]), "--out-dir", str(out), "--quiet"]) == 0
    assert (out / "hop_000_hoppings.csv").exists()


def test_sweep_rejects_unknown_grid_key(tmp_path):
    template = _write(tmp_path, "hop.ini", HOPPINGS_INI)
    grid = _write(tmp_path, "grid.ini", "[drive]\nfrobnicate = 1, 2\n")
    with pytest.raises(ValidationError, match="not a config key"):
        expand_sweep(template, grid, tmp_path / "sweep")
    empty = _write(tmp_path, "empty.ini", "")
    with pytest.raises(ValidationError, match="sweep grid is empty"):
        expand_sweep(template, empty, tmp_path / "sweep")


def test_units_command_text_and_json(tmp_path, capsys):
    argv = ["units", "--J", "1", "--Gamma", "0.717", "--omega-over-J", "8",
            "--d", "19e-6", "--wavelength", "633e-9", "--n-s", "1.45"]
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert "R_cm" in text and "delta_n" in text
    assert main(argv + ["--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["R_cm"] == pytest.approx(34.183, abs=0.01)
    assert record["Lambda_mod_mm"] == pytest.approx(7.854, abs=0.005)
    assert record["delta_n"] == pytest.approx(5.78e-5, abs=2e-7)
    assert record["L_cm"] == pytest.approx(10.0)


def test_shipped_configs_run_without_scipy(tmp_path):
    # None in sys.modules makes every scipy import raise ImportError
    code = ("import sys; sys.modules['scipy'] = None\n"
            "from fluxlattice import run_scenario\n"
            "codes = [run_scenario(p, out_dir=sys.argv[1], quiet=True).exit_code "
            "for p in sys.argv[2:]]\n"
            "print(codes, sorted(m for m, mod in sys.modules.items() "
            "if m.split('.')[0] == 'scipy' and mod is not None))")
    paths = sorted(str(p) for p in CONFIGS.glob("*.ini") if p.name != "sweep_gamma.ini")
    src = str(Path(fluxlattice.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path), *paths],
                         env=env, check=True, capture_output=True, text=True).stdout
    assert out.strip() == f"{[0] * len(paths)} []"


def test_package_republishes_each_module_surface():
    from fluxlattice import (config, core, dynamics, effective, hopping,
                             observables, physical, runner, spectrum)
    modules = (config, core, dynamics, effective, hopping, observables,
               physical, runner, spectrum)
    names = ["__version__"] + [n for m in modules for n in m.__all__]
    assert len(set(names)) == len(names)
    assert sorted(fluxlattice.__all__) == sorted(names)
    for m in modules:
        for n in m.__all__:
            assert getattr(fluxlattice, n) is getattr(m, n), n


def test_import_leaves_heavy_scipy_modules_unloaded():
    code = ("import sys, fluxlattice; print(' '.join(m for m in "
            "('scipy.signal', 'scipy.integrate', 'scipy.stats') if m in sys.modules))")
    src = str(Path(fluxlattice.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == ""
