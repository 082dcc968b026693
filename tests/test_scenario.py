"""Scenario loading: canonical config form, run objects built once at load."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import fluxlattice.config
import fluxlattice.runner
from fluxlattice import run_scenario
from fluxlattice.config import ValidationError, load_config, scenario_from_sections
from fluxlattice.core import DriveSpec, WaveField, Waveform
from fluxlattice.dynamics import IntegratorOptions
from fluxlattice.effective import evolve_effective, expectation_kinematics
from fluxlattice.hopping import hoppings_from_drive
from fluxlattice.physical import physical_units
from fluxlattice.spectrum import RationalFlux, butterfly, farey_fluxes

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SHIPPED = sorted(p.name for p in CONFIGS.glob("*.ini") if p.name != "sweep_gamma.ini")

DRIVE_KEYS = {"waveform", "omega", "Gamma", "M", "sigma", "rho", "beta0"}
EVOLVE_KEYS = {
    "scenario": {"kind", "label"},
    "drive": DRIVE_KEYS,
    "coupling": {"J_x", "J_y", "method"},
    "lattice": {"n_half", "m_half"},
    "input": {"width", "tilt", "imprint"},
    "time": {"t_max", "stroboscopic", "t_start"},
}
OUTPUT_KEYS = {"fields", "profile", "com"}
DRIVE_ONLY = {k: EVOLVE_KEYS[k] for k in ("scenario", "drive", "coupling")}
UNITS_KEYS = {"J_per_cm", "Gamma", "omega_over_J", "M", "d_m", "lambda_m", "n_s",
              "J_t_max"}

# canonical section/key set of each kind, for a config without dt_sample
# or [integrator]; full and effective runs always carry [output]
KIND_KEYS = {
    "full_evolve": {**EVOLVE_KEYS, "output": OUTPUT_KEYS},
    "effective_evolve": {**EVOLVE_KEYS, "output": OUTPUT_KEYS},
    "semiclassical": EVOLVE_KEYS,
    "compare": {**EVOLVE_KEYS, "drive": DRIVE_KEYS - {"omega"},
                "compare": {"omegas"}},
    "hoppings": DRIVE_ONLY,
    "spectrum": {**DRIVE_ONLY, "spectrum": {"flux", "k_grid"}},
    "units": {"scenario": {"kind", "label"}, "units": UNITS_KEYS},
}


def _key_sets(cfg):
    return {name: set(keys) for name, keys in cfg.items()}


def _drive_sections(kind="hoppings"):
    return {
        "scenario": {"kind": kind, "label": "s"},
        "drive": {"waveform": "sinusoidal", "omega": "8", "Gamma": "0.717",
                  "M": "1", "sigma": "pi", "rho": "pi"},
        "coupling": {"J_x": "1", "J_y": "1"},
    }


def _evolve_sections(kind="effective_evolve"):
    cfg = _drive_sections(kind)
    cfg["lattice"] = {"n_half": "3"}
    cfg["input"] = {"width": "1.5"}
    cfg["time"] = {"t_max": "0.4", "dt_sample": "0.2"}
    return cfg


def _compare_sections():
    cfg = _evolve_sections("compare")
    cfg["drive"].pop("omega")
    cfg["time"] = {"t_max": "0.5"}
    cfg["compare"] = {"omegas": "20, 40"}
    return cfg


def _spectrum_sections(flux):
    cfg = _drive_sections("spectrum")
    cfg["spectrum"] = {"flux": flux}
    return cfg


# -- canonical form --------------------------------------------------------------

@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_config_canonical_form_round_trips(name):
    s = load_config(CONFIGS / name)
    cfg = s.resolved_config()
    text = json.dumps(cfg)
    assert json.loads(text) == cfg  # plain JSON types only
    assert scenario_from_sections(json.loads(text)) == s
    expected = KIND_KEYS[s.kind]
    if s.kind != "compare" and "time" in cfg and not s.stroboscopic:
        expected = {**expected, "time": expected["time"] | {"dt_sample"}}
    assert _key_sets(cfg) == expected


def test_canonical_form_fills_defaults_and_omits_absent_options():
    cfg = scenario_from_sections(_evolve_sections()).resolved_config()
    assert cfg["output"] == {"fields": False, "profile": True, "com": True}
    assert cfg["drive"]["beta0"] == 0.0
    assert cfg["coupling"]["method"] == "auto"
    assert cfg["lattice"] == {"n_half": 3, "m_half": 3}
    assert cfg["time"] == {"t_max": 0.4, "dt_sample": 0.2,
                           "stroboscopic": False, "t_start": 0.0}
    assert "integrator" not in cfg

    sections = _evolve_sections()
    sections["integrator"] = {"norm_drift_tol": "1e-9"}
    cfg = scenario_from_sections(sections).resolved_config()
    assert cfg["integrator"] == {"norm_drift_tol": 1e-9, "edge_mass_tol": 1e-6}
    sections["integrator"]["dt_max"] = "0.01"
    cfg = scenario_from_sections(sections).resolved_config()
    assert cfg["integrator"]["dt_max"] == 0.01

    s = scenario_from_sections(_compare_sections())
    cfg = s.resolved_config()
    assert "omega" not in cfg["drive"] and "dt_sample" not in cfg["time"]
    assert cfg["time"]["stroboscopic"] is True
    assert cfg["compare"] == {"omegas": [20.0, 40.0]}

    units = {"scenario": {"kind": "units", "label": "u"},
             "units": {"J_per_cm": "1", "Gamma": "0.717", "omega_over_J": "8",
                       "M": "1", "d_m": "19e-6", "lambda_m": "633e-9",
                       "n_s": "1.45"}}
    cfg = scenario_from_sections(units).resolved_config()
    assert cfg["units"]["J_t_max"] == 10.0 and cfg["units"]["M"] == 1
    del units["units"]["n_s"]
    with pytest.raises(ValidationError, match=r"missing required key \[units\] n_s"):
        scenario_from_sections(units)


def test_resolved_config_is_a_copy():
    s = scenario_from_sections(_evolve_sections())
    s.resolved_config()["lattice"]["n_half"] = 99
    assert s.resolved_config()["lattice"]["n_half"] == 3


# -- run objects built once --------------------------------------------------------

def test_scenario_carries_its_run_objects():
    sinusoid = Waveform.sinusoidal()

    def drive(omega):
        return DriveSpec.resonant(omega=omega, Gamma=0.717, M=1, sigma=math.pi,
                                  rho=math.pi, waveform=sinusoid)

    s = scenario_from_sections(_compare_sections())
    assert s.drives == (drive(20.0), drive(40.0))
    assert s.hoppings == tuple(hoppings_from_drive(d, 1.0, 1.0) for d in s.drives)
    assert s.drive == s.drives[0]
    assert s.drive_for(60.0) == drive(60.0)

    full = scenario_from_sections(_evolve_sections("full_evolve"))
    assert full.drives == (drive(8.0),) and full.hoppings == ()

    for kind in ("effective_evolve", "semiclassical", "hoppings"):
        sections = _evolve_sections(kind) if kind != "hoppings" else _drive_sections()
        s = scenario_from_sections(sections)
        assert s.hoppings == (hoppings_from_drive(drive(8.0), 1.0, 1.0),)

    h = hoppings_from_drive(drive(8.0), 1.0, 1.0)
    assert scenario_from_sections(_spectrum_sections("farey:3")).fluxes == tuple(
        farey_fluxes(3))
    assert scenario_from_sections(_spectrum_sections("auto")).fluxes == (
        RationalFlux.from_float(h.alpha),)
    assert scenario_from_sections(_spectrum_sections("1/3")).fluxes == (RationalFlux(1, 3),)

    s = load_config(CONFIGS / "units.ini")
    assert s.units == physical_units(J_per_cm=1.0, Gamma=0.717, omega_over_J=8.0, M=1,
                                     d_m=19e-6, lambda_m=633e-9, n_s=1.45)
    assert s.drives == () and s.hoppings == () and s.fluxes == ()

    sections = _evolve_sections()
    sections["integrator"] = {"dt_max": "0.01"}
    assert scenario_from_sections(sections).integrator == IntegratorOptions(dt_max=0.01)


@pytest.mark.parametrize("sections", [
    _evolve_sections(),
    _evolve_sections("semiclassical"),
    _compare_sections(),
    _spectrum_sections("1/2"),
    _spectrum_sections("auto"),
    _spectrum_sections("farey:3"),
], ids=["effective", "semiclassical", "compare", "bands", "bands-auto", "butterfly"])
def test_runs_use_the_hoppings_built_at_load(tmp_path, monkeypatch, sections):
    s = scenario_from_sections(sections)

    def rebuilt(*args, **kwargs):
        raise AssertionError("hoppings rebuilt at run time")

    monkeypatch.setattr(fluxlattice.runner, "hoppings_from_drive", rebuilt)
    result = run_scenario(s, tmp_path, quiet=True)
    assert result.exit_code == 0
    assert result.metadata["config"] == s.resolved_config()


# -- sample counts and the trajectory size limit -------------------------------------

def test_scenario_records_sample_counts():
    # floor(t_max / step + 1e-9) + 1 samples, step dt_sample or each drive's period
    assert scenario_from_sections(_evolve_sections()).samples == (3,)
    assert load_config(CONFIGS / "fig1b.ini").samples == (201,)
    s = scenario_from_sections(_compare_sections())
    assert s.samples == tuple(math.floor(0.5 / d.period + 1e-9) + 1 for d in s.drives)
    assert s.samples == (2, 4)
    assert scenario_from_sections(_drive_sections()).samples == ()


def test_trajectory_size_limit_counts_both_compare_trajectories(monkeypatch):
    # a compare run holds its full and effective trajectories at once
    sections = _compare_sections()  # 7x7 sites, at most 4 samples
    one = 4 * 49 * 16
    monkeypatch.setattr(fluxlattice.config, "_TRAJECTORY_BYTES_MAX", 2 * one)
    assert scenario_from_sections(sections).samples == (2, 4)
    monkeypatch.setattr(fluxlattice.config, "_TRAJECTORY_BYTES_MAX", 2 * one - 1)
    with pytest.raises(ValidationError, match="samples of 7x7 sites"):
        scenario_from_sections(sections)
    evolve = _evolve_sections()  # 3 samples of 7x7
    monkeypatch.setattr(fluxlattice.config, "_TRAJECTORY_BYTES_MAX", 3 * 49 * 16)
    assert scenario_from_sections(evolve).samples == (3,)
    semi = _evolve_sections("semiclassical")  # keeps no field: never limited
    monkeypatch.setattr(fluxlattice.config, "_TRAJECTORY_BYTES_MAX", 0)
    assert scenario_from_sections(semi).samples == (3,)


def test_sample_step_overflow_fails_validation():
    sections = _evolve_sections()
    sections["time"] = {"t_max": "1e300", "dt_sample": "1e-300"}
    with pytest.raises(ValidationError, match="overflows"):
        scenario_from_sections(sections)


def test_kicked_profiles_do_not_hinge_on_the_last_digits_of_dt_sample():
    # dt_sample = pi/20 written to 10 digits puts each sample within about
    # 1e-9 of a kick at omega = 20; the kick must act once either way
    profiles = []
    for dt in ("0.1570796327", "pi/20"):
        sections = _evolve_sections("full_evolve")
        sections["drive"].update(waveform="delta_kicks", omega="20")
        sections["lattice"] = {"n_half": "6"}
        sections["input"] = {"width": "2", "imprint": "true"}
        sections["time"] = {"t_max": "7.6", "dt_sample": dt}
        _, tables, _ = fluxlattice.runner._run_full(scenario_from_sections(sections))
        profiles.append(tables["profile"][1])
    assert profiles[0].shape == profiles[1].shape
    np.testing.assert_allclose(profiles[0], profiles[1], rtol=0.0, atol=1e-8)


# -- CSV writer and the kinematics table ---------------------------------------------

def _savetxt_bytes(path, header, table, fmt="%.12g"):
    with path.open("w", newline="", encoding="utf-8") as fh:
        np.savetxt(fh, table, fmt=fmt, delimiter=",", newline="\r\n",
                   header=",".join(header or ()), comments="")
    return path.read_bytes()


_AWKWARD = [0.0, -0.0, 1.0, -2.5, 1e-300, 123456789012345.0, 1.0 / 3.0,
            math.pi, -7e-17, float("nan"), float("inf")]


def _blocked_table():
    """A float table on the array path, _AWKWARD on both sides of each block boundary."""
    block = fluxlattice.runner._CSV_BLOCK
    cols = -(-fluxlattice.runner._CSV_BLOCK_CELLS // block)  # blocks of _CSV_BLOCK rows
    table = np.random.default_rng(7).standard_normal((3 * block + 5, cols)) * 1e3
    edges = [r for b in range(block, len(table), block) for r in (b - 1, b)]
    table[edges] = np.resize(_AWKWARD, (len(edges), cols))
    return [f"c{i}" for i in range(cols)], table


@pytest.mark.parametrize("table", [
    # profile: a float array with a header
    (["t", "n=-1", "n=0", "n=1"], np.resize(_AWKWARD, (600, 4))),
    # field_final_re: a headerless matrix, a transposed view of complex data
    (None, (np.resize(_AWKWARD, (5, 7)) + 1j).real.T),
    # hoppings: an object table with one string column
    (["method"] + [f"c{i}" for i in range(8)],
     np.array([["quadrature"] + _AWKWARD[:8], ["closed"] + _AWKWARD[3:11]],
              dtype=object), ["%s"] + ["%.12g"] * 8),
    # bands: list rows with a bool under %d
    (["band", "E_min", "E_max", "touching_next"],
     [[0, -2.5, 1.0 / 3.0, True], [1, math.pi, 7.0, False]],
     ["%d", "%.12g", "%.12g", "%d"]),
    # units: one row of mixed %d and %.12g
    (["a", "M", "b"], [[1.0 / 3.0, 2, 1e-300]], ["%.12g", "%d", "%.12g"]),
    # a large float table, formatted as arrays
    _blocked_table(),
], ids=["profile", "field-matrix", "hoppings", "bands", "units", "array-blocks"])
def test_csv_writer_matches_savetxt(tmp_path, table):
    fluxlattice.runner._write_csv(tmp_path / "w.csv", *table)
    assert (tmp_path / "w.csv").read_bytes() == _savetxt_bytes(tmp_path / "s.csv", *table)


@pytest.mark.parametrize("cols", [1, 2, 3, 9])
def test_a_narrow_table_is_formatted_as_arrays_in_blocks_of_enough_cells(tmp_path, monkeypatch,
                                                                          cols):
    # a block holds at least _CSV_BLOCK_CELLS cells whatever the width, so
    # narrow tables (visibility has 2 columns, com 3, kinematics 9) take the
    # array path in long blocks; _AWKWARD sits on both sides of each block
    # boundary
    block = -(-fluxlattice.runner._CSV_BLOCK_CELLS // cols)
    table = np.random.default_rng(cols).standard_normal((2 * block + 3, cols)) * 1e3
    edges = [block - 1, block, 2 * block - 1, 2 * block]
    table[edges] = np.resize(_AWKWARD, (len(edges), cols))
    header = [f"c{i}" for i in range(cols)]
    shapes, cells = [], fluxlattice.runner._float_cells
    monkeypatch.setattr(fluxlattice.runner, "_float_cells",
                        lambda b: shapes.append(b.shape) or cells(b))
    fluxlattice.runner._write_csv(tmp_path / "w.csv", header, table)
    assert shapes == [(block, cols), (block, cols), (3, cols)]
    assert (tmp_path / "w.csv").read_bytes() == _savetxt_bytes(tmp_path / "s.csv", header, table)


@pytest.mark.parametrize("table", [np.empty(0), butterfly(1.0, [])],
                         ids=["1-d", "no-fluxes"])
def test_csv_writer_writes_the_header_of_a_table_without_rows(tmp_path, table):
    header = ["alpha", "E_min", "E_max"]
    fluxlattice.runner._write_csv(tmp_path / "w.csv", header, table)
    written = (tmp_path / "w.csv").read_bytes()
    assert written == b"alpha,E_min,E_max\r\n"
    assert written == _savetxt_bytes(tmp_path / "s.csv", header, table)


def test_meta_json_encodes_numpy_scalars_and_rejects_other_objects():
    plain = fluxlattice.runner._plain
    text = json.dumps([np.int64(3), np.bool_(True), np.float32(0.5)], default=plain)
    assert text == "[3, true, 0.5]"
    with pytest.raises(TypeError, match="^object is not JSON serializable$"):
        json.dumps({"x": object()}, default=plain)


def _percent_g_lines(block):
    line = ",".join(["%.12g"] * block.shape[1]) + "\r\n"
    return "".join([line % tuple(row) for row in block.tolist()]).encode()


def _hard_floats(rng):
    """About 10**6 floats that test the exactness of the array path."""
    k = rng.integers(10**11, 10**12, 100_000)
    e = rng.integers(-300, 301, k.size).astype(float)
    offset = rng.uniform(-1e-4, 1e-4, k.size)
    # exact ties (k + 0.5) * 10**(e - 11): representable at e = 11 ... 16, and
    # below as m * 2**(e - 12) with m * 5**(11 - e) odd and of 12 digits
    ties = [(2 * kk + 1) * 10 ** (ee - 11) / 2
            for kk in k[:2000].tolist() for ee in range(11, 17)]
    for ee in range(-6, 11):
        step = 5 ** (11 - ee)
        ms = rng.integers(2 * 10**11 // step + 1, 2 * 10**12 // step, 300) | 1
        ties += [float(m) * 2.0 ** (ee - 12) for m in ms.tolist()]
    powers = np.array([float(f"1e{p}") for p in range(-300, 301)])
    return np.concatenate([
        rng.integers(0, 2**64, 450_000, dtype=np.uint64).view(np.float64),  # every exponent
        (k + 0.5 + offset) * 10 ** (e - 11),  # within 1e-4 of a 12-digit tie
        -(k + 0.5) * 10 ** (e - 11),
        ties,
        np.nextafter(powers, 0.0), powers, np.nextafter(powers, np.inf),
        [9.99999999999951e-05, 999999999999.6, 9.9999999999996e99],  # decade carries
        [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, np.finfo(float).max,
         np.finfo(float).tiny, 1e-290, 1e290],
        np.arange(-100_000, 100_000, dtype=float),
        rng.integers(-2**40, 2**40, 150_000) / 2.0 ** rng.integers(0, 60, 150_000),
        rng.standard_normal(50_000) * 10.0 ** rng.integers(-7, 15, 50_000),  # both %g forms
    ])


def test_array_cells_match_percent_format():
    values = _hard_floats(np.random.default_rng(2024))
    assert values.size >= 10**6
    cols = 256
    table = np.resize(values, (-(-values.size // cols), cols))
    for i in range(0, len(table), 256):
        block = table[i:i + 256]
        assert fluxlattice.runner._float_cells(block) == _percent_g_lines(block)
    # one column and one row
    for block in (values[:4096, None], values[None, -50_000:]):
        assert fluxlattice.runner._float_cells(block) == _percent_g_lines(block)


def test_kinematics_table_is_expectation_kinematics_per_sample():
    # non-zero Peierls phase (sigma = -pi/25), anisotropic J, tilted packet
    sections = _evolve_sections()
    sections["drive"].update(omega="40", Gamma="0.9", sigma="-pi/25")
    sections["coupling"] = {"J_x": "1", "J_y": "2"}
    sections["lattice"] = {"n_half": "10"}
    sections["input"] = {"width": "3", "tilt": "pi/2"}
    sections["time"] = {"t_max": "2", "dt_sample": "0.25"}
    s = scenario_from_sections(sections)
    h = s.hoppings[0]
    assert h.flux_angle != 0.0
    _, tables, _ = fluxlattice.runner._run_effective(s)
    header, table = tables["kinematics"]
    times, _, f0 = fluxlattice.runner._start(s)
    traj = evolve_effective(f0, h, times, s.integrator, s.t_start)
    n, m = s.window.n_grid, s.window.m_grid
    peierls = np.exp(1j * h.flux_angle * n)
    assert table.shape == (times.size, 9)
    for row, t, f in zip(table, times, traj.amplitudes):
        weight = np.abs(f) ** 2
        norm = weight.sum()
        cx = np.sum(np.conj(f[:-1, :]) * f[1:, :]) / norm
        cy = np.sum(peierls * np.conj(f[:, :-1]) * f[:, 1:]) / norm
        reference = [t, np.sum(n * weight) / norm, np.sum(m * weight) / norm,
                     math.asin(cx.imag), math.asin(cy.imag), cx.imag, cy.imag,
                     2.0 * (h.kappa_x * cx).imag, 2.0 * (h.kappa_y * cy).imag]
        np.testing.assert_allclose(row, reference, rtol=0.0, atol=1e-13)
        k = expectation_kinematics(WaveField(s.window, f), h)
        np.testing.assert_allclose(
            row[1:], [k.state.n_mean, k.state.m_mean, k.state.Pn_mean,
                      k.state.Pm_mean, k.sin_Pn, k.sin_Pm, k.v_n, k.v_m],
            rtol=0.0, atol=1e-13)
    # the packet moves along n and the flux turns it towards m
    assert np.ptp(table[:, 1]) > 1.0 and np.ptp(table[:, 6]) > 0.01
