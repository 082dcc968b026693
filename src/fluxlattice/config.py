"""Scenario configuration: file grammar, parsing, validation, canonical form.

Configs are flat INI files with one section per concern; the same content
round-trips through the JSON metadata each run emits (``run`` accepts both
formats, and re-running a metadata file reproduces the outputs exactly).
Section and key names are case-sensitive.  Real-valued keys accept plain
decimals, fractions ("3/4"), and pi expressions ("pi", "-pi/25", "2*pi/3").

Errors split into two families: ConfigError for anything that cannot be
read or tokenized (CLI exit 2), ValidationError for well-formed configs
that violate the grammar or a physical-domain constraint (CLI exit 3).
Validation is fail-fast: every object a scenario references, the effective
hoppings of its drives included, is constructed once during loading, so a
config that loads cleanly will not blow up mid-run on a bad parameter.
"""

from __future__ import annotations

import configparser
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .core import DriveSpec, LatticeWindow, Waveform
from .dynamics import IntegratorOptions
from .hopping import hoppings_from_drive
from .physical import physical_units
from .spectrum import RationalFlux

__all__ = [
    "ConfigError",
    "ValidationError",
    "Scenario",
    "parse_real",
    "load_config",
    "scenario_from_sections",
    "expand_sweep",
]


class ConfigError(Exception):
    """Config file unreadable or a token unparseable (CLI exit 2)."""


class ValidationError(Exception):
    """Config readable but semantically invalid (CLI exit 3)."""


KINDS = ("full_evolve", "effective_evolve", "semiclassical",
         "hoppings", "spectrum", "compare", "units")

_WAVEFORM_FACTORIES = {
    "sinusoidal": Waveform.sinusoidal,
    "delta_kicks": Waveform.delta_kicks,
}

_SECTION_KEYS = {
    "scenario": {"kind", "label"},
    "drive": {"waveform", "omega", "Gamma", "M", "sigma", "rho", "beta0"},
    "coupling": {"J_x", "J_y", "method"},
    "lattice": {"n_half", "m_half"},
    "input": {"width", "tilt", "imprint"},
    "time": {"t_max", "dt_sample", "stroboscopic", "t_start"},
    "integrator": {"dt_max", "norm_drift_tol", "edge_mass_tol"},
    "output": {"fields", "profile", "com"},
    "spectrum": {"flux", "k_grid"},
    "compare": {"omegas"},
    "units": {"J_per_cm", "Gamma", "omega_over_J", "M", "d_m", "lambda_m",
              "n_s", "J_t_max"},
}

_EVOLVE_SECTIONS = ({"scenario", "drive", "coupling", "lattice", "input", "time"},
                    {"integrator", "output"})
_KIND_SECTIONS = {
    # kind: (required sections, additionally allowed sections)
    "full_evolve": _EVOLVE_SECTIONS,
    "effective_evolve": _EVOLVE_SECTIONS,
    "semiclassical": ({"scenario", "drive", "coupling", "lattice", "input", "time"},
                      set()),
    "hoppings": ({"scenario", "drive", "coupling"}, set()),
    "spectrum": ({"scenario", "drive", "coupling"}, {"spectrum"}),
    "compare": ({"scenario", "drive", "coupling", "lattice", "input", "time",
                 "compare"}, {"integrator"}),
    "units": ({"scenario", "units"}, set()),
}


# -- token parsing ----------------------------------------------------------

def parse_real(value) -> float:
    """Finite real: decimal, fraction a/b, or pi expression like '2*pi/3'."""
    if isinstance(value, bool):
        raise ConfigError(f"expected a real number, got boolean {value!r}")
    s = str(value).strip().replace(" ", "")
    sign = -1.0 if s[:1] == "-" else 1.0
    if s[:1] in ("+", "-"):
        s = s[1:]
    num, _, den = s.partition("/")

    def atom(tok: str) -> float:
        if tok == "pi":
            return math.pi
        if tok.endswith("*pi"):
            return float(tok[:-3]) * math.pi
        return float(tok)

    try:
        result = sign * atom(num) / (atom(den) if den else 1.0)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"cannot parse real number {value!r}") from exc
    if not math.isfinite(result):
        raise ConfigError(f"expected a finite real number, got {value!r}")
    return result


def parse_int(value) -> int:
    if isinstance(value, bool):
        raise ConfigError(f"expected an integer, got boolean {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        if value != int(value):
            raise ConfigError(f"expected an integer, got {value!r}")
        return int(value)
    try:
        return int(str(value).strip(), 10)
    except ValueError as exc:
        raise ConfigError(f"cannot parse integer {value!r}") from exc


def parse_bool(value) -> bool:
    if isinstance(value, bool):
        return value
    token = str(value).strip().casefold()
    if token in ("true", "yes", "on", "1"):
        return True
    if token in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"cannot parse boolean {value!r}")


def parse_reals(value) -> tuple[float, ...]:
    if isinstance(value, (list, tuple)):
        return tuple(parse_real(v) for v in value)
    tokens = [t for t in str(value).split(",") if t.strip()]
    return tuple(parse_real(t) for t in tokens)


def parse_flux_spec(value) -> str:
    """Normalize and pre-validate a flux spec: 'auto', 'p/q', or 'farey:N'."""
    s = str(value).strip()
    if s == "auto":
        return s
    if s.startswith("farey:"):
        n = parse_int(s[len("farey:"):])
        if n < 1:
            raise ValidationError("farey order must be >= 1")
        return f"farey:{n}"
    num, sep, den = s.partition("/")
    if not sep:
        raise ConfigError(f"flux must be 'auto', 'p/q', or 'farey:N', got {value!r}")
    try:
        RationalFlux(parse_int(num), parse_int(den))
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    return f"{parse_int(num)}/{parse_int(den)}"


# -- scenario ---------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """Fully resolved, validated run description."""

    kind: str
    label: str
    drive_params: dict | None = None
    J_x: float | None = None
    J_y: float | None = None
    method: str = "auto"
    window: LatticeWindow | None = None
    width: float | None = None
    tilt: float = 0.0
    imprint: bool = False
    t_max: float | None = None
    dt_sample: float | None = None
    stroboscopic: bool = False
    t_start: float = 0.0
    integrator: IntegratorOptions | None = None
    out_fields: bool = False
    out_profile: bool = True
    out_com: bool = True
    flux_spec: str = "auto"
    k_grid: int = 64
    omegas: tuple[float, ...] = ()
    units_params: dict | None = None

    def drive_for(self, omega: float | None = None) -> DriveSpec:
        """Resonant drive for this scenario (omega overridable for sweeps)."""
        p = self.drive_params
        if p is None:
            raise ValidationError(f"scenario kind {self.kind!r} carries no drive")
        om = omega if omega is not None else p.get("omega")
        if om is None:
            raise ValidationError("no omega given for drive construction")
        try:
            return DriveSpec.resonant(
                omega=om, Gamma=p["Gamma"], M=p["M"], sigma=p["sigma"],
                rho=p["rho"], waveform=_WAVEFORM_FACTORIES[p["waveform"]](),
                beta0=p["beta0"])
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc

    @property
    def drive(self) -> DriveSpec:
        return self.drive_for()

    def resolved_config(self) -> dict:
        """Canonical nested mapping; re-ingesting it reproduces this scenario."""
        cfg: dict = {"scenario": {"kind": self.kind, "label": self.label}}
        if self.drive_params is not None:
            drive = {k: v for k, v in self.drive_params.items() if v is not None}
            cfg["drive"] = drive
            cfg["coupling"] = {"J_x": self.J_x, "J_y": self.J_y,
                               "method": self.method}
        if self.window is not None:
            cfg["lattice"] = {"n_half": self.window.n_max,
                              "m_half": self.window.m_max}
            cfg["input"] = {"width": self.width, "tilt": self.tilt,
                            "imprint": self.imprint}
            time: dict = {"t_max": self.t_max, "stroboscopic": self.stroboscopic,
                          "t_start": self.t_start}
            if self.dt_sample is not None:
                time["dt_sample"] = self.dt_sample
            cfg["time"] = time
        if self.integrator is not None:
            integ = {"norm_drift_tol": self.integrator.norm_drift_tol,
                     "edge_mass_tol": self.integrator.edge_mass_tol}
            if self.integrator.dt_max is not None:
                integ["dt_max"] = self.integrator.dt_max
            cfg["integrator"] = integ
        if self.kind in ("full_evolve", "effective_evolve"):
            cfg["output"] = {"fields": self.out_fields,
                             "profile": self.out_profile, "com": self.out_com}
        if self.kind == "spectrum":
            cfg["spectrum"] = {"flux": self.flux_spec, "k_grid": self.k_grid}
        if self.kind == "compare":
            cfg["compare"] = {"omegas": list(self.omegas)}
        if self.kind == "units":
            cfg["units"] = dict(self.units_params)
        return cfg


def _require(sections: dict, section: str, key: str):
    try:
        return sections[section][key]
    except KeyError:
        raise ValidationError(f"missing required key [{section}] {key}") from None


def _get(sections: dict, section: str, key: str, default=None):
    return sections.get(section, {}).get(key, default)


def scenario_from_sections(sections: dict) -> Scenario:
    """Validate a nested {section: {key: value}} mapping into a Scenario."""
    if "scenario" not in sections:
        raise ValidationError("missing [scenario] section")
    kind = str(_require(sections, "scenario", "kind")).strip()
    if kind not in KINDS:
        raise ValidationError(f"unknown scenario kind {kind!r}; expected one of {KINDS}")
    required, extra = _KIND_SECTIONS[kind]
    allowed = required | extra
    for name in sections:
        if name not in allowed:
            raise ValidationError(f"section [{name}] not allowed for kind {kind!r}")
        unknown = set(sections[name]) - _SECTION_KEYS[name]
        if unknown:
            raise ValidationError(
                f"unknown key(s) {sorted(unknown)} in section [{name}]")
    for name in required:
        if name not in sections:
            raise ValidationError(f"missing section [{name}] for kind {kind!r}")

    label = str(_get(sections, "scenario", "label", kind)).strip()
    if not label or any(ch in label for ch in "/\\ \t"):
        raise ValidationError(f"label {label!r} must be a simple file stem")
    fields: dict = {"kind": kind, "label": label}

    if "drive" in sections:
        waveform = str(_require(sections, "drive", "waveform")).strip()
        if waveform not in _WAVEFORM_FACTORIES:
            raise ValidationError(f"unknown waveform {waveform!r}")
        omega = None
        if kind == "compare":
            if "omega" in sections["drive"]:
                raise ValidationError(
                    "compare scenarios take omega from [compare] omegas")
        else:
            omega = parse_real(_require(sections, "drive", "omega"))
        fields["drive_params"] = {
            "waveform": waveform,
            "omega": omega,
            "Gamma": parse_real(_require(sections, "drive", "Gamma")),
            "M": parse_int(_require(sections, "drive", "M")),
            "sigma": parse_real(_require(sections, "drive", "sigma")),
            "rho": parse_real(_require(sections, "drive", "rho")),
            "beta0": parse_real(_get(sections, "drive", "beta0", 0.0)),
        }
        fields["J_x"] = parse_real(_require(sections, "coupling", "J_x"))
        fields["J_y"] = parse_real(_require(sections, "coupling", "J_y"))
        method = str(_get(sections, "coupling", "method", "auto")).strip()
        if method not in ("auto", "closed", "quadrature"):
            raise ValidationError(f"unknown hopping method {method!r}")
        fields["method"] = method

    if "lattice" in sections:
        n_half = parse_int(_require(sections, "lattice", "n_half"))
        m_half = parse_int(_get(sections, "lattice", "m_half", n_half))
        if n_half < 0 or m_half < 0:
            raise ValidationError("lattice half-sizes must be >= 0")
        fields["window"] = LatticeWindow.centered(n_half, m_half)
        width = parse_real(_require(sections, "input", "width"))
        if width <= 0.0:
            raise ValidationError("input width must be positive")
        fields["width"] = width
        fields["tilt"] = parse_real(_get(sections, "input", "tilt", 0.0))
        fields["imprint"] = parse_bool(_get(sections, "input", "imprint", False))
        t_max = parse_real(_require(sections, "time", "t_max"))
        if t_max <= 0.0:
            raise ValidationError("t_max must be positive")
        fields["t_max"] = t_max
        strobo = parse_bool(_get(sections, "time", "stroboscopic", False))
        dt_raw = _get(sections, "time", "dt_sample")
        if kind == "compare":
            # deviation sampling only makes sense at whole drive periods
            if dt_raw is not None:
                raise ValidationError(
                    "compare scenarios sample stroboscopically; drop dt_sample")
            strobo = True
        else:
            if strobo and dt_raw is not None:
                raise ValidationError("give either dt_sample or stroboscopic, not both")
            if not strobo and dt_raw is None:
                raise ValidationError("sampling needs dt_sample or stroboscopic = true")
            if dt_raw is not None:
                dt = parse_real(dt_raw)
                if not 0.0 < dt <= t_max:
                    raise ValidationError("dt_sample must lie in (0, t_max]")
                fields["dt_sample"] = dt
        fields["stroboscopic"] = strobo
        t_start = parse_real(_get(sections, "time", "t_start", 0.0))
        if t_start > 0.0:
            raise ValidationError("t_start must be <= 0 (samples begin at 0)")
        if kind == "semiclassical" and t_start != 0.0:
            raise ValidationError("semiclassical runs start at t = 0")
        fields["t_start"] = t_start

    if "integrator" in sections:
        try:
            fields["integrator"] = IntegratorOptions(
                dt_max=(parse_real(_get(sections, "integrator", "dt_max"))
                        if _get(sections, "integrator", "dt_max") is not None else None),
                norm_drift_tol=parse_real(_get(sections, "integrator",
                                               "norm_drift_tol", 1e-8)),
                edge_mass_tol=parse_real(_get(sections, "integrator",
                                              "edge_mass_tol", 1e-6)),
            )
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc

    if "output" in sections:
        fields["out_fields"] = parse_bool(_get(sections, "output", "fields", False))
        fields["out_profile"] = parse_bool(_get(sections, "output", "profile", True))
        fields["out_com"] = parse_bool(_get(sections, "output", "com", True))

    if kind == "spectrum":
        fields["flux_spec"] = parse_flux_spec(_get(sections, "spectrum", "flux", "auto"))
        k_grid = parse_int(_get(sections, "spectrum", "k_grid", 64))
        if k_grid < 32:
            raise ValidationError("k_grid must be >= 32")
        fields["k_grid"] = k_grid

    if kind == "compare":
        omegas = parse_reals(_require(sections, "compare", "omegas"))
        if not omegas or any(w <= 0.0 for w in omegas):
            raise ValidationError("omegas must be a nonempty list of positive rates")
        fields["omegas"] = omegas

    if kind == "units":
        u = sections["units"]
        params = {k: (parse_int(v) if k == "M" else parse_real(v))
                  for k, v in u.items()}
        params.setdefault("J_t_max", 10.0)
        missing = (_SECTION_KEYS["units"] - {"J_t_max"}) - set(params)
        if missing:
            raise ValidationError(f"missing [units] key(s) {sorted(missing)}")
        try:
            physical_units(**params)  # fail fast on domain violations
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc
        fields["units_params"] = params

    scenario = Scenario(**fields)

    # construct every referenced drive, and the hoppings of every run that
    # uses them, once so bad parameters fail here
    if scenario.drive_params is not None:
        for om in scenario.omegas if kind == "compare" else (None,):
            drive = scenario.drive_for(om)
            if kind == "full_evolve":
                continue
            try:
                h = hoppings_from_drive(drive, scenario.J_x, scenario.J_y, scenario.method)
            except ValueError as exc:
                raise ValidationError(str(exc)) from exc
            if scenario.flux_spec.startswith("farey:") and abs(h.kappa_x) == 0.0:
                raise ValidationError("butterfly energies are in units of kappa_x; "
                                      "it must be nonzero")
    return scenario


# -- file I/O ---------------------------------------------------------------

def _sections_from_ini(text: str) -> dict:
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=("#", ";"))
    parser.optionxform = str  # keys are case-sensitive (Gamma, M, J_x, ...)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    return {name: dict(parser[name]) for name in parser.sections()}


def load_sections(path) -> dict:
    """Read a config file (INI, or JSON produced by a previous run)."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {p}: {exc}") from exc
    if p.suffix.lower() == ".json" or text.lstrip().startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"cannot parse JSON config: {exc}") from exc
        if not isinstance(obj, dict):
            raise ConfigError("JSON config must be an object")
        sections = obj.get("config", obj)
        if not (isinstance(sections, dict)
                and all(isinstance(v, dict) for v in sections.values())):
            raise ConfigError("JSON config must map sections to key/value objects")
        return sections
    return _sections_from_ini(text)


def load_config(path) -> Scenario:
    return scenario_from_sections(load_sections(path))


def expand_sweep(template_path, grid_path, out_dir) -> list[Path]:
    """Expand a parameter grid over a template config into numbered configs.

    The grid file mirrors the template's sections; each key holds a
    comma-separated list of values.  One config per Cartesian-product
    combination is written to out_dir as <template-stem>_NNN.ini with the
    label suffixed to match, and each generated config is validated before
    writing.
    """
    template_path, grid_path = Path(template_path), Path(grid_path)
    base = load_sections(template_path)
    scenario_from_sections(base)  # template itself must be valid
    grid = load_sections(grid_path)
    axes = [(section, key, [v.strip() for v in str(values).split(",")])
            for section, keys in grid.items()
            for key, values in keys.items()]
    if not axes:
        raise ValidationError("sweep grid is empty")
    for section, key, values in axes:
        if section not in _SECTION_KEYS or key not in _SECTION_KEYS[section]:
            raise ValidationError(f"grid key [{section}] {key} is not a config key")
        if not values:
            raise ValidationError(f"grid key [{section}] {key} has no values")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    base_label = base.get("scenario", {}).get("label", "").strip()
    written = []
    for idx, combo in enumerate(itertools.product(*(v for _, _, v in axes))):
        sections = {name: dict(keys) for name, keys in base.items()}
        for (section, key, _), value in zip(axes, combo):
            sections.setdefault(section, {})[key] = value
        label = base_label or sections["scenario"].get("kind", "run")
        sections.setdefault("scenario", {})["label"] = f"{label}_{idx:03d}"
        scenario_from_sections(sections)  # reject bad combinations early
        parser = configparser.ConfigParser(interpolation=None)
        parser.optionxform = str
        for name, keys in sections.items():
            parser[name] = {k: str(v) for k, v in keys.items()}
        path = out_dir / f"{template_path.stem}_{idx:03d}.ini"
        with path.open("w", encoding="utf-8") as fh:
            parser.write(fh)
        written.append(path)
    return written
