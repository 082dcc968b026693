"""Scenario configuration: file grammar, parsing, validation, canonical form.

Configs are flat INI files with one section per concern; the same content
round-trips through the JSON metadata each run emits (``run`` accepts both
formats, and re-running a metadata file reproduces the outputs exactly).
Section and key names are case-sensitive.  Real-valued keys accept plain
decimals, fractions ("3/4"), and pi expressions ("pi", "-pi/25", "2*pi/3").

Errors split into two families: ConfigError for anything that cannot be
read or tokenized (CLI exit 2), ValidationError for well-formed configs
that violate the grammar or a physical-domain constraint (CLI exit 3).
Validation is fail-fast: every object a run uses, the effective hoppings
of its drives included, is built once during loading and kept on the
Scenario, so a config that loads cleanly will not blow up mid-run on a bad
parameter, and the runner builds none of them again.
"""

from __future__ import annotations

import configparser
import copy
import itertools
import json
import math
from dataclasses import dataclass, fields as dataclass_fields
from pathlib import Path

from .core import DriveSpec, LatticeWindow, Waveform
from .dynamics import IntegratorOptions, _step_size
from .hopping import EffectiveHoppings, hoppings_from_drive
from .physical import PhysicalParams, physical_units
from .spectrum import RationalFlux, farey_fluxes

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

_UNITS_KEYS = ("J_per_cm", "Gamma", "omega_over_J", "M", "d_m", "lambda_m", "n_s")

_SECTION_KEYS = {
    "scenario": {"kind", "label"},
    "drive": {"waveform", "omega", "Gamma", "M", "sigma", "rho", "beta0"},
    "coupling": {"J_x", "J_y", "method"},
    "lattice": {"n_half", "m_half"},
    "input": {"width", "tilt", "imprint"},
    "time": {"t_max", "dt_sample", "stroboscopic", "t_start"},
    "integrator": {f.name for f in dataclass_fields(IntegratorOptions)},
    "output": {"fields", "profile", "com"},
    "spectrum": {"flux", "k_grid"},
    "compare": {"omegas"},
    "units": {*_UNITS_KEYS, "J_t_max"},
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
    """Fully resolved, validated run description.

    Built by ``scenario_from_sections`` (or ``load_config``) in one pass:
    ``config`` is the canonical form of the input with every default filled
    in, and the objects a run uses are built from it once, at load:
    ``drives`` (one per omega for compare, else one), ``hoppings`` aligned
    with ``drives`` (none for full_evolve), ``samples``, the sample count
    of each drive's run (evolutions only), the resolved spectrum ``fluxes``
    and the ``units`` record.
    """

    kind: str
    label: str
    config: dict
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
    drives: tuple[DriveSpec, ...] = ()
    hoppings: tuple[EffectiveHoppings, ...] = ()
    samples: tuple[int, ...] = ()
    fluxes: tuple[RationalFlux, ...] = ()
    units: PhysicalParams | None = None

    def drive_for(self, omega: float | None = None) -> DriveSpec:
        """Resonant drive for this scenario (omega overridable for sweeps)."""
        if not self.drives:
            raise ValidationError(f"scenario kind {self.kind!r} carries no drive")
        return self.drives[0] if omega is None else _drive(self.config["drive"], omega)

    @property
    def drive(self) -> DriveSpec:
        """The drive; for compare, the one at the first omega."""
        return self.drive_for()

    def resolved_config(self) -> dict:
        """Canonical nested mapping; re-ingesting it reproduces this scenario."""
        return copy.deepcopy(self.config)


def _drive(params: dict, omega: float) -> DriveSpec:
    """Resonant drive from a recorded [drive] section, at ``omega``."""
    return DriveSpec.resonant(
        omega=omega, Gamma=params["Gamma"], M=params["M"], sigma=params["sigma"],
        rho=params["rho"], waveform=_WAVEFORM_FACTORIES[params["waveform"]](),
        beta0=params["beta0"])


def _text(value) -> str:
    return str(value).strip()


_REQUIRED = object()

# largest amplitude output a run may produce, in bytes (16 per site and
# sample; a compare run produces two trajectories).  Runner runs stream
# their samples and hold at most one of them or one Chebyshev block; only
# an API caller that keeps the amplitudes stores them all.
_TRAJECTORY_BYTES_MAX = 2 ** 32


def scenario_from_sections(sections: dict) -> Scenario:
    """Validate a nested {section: {key: value}} mapping into a Scenario."""
    if "scenario" not in sections:
        raise ValidationError("missing [scenario] section")
    config: dict = {}

    def read(section: str, key: str, parse, default=_REQUIRED):
        """Parse [section] key, or take its default; record the value in config.

        A key whose default is None is optional: absent, it reads None and
        is not recorded.
        """
        value = sections.get(section, {}).get(key, default)
        if value is _REQUIRED:
            raise ValidationError(f"missing required key [{section}] {key}")
        if value is None and default is None:
            return None
        value = parse(value)
        config.setdefault(section, {})[key] = value
        return value

    kind = read("scenario", "kind", _text)
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

    label = read("scenario", "label", _text, kind)
    if not label or any(ch in label for ch in "/\\ \t"):
        raise ValidationError(f"label {label!r} must be a simple file stem")
    fields: dict = {"kind": kind, "label": label, "config": config}

    if "drive" in sections:
        waveform = read("drive", "waveform", _text)
        if waveform not in _WAVEFORM_FACTORIES:
            raise ValidationError(f"unknown waveform {waveform!r}")
        if kind != "compare":
            read("drive", "omega", parse_real)
        elif "omega" in sections["drive"]:
            raise ValidationError("compare scenarios take omega from [compare] omegas")
        read("drive", "Gamma", parse_real)
        read("drive", "M", parse_int)
        read("drive", "sigma", parse_real)
        read("drive", "rho", parse_real)
        read("drive", "beta0", parse_real, 0.0)
        fields["J_x"] = read("coupling", "J_x", parse_real)
        fields["J_y"] = read("coupling", "J_y", parse_real)
        fields["method"] = read("coupling", "method", _text, "auto")
        if fields["method"] not in ("auto", "closed", "quadrature"):
            raise ValidationError(f"unknown hopping method {fields['method']!r}")

    if "lattice" in sections:
        n_half = read("lattice", "n_half", parse_int)
        m_half = read("lattice", "m_half", parse_int, n_half)
        if n_half < 0 or m_half < 0:
            raise ValidationError("lattice half-sizes must be >= 0")
        fields["window"] = LatticeWindow.centered(n_half, m_half)
        fields["width"] = read("input", "width", parse_real)
        if fields["width"] <= 0.0:
            raise ValidationError("input width must be positive")
        fields["tilt"] = read("input", "tilt", parse_real, 0.0)
        fields["imprint"] = read("input", "imprint", parse_bool, False)
        t_max = fields["t_max"] = read("time", "t_max", parse_real)
        if t_max <= 0.0:
            raise ValidationError("t_max must be positive")
        strobo = read("time", "stroboscopic", parse_bool, False)
        has_dt = sections["time"].get("dt_sample") is not None
        if kind == "compare":
            # deviation sampling only makes sense at whole drive periods
            if has_dt:
                raise ValidationError(
                    "compare scenarios sample stroboscopically; drop dt_sample")
            strobo = config["time"]["stroboscopic"] = True
        elif strobo and has_dt:
            raise ValidationError("give either dt_sample or stroboscopic, not both")
        elif not strobo and not has_dt:
            raise ValidationError("sampling needs dt_sample or stroboscopic = true")
        fields["stroboscopic"] = strobo
        dt = fields["dt_sample"] = read("time", "dt_sample", parse_real, None)
        if dt is not None and not 0.0 < dt <= t_max:
            raise ValidationError("dt_sample must lie in (0, t_max]")
        t_start = fields["t_start"] = read("time", "t_start", parse_real, 0.0)
        if t_start > 0.0:
            raise ValidationError("t_start must be <= 0 (samples begin at 0)")
        if kind == "semiclassical" and t_start != 0.0:
            raise ValidationError("semiclassical runs start at t = 0")

    if "integrator" in sections:
        for f in dataclass_fields(IntegratorOptions):
            read("integrator", f.name, parse_real, f.default)

    if "output" in allowed:
        fields["out_fields"] = read("output", "fields", parse_bool, False)
        fields["out_profile"] = read("output", "profile", parse_bool, True)
        fields["out_com"] = read("output", "com", parse_bool, True)

    if kind == "spectrum":
        fields["flux_spec"] = read("spectrum", "flux", parse_flux_spec, "auto")
        fields["k_grid"] = read("spectrum", "k_grid", parse_int, 64)
        if fields["k_grid"] < 32:
            raise ValidationError("k_grid must be >= 32")

    if kind == "compare":
        omegas = read("compare", "omegas", lambda v: list(parse_reals(v)))
        if not omegas or any(w <= 0.0 for w in omegas):
            raise ValidationError("omegas must be a nonempty list of positive rates")
        fields["omegas"] = tuple(omegas)

    if kind == "units":
        for key in _UNITS_KEYS:
            read("units", key, parse_int if key == "M" else parse_real)
        read("units", "J_t_max", parse_real, 10.0)

    # build every object a run uses, once, so bad parameters fail here
    try:
        if "integrator" in config:
            fields["integrator"] = IntegratorOptions(**config["integrator"])
        if "drive" in config:
            drives = tuple(_drive(config["drive"], om) for om in
                           fields.get("omegas") or (config["drive"]["omega"],))
            fields["drives"] = drives
            if kind in ("full_evolve", "compare"):
                for d in drives:  # an RK4 step underflow fails here, not mid-run
                    _step_size(d, fields["J_x"], fields["J_y"],
                               fields.get("integrator") or IntegratorOptions())
            if "time" in config:
                fields["samples"] = _sample_counts(kind, fields, drives)
            if kind != "full_evolve":
                fields["hoppings"] = tuple(
                    hoppings_from_drive(d, fields["J_x"], fields["J_y"], fields["method"])
                    for d in drives)
        if kind == "spectrum":
            fields["fluxes"] = _fluxes(fields["flux_spec"], fields["hoppings"][0])
        if kind == "units":
            fields["units"] = physical_units(**config["units"])
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    return Scenario(**fields)


def _sample_counts(kind: str, fields: dict, drives) -> tuple[int, ...]:
    """Samples on [0, t_max] of each drive's run, every dt_sample or period.

    Fails when a run's amplitudes would exceed _TRAJECTORY_BYTES_MAX.
    """
    counts = []
    for d in drives:
        step = d.period if fields["stroboscopic"] else fields["dt_sample"]
        steps = fields["t_max"] / step
        if not math.isfinite(steps):
            raise ValidationError("t_max / sample step overflows")
        counts.append(math.floor(steps + 1e-9) + 1)
    if kind != "semiclassical":  # it keeps four means per sample, no field
        Nn, Nm = fields["window"].shape
        size = max(counts) * Nn * Nm * 16 * (2 if kind == "compare" else 1)
        if size > _TRAJECTORY_BYTES_MAX:
            raise ValidationError(
                f"{max(counts)} samples of {Nn}x{Nm} sites need {size:.3g} B of "
                f"amplitudes, above the {_TRAJECTORY_BYTES_MAX} B limit; "
                "raise dt_sample or shrink the window")
    return tuple(counts)


def _fluxes(spec: str, h: EffectiveHoppings) -> tuple[RationalFlux, ...]:
    """The fluxes a spectrum spec names: 'farey:N', 'auto' (from alpha) or 'p/q'."""
    if spec.startswith("farey:"):
        if abs(h.kappa_x) == 0.0:
            raise ValidationError("butterfly energies are in units of kappa_x; "
                                  "it must be nonzero")
        return tuple(farey_fluxes(int(spec[len("farey:"):])))
    if spec == "auto":
        return (RationalFlux.from_float(h.alpha),)
    p, q = spec.split("/")
    return (RationalFlux(int(p), int(q)),)


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
