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
parameter.  The runner only rebuilds the hoppings a ``hoppings`` run
reports, one set per route, from the drive checked here.
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


_WAVEFORM_FACTORIES = {
    "sinusoidal": Waveform.sinusoidal,
    "delta_kicks": Waveform.delta_kicks,
}

_RUN_SECTIONS = {"scenario", "drive", "coupling", "lattice", "input", "time"}
_KIND_SECTIONS = {
    # kind: (required sections, additionally allowed sections)
    "full_evolve": (_RUN_SECTIONS, {"integrator", "output"}),
    "effective_evolve": (_RUN_SECTIONS, {"integrator", "output"}),
    "semiclassical": (_RUN_SECTIONS, set()),
    "hoppings": ({"scenario", "drive", "coupling"}, set()),
    "spectrum": ({"scenario", "drive", "coupling"}, {"spectrum"}),
    "compare": (_RUN_SECTIONS | {"compare"}, {"integrator"}),
    "units": ({"scenario", "units"}, set()),
}
KINDS = tuple(_KIND_SECTIONS)


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
        if not value.is_integer():  # also false for inf and nan
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


def _text(value) -> str:
    return str(value).strip()


def _checked(parse, ok, message: str):
    """``parse``, then raise ValidationError(message.format(value)) unless ok(value)."""
    def parse_checked(value):
        if not ok(value := parse(value)):
            raise ValidationError(message.format(value))
        return value
    return parse_checked


# -- key table ----------------------------------------------------------------

_REQUIRED = object()


class _SameAs(str):
    """Default that copies another key of its section: label = kind, m_half = n_half."""


_REAL, _INT = (parse_real, _REQUIRED), (parse_int, _REQUIRED)
_half_size = _checked(parse_int, lambda n: n >= 0, "lattice half-sizes must be >= 0")
# largest |Gamma|.  Loading a sinusoidal drive costs time and memory linear
# in Gamma (Miller's recurrence for J_v(2 Gamma sin(sigma/2)) starts near
# that order); at the cap validate takes 0.1 s and 7 MB more, and a phase
# Gamma G carries 2e-12 rad of rounding.  The paper's drives have Gamma ~ 1.
_GAMMA_MAX = 1e4

# section -> key -> (parser, default), in the order a config records them.
# _REQUIRED: the key must be given; None: optional, and not recorded when
# absent; _SameAs(k): the value of key k.  A parser raises ConfigError on a
# bad token and ValidationError on a value its key alone rules out.
_KEYS = {
    "scenario": {
        "kind": (_checked(_text, KINDS.__contains__,
                          f"unknown scenario kind {{!r}}; expected one of {KINDS}"), _REQUIRED),
        "label": (_checked(_text, lambda s: s and not any(ch in s for ch in "/\\ \t"),
                           "label {!r} must be a simple file stem"), _SameAs("kind"))},
    "drive": {"waveform": (_checked(_text, _WAVEFORM_FACTORIES.__contains__,
                                    "unknown waveform {!r}"), _REQUIRED),
              "omega": _REAL,
              "Gamma": (_checked(parse_real, lambda g: abs(g) <= _GAMMA_MAX,
                                 f"|Gamma| must be <= {_GAMMA_MAX:g}, got {{}}"), _REQUIRED),
              "M": _INT, "sigma": _REAL, "rho": _REAL,
              "beta0": (parse_real, 0.0)},
    "coupling": {"J_x": _REAL, "J_y": _REAL,
                 "method": (_checked(_text, ("auto", "closed", "quadrature").__contains__,
                                     "unknown hopping method {!r}"), "auto")},
    "lattice": {"n_half": (_half_size, _REQUIRED), "m_half": (_half_size, _SameAs("n_half"))},
    # the input Gaussian divides by width**2, which must not underflow to 0
    "input": {"width": (_checked(parse_real, lambda w: w > 0.0 and w * w > 0.0,
                                 "input width must be positive, with a nonzero square"),
                        _REQUIRED),
              "tilt": (parse_real, 0.0), "imprint": (parse_bool, False)},
    "time": {"t_max": (_checked(parse_real, lambda t: t > 0.0, "t_max must be positive"),
                       _REQUIRED),
             "stroboscopic": (parse_bool, False), "dt_sample": (parse_real, None),
             "t_start": (_checked(parse_real, lambda t: t <= 0.0,
                                  "t_start must be <= 0 (samples begin at 0)"), 0.0)},
    "integrator": {f.name: (parse_real, f.default) for f in dataclass_fields(IntegratorOptions)},
    "output": {"fields": (parse_bool, False), "profile": (parse_bool, True),
               "com": (parse_bool, True)},
    "spectrum": {"flux": (parse_flux_spec, "auto"),
                 "k_grid": (_checked(parse_int, lambda k: k >= 32, "k_grid must be >= 32"), 64)},
    "compare": {"omegas": (_checked(lambda v: list(parse_reals(v)),
                                    lambda ws: ws and min(ws) > 0.0,
                                    "omegas must be a nonempty list of positive rates"),
                           _REQUIRED)},
    "units": {"J_per_cm": _REAL, "Gamma": _REAL, "omega_over_J": _REAL, "M": _INT,
              "d_m": _REAL, "lambda_m": _REAL, "n_s": _REAL, "J_t_max": (parse_real, 10.0)},
}


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
    and the ``units`` record.  A field of a section the kind does not take
    is None.
    """

    kind: str
    label: str
    config: dict
    J_x: float | None = None
    J_y: float | None = None
    method: str | None = None
    window: LatticeWindow | None = None
    width: float | None = None
    tilt: float | None = None
    imprint: bool | None = None
    t_max: float | None = None
    dt_sample: float | None = None
    stroboscopic: bool | None = None
    t_start: float | None = None
    integrator: IntegratorOptions | None = None
    out_fields: bool | None = None
    out_profile: bool | None = None
    out_com: bool | None = None
    flux_spec: str | None = None
    k_grid: int | None = None
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


# largest amplitude output a run may produce, in bytes (16 per site and
# sample; a compare run produces two trajectories).  Runner runs stream
# their samples and hold at most one of them or one Chebyshev block; only
# an API caller that keeps the amplitudes stores them all.  It also bounds
# the real Bloch stack (8 B an entry) a spectrum solves for one denominator.
_TRAJECTORY_BYTES_MAX = 2 ** 32
# largest input a run may prepare, in bytes: every run with a window, a
# semiclassical one too, builds its input in both frames (2 x 16 B a site)
_WINDOW_BYTES_MAX = 2 ** 32


def _read(given: dict, section: str, key: str):
    """[section] key parsed from its raw keys ``given``; None if optional and absent."""
    parse, default = _KEYS[section][key]
    if isinstance(default, _SameAs):
        default = given.get(default)
    value = given.get(key, default)
    if value is _REQUIRED:
        raise ValidationError(f"missing required key [{section}] {key}")
    return None if value is None and default is None else parse(value)


def scenario_from_sections(sections: dict) -> Scenario:
    """Validate a nested {section: {key: value}} mapping into a Scenario.

    Each key is parsed and checked alone by its _KEYS row; here are the
    kind's sections, the rules that tie keys together, and the run objects.
    """
    if "scenario" not in sections:
        raise ValidationError("missing [scenario] section")
    kind = _read(sections["scenario"], "scenario", "kind")
    required, extra = _KIND_SECTIONS[kind]
    allowed = required | extra
    for name in sections:
        if name not in allowed:
            raise ValidationError(f"section [{name}] not allowed for kind {kind!r}")
        unknown = set(sections[name]) - set(_KEYS[name])
        if unknown:
            raise ValidationError(f"unknown key(s) {sorted(unknown)} in section [{name}]")
    for name in required:
        if name not in sections:
            raise ValidationError(f"missing section [{name}] for kind {kind!r}")
    if kind == "compare" and "omega" in sections["drive"]:
        raise ValidationError("compare scenarios take omega from [compare] omegas")

    # [output] and [spectrum] are recorded with their defaults wherever they
    # are allowed, every other section only when given
    config: dict = {}
    for name, keys in _KEYS.items():
        if name in sections or name in allowed & {"output", "spectrum"}:
            given = sections.get(name, {})
            values = ((key, _read(given, name, key)) for key in keys
                      if not (kind == "compare" and key == "omega"))
            config[name] = {key: v for key, v in values if v is not None}

    if "time" in config:
        time = config["time"]
        if kind == "compare":
            # deviation sampling only makes sense at whole drive periods
            if "dt_sample" in time:
                raise ValidationError(
                    "compare scenarios sample stroboscopically; drop dt_sample")
            time["stroboscopic"] = True
        elif time["stroboscopic"] and "dt_sample" in time:
            raise ValidationError("give either dt_sample or stroboscopic, not both")
        elif not time["stroboscopic"] and "dt_sample" not in time:
            raise ValidationError("sampling needs dt_sample or stroboscopic = true")
        dt = time.get("dt_sample")
        if dt is not None and not 0.0 < dt <= time["t_max"]:
            raise ValidationError("dt_sample must lie in (0, t_max]")
        if kind == "semiclassical" and time["t_start"] != 0.0:
            raise ValidationError("semiclassical runs start at t = 0")

    fields: dict = {"config": config}
    for name in ("scenario", "coupling", "input", "time"):  # keys named as fields
        fields.update(config.get(name, {}))
    fields.update((f"out_{key}", v) for key, v in config.get("output", {}).items())
    if "lattice" in config:
        fields["window"] = LatticeWindow.centered(**config["lattice"])
    if "spectrum" in config:
        fields["flux_spec"] = config["spectrum"]["flux"]
        fields["k_grid"] = config["spectrum"]["k_grid"]
    if "compare" in config:
        fields["omegas"] = tuple(config["compare"]["omegas"])

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

    Fails when a run's amplitudes would exceed _TRAJECTORY_BYTES_MAX, or
    its input in both frames _WINDOW_BYTES_MAX.
    """
    counts = []
    for d in drives:
        step = d.period if fields["stroboscopic"] else fields["dt_sample"]
        steps = fields["t_max"] / step
        if not math.isfinite(steps):
            raise ValidationError("t_max / sample step overflows")
        counts.append(math.floor(steps + 1e-9) + 1)
    Nn, Nm = fields["window"].shape
    if kind != "semiclassical":  # it keeps four means per sample, no field
        size = max(counts) * Nn * Nm * 16 * (2 if kind == "compare" else 1)
        if size > _TRAJECTORY_BYTES_MAX:
            raise ValidationError(
                f"{max(counts)} samples of {Nn}x{Nm} sites need {size:.3g} B of "
                f"amplitudes, above the {_TRAJECTORY_BYTES_MAX} B limit; "
                "raise dt_sample or shrink the window")
    if 2 * Nn * Nm * 16 > _WINDOW_BYTES_MAX:
        raise ValidationError(f"an input of {Nn}x{Nm} sites in both frames needs "
                              f"{2 * Nn * Nm * 16:.3g} B, above the {_WINDOW_BYTES_MAX} B limit")
    return tuple(counts)


def _fluxes(spec: str, h: EffectiveHoppings) -> tuple[RationalFlux, ...]:
    """The fluxes a spectrum spec names: 'farey:N', 'auto' (from alpha) or 'p/q'.

    The real Bloch stack of one q (fluxes x 2 x q^2 x 8 B) must fit _TRAJECTORY_BYTES_MAX;
    farey:N is judged from N (phi(q) < q <= N) before any flux is listed.
    """
    if spec == "auto":
        return (RationalFlux.from_float(h.alpha),)
    farey = spec.startswith("farey:")
    p, q = (0, int(spec[len("farey:"):])) if farey else map(int, spec.split("/"))
    size = (q if farey else 1) * 2 * q * q * 8
    if size > _TRAJECTORY_BYTES_MAX:
        raise ValidationError(f"flux {spec} needs Bloch stacks above {_TRAJECTORY_BYTES_MAX} B: "
                              f"{size} B of real {q}x{q} matrices, two per flux")
    if farey and (abs(h.kappa_x) == 0.0
                  or not math.isfinite(2.0 * (abs(h.kappa_y) / abs(h.kappa_x)))):
        raise ValidationError("butterfly energies are in units of kappa_x; it must be "
                              "nonzero, and 2|kappa_y / kappa_x| finite")
    return tuple(farey_fluxes(q)) if farey else (RationalFlux(p, q),)


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
    for section, key, _ in axes:
        if key not in _KEYS.get(section, ()):
            raise ValidationError(f"grid key [{section}] {key} is not a config key")
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
