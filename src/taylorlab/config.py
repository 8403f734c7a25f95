"""Run configuration: schema, validation, defaults, and hashing.

A run is described by one JSON document.  Example:

    {
      "kind": "abscissa-sweep",
      "truncation": 64,
      "band": 8,
      "modes": [[1, 0], [2, 0], [4, 0], [8, 0], [16, 0], [32, 0]],
      "seed": 0,
      "out_dir": "out"
    }

Unknown keys are rejected so that typos fail loudly instead of silently
running with defaults.  The field is real, so a mode k and its negative -k
are one mode: a list that names both is rejected.  So is a window that
cannot resolve the eigenprofiles the kind collocates: validation collocates
them, so a config it accepts never stops partway on the resolution guard.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import MISSING, asdict, dataclass, field

from .background import (
    DEFAULT_BACKGROUND_TRUNCATION,
    canonical_background,
    lattice_mode_context,
    make_background,
)
from .errors import ConfigError, DegenerateDirection, ResolutionExceeded
from .spectral import build_eigenbasis, stored_band_for

KINDS = (
    "spectral-check",
    "normalform-check",
    "constraint-check",
    "evolve",
    "abscissa-sweep",
    "scaling-study",
)

# Kinds that build one mode: a second mode would be ignored, so it is refused.
SINGLE_MODE_KINDS = ("spectral-check", "normalform-check")

# Kinds that collocate the eigenprofiles of the band: only they read `band`,
# so only they are held to the window rule truncation >= 4*band + 8 and
# have their profiles collocated at validation.
BAND_KINDS = ("spectral-check", "normalform-check", "scaling-study")

# An unresolved window's error names the smallest truncation up to this
# many times the config's that resolves the band.
_SEARCH_FACTOR = 4

# Named tolerances with their defaults.  A config may override any subset
# through the "tolerances" object; checks read them by name only.
DEFAULT_TOLERANCES = {
    "eigenvalue_rel": 1e-8,
    "eigenvector": 1e-6,
    "taylor_projection": 1e-10,
    "resonance": 1e-8,
    "commutator": 1e-8,
    "projection_residual": 1e-12,
    "semigroup": 1e-10,
    "step_residual": 1e-7,
    "zero_mode_rate_rel": 1e-6,
    "abscissa_slack": 0.1,
    "gap_ratio": 0.2,
    "c2_slope_min": 0.7,
    "band_slope_low": 1.0,
    "band_slope_high": 1.7,
    "trend_slack": 1.25,
    "tail_gate": 1e-8,
}

_DEFAULT_MODES = {
    "spectral-check": [[1, 0]],
    "normalform-check": [[8, 0]],
    "constraint-check": [[1, 0], [0, 1], [1, 1]],
    "evolve": [[1, 0], [0, 1], [1, 1], [2, 1]],
    "abscissa-sweep": [[1, 0], [2, 0], [4, 0], [8, 0], [16, 0], [32, 0]],
    "scaling-study": [[2, 0], [8, 0], [32, 0]],
}

_ALLOWED_KEYS = {
    "kind",
    "background",
    "truncation",
    "band",
    "modes",
    "eps_modes",
    "t_final",
    "output_step",
    "seed",
    "include_geostrophic",
    "tolerances",
    "out_dir",
    "jobs",
}


@dataclass(frozen=True)
class RunConfig:
    kind: str
    background: object = "canonical"
    truncation: int = 64
    band: int = 8
    modes: tuple = ()
    eps_modes: tuple = (2, 8, 32)
    t_final: float = 0.5
    output_step: float = 0.125
    seed: int = 0
    include_geostrophic: bool = True
    tolerances: dict = field(default_factory=dict)
    out_dir: str = "out"
    jobs: int = 1

    def __post_init__(self):
        # range checks that also hold for the command line's overrides,
        # which reach the config through dataclasses.replace, not validate
        if self.seed < 0:
            raise ConfigError(f"'seed' must be nonnegative; got {self.seed}")
        if self.jobs < 1:
            raise ConfigError("'jobs' must be at least 1")

    def tolerance(self, name: str) -> float:
        if name not in DEFAULT_TOLERANCES:
            raise KeyError(f"unknown tolerance name: {name}")
        return float(self.tolerances.get(name, DEFAULT_TOLERANCES[name]))

    def canonical_json(self) -> str:
        payload = asdict(self)
        payload["modes"] = [list(m) for m in self.modes]
        payload["eps_modes"] = list(self.eps_modes)
        # where results land and how many threads computed them does not
        # change the results, so neither participates in the identity
        payload.pop("out_dir")
        payload.pop("jobs")
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()


def _is_a(value, types) -> bool:
    """isinstance, except that JSON true/false are booleans only, never 1/0."""
    types = types if isinstance(types, tuple) else (types,)
    return isinstance(value, types) and (bool in types or not isinstance(value, bool))


def _check_type(value, types, key):
    if not _is_a(value, types):
        raise ConfigError(f"config key {key!r} has wrong type: {type(value).__name__}")
    return value


def _get(raw: dict, key: str):
    """raw[key], or the default of RunConfig's field ``key`` as JSON would
    write it (a list for a tuple)."""
    if key in raw:
        return raw[key]
    spec = RunConfig.__dataclass_fields__[key]
    value = spec.default_factory() if spec.default is MISSING else spec.default
    return list(value) if isinstance(value, tuple) else value


def validate(raw: dict) -> RunConfig:
    """Turn a parsed JSON object into a validated RunConfig."""
    if not isinstance(raw, dict):
        raise ConfigError("config document must be a JSON object")
    unknown = set(raw) - _ALLOWED_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "kind" not in raw:
        raise ConfigError("config is missing the required key 'kind'")
    kind = raw["kind"]
    if kind not in KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}; expected one of {KINDS}")

    truncation = int(_check_type(_get(raw, "truncation"), int, "truncation"))
    band = int(_check_type(_get(raw, "band"), int, "band"))
    if truncation < 1:
        raise ConfigError(f"'truncation' must be at least 1; got {truncation}")
    if band < 1:
        raise ConfigError(f"'band' must be at least 1; got {band}")
    if kind == "scaling-study" and band < 2:
        raise ConfigError(f"scaling-study sweeps the bands 2, 4, ... <= band; got band {band}")
    if kind in BAND_KINDS and truncation < 4 * band + 8:
        raise ConfigError(
            f"truncation {truncation} too small for band {band}: "
            f"require truncation >= 4*band + 8 = {4 * band + 8}"
        )

    modes_raw = raw.get("modes", _DEFAULT_MODES[kind])
    if not isinstance(modes_raw, list) or not modes_raw:
        raise ConfigError("'modes' must be a non-empty list of [m1, m2] pairs")
    modes = []
    for m in modes_raw:
        if (not isinstance(m, list)) or len(m) != 2 or not all(_is_a(c, int) for c in m):
            raise ConfigError(f"malformed mode entry {m!r}; expected [int, int]")
        if m == [0, 0]:
            raise ConfigError("horizontal mode [0, 0] is reserved for the averaged profile")
        if (m[0], m[1]) in modes:
            raise ConfigError(f"duplicate mode entry {m!r}")
        if (-m[0], -m[1]) in modes:
            raise ConfigError(
                f"mode entry {m!r} is the negative of a listed mode: the field is "
                f"real, so k and -k are one mode"
            )
        modes.append((m[0], m[1]))
    if kind in SINGLE_MODE_KINDS and len(modes) > 1:
        raise ConfigError(f"kind {kind!r} checks one mode; got {len(modes)} modes")

    eps_raw = _get(raw, "eps_modes")
    if not isinstance(eps_raw, list) or not all(_is_a(v, int) and v > 0 for v in eps_raw):
        raise ConfigError("'eps_modes' must be a list of positive integers")
    if not eps_raw:
        raise ConfigError("'eps_modes' must be a non-empty list of positive integers")
    if len(set(eps_raw)) < len(eps_raw):
        raise ConfigError(f"duplicate entry in 'eps_modes' {eps_raw!r}")
    if kind == "scaling-study" and len(eps_raw) < 2:
        raise ConfigError(
            f"scaling-study fits the c2 slope through its 'eps_modes': needs at least "
            f"two; got {eps_raw!r}"
        )

    background = _get(raw, "background")
    if background != "canonical":
        if not isinstance(background, list):
            raise ConfigError("'background' must be \"canonical\" or a list of entries")
        for entry in background:
            if (
                not isinstance(entry, list)
                or len(entry) != 3
                or not _is_a(entry[0], int)
                or entry[0] not in (1, 2)
                or not _is_a(entry[1], int)
                or not _is_a(entry[2], (int, float))
                or not math.isfinite(entry[2])
            ):
                raise ConfigError(f"malformed background entry {entry!r}")
            if not 0 < abs(entry[1]) <= DEFAULT_BACKGROUND_TRUNCATION:
                raise ConfigError(
                    f"background entry {entry!r}: mode must be nonzero and within "
                    f"the background window [-{DEFAULT_BACKGROUND_TRUNCATION}, "
                    f"{DEFAULT_BACKGROUND_TRUNCATION}]"
                )
        background = [list(e) for e in background]
        try:
            make_background([tuple(e) for e in background])
        except DegenerateDirection as exc:
            raise ConfigError(f"background {background!r}: {exc}") from exc

    t_final = float(_check_type(_get(raw, "t_final"), (int, float), "t_final"))
    output_step = float(_check_type(_get(raw, "output_step"), (int, float), "output_step"))
    if not (0 < t_final < math.inf and 0 < output_step < math.inf):
        raise ConfigError("'t_final' and 'output_step' must be positive and finite")
    if output_step > t_final:
        raise ConfigError("'output_step' exceeds 't_final'")
    # each value is within half a float spacing of the number written, so
    # k steps of output_step may miss t_final by k spacings of output_step
    # plus one of t_final, and by nothing more
    steps = round(t_final / output_step)
    if abs(steps * output_step - t_final) > steps * math.ulp(output_step) + math.ulp(t_final):
        raise ConfigError(
            f"'t_final' {t_final!r} is not a whole number of output steps {output_step!r}"
        )

    tolerances = _get(raw, "tolerances")
    if not isinstance(tolerances, dict):
        raise ConfigError("'tolerances' must be an object")
    for name, value in tolerances.items():
        if name not in DEFAULT_TOLERANCES:
            raise ConfigError(f"unknown tolerance {name!r}")
        if not _is_a(value, (int, float)) or not 0 < value < math.inf:
            raise ConfigError(f"tolerance {name!r} must be a positive number")

    cfg = RunConfig(
        kind=kind,
        background=background,
        truncation=truncation,
        band=band,
        modes=tuple(modes),
        eps_modes=tuple(eps_raw),
        t_final=t_final,
        output_step=output_step,
        seed=int(_check_type(_get(raw, "seed"), int, "seed")),
        include_geostrophic=_check_type(
            _get(raw, "include_geostrophic"), bool, "include_geostrophic"
        ),
        tolerances=dict(tolerances),
        out_dir=str(_check_type(_get(raw, "out_dir"), str, "out_dir")),
        jobs=int(_check_type(_get(raw, "jobs"), int, "jobs")),
    )
    if kind in BAND_KINDS:
        _require_resolved(cfg)
    return cfg


def _require_resolved(cfg: RunConfig) -> None:
    """Collocate the eigenprofiles the run collocates, at the same mode and
    gate: the band at the first mode, or for the scaling study the stored
    band at its first eps mode.

    Where that fails, the error names the smallest larger truncation at
    which the same collocation passes, searched upward to
    ``_SEARCH_FACTOR`` times the config's, or says that none does.
    """
    bg = resolve_background(cfg)
    if cfg.kind == "scaling-study":
        ctx = lattice_mode_context(bg, (cfg.eps_modes[0], 0))
    else:
        ctx = lattice_mode_context(bg, cfg.modes[0])

    def band_at(truncation: int) -> int:
        if cfg.kind == "scaling-study":
            return stored_band_for(cfg.band, truncation)
        return cfg.band

    def failure(truncation: int) -> ResolutionExceeded | None:
        try:
            build_eigenbasis(ctx, band_at(truncation), truncation, cfg.tolerance("tail_gate"))
        except ResolutionExceeded as exc:
            return exc
        return None

    exc = failure(cfg.truncation)
    if exc is None:
        return
    last = _SEARCH_FACTOR * cfg.truncation
    found = next((t for t in range(cfg.truncation + 1, last + 1) if failure(t) is None), None)
    hint = (
        f"the smallest truncation that resolves it is {found}"
        if found is not None
        else f"no truncation up to {last} resolves it"
    )
    raise ConfigError(
        f"truncation {cfg.truncation} does not resolve band {band_at(cfg.truncation)}: "
        f"{exc}; {hint}"
    ) from exc


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file cannot be read: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return validate(raw)


def resolve_background(cfg: RunConfig):
    if cfg.background == "canonical":
        return canonical_background()
    return make_background([tuple(e) for e in cfg.background])
