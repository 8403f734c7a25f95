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
running with defaults.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, asdict

from .errors import ConfigError

KINDS = (
    "spectral-check",
    "normalform-check",
    "constraint-check",
    "evolve",
    "abscissa-sweep",
    "scaling-study",
)

# Named tolerances with their defaults.  A config may override any subset
# through the "tolerances" object; checks read them by name only.
DEFAULT_TOLERANCES = {
    "eigenvalue_rel": 1e-8,
    "eigenvector": 1e-6,
    "algebraic_identity": 1e-12,
    "taylor_projection": 1e-10,
    "resonance": 1e-8,
    "commutator": 1e-8,
    "matrix_vs_functional": 1e-11,
    "decomposition": 1e-12,
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

    truncation = int(_check_type(raw.get("truncation", 64), int, "truncation"))
    band = int(_check_type(raw.get("band", 8), int, "band"))
    if truncation < 4 * band + 8:
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
        modes.append((m[0], m[1]))

    eps_raw = raw.get("eps_modes", [2, 8, 32])
    if not isinstance(eps_raw, list) or not all(_is_a(v, int) and v > 0 for v in eps_raw):
        raise ConfigError("'eps_modes' must be a list of positive integers")

    background = raw.get("background", "canonical")
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
            ):
                raise ConfigError(f"malformed background entry {entry!r}")
        background = [list(e) for e in background]

    t_final = float(_check_type(raw.get("t_final", 0.5), (int, float), "t_final"))
    output_step = float(_check_type(raw.get("output_step", 0.125), (int, float), "output_step"))
    if t_final <= 0 or output_step <= 0:
        raise ConfigError("'t_final' and 'output_step' must be positive")
    if output_step > t_final:
        raise ConfigError("'output_step' exceeds 't_final'")

    tolerances = raw.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ConfigError("'tolerances' must be an object")
    for name, value in tolerances.items():
        if name not in DEFAULT_TOLERANCES:
            raise ConfigError(f"unknown tolerance {name!r}")
        if not _is_a(value, (int, float)) or value <= 0:
            raise ConfigError(f"tolerance {name!r} must be a positive number")

    jobs = int(_check_type(raw.get("jobs", 1), int, "jobs"))
    if jobs < 1:
        raise ConfigError("'jobs' must be at least 1")

    return RunConfig(
        kind=kind,
        background=background,
        truncation=truncation,
        band=band,
        modes=tuple(modes),
        eps_modes=tuple(eps_raw),
        t_final=t_final,
        output_step=output_step,
        seed=int(_check_type(raw.get("seed", 0), int, "seed")),
        include_geostrophic=_check_type(
            raw.get("include_geostrophic", True), bool, "include_geostrophic"
        ),
        tolerances=dict(tolerances),
        out_dir=str(_check_type(raw.get("out_dir", "out"), str, "out_dir")),
        jobs=jobs,
    )


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return validate(raw)


def resolve_background(cfg: RunConfig):
    from .background import canonical_background, make_background

    if cfg.background == "canonical":
        return canonical_background()
    return make_background([tuple(e) for e in cfg.background])
