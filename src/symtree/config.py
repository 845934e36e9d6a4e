"""Run configuration: one JSON document covering plant, MPC, learning,
data generation, and closed-loop simulation.

Defaults reproduce the reactor case study with zero flags; unknown sections
or keys are rejected rather than ignored, and so is a value whose type is not
its default's: a number (an integer where the default is one), a pair of
numbers, or, where the default is null, null or a pair. A NaN is refused
wherever a number goes.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import numbers
from dataclasses import dataclass

from .errors import ConfigError, ParseError
from .learner import LearnConfig
from .mpc import MpcSpec, PlantSpec
from .tree import _is_number

DEFAULTS = {
    "plant": {"V": 50.0, "x_f": 1.0, "k": 2.0},
    "mpc": {"T": 10, "h": 0.5, "P": 100.0, "x_sp": 0.6, "u_rate_max": 50.0,
            "x_bounds": [0.0, 1.0], "u_bounds": [0.0, 75.0]},
    "learn": {"depth": 2, "lambda_c": 1e-2, "lambda_m": 1e-4,
              "c_bounds": [-1000.0, 1000.0], "y_bounds": None},
    "data": {"n_train": 50, "n_test": 50, "range": [0.1, 0.9],
             "seed": 0, "mode": "uniform-grid"},
    "sim": {"x0": 0.75, "t_final": 10.0, "dt_sample": 0.1},
}


@dataclass
class RunConfig:
    doc: dict

    def __getitem__(self, section: str) -> dict:
        return self.doc[section]

    def plant_spec(self) -> PlantSpec:
        p = self.doc["plant"]
        return PlantSpec(V=p["V"], x_f=p["x_f"], k_rate=p["k"])

    def mpc_spec(self) -> MpcSpec:
        m = self.doc["mpc"]
        return MpcSpec(T=m["T"], h=m["h"], P=m["P"], x_sp=m["x_sp"],
                       u_rate_max=m["u_rate_max"],
                       x_bounds=tuple(m["x_bounds"]),
                       u_bounds=tuple(m["u_bounds"]),
                       plant=self.plant_spec())

    def learn_config(self) -> LearnConfig:
        le = self.doc["learn"]
        yb = le["y_bounds"]
        return LearnConfig(depth=le["depth"], lambda_c=le["lambda_c"],
                           lambda_m=le["lambda_m"],
                           c_lb=le["c_bounds"][0], c_ub=le["c_bounds"][1],
                           y_lb=None if yb is None else yb[0],
                           y_ub=None if yb is None else yb[1])

    def config_hash(self) -> str:
        canon = json.dumps(self.doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


def _is_pair(value) -> bool:
    return isinstance(value, list) and len(value) == 2 and all(map(_is_number, value))


def _check_type(where: str, default, value) -> None:
    values = value if isinstance(value, list) else [value]
    if any(_is_number(v) and math.isnan(v) for v in values):
        raise ConfigError(f"{where} must not be NaN, got {value!r}")
    if _is_number(default) and not _is_number(value):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    if isinstance(default, int) and not isinstance(value, numbers.Integral):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    if isinstance(default, list) and not _is_pair(value):
        raise ConfigError(f"{where} must be a pair of numbers, got {value!r}")
    if default is None and value is not None and not _is_pair(value):
        raise ConfigError(f"{where} must be null or a pair of numbers, got {value!r}")


def _merge(defaults: dict, given: dict) -> dict:
    out = copy.deepcopy(defaults)
    for section, content in given.items():
        if section not in defaults:
            raise ConfigError(f"unknown config section {section!r}")
        if not isinstance(content, dict):
            raise ConfigError(f"section {section!r} must be an object")
        for key, value in content.items():
            if key not in defaults[section]:
                raise ConfigError(f"unknown key {key!r} in section {section!r}")
            _check_type(f"{section}.{key}", defaults[section][key], value)
            out[section][key] = value
    return out


def load_config(path=None) -> RunConfig:
    """Config from a JSON file merged over the canonical defaults."""
    if path is None:
        return RunConfig(doc=copy.deepcopy(DEFAULTS))
    with open(path) as fh:
        text = fh.read()
    try:
        given = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(given, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return RunConfig(doc=_merge(DEFAULTS, given))
