"""Univariate symbolic basis functions and their evaluation.

Each basis function has the closed form  x^p * exp(arg)  where arg is one of
nothing, x, -x, 1/x, -1/x, applied to a designated input coordinate.
"""

from __future__ import annotations

import functools
import math
import re
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, DomainError, ParseError

#: Hard guard around the 1/x singularity; inputs with |coordinate| below this
#: are rejected rather than silently saturated.
X_GUARD = 1e-6

_EXP_ARGS = ("", "x", "-x", "1/x", "-1/x")


@dataclass(frozen=True)
class BasisFunction:
    """One symbolic form x^p * exp(arg) read from a single input coordinate."""

    power: int
    exp_arg: str = ""
    coordinate: int = 0

    def __post_init__(self):
        # Exactly int, so no bool or float: the form must parse back, and the
        # compiled source holds integers only.
        for name in ("power", "coordinate"):
            value = getattr(self, name)
            if type(value) is not int or value < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
        if self.exp_arg not in _EXP_ARGS:
            raise ValueError(f"unknown exponential argument {self.exp_arg!r}")

    @property
    def form(self) -> str:
        """Textual form, e.g. '1', 'x^2*exp(x)', 'exp(-1/x)'."""
        if self.power == 0:
            poly = "" if self.exp_arg else "1"
        elif self.power == 1:
            poly = "x"
        else:
            poly = f"x^{self.power}"
        if self.exp_arg:
            expo = f"exp({self.exp_arg})"
            text = f"{poly}*{expo}" if poly else expo
        else:
            text = poly
        if self.coordinate != 0:
            text = f"{text}@{self.coordinate}"
        return text

    def __call__(self, x) -> float:
        return _compile((self,))(_floats(x))[0]


_FORM_RE = re.compile(
    r"^(?:(?P<poly>1|x(?:\^(?P<pow>\d+))?)\*?)?"
    r"(?:exp\((?P<arg>-?x|-?1/x)\))?"
    r"(?:@(?P<coord>\d+))?$"
)


def parse_form(text: str) -> BasisFunction:
    """Parse a textual form like 'x^2*exp(x)' back into a BasisFunction."""
    if not isinstance(text, str):
        raise ParseError(f"basis form {text!r} is not a string")
    m = _FORM_RE.match(text.strip())
    if not m or (m.group("poly") is None and m.group("arg") is None):
        raise ParseError(f"unrecognized basis form {text!r}")
    poly = m.group("poly")
    if poly is None or poly == "1":
        power = 0
    elif poly == "x":
        power = 1
    else:
        power = int(m.group("pow"))
    arg = m.group("arg") or ""
    coord = int(m.group("coord") or 0)
    return BasisFunction(power=power, exp_arg=arg, coordinate=coord)


@functools.lru_cache
def _compile(functions: tuple) -> Callable[[list], list]:
    """Compile the functions into one Python function of a point's
    coordinates v that returns their values in order.

    The source is generated and exec'd once per tuple. It computes each distinct
    exp(sign * x), or exp(sign / x) just after the 1/x guard, then each
    distinct x ** p, then every value as power times exponential (an exp-free
    form returns its power: * 1.0 is exact). So each value is bitwise what its
    form gives on its own, and coordinates are read, guards checked and
    overflows met in the order a per-term evaluation meets them. Each
    exponential and power statement names, on overflow, the first form that
    uses it. The source holds only integer indices and powers and the literals
    +-1.0. Raises DomainError inside the guard and on overflow, naming the
    form, and DimensionError when v has fewer coordinates than a form reads.
    """
    body, xs, exps, powers = [], {}, {}, {}

    def read(c):
        if c not in xs:
            xs[c] = f"x{c:d}"
            body.append(f"x{c:d} = v[{c:d}]")
        return xs[c]

    def guarded(statement, k, x):
        return ["try:", f"    {statement}", "except OverflowError:",
                f"    raise overflow(F[{k:d}], {x}) from None"]

    for k, f in enumerate(functions):
        if f.exp_arg and (f.coordinate, f.exp_arg) not in exps:
            x = read(f.coordinate)
            sign = "-1.0" if f.exp_arg.startswith("-") else "1.0"
            if "/" in f.exp_arg:
                body.append(f"if abs({x}) < X_GUARD: raise undefined(F[{k:d}], {x})")
                arg = f"{sign} / {x}"
            else:
                arg = f"{sign} * {x}"
            exps[f.coordinate, f.exp_arg] = e = f"e{len(exps):d}"
            body += guarded(f"{e} = exp({arg})", k, x)
    terms = []
    for k, f in enumerate(functions):
        if (f.coordinate, f.power) not in powers:
            x = read(f.coordinate)
            powers[f.coordinate, f.power] = p = f"p{len(powers):d}"
            body += guarded(f"{p} = {x} ** {f.power:d}", k, x)
        term = powers[f.coordinate, f.power]
        terms.append(f"{term} * {exps[f.coordinate, f.exp_arg]}" if f.exp_arg else term)
    body.append(f"out = [{', '.join(terms)}]")
    source = "\n".join([
        "def program(v):",
        "    try:",
        *(f"        {line}" for line in body),
        "    except IndexError:",
        "        raise missing(F, v) from None",
        # A sum of finite values is finite unless it overflows itself, so
        # the per-value scan only runs when something may be wrong.
        "    if not isfinite(sum(out)):",
        "        check_finite(F, v, out)",
        "    return out",
    ])
    namespace = {"F": functions, "X_GUARD": X_GUARD, "exp": math.exp,
                 "isfinite": math.isfinite, "undefined": _undefined,
                 "overflow": _overflow, "missing": _missing,
                 "check_finite": _check_finite}
    exec(source, namespace)
    return namespace["program"]


def _undefined(f: BasisFunction, x: float) -> DomainError:
    return DomainError(f"basis form {f.form!r} undefined for |x| < {X_GUARD:g} (got {x!r})")


def _missing(functions: tuple, v: list) -> DimensionError:
    f = next(f for f in functions if f.coordinate >= len(v))
    return DimensionError(f"basis form {f.form!r} reads coordinate {f.coordinate}, "
                          f"but the point has {len(v)}")


def _check_finite(functions: tuple, v: list, out: list) -> None:
    for f, value in zip(functions, out):
        if not math.isfinite(value):
            raise _overflow(f, v[f.coordinate])


def _overflow(f: BasisFunction, x: float) -> DomainError:
    return DomainError(f"basis form {f.form!r} overflowed at x={x!r}")


def _floats(x) -> list:
    """The coordinates of one point as Python floats."""
    if isinstance(x, float):  # numpy float64 too
        return [float(x)]
    return np.asarray(x, dtype=float).reshape(-1).tolist()


@dataclass(frozen=True)
class BasisSet:
    """Ordered collection of basis functions."""

    functions: tuple = field(default_factory=tuple)
    _program: Callable[[list], list] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_program", _compile(self.functions))

    @property
    def size(self) -> int:
        return len(self.functions)

    @property
    def forms(self) -> list:
        return [f.form for f in self.functions]


def basis_from_forms(forms) -> BasisSet:
    """Build a BasisSet from textual forms, in order."""
    return BasisSet(functions=tuple(parse_form(text) for text in forms))


def canonical_basis() -> BasisSet:
    """The 19-function set used throughout the reactor case study.

    Order: 1, x, x^2, x^3, x^4, x^5, exp(x), x*exp(x), x^2*exp(x), x^3*exp(x),
    exp(-x), x*exp(-x), x^2*exp(-x), x^3*exp(-x), x*exp(1/x), x^2*exp(1/x),
    x^3*exp(1/x), exp(-1/x), x*exp(-1/x).
    """
    specs = [
        (0, ""), (1, ""), (2, ""), (3, ""), (4, ""), (5, ""),
        (0, "x"), (1, "x"), (2, "x"), (3, "x"),
        (0, "-x"), (1, "-x"), (2, "-x"), (3, "-x"),
        (1, "1/x"), (2, "1/x"), (3, "1/x"),
        (0, "-1/x"), (1, "-1/x"),
    ]
    return BasisSet(functions=tuple(BasisFunction(power=p, exp_arg=arg) for p, arg in specs))


def evaluate_basis(bs: BasisSet, x) -> np.ndarray:
    """Evaluate every basis function at input x; returns a length-N_K vector."""
    return np.array(bs._program(_floats(x)), dtype=float)


def evaluate_basis_matrix(bs: BasisSet, X) -> np.ndarray:
    """Evaluate the basis on each row of X; returns an N_pts x N_K matrix."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DimensionError(f"basis matrix needs a 2-D array of points, got shape {X.shape}")
    return np.array([bs._program(row) for row in X.tolist()], dtype=float)
