"""Univariate symbolic basis functions and their evaluation.

Each basis function has the closed form  x^p * exp(arg)  where arg is one of
nothing, x, -x, 1/x, -1/x, applied to a designated input coordinate.
"""

from __future__ import annotations

import math
import re
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
        if self.power < 0:
            raise ValueError("power must be a nonnegative integer")
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
        return _Program((self,))(_floats(x))[0]


_FORM_RE = re.compile(
    r"^(?:(?P<poly>1|x(?:\^(?P<pow>\d+))?)\*?)?"
    r"(?:exp\((?P<arg>-?x|-?1/x)\))?"
    r"(?:@(?P<coord>\d+))?$"
)


def parse_form(text: str) -> BasisFunction:
    """Parse a textual form like 'x^2*exp(x)' back into a BasisFunction."""
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


class _Program:
    """Basis functions compiled for evaluation on Python floats.

    Each distinct exponential (coordinate, argument) is computed once per
    point, as exp(sign * x) or, for a reciprocal argument, exp(sign / x);
    each function then reads its coordinate, its power and the slot of its
    exponential (slot -1 holds the constant 1.0 of exp-free forms).
    """

    def __init__(self, functions):
        self.functions = functions
        slots = {}
        self.exps = []   # (coordinate, sign, reciprocal, first function using it)
        self.terms = []  # (coordinate, power, exponential slot) per function
        for f in functions:
            slot = -1
            if f.exp_arg:
                key = (f.coordinate, f.exp_arg)
                if key not in slots:
                    slots[key] = len(self.exps)
                    sign = -1.0 if f.exp_arg.startswith("-") else 1.0
                    self.exps.append((f.coordinate, sign, "/" in f.exp_arg, f))
                slot = slots[key]
            self.terms.append((f.coordinate, f.power, slot))

    def __call__(self, v: list) -> list:
        """Values of every function at the coordinates v; raises DomainError
        inside the 1/x guard and on overflow, naming the form, and
        DimensionError when v has fewer coordinates than a form reads."""
        try:
            es = []
            for c, sign, reciprocal, f in self.exps:
                x = v[c]
                if not reciprocal:
                    a = sign * x
                elif abs(x) < X_GUARD:
                    raise DomainError(
                        f"basis form {f.form!r} undefined for |x| < {X_GUARD:g} (got {x!r})"
                    )
                else:
                    a = sign / x
                try:
                    es.append(math.exp(a))
                except OverflowError:
                    raise _overflow(f, x) from None
            es.append(1.0)
            out = [v[c] ** p * es[s] for c, p, s in self.terms]
        except OverflowError:
            f = next(f for f in self.functions if _power_overflows(v[f.coordinate], f.power))
            raise _overflow(f, v[f.coordinate]) from None
        except IndexError:
            f = next(f for f in self.functions if f.coordinate >= len(v))
            raise DimensionError(f"basis form {f.form!r} reads coordinate {f.coordinate}, "
                                 f"but the point has {len(v)}") from None
        # A sum of finite values is finite unless it overflows itself, so
        # the per-value scan only runs when something may be wrong.
        if not math.isfinite(sum(out)):
            for f, value in zip(self.functions, out):
                if not math.isfinite(value):
                    raise _overflow(f, v[f.coordinate])
        return out


def _power_overflows(x: float, p: int) -> bool:
    try:
        x**p
    except OverflowError:
        return True
    return False


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
    _program: _Program = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_program", _Program(self.functions))

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
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return np.array([bs._program(row) for row in X.tolist()], dtype=float)
