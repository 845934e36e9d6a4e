"""Interpretable symbolic decision-tree surrogates of MPC control laws.

Learns depth-capped binary trees whose leaves are linear combinations of
nonlinear basis functions, trained to global optimality on MPC-labeled data,
with baselines, an exact MILP export, and closed-loop evaluation.
"""

__version__ = "0.1.0"

from .basis import BasisFunction, BasisSet, canonical_basis
from .config import RunConfig, load_config
from .errors import (ConfigError, ControllerError, ConvergenceError,
                     DimensionError, DomainError, IntegralityError,
                     ModelInvalidError, NumericalError, ParseError,
                     StructureError, SymtreeError)
from .learner import Dataset, FitReport, LearnConfig, fit_tree, objective_of
from .mpc import MpcSolution, MpcSpec, PlantSpec, generate_dataset, solve_mpc
from .reference import reference_model
from .tree import (Bounds, BranchRule, LeafExpression, TreeModel, deserialize,
                   predict, route, serialize, validate)
