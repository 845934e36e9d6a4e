"""Exception types shared across the package."""


class SymtreeError(Exception):
    """Base class for all package errors."""


class DomainError(SymtreeError):
    """A basis function was evaluated outside its domain (invalid input)."""


class ModelInvalidError(SymtreeError):
    """A tree model is structurally corrupt (e.g. routing hit an inactive node)."""


class ParseError(SymtreeError):
    """A serialized document is malformed or violates the schema."""


class DimensionError(SymtreeError):
    """Inconsistent array/vector sizes in a problem definition."""


class NumericalError(SymtreeError):
    """The LP solver stopped without an optimal, infeasible or unbounded verdict,
    or a leaf LP that must have an optimum had none."""


class ConfigError(SymtreeError):
    """Degenerate or inconsistent configuration values."""


class ConvergenceError(SymtreeError):
    """The NLP solver failed to meet its tolerances from every start."""


class IntegralityError(SymtreeError):
    """A value claimed to be binary is too far from {0, 1}."""


class StructureError(SymtreeError):
    """An external solution violates the tree-structure constraints."""


class ControllerError(SymtreeError):
    """A controller failed to produce a control for a state; carries state/time."""
