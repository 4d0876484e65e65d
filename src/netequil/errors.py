"""Exception types shared across the package."""

__all__ = [
    "ConfigurationError",
    "NumericalFailure",
    "InfeasibilityError",
    "ProblemFormatError",
    "ProblemFormatWarning",
]


class ConfigurationError(ValueError):
    """Invalid operator parameters, step sizes, or scheduler settings."""


class NumericalFailure(RuntimeError):
    """A non-finite value appeared during iteration."""

    def __init__(self, message, iteration=None):
        if iteration is not None:
            message = f"{message} (iteration {iteration})"
        super().__init__(message)
        self.iteration = iteration


class InfeasibilityError(ValueError):
    """The origin cannot reach the destination in the given network."""


class ProblemFormatError(ValueError):
    """Problem or solution file diagnostic with a stable code and location.

    Attributes
    ----------
    code : str
        Machine-readable diagnostic code, e.g. ``"param-range"``.
    section : str or None
        File section in which the defect was found.
    entity : str or None
        Offending entity identifier (arc id, node id, key), if any.
    line : int or None
        1-based line number in the source text.
    """

    def __init__(self, code, message, section=None, entity=None, line=None):
        self.code = code
        self.section = section
        self.entity = entity
        self.line = line
        where = []
        if section is not None:
            where.append(f"section [{section}]")
        if entity is not None:
            where.append(f"entity {entity!r}")
        if line is not None:
            where.append(f"line {line}")
        loc = ", ".join(where)
        full = f"[{code}] {message}" + (f" ({loc})" if loc else "")
        super().__init__(full)


class ProblemFormatWarning(UserWarning):
    """Non-fatal problem-file issue, e.g. a defaulted constraint set."""
