"""Exception types shared across the package."""


class OccaKitError(Exception):
    """Base class for every error raised by occakit."""


class ContractViolation(OccaKitError, ValueError):
    """An input failed a documented precondition."""


class SolverFailure(OccaKitError, RuntimeError):
    """An iterative solver gave up; ``iterations`` records how far it got."""

    def __init__(self, message, iterations=None):
        super().__init__(message)
        self.iterations = iterations


class UndefinedRatioError(ContractViolation):
    """tr(G^T D) vanished, so the coupling ratio xi(G) is undefined.

    Realign the iterate against D or perturb it before retrying.
    """


class ViewError(ContractViolation):
    """A view failed a precondition; ``view`` is its index where known
    (0-based, but 1-based in the rank errors of the two-view solvers)."""

    def __init__(self, message, view=None):
        super().__init__(message)
        self.view = view


class DegenerateViewError(ViewError):
    """A view has zero variance where positive variance is required."""


class RankDeficiencyError(ViewError):
    """A matrix has lower numerical rank than the operation needs."""


class IsolatedViewError(ViewError):
    """Every pair weight attached to a view is zero, so its subproblem has D = 0."""


class ParseError(OccaKitError, ValueError):
    """A data file failed to parse; carries the offending location."""

    def __init__(self, message, path=None, line=None, column=None):
        loc = str(path) if path is not None else "<input>"
        if line is not None:
            loc += f":{line}"
            if column is not None:
                loc += f":{column}"
        super().__init__(f"{loc}: {message}")
        self.path = path
        self.line = line
        self.column = column
