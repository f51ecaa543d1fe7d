"""Exception types shared across the package."""


class OccaKitError(Exception):
    """Base class for every error raised by occakit."""


class ContractViolation(OccaKitError, ValueError):
    """An input failed a documented precondition."""


class SolverFailure(OccaKitError, RuntimeError):
    """A LAPACK driver (numpy's ``dsyevd`` or ``dgesdd`` gufunc) failed."""


class UndefinedRatioError(ContractViolation):
    """tr(G^T D) vanished, so the coupling ratio xi(G) is undefined.

    Raised where xi is read at such a G (``grad_eta``, ``build_E``,
    ``kkt_residual``) and for D = 0.  The solvers never raise it for a
    nonzero D: they move such a G deterministically to tr(G^T D) > 0
    (``scf._settled``).
    """


class ViewError(ContractViolation):
    """A view failed a precondition; ``view`` is its 0-based position in
    the list of views the caller passed, where known."""

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
