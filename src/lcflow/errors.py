"""Exception hierarchy shared across the solver."""


class LcflowError(Exception):
    """Base class for solver-specific failures."""


class StructuralError(ValueError, LcflowError):
    """Shapes, symmetry, or typing of the problem data do not conform."""


class SchemaError(ValueError, LcflowError):
    """A JSON document does not match the expected schema."""


class ValidationFailure(LcflowError):
    """A convexity or boundedness audit failed."""


class BlowupError(LcflowError):
    """A simulated quantity left the finite range."""

    def __init__(self, message, path=None, step=None):
        super().__init__(message)
        self.path = path
        self.step = step


class ConditioningError(LcflowError):
    """A regression's normal equations were unusable even after ridge."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class ConvergenceError(LcflowError):
    """An iteration hit its cap before reaching tolerance."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = history or []


class RegularityError(LcflowError):
    """The curvature floor required by a Newton solve was violated."""

