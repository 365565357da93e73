"""Error taxonomy.

Every failure mode the library reports deliberately carries a stable
machine-readable ``code`` so the CLI and the verification reports can name
the condition without parsing prose.  The codes are part of the public
interface; the class names are implementation detail.
"""

from __future__ import annotations


class WreduceError(Exception):
    """Base class; ``code`` is the stable machine name of the condition."""

    code = "INTERNAL_ERROR"

    def __init__(self, message: str = ""):
        super().__init__(message or self.code)
        self.message = message or self.code


class InadmissibleIndex(WreduceError):
    """An input index tuple denotes a divergent or malformed series."""

    code = "INADMISSIBLE_INDEX"


class InadmissibleOutput(WreduceError):
    """A reduction produced a term outside the admissible terminal basis."""

    code = "INADMISSIBLE_OUTPUT"


class ConvergenceUnverified(WreduceError):
    """The evaluator cannot certify convergence for the requested sum."""

    code = "CONVERGENCE_UNVERIFIED"


class ToleranceUnreachable(WreduceError):
    """The certified radius cannot be brought below the requested tolerance
    within the fixed cutoff cap ``series.MAX_TERMS`` (or the tolerance is
    below the arithmetic floor)."""

    code = "TOLERANCE_UNREACHABLE"


class UnsupportedParams(WreduceError):
    """Structurally valid input that this implementation does not handle."""

    code = "UNSUPPORTED_PARAMS"


class InternalNoncancellation(WreduceError):
    """A transformation whose divergent bookkeeping terms must cancel
    exactly left a nonzero residue; indicates a defect, never user error."""

    code = "INTERNAL_NONCANCELLATION"
