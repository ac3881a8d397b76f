"""Exception and warning types shared across the package."""


class HelibendError(Exception):
    """Base class for all analysis errors raised by this package.

    ``.section`` is the position of the failing section when a stage over
    several sections raised the error, else None: the section's ``index``
    in the report, which the CLI prints as ``section k: `` before the
    message. A stacked kernel raises at the first check any section fails,
    and a failing stack is run again one section at a time, so the error is
    the earliest failing section's own.
    """

    section: int | None = None


class TooFewPoints(HelibendError):
    pass


class TooFewSections(HelibendError):
    pass


class DegenerateSection(HelibendError):
    """Section centroid lies on the product axis; azimuth undefined."""


class DegenerateConfiguration(HelibendError):
    """Design matrix is rank deficient; the fit is not determined."""


class NotAnEllipse(HelibendError):
    """Best-fit conic is hyperbolic, parabolic or imaginary.

    Carries the offending conic in ``.conic`` for diagnostics.
    """

    def __init__(self, message, conic=None):
        super().__init__(message)
        self.conic = conic


class CollapsedAxis(HelibendError):
    """A semi-axis was driven below the representable minimum during iteration."""


class IsotropicScatter(HelibendError):
    """2D scatter has equal principal variances; line direction undefined."""


class LengthMismatch(HelibendError):
    pass


class EmptyCloud(HelibendError):
    pass


class UnderfilledSection(HelibendError):
    """A segmentation bin received fewer points than a conic fit needs."""


class SectionCountMismatch(HelibendError):
    """The stated section count contradicts the labels in the input."""


class NonMonotonicAzimuth(HelibendError):
    """Section azimuths reverse direction; the part would be back-bent."""


class InvalidSpec(HelibendError):
    """Synthetic part specification violates an invariant.

    ``.field`` names the offending field.
    """

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class InvalidSweep(HelibendError):
    pass


class InputFormatError(HelibendError):
    """Input file could not be parsed. ``.line_number`` locates the problem;
    when it is given, the message starts with ``line {line_number}: ``."""

    def __init__(self, message, line_number=None):
        super().__init__(message if line_number is None else f"line {line_number}: {message}")
        self.line_number = line_number


class AmbiguousBranch(UserWarning):
    """Two rectification branches were equidistant; resolved toward zero."""
