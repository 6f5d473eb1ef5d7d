"""Exception types shared across the package."""


class KnotforgeError(Exception):
    """Base class for all errors raised by this package."""


class ZeroPolynomial(KnotforgeError):
    """An operation that needs a nonzero polynomial received the zero polynomial."""


class NotInImage(KnotforgeError):
    """The sine-basis polynomial is not in the image of the divided-difference map."""


class SingularSystem(KnotforgeError):
    """An exact linear solve hit a singular matrix."""


class InternalInconsistency(KnotforgeError):
    """A structural self-check failed; indicates a bug, not bad input."""


class EpsilonExhausted(KnotforgeError):
    """Node scaling was halved down to the retry limit without certification."""


class CertificationFailed(KnotforgeError):
    """A curve failed a stage of its crossing certificate.

    `stage` names the stage (one of `knots.CERTIFY_STAGES`); `report` is
    the crossing report of the stages before it, once the crossings are
    located, and None before that.
    """

    def __init__(self, message: str, stage: str, report=None):
        super().__init__(message)
        self.stage = stage
        self.report = report
