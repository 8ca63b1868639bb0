"""Exception types shared across the package."""


class ValidationError(ValueError):
    """An input violates a documented precondition."""


class DegenerateSnr(ValidationError):
    """A transmit SNR that channel.check_rho, check_rhos or rhos_from_db
    rejects, where the exponent parametrization collapses."""


class NotInterferenceLimited(ValidationError):
    """A link's received power ratio rho*|h|^2 is not above 1.

    Carries the (receiver, transmitter) location when raised during
    scenario validation.
    """

    def __init__(self, message: str, j: int | None = None, i: int | None = None):
        super().__init__(message)
        self.j = j
        self.i = i


class CaseMismatch(ValidationError):
    """A case-specific bound was evaluated outside its case condition."""


class NotApplicable(ValidationError):
    """The requested check does not apply to this parameter branch."""


class InvalidBeta(ValidationError):
    """Sweep family parameter beta outside [0.5, 1)."""


class SamplerExhausted(ValidationError):
    """Rejection sampling acceptance fell below 0.1%: the draws barely meet the regime."""


class UnsupportedFormat(ValidationError):
    """Unknown serialization format."""
