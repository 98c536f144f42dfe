"""Exception hierarchy shared across the toolkit."""


class KronredError(Exception):
    """Base class for all toolkit errors; exit_code is the CLI's exit status."""
    exit_code = 2


class NetworkValidationError(KronredError):
    """A network fails a structural requirement."""


class DisconnectedNetworkError(NetworkValidationError):
    def __init__(self, component_count, graph="network graph"):
        self.component_count = component_count
        super().__init__(f"{graph} is disconnected ({component_count} components)")


class NonpositiveInductanceError(NetworkValidationError):
    """An edge has l <= 0."""


class NegativeResistanceError(NetworkValidationError):
    """An edge has r < 0."""


class EmptyBoundaryError(NetworkValidationError):
    """The boundary node set is empty."""


class UnknownNodeRefError(NetworkValidationError):
    """An edge references a node that is not in the node list."""


class RankDeficientInputError(KronredError):
    """Constraint matrix has fewer independent rows than expected."""


class SingularBlockError(KronredError):
    def __init__(self, condition_estimate):
        self.condition_estimate = condition_estimate
        super().__init__(
            f"matrix block is singular to working precision "
            f"(condition estimate {condition_estimate:.3e})"
        )


class NotPositiveDefiniteError(KronredError):
    """Cholesky factorization failed on a matrix required to be SPD."""


class DimensionMismatchError(KronredError):
    """Operands have incompatible shapes."""


class InconsistentInitialConditionError(KronredError):
    """Initial edge flows violate the interior zero-injection constraint."""

    def __init__(self, residual):
        self.residual = residual
        super().__init__(
            f"initial flows violate interior current balance (residual {residual:.3e})"
        )


class ConstraintDriftError(KronredError):
    """Interior current balance drifted during integration."""


class LostPrecisionError(KronredError):
    """A reference loses, to rounding, what its own accuracy check must see."""


class NotHomogeneousError(KronredError):
    """Edge r/l ratios are not constant across the network."""
    exit_code = 3


class NegativeSynthesizedElementError(KronredError):
    """Frequency-domain synthesis produced an unphysical circuit element."""
    exit_code = 3


class InputFormatError(KronredError):
    """A JSON/CSV input file does not match the expected schema."""


class SolverConfigError(KronredError, ValueError):
    """A fixed-step solver setting is out of range or inconsistent."""


class InvalidFrequencyError(KronredError, ValueError):
    """A phasor or synthesis frequency is not positive and finite."""


class UnstableTimeStepError(KronredError):
    """The RK4 step is outside the stability region of the fastest mode."""

    def __init__(self, dt, rate):
        self.dt = dt
        self.rate = rate
        super().__init__(
            f"RK4 step dt={dt:.6g} s is unstable: dt * max decay rate = {rate:.6g} "
            f"exceeds the real-axis bound of about 2.785"
        )
