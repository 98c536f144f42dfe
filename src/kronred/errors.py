"""Exception hierarchy shared across the toolkit."""


class KronredError(Exception):
    """Base class for all toolkit errors."""


class NetworkValidationError(KronredError):
    """A network fails a structural requirement."""


class DisconnectedNetworkError(NetworkValidationError):
    def __init__(self, component_count):
        self.component_count = component_count
        super().__init__(f"network graph is disconnected ({component_count} components)")


class NonpositiveInductanceError(NetworkValidationError):
    def __init__(self, edge_id):
        self.edge_id = edge_id
        super().__init__(f"edge {edge_id!r} has non-positive inductance")


class NegativeResistanceError(NetworkValidationError):
    def __init__(self, edge_id):
        self.edge_id = edge_id
        super().__init__(f"edge {edge_id!r} has negative resistance")


class EmptyBoundaryError(NetworkValidationError):
    def __init__(self):
        super().__init__("boundary node set is empty")


class UnknownNodeRefError(NetworkValidationError):
    def __init__(self, edge_id, node_id):
        self.edge_id = edge_id
        self.node_id = node_id
        super().__init__(f"edge {edge_id!r} references unknown node {node_id!r}")


class RankDeficientInputError(KronredError):
    """Constraint matrix has fewer independent rows than expected."""


class SingularBlockError(KronredError):
    def __init__(self, condition_estimate):
        self.condition_estimate = condition_estimate
        super().__init__(
            f"matrix block is singular to working precision "
            f"(condition estimate {condition_estimate:.3e})"
        )


class InconsistentSystemError(KronredError):
    """Right-hand side is not in the range of the coefficient matrix."""

    def __init__(self, residual_norm):
        self.residual_norm = residual_norm
        super().__init__(f"right-hand side outside range (residual {residual_norm:.3e})")


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

    def __init__(self, t, norm):
        self.t = t
        self.norm = norm
        super().__init__(f"constraint drift {norm:.3e} at t={t:.6g} s")


class NotHomogeneousError(KronredError):
    """Edge r/l ratios are not constant across the network."""

    def __init__(self, max_deviation):
        self.max_deviation = max_deviation
        super().__init__(
            f"network is not homogeneous (max relative ratio deviation {max_deviation:.3e})"
        )


class NegativeSynthesizedElementError(KronredError):
    """Frequency-domain synthesis produced an unphysical circuit element."""

    def __init__(self, edge, r, l):
        self.edge = edge
        self.r = r
        self.l = l
        super().__init__(
            f"synthesized edge {edge!r} is unphysical (r={r:.6g} ohm, l={l:.6g} H)"
        )


class InsufficientWindowError(KronredError):
    """Trajectory is too short for the requested steady-state window."""


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
