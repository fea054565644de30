"""Exception types shared across the package.

Two families matter for the command line tool: bad user input maps to exit
code 2 (these inherit :class:`ValueError` as well), numerical failures map
to exit code 3.
"""


class CapriseError(Exception):
    """Base class for all package-specific errors."""


class NonWettingAngle(CapriseError, ValueError):
    """Contact angle has cos(theta) <= 0; wetting-driven quantity undefined."""


class ArcExceedsDomain(CapriseError, ValueError):
    """Initial interface (meniscus arc or flat level) reaches the top of
    the 2D grid."""


class NoOverlap(CapriseError, ValueError):
    """Two trajectories share no common time interval."""


class SingularHeight(CapriseError):
    """Effective liquid column length hit zero; the ODE right side blew up."""


class StepSizeUnderflow(CapriseError):
    """Adaptive integrator could not meet the tolerance with a finite step."""


class WorkBoundExceeded(CapriseError):
    """Adaptive integrator spent more right-hand-side evaluations than its
    bound before reaching the horizon."""


class CourantViolation(CapriseError):
    """Advection CFL number exceeded 1 despite the time step controller."""


class SolverDiverged(CapriseError):
    """Pressure solve failed its residual contract or produced non-finite values."""


class StencilInvalid(CapriseError):
    """Height-function stencil could not bracket the interface in a column."""


class MultiValuedColumn(CapriseError):
    """A grid column holds more than one interface segment; the height
    function is not single-valued there."""
