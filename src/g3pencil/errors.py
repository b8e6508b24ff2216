"""Exception types raised across the package.

Every error deliberately raised by this package derives from
:class:`G3PencilError`, so callers (and the CLI) can catch one base class
and map the concrete class name to a machine-readable category.
"""


class G3PencilError(Exception):
    """Base class for all errors raised by g3pencil."""


class NonIsotropicInput(G3PencilError):
    """An operation restricted to isotropic vectors received one with x != 0."""


class ZeroVector(G3PencilError):
    """Normalization of a vector whose norm is numerically zero."""


class EmptyDomain(G3PencilError):
    """Guard bands and expression domain gaps cover the whole s range."""

    def __init__(self, s_min: float, s_max: float):
        super().__init__(f"no usable s interval in [{s_min:g}, {s_max:g}]")
        self.s_min = s_min
        self.s_max = s_max


class GridTooCoarse(G3PencilError):
    """A surface grid has fewer rows than two per usable s interval."""


class StepUnderflow(G3PencilError):
    """A finite-difference step is zero: the extent in one direction is too small."""

    def __init__(self, direction: str, extent: float):
        super().__init__(f"fd step in {direction} underflows to 0 on an extent of {extent:g}")
        self.direction = direction
        self.extent = extent


class ParseError(G3PencilError):
    """Expression text could not be parsed.

    Carries the byte offset of the failure and a description of what was
    expected there.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class DomainError(G3PencilError):
    """Expression evaluation left the domain of one of its sub-expressions."""


class CurvatureVanishes(G3PencilError):
    """The curvature dropped below the configured floor at parameter s."""

    def __init__(self, s: float, kappa: float):
        super().__init__(f"curvature {kappa:g} below floor at s = {s:g}")
        self.s = s
        self.kappa = kappa


class TorsionVanishes(G3PencilError):
    """The torsion dropped below the configured floor at parameter s.

    A torsion that is not finite (NaN or infinite) is refused the same way:
    the frame and the Darboux axis are undefined there too.
    """

    def __init__(self, s: float, tau: float):
        # tau - tau is 0.0 exactly when tau is finite
        reason = "below floor" if tau - tau == 0.0 else "is not finite"
        super().__init__(f"torsion {tau:g} {reason} at s = {s:g}")
        self.s = s
        self.tau = tau


class InfeasibleLambda(G3PencilError):
    """The requested invariant value is unreachable at parameter s.

    Raised when the radicand of the binormal component turns negative,
    i.e. the feasibility bound on lambda is violated.
    """

    def __init__(self, s: float, ratio: float):
        super().__init__(
            f"invariant infeasible at s = {s:g}: |ratio| = {abs(ratio):g} exceeds 1"
        )
        self.s = s
        self.ratio = ratio


def _vanishes(value: float) -> str:
    # value - value is 0.0 exactly when value is finite
    return "vanishes" if value - value == 0.0 else f"= {value:g} is not finite"


class SigmaVanishes(G3PencilError):
    """The scale function sigma(s) is numerically zero, or not finite, at s."""

    def __init__(self, s: float, sigma: float):
        super().__init__(f"sigma(s) {_vanishes(sigma)} at s = {s:g}")
        self.s = s
        self.sigma = sigma


class ZeroMarchingFactor(G3PencilError):
    """A product-form factor is not finite at s, or a divisor m or n vanishes there."""

    def __init__(self, factor: str, s: float, value: float):
        super().__init__(f"marching factor {factor}(s) {_vanishes(value)} at s = {s:g}")
        self.factor = factor
        self.s = s
        self.value = value


class SchemaError(G3PencilError):
    """A configuration document violates the published schema.

    ``path`` locates the offending entry inside the document, for example
    ``marching_scale.synthesis.lambda``.
    """

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
