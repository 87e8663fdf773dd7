"""Exception hierarchy. Every rejected precondition has its own class so
callers (and tests) can match on the failure mode rather than parse messages."""


class HardySpectralError(Exception):
    """Base class for all errors raised by this package."""


def first_error(results):
    """The first typed error among a batch call's per-item results, or None."""
    return next((r for r in results if isinstance(r, HardySpectralError)), None)


def unraised(exc: HardySpectralError) -> HardySpectralError:
    """A copy of a typed error as before it was raised: the same class,
    message and attributes, with no traceback and no chained error. Kept
    in place of the error, it holds no frame, so run state that keeps it
    holds no cycle through the frames; raised in place of the error, it
    starts a traceback of its own."""
    copy = type(exc).__new__(type(exc), *exc.args)
    copy.__dict__.update(exc.__dict__)
    return copy


# -- graph validation ------------------------------------------------------

class GraphValidationError(HardySpectralError):
    pass


class Disconnected(GraphValidationError):
    def __init__(self, components):
        self.components = [sorted(c) for c in components]
        super().__init__(f"graph is disconnected: {len(self.components)} components")


class NonPositiveConductance(GraphValidationError):
    def __init__(self, edge):
        self.edge = edge
        super().__init__(f"edge {edge[0]}-{edge[1]} has conductance {edge[2]}; "
                         "conductances must be finite and > 0")


class NegativeMass(GraphValidationError):
    def __init__(self, vertex, mass):
        self.vertex = vertex
        super().__init__(f"vertex {vertex} has mass {mass}; masses must be finite and >= 0")


class TotalMassOverflow(GraphValidationError):
    def __init__(self):
        super().__init__("the masses sum past the largest double")


class SelfLoop(GraphValidationError):
    def __init__(self, vertex):
        self.vertex = vertex
        super().__init__(f"self-loop at vertex {vertex}")


class DuplicateEdge(GraphValidationError):
    def __init__(self, pair):
        self.pair = pair
        super().__init__(f"duplicate edge {pair[0]}-{pair[1]}")


# -- builders and surgeries ------------------------------------------------

class LengthMismatch(HardySpectralError):
    """A length that disagrees with the vertex count, or a vertex id of no vertex."""


class BadRange(HardySpectralError):
    """A vertex id that is no integer or is negative, or a builder's parameter out of range."""


class NoSuchEdge(HardySpectralError):
    def __init__(self, u, v):
        self.pair = (u, v)
        super().__init__(f"no edge {u}-{v}")


class FractionsInvalid(HardySpectralError):
    pass


class EmptySet(HardySpectralError):
    pass


class SignCondition(HardySpectralError):
    """The pinch potential must take both strictly positive and strictly
    negative values."""


class NonFinitePotential(HardySpectralError):
    def __init__(self, vertex, value):
        self.vertex = vertex
        super().__init__(f"potential is {value} at vertex {vertex}; potentials must be finite")


# -- linear algebra --------------------------------------------------------

class LinalgError(HardySpectralError):
    pass


class NotPositiveDefinite(LinalgError):
    def __init__(self):
        super().__init__("matrix is not positive definite")


class NoConvergence(LinalgError):
    """The eigensolver gave no usable answer."""


class DimensionMismatch(LinalgError):
    pass


class NotSymmetric(LinalgError):
    pass


# -- spectral problems -----------------------------------------------------

class ZeroMass(HardySpectralError):
    def __init__(self, vertex):
        self.vertex = vertex
        super().__init__(f"vertex {vertex} has zero mass where positive mass is required")


class BadBoundary(HardySpectralError):
    """A boundary that is empty or holds every vertex, or none where one is needed."""


class EmptyFixedSet(HardySpectralError):
    pass


class ZeroVector(HardySpectralError):
    pass


class BoundaryViolated(HardySpectralError):
    pass


# -- resistance ------------------------------------------------------------

class SetsOverlap(HardySpectralError):
    pass


# -- content enumeration ---------------------------------------------------

class TooLarge(HardySpectralError):
    def __init__(self, size, limit):
        self.size = size
        self.limit = limit
        super().__init__(f"instance size {size} exceeds enumeration guard {limit}")


class NotAPath(HardySpectralError):
    pass


class ZeroInteriorMass(HardySpectralError):
    pass


class NotRepresentable(HardySpectralError):
    """A value that leaves the doubles: a content value, energy,
    eigenvalue, Rayleigh quotient or reduced conductance that underflowed
    to 0 or overflowed, or a mass-whitened Laplacian that overflowed."""


class MixedSigns(HardySpectralError):
    pass


class BoundaryNotZero(HardySpectralError):
    pass


# -- run requests ----------------------------------------------------------

class BadRequest(HardySpectralError, ValueError):
    """A request refused before any work: a run `run_suite` refuses, a CLI
    argument or file the CLI cannot use, or a label `serialize_wgr` cannot
    write. Also a ValueError, so code catching ValueError still catches it."""


# -- file parsing ----------------------------------------------------------

class ParseError(HardySpectralError):
    def __init__(self, line, reason):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


class UnknownVertex(ParseError):
    def __init__(self, name, line):
        self.name = name
        ParseError.__init__(self, line, f"unknown vertex {name!r}")


class DuplicateVertex(ParseError):
    def __init__(self, name, line):
        self.name = name
        ParseError.__init__(self, line, f"vertex {name!r} declared twice")
