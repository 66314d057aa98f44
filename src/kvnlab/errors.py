"""Exception types shared across the package."""


class KvnLabError(Exception):
    """Base class for all kvnlab errors."""


class NonTerminatingSeries(KvnLabError):
    """Adjoint series did not terminate within the requested bound."""


class IllegalHamiltonian(KvnLabError):
    """Hamiltonian contains generators it must not (conjugate momenta, Planck operator)."""


class UnsupportedHamiltonian(KvnLabError):
    """Hamiltonian outside the quadratic family the propagators handle exactly."""


class UnresolvableWidth(KvnLabError):
    """Requested Gaussian width is below the grid resolution."""


class OutOfBounds(KvnLabError):
    """Requested phase-space location violates the grid margin."""


class ZeroMassSlice(KvnLabError):
    """Conditioning on a slice that carries (numerically) no probability."""


class NonHermitianObservable(KvnLabError):
    """Observable mixes a coordinate with its own conjugate; no diagonal representation."""


class UnsupportedObservable(KvnLabError):
    """Observable has a monomial of total degree above 2."""


class UnstablePlan(KvnLabError):
    """Propagation pushed significant probability into the grid boundary."""


class ShiftOverflow(KvnLabError):
    """A coupling shift exceeds what the grid extent can represent."""


class ConfigError(KvnLabError):
    """Invalid experiment configuration; message names the offending field path."""


class ScenarioError(KvnLabError):
    """A scenario failed while running; wraps the underlying module error."""


class MissingArtifact(KvnLabError):
    """A requested output file is not present in the run manifest."""
