"""Exception types shared across the package, and the memory guard that
raises one of them before an oversize allocation."""

import os


class GeomstatesError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(GeomstatesError, ValueError):
    """Unsupported or inconsistent dimension (n < 2, mismatched lengths)."""


class NonHermitianError(GeomstatesError, ValueError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class BasisMismatchError(GeomstatesError, ValueError):
    """Operands were built over different observable bases."""


class NotAStateError(GeomstatesError, ValueError):
    """A matrix or coordinate vector does not describe a density state."""


class DegeneratePointError(GeomstatesError, ValueError):
    """The requested pointwise construction degenerates (e.g. at x = 0,
    where no Hamiltonian directions exist)."""


class DegreeOverflowError(GeomstatesError, ArithmeticError):
    """A polynomial operation left the degree-2 coefficient space: cubic or
    quartic terms failed to cancel within tolerance."""


class InvariantViolationError(GeomstatesError, ValueError):
    """An input violates a structural precondition (non-traceless H,
    non-affine generator where an affine one is required, ...)."""


class IntegrationDivergedError(GeomstatesError, RuntimeError):
    """A trajectory left the state body beyond the positivity slack."""

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


class LimitExistsError(GeomstatesError, ValueError):
    """Limit-set analysis was requested for a flow whose tensor families
    converge; the contracted algebra should be used instead."""


class ContractionMismatchError(GeomstatesError, RuntimeError):
    """Two evolutions expected to define the same contraction produced
    different product tables."""


def _check_memory(nbytes, what):
    """Raise :class:`InvariantViolationError` before allocating ``nbytes``
    that exceed physical memory or a finite address-space limit of this
    process; POSIX only."""
    if os.name != "posix":
        return
    import resource

    avail = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    if soft != resource.RLIM_INFINITY:
        avail = min(avail, soft)
    if nbytes > avail:
        raise InvariantViolationError(
            f"{what} needs {nbytes / 2**30:.2f} GiB of working memory; "
            f"only {avail / 2**30:.2f} GiB are available"
        )
