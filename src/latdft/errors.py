"""Exception types shared across the package."""


class LatdftError(Exception):
    """Base class for all package-specific errors."""


class RankError(LatdftError):
    """Matrix is singular or not square where a full-rank square matrix is required."""


class MembershipError(LatdftError):
    """Vector is not a member of the lattice (or finite lattice group) in question."""


class StructureError(LatdftError):
    """Matrix does not have the required systematic-normal-form shape."""


class ConditionError(LatdftError):
    """The invertibility condition gcd(sum(b_j^2) + 1, N) = 1 fails.

    Carries the offending gcd in ``.gcd``.
    """

    def __init__(self, message: str, gcd: int):
        super().__init__(message)
        self.gcd = gcd


class ModulusMismatchError(LatdftError):
    """Operands were built over different moduli."""


class SizeGuardError(LatdftError):
    """A desk-scale size guard was exceeded."""


class ParameterError(LatdftError):
    """A numeric parameter is outside its documented range."""


class SearchExhaustedError(LatdftError):
    """An integer search (scale doubling or coprime offset scan) hit its cap."""


class UncomputeError(LatdftError):
    """Statevector carries amplitude on a state inconsistent with the uncompute rule."""


class ZeroMassError(LatdftError):
    """A function declared with zero total squared mass."""
