"""Exception hierarchy shared by every module of the package."""


class ExactAlgebraError(Exception):
    """Base class for all errors raised by this package."""


class MixedFieldsError(ExactAlgebraError, TypeError):
    """Two operands belong to different fields."""


class DivisionByZeroError(ExactAlgebraError, ZeroDivisionError):
    """Division or inversion of a zero element / zero polynomial."""


class NonPrimeModulusError(ExactAlgebraError, ValueError):
    """Characteristic is composite or equal to 2."""


class ReducibleModulusError(ExactAlgebraError, ValueError):
    """Extension modulus factors over the base field."""


class FieldTooLargeError(ExactAlgebraError, ValueError):
    """Extension field descriptor of order 2^64 or more."""


class RationalFieldError(ExactAlgebraError, TypeError):
    """Finite-field operation requested over the rationals."""


class NotCoprimeError(ExactAlgebraError, ValueError):
    """Polynomials share a nontrivial common divisor."""


class NotSquareError(ExactAlgebraError, ValueError):
    """Square matrix required."""


class InconsistentSystemError(ExactAlgebraError, ValueError):
    """Linear system has no solution."""


class SingularMatrixError(ExactAlgebraError, ValueError):
    """Matrix is not invertible."""


class NotInvariantError(ExactAlgebraError, ValueError):
    """Subspace is not invariant under the operator."""


class IncompatibleFieldsError(ExactAlgebraError, TypeError):
    """Scalar extension or restriction between unrelated fields."""


class DimensionMismatchError(ExactAlgebraError, ValueError):
    """Vector or matrix dimensions do not match the ambient space."""


class NotLagrangianError(ExactAlgebraError, ValueError):
    """Subspace is not lagrangian."""


class NotComplementaryError(ExactAlgebraError, ValueError):
    """Subspaces do not span the ambient space in direct sum."""


class NotNilpotentError(ExactAlgebraError, ValueError):
    """Operator is not nilpotent on the given subspace."""


class NotSelfAdjointError(ExactAlgebraError, ValueError):
    """Operator fails the self-adjointness identity."""


class UnresolvedFactorError(ExactAlgebraError, ValueError):
    """Characteristic polynomial has an irreducible factor the base field
    cannot split and the pipeline cannot descend."""


class EigenvaluesNotInFieldError(ExactAlgebraError, ValueError):
    """Splitting path invoked with eigenvalues outside the base field."""


class NotFiniteFieldError(ExactAlgebraError, TypeError):
    """Descent path invoked over an infinite field."""


class InternalDescentFailureError(ExactAlgebraError, AssertionError):
    """Dimension bookkeeping broke during descent; indicates a bug."""


class UnsupportedFieldPathError(ExactAlgebraError, ValueError):
    """Rational input whose characteristic polynomial has a nonlinear
    irreducible factor; out of scope by design."""


class InvalidCertificateError(ExactAlgebraError, ValueError):
    """Certificate fails verification."""


class InstanceParseError(ExactAlgebraError, ValueError):
    """Instance or certificate file cannot be parsed."""


class BadSpecError(InstanceParseError):
    """Malformed block specification for instance generation."""
