"""Typed domain errors.

Every error surfaced to a user names the violated precondition; the CLI maps
the class name into its JSON error document.
"""


class RedstabError(Exception):
    """Base class for all domain errors raised by this package."""


class NotDistinctRoots(RedstabError):
    """A repeated root, or two roots within tolerance (float) or rounding to one float (exact)."""


class ComplexRoots(RedstabError):
    """A non-real root: an imaginary part above tolerance (float), a short Sturm count (exact)."""


class DegenerateInput(RedstabError):
    """Linearly dependent generators, or a pencil that degenerates."""


class InvalidAmbient(RedstabError):
    """Operation requested below its minimal ambient degree."""


class SepTooSmall(RedstabError):
    """Shift parameter m >= sep(f)."""


class SearchBudgetExceeded(RedstabError):
    """Doubling search exhausted its budget."""


class AmbientMismatch(RedstabError):
    """Vector / functional / form ambient degrees disagree."""


class NotInKernel(RedstabError):
    """Vector is not annihilated by the given charge."""


class InKernelOfLine(RedstabError):
    """Vector is annihilated by the whole pencil of charges."""


class AlphaSearchFailed(RedstabError):
    """The doubling search for the support-form weight failed; carries the witness."""


class SingularForm(RedstabError):
    """Quadratic form is degenerate where a nondegenerate one is required."""


class WrongSignature(RedstabError):
    """Quadratic form does not have the required inertia."""


class AssumptionViolated(RedstabError):
    """A stated hypothesis of the deformation construction fails."""


class IndexOutOfRange(RedstabError):
    """Chern component index outside 0..n."""


class InvalidParams(RedstabError):
    """Threefold slice parameters outside the validity region."""


class LatticeMismatch(RedstabError):
    """Vectors attached to different intersection lattices."""


class DependentCharacters(RedstabError):
    """Wall requested for linearly dependent characters."""


class SepViolation(RedstabError):
    """Restriction degree m is not strictly below the required separation."""

    def __init__(self, message, stage=None):
        super().__init__(message)
        self.stage = stage


class DecompositionFailed(RedstabError):
    """Internal consistency alarm: composed charge does not match its prediction."""
