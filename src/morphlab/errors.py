"""Exception types shared across the package."""


class MorphlabError(Exception):
    """Base class for all package-specific errors."""


class AlphabetMismatchError(MorphlabError, ValueError):
    """Two words (or a word and a morphism) disagree on their alphabet."""


class NonInjectiveMorphismError(MorphlabError, ValueError):
    """An operation that requires an injective morphism was given one that
    is not.  Carries the canonical witness pair when available."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class BudgetExceededError(MorphlabError, RuntimeError):
    """A computation outgrew its budget: a brute-force enumeration, the
    proper image affix sets of a morphism with long images, an iterated
    image, or an ``@file`` argument of the CLI."""
