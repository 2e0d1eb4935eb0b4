"""morphlab: word morphisms, interference-freeness, recognizability and
repeat structure of classic words."""

from .errors import (
    AlphabetMismatchError,
    BudgetExceededError,
    MorphlabError,
    NonInjectiveMorphismError,
)
from .words import (
    BINARY,
    Alphabet,
    OccurrenceSet,
    Word,
    flip,
    longest_proper_prefix,
    occ_count,
    occurrences,
    word,
)
from .morphisms import Morphism
from .interference import (
    InterferenceDecision,
    InterferenceWitness,
    interference_free_on_every_word,
    is_inner_image_factor,
    is_interference_free_on,
)
from .enumeration import (
    CircularFactorization,
    RecognizabilityDecision,
    brute_force_is_interference_free,
    count_circular_factorizations,
    count_image_factorizations,
    enumerate_circular_factorizations,
    enumerate_image_factorizations,
    enumerate_interfered_factorizations,
    is_recognizable_on,
)
from .classic import (
    FIBONACCI,
    NAMED_MORPHISMS,
    THUE_MORSE,
    extensions,
    fibonacci_G,
    fibonacci_alpha,
    fibonacci_delta,
    fibonacci_number,
    fibonacci_word,
    thue_morse_word,
)
from .repeats import (
    MusOccurrence,
    NetOccurrence,
    PreservationReport,
    compute_mus,
    compute_net_occurrences,
    mus_to_net,
    naive_mus,
    naive_net_occurrences,
    structural_checks,
    verify_fibonacci_mus,
    verify_net_closed_forms,
    verify_occ_lemmas,
    verify_occurrence_preservation,
    verify_tm_mus,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
