"""DFA algebra, minimal distinguishing-automaton synthesis, and a
CNF-to-DFA-pair pipeline with an end-to-end satisfiability check."""

from .automata import (
    Alphabet,
    AlphabetError,
    AutomataError,
    Dfa,
    DfaParseError,
    Word,
    is_equivalent,
    is_subset,
    parse_dfa,
    serialize_dfa,
)
from .distinguish import (
    Orientation,
    SynthOutcome,
    is_distinguishing,
    shortest_distinguishing_word,
    synth_min_distinguishing,
)
from .reduction import (
    Assignment,
    CnfFormula,
    FormulaError,
    LemmaReport,
    REDUCTION_ALPHABET,
    assignment_word,
    build_lower_dfa,
    build_upper_dfa,
    verify_lemma,
    witness_dfa,
)
from .satsolve import CnfInstance, DimacsParseError, Model, evaluate, parse_dimacs, solve

__all__ = [
    "Alphabet",
    "AlphabetError",
    "Assignment",
    "AutomataError",
    "CnfFormula",
    "CnfInstance",
    "Dfa",
    "DfaParseError",
    "DimacsParseError",
    "FormulaError",
    "LemmaReport",
    "Model",
    "Orientation",
    "REDUCTION_ALPHABET",
    "SynthOutcome",
    "Word",
    "assignment_word",
    "build_lower_dfa",
    "build_upper_dfa",
    "evaluate",
    "is_distinguishing",
    "is_equivalent",
    "is_subset",
    "parse_dfa",
    "parse_dimacs",
    "serialize_dfa",
    "shortest_distinguishing_word",
    "solve",
    "synth_min_distinguishing",
    "verify_lemma",
    "witness_dfa",
]

__version__ = "0.1.0"
