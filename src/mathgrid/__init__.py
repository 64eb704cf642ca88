"""Cross-math puzzles: generation, solving, rendering, and model evaluation.

The pipeline runs grid-first: a solved crossword-style layout of arithmetic
equations is built, operand cells are blanked into targets whose values are
recoverable by iterative deduction, and the resulting puzzle is serialized
into information-equivalent markdown and SVG forms. The harness sends those
to a chat-completion endpoint and scores the answers.
"""

from .core import Difficulty
from .generator import GenParams, generate
from .solver import brute_force_oracle, deduce, verify_solution

__all__ = [
    "Difficulty",
    "GenParams",
    "generate",
    "brute_force_oracle",
    "deduce",
    "verify_solution",
]
