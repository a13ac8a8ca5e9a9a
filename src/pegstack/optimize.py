"""Rule-tree rewrite passes; none are registered, so ``optimize`` only validates.

The engine runs the validated grammar as written. The module is kept
because the benchmark reads ``optimize``, ``PASSES``, ``DEFAULT_PASSES``
and ``RewritePass``. A pass registered here must leave every run's values,
final cursor and reported error unchanged; acceptance criterion 7 checks it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .rules import Grammar, validate_grammar


@dataclass(frozen=True, slots=True)
class RewritePass:
    name: str
    transform: Callable[[Grammar], Grammar]


PASSES: dict[str, RewritePass] = {}
DEFAULT_PASSES: tuple[str, ...] = ()


def optimize(g: Grammar, passes: tuple[str, ...] | list[str] = DEFAULT_PASSES) -> Grammar:
    """Apply the named passes in order and re-validate the result."""
    out = g
    for name in passes:
        out = PASSES[name].transform(out)
    return validate_grammar(out)
