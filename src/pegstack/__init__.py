"""pegstack: a PEG parsing engine with a value stack.

Rule trees execute with prioritized-choice backtracking; semantic actions
accumulate results on an untyped value stack; a stack-effect algebra checks
grammars statically; failed parses report a principal error position with
rule traces. Grammars load either through the library API
(``pegstack.rules``) or from the textual notation (``pegstack.notation``);
the ``pegstack`` CLI wraps both.
"""

from .effects import (BranchEffectMismatch, EffectCheckError, EffectError, EffectMismatch,
                      StackEffect, StartRulePops, UndeclaredRecursiveRule,
                      UnsupportedRepetitionEffect, WILDCARD, check_grammar, choice_compose,
                      cons, infer_effect, repetition_effect, seq_compose)
from .engine import (ACTION_FAIL, EngineFault, InternalFault, ParseFailed, Parser,
                     ParserState, RunResult, Trace, format_trace_event)
from .errors import ParseError, Position, RuleTrace, TerminalDescriptor, format_error, position_of
from .notation import (GrammarSource, NotationError, load_grammar, parse_grammar,
                       pretty_grammar)
from .rules import (ALPHA, ANY, DIGIT, EOI, LOWER_HEX_LETTER, CharPredicate, Grammar,
                    GrammarError, GrammarIssue, GrammarTooDeep, RuleDef, RuleExpr, expr_text,
                    grammar, validate_grammar)
from .values import (Node, StackUnderflow, UNIT, Value, ValueStack, list_value,
                     node_value, render_value, str_value)

__version__ = "0.1.0"
