"""Textual grammar notation, parsed by the engine itself.

One definition per rule::

    Name (":" "(" pops "->" pushes ")")? "<-" choice

    choice   := seq ("/" seq)*
    seq      := prefixed+
    prefixed := ("&" | "!")? suffixed
    suffixed := primary ("?" | "*" | "+")?
    primary  := "(" choice ")" | "'c'" | '"text"' | ^"text" (ignore case)
              | "[" class "]" | "." | "EOI" | "quiet(" choice ")"
              | "capture(" choice ")" | "push(" "text" ")"
              | "drop" ("[" n "]")? | Name | "~>" "cons(" Label "," n ")"

Line comments start with ``#``. Effect declarations are arity pairs and are
mandatory for rules in reference cycles; the notation profile checks shape
and arity only (every declared slot is the wildcard tag), while the library
API retains full tags. ``cons(Label,n)`` pops n values deepest-first and
pushes the node Label(v1..vn). The names EOI and drop are reserved.

The notation's own grammar below is built with the library API and executed
by the same engine, so grammar files get the standard error messages.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import count

from . import rules as r
from .effects import StackEffect, WILDCARD, check_grammar, cons
from .engine import Parser
from .errors import ParseError, format_error
from .record import record
from .rules import (ALPHA, DIGIT, LOWER_HEX_LETTER, CharPredicate, Grammar, GrammarError,
                    GrammarIssue, RuleDef, expr_text, validate_grammar)
from .values import Value


@record
class GrammarSource:
    text: str
    name: str = "<grammar>"


class NotationError(Exception):
    """A grammar file failed to parse; message is fully formatted."""

    def __init__(self, source_name: str, message: str, error: ParseError | None = None):
        self.source_name = source_name
        self.error = error
        super().__init__(f"{source_name}: {message}")


# ---------------------------------------------------------------------------
# value constructors used by the meta-grammar's actions

_EXPR = "Expr"
_PRED_CLASSES = {"0-9": DIGIT, "a-f": LOWER_HEX_LETTER, "A-Za-z": ALPHA, "a-zA-Z": ALPHA}


def _class_pred(src: str) -> CharPredicate:
    known = _PRED_CLASSES.get(src)
    if known is not None:
        return known
    mask = 0
    above: set[str] = set()
    i = 0
    while i < len(src):
        if i + 2 < len(src) and src[i + 1] == "-":
            for o in range(ord(src[i]), ord(src[i + 2]) + 1):
                if o < 128:
                    mask |= 1 << o
                else:
                    above.add(chr(o))
            i += 3
        else:
            o = ord(src[i])
            if o < 128:
                mask |= 1 << o
            else:
                above.add(src[i])
            i += 1
    extra = frozenset(above).__contains__ if above else None
    return CharPredicate(mask, extra, f"[{src}]")


def _expr(node: r.RuleExpr) -> Value:
    return Value(_EXPR, node)


def _act(fn, pops: tuple[str, ...], push: str, name: str) -> r.Action:
    return r.Action(len(pops), fn, StackEffect(pops, (push,)), name=name)


def _make_ch(text):
    return _expr(r.Ch(text.payload))


def _make_str(text):
    return _expr(r.Str(text.payload))


def _make_icase(text):
    return _expr(r.ignore_case(text.payload))


def _make_class(text):
    return _expr(r.CharPred(_class_pred(text.payload)))


def _wrap_quiet(e):
    return _expr(r.Quiet(e.payload))


def _wrap_capture(e):
    return _expr(r.Capture(e.payload))


def _make_push(text):
    return _expr(r.Push(Value("Str", text.payload)))


def _make_drop(counts):
    items = counts.payload
    return _expr(r.Drop(int(items[0].payload) if items else 1))


def _make_cons(label, count):
    return _expr(cons(label.payload, int(count.payload)))


def _make_ref(name):
    return _expr(r.RuleRef(name.payload))


def _fold_alt(lhs, rhs):
    left = lhs.payload
    alts = left.alternatives + (rhs.payload,) if type(left) is r.FirstOf else (left, rhs.payload)
    return _expr(r.FirstOf(alts))


def _build_seq(items):
    return _expr(r.seq(*(v.payload for v in items.payload)))


def _apply_prefix(ops, expr):
    e = expr.payload
    for op in ops.payload:  # zero or one marker
        e = r.AndPredicate(e) if op.payload == "&" else r.NotPredicate(e)
    return _expr(e)


def _apply_suffix(expr, ops):
    e = expr.payload
    for op in ops.payload:
        e = {"?": r.Optional, "*": r.ZeroOrMore, "+": r.OneOrMore}[op.payload](e)
    return _expr(e)


def _make_eff(pops, pushes):
    return Value("Eff", (int(pops.payload), int(pushes.payload)))


def _make_def(name, effs, expr):
    decl = effs.payload[0].payload if effs.payload else None
    return Value("Def", (name.payload, decl, expr.payload))


# ---------------------------------------------------------------------------
# the meta-grammar

# named, so that a syntax error where a rule name is expected says so
_IDENT_START = CharPredicate(ALPHA.mask | 1 << ord("_"), name="[A-Za-z_]")
_IDENT_CONT = CharPredicate(_IDENT_START.mask | DIGIT.mask, name="[A-Za-z_0-9]")


@lru_cache(maxsize=1)
def meta_grammar() -> Grammar:
    """The notation's grammar as an ordinary rule tree (dogfooded)."""
    sp = r.ref("Spacing")
    choice = r.ref("Choice")
    ident = r.ref("Identifier")
    number = r.ref("Number")
    ident_char = r.CharPred(_IDENT_CONT)

    effect_decl_opt = r.opt(r.ref("EffectDecl"))

    rules: dict[str, tuple] = {
        "Grammar": (r.seq(sp, r.one_or_more(r.ref("Definition")), r.EOI),
                    StackEffect((), ("ListOf(Def)",))),
        "Definition": (r.seq(
            ident, effect_decl_opt, r.lit("<-"), sp, choice,
            _act(_make_def, ("Str", "ListOf(Eff)", _EXPR), "Def", "make_def"),
        ), StackEffect((), ("Def",))),
        "EffectDecl": (r.seq(
            r.ch(":"), sp, r.ch("("), sp, number, r.lit("->"), sp, number,
            r.ch(")"), sp, _act(_make_eff, ("Str", "Str"), "Eff", "make_eff"),
        ), StackEffect((), ("Eff",))),
        "Choice": (r.seq(
            r.ref("Sequence"),
            r.zero_or_more(r.seq(r.ch("/"), sp, r.ref("Sequence"),
                                 _act(_fold_alt, (_EXPR, _EXPR), _EXPR, "fold_alt"))),
        ), StackEffect((), (_EXPR,))),
        "Sequence": (r.seq(
            r.one_or_more(r.ref("Prefixed")),
            _act(_build_seq, (f"ListOf({_EXPR})",), _EXPR, "build_seq"),
        ), StackEffect((), (_EXPR,))),
        "Prefixed": (r.seq(
            r.opt(r.ref("PrefixOp")), r.ref("Suffixed"),
            _act(_apply_prefix, ("ListOf(Str)", _EXPR), _EXPR, "apply_prefix"),
        ), StackEffect((), (_EXPR,))),
        "PrefixOp": (r.seq(r.capture(r.any_of("&!")), sp), StackEffect((), ("Str",))),
        "Suffixed": (r.seq(
            r.ref("Primary"), r.opt(r.ref("SuffixOp")),
            _act(_apply_suffix, (_EXPR, "ListOf(Str)"), _EXPR, "apply_suffix"),
        ), StackEffect((), (_EXPR,))),
        "SuffixOp": (r.seq(r.capture(r.any_of("?*+")), sp), StackEffect((), ("Str",))),
        "Primary": (r.first_of(
            r.ref("Group"), r.ref("CharLit"), r.ref("StrLit"), r.ref("IgnoreCaseLit"),
            r.ref("CharClass"), r.ref("Dot"), r.ref("EndKeyword"), r.ref("QuietExpr"),
            r.ref("CaptureExpr"), r.ref("PushExpr"), r.ref("DropExpr"),
            r.ref("ConsAction"), r.ref("Reference"),
        ), StackEffect((), (_EXPR,))),
        "Group": (r.seq(r.ch("("), sp, choice, r.ch(")"), sp),
                  StackEffect((), (_EXPR,))),
        "CharLit": (r.seq(
            r.ch("'"), r.capture(r.none_of("'\n")), r.ch("'"), sp,
            _act(_make_ch, ("Str",), _EXPR, "make_ch"),
        ), StackEffect((), (_EXPR,))),
        "StrLit": (r.seq(
            r.ch('"'), r.capture(r.zero_or_more(r.none_of('"\n'))), r.ch('"'), sp,
            _act(_make_str, ("Str",), _EXPR, "make_str"),
        ), StackEffect((), (_EXPR,))),
        "IgnoreCaseLit": (r.seq(
            r.ch("^"), r.ch('"'), r.capture(r.zero_or_more(r.none_of('"\n'))),
            r.ch('"'), sp, _act(_make_icase, ("Str",), _EXPR, "make_icase"),
        ), StackEffect((), (_EXPR,))),
        "CharClass": (r.seq(
            r.ch("["), r.capture(r.zero_or_more(r.none_of("]\n"))), r.ch("]"), sp,
            _act(_make_class, ("Str",), _EXPR, "make_class"),
        ), StackEffect((), (_EXPR,))),
        "Dot": (r.seq(r.ch("."), sp, r.push(Value(_EXPR, r.ANY))),
                StackEffect((), (_EXPR,))),
        "EndKeyword": (r.seq(r.lit("EOI"), r.not_pred(ident_char), sp,
                             r.push(Value(_EXPR, r.EOI))),
                       StackEffect((), (_EXPR,))),
        "QuietExpr": (r.seq(r.lit("quiet("), sp, choice, r.ch(")"), sp,
                            _act(_wrap_quiet, (_EXPR,), _EXPR, "wrap_quiet")),
                      StackEffect((), (_EXPR,))),
        "CaptureExpr": (r.seq(r.lit("capture("), sp, choice, r.ch(")"), sp,
                              _act(_wrap_capture, (_EXPR,), _EXPR, "wrap_capture")),
                        StackEffect((), (_EXPR,))),
        "PushExpr": (r.seq(
            r.lit("push("), sp, r.ch('"'), r.capture(r.zero_or_more(r.none_of('"\n'))),
            r.ch('"'), sp, r.ch(")"), sp, _act(_make_push, ("Str",), _EXPR, "make_push"),
        ), StackEffect((), (_EXPR,))),
        "DropExpr": (r.seq(
            r.lit("drop"), r.not_pred(ident_char),
            r.opt(r.seq(r.ch("["), sp, number, r.ch("]"))), sp,
            _act(_make_drop, ("ListOf(Str)",), _EXPR, "make_drop"),
        ), StackEffect((), (_EXPR,))),
        "ConsAction": (r.seq(
            r.lit("~>"), sp, r.lit("cons("), sp, ident, r.ch(","), sp, number,
            r.ch(")"), sp, _act(_make_cons, ("Str", "Str"), _EXPR, "make_cons"),
        ), StackEffect((), (_EXPR,))),
        "Reference": (r.seq(
            ident, r.not_pred(r.seq(effect_decl_opt, r.lit("<-"))),
            _act(_make_ref, ("Str",), _EXPR, "make_ref"),
        ), StackEffect((), (_EXPR,))),
        "Identifier": (r.seq(
            r.capture(r.seq(r.CharPred(_IDENT_START), r.zero_or_more(ident_char))), sp,
        ), StackEffect((), ("Str",))),
        "Number": (r.seq(r.capture(r.one_or_more(r.CharPred(DIGIT))), sp),
                   StackEffect((), ("Str",))),
        "Spacing": (r.zero_or_more(r.first_of(r.any_of(" \t\r\n"), r.ref("Comment"))),
                    StackEffect((), ())),
        "Comment": (r.seq(r.ch("#"), r.zero_or_more(r.none_of("\n"))),
                    StackEffect((), ())),
    }
    return validate_grammar(r.grammar(rules, start="Grammar"))


@lru_cache(maxsize=1)
def _meta_parser() -> Parser:
    return Parser(meta_grammar())


# One Parser serves every grammar load of a process, and it writes the
# meta-grammar's module on the second load, not when the loads' characters
# reach GENERATE_AT: a grammar file is a few hundred characters, so that
# would be in whichever load crossed the sum, and the counters of a load's
# meta-parse (generated code counts no steps) would depend on what the
# process loaded before it. A process that loads one grammar, as
# ``pegstack run`` and ``pegstack check`` do, parses it on the exact table
# unless it is GENERATE_AT characters long; one that loads a second, a
# library's set-ups or a test suite, tends to load more.
_LOADS = count()


# ---------------------------------------------------------------------------
# loading


def parse_grammar(source: GrammarSource | str) -> Grammar:
    """Parse notation text into a validated, effect-checked Grammar.

    Raises NotationError for syntax errors (with a formatted message and
    position), GrammarError for validation diagnostics, and
    EffectCheckError when the effect shapes do not line up.
    """
    if isinstance(source, str):
        source = GrammarSource(source)
    parser = _meta_parser()
    if next(_LOADS) == 1:
        parser._generate()
    result = parser.run(source.text)
    if result.error is not None:
        raise NotationError(source.name, format_error(result.error, source.text),
                            result.error)
    if result.fault is not None:
        raise NotationError(source.name, result.fault.description)

    defs: dict[str, RuleDef] = {}
    issues: list[GrammarIssue] = []
    for item in result.values[0].payload:
        name, decl, expr = item.payload
        if name in defs:
            issues.append(GrammarIssue("duplicate-rule", name,
                                       f"rule {name!r} is defined more than once"))
            continue
        effect = None
        if decl is not None:
            effect = StackEffect((WILDCARD,) * decl[0], (WILDCARD,) * decl[1])
        defs[name] = RuleDef(expr, effect)
    if issues:
        raise GrammarError(issues)

    g = validate_grammar(Grammar(defs, next(iter(defs))))
    check_grammar(g)
    return g


def load_grammar(path) -> Grammar:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_grammar(GrammarSource(handle.read(), str(path)))


def pretty_grammar(g: Grammar) -> str:
    """Emit notation that re-parses to a structurally equal grammar."""
    lines = []
    for name, rd in g.rules.items():
        decl = ""
        if rd.effect is not None:
            decl = f" : ({len(rd.effect.pops)} -> {len(rd.effect.pushes)})"
        lines.append(f"{name}{decl} <- {expr_text(rd.expr)}")
    return "\n".join(lines) + "\n"
