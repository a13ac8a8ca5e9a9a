"""The facts the instruction tables rest on, against their definitions.

``Tables`` takes whether a node touches the value stack from its children
while it compiles the node, and a rule's from one walk of its body and a
least fixpoint over the rules. A node's head comes from its children's in
head position, through those that pass, also while it compiles, and so
does whether it passes; a reference's head comes from its rule's;
a reference to a rule on a cycle names the rule, whose head is one least
fixpoint over those rules, joined in later. The recursive definitions
below walk a node's whole subtree, and a reference's rule body, instead;
they are the oracle. A terminal's head, regex source and fused scan come from the
operands of its compiled instruction; their oracle defines them by the
terminal's node type. Whether the grammar's values decide no match is one
more output of the walk of each rule body; its oracle walks every node.
"""

import random
import re
import time

from pegstack import instructions
from pegstack import rules as r
from pegstack.effects import NEUTRAL, ConsFn, StackEffect, check_grammar, cons
from pegstack.engine import Parser
from pegstack.instructions import (_ASCII, ALT, CAPTURE, CHARS, ISTR, OPT, PRED, QUIET, REF, REP,
                                   SEQ, STR, _char_class, _resolve, _terminal_head,
                                   _terminal_source)
from pegstack.notation import load_grammar, meta_grammar
from pegstack.values import str_value

from conftest import ROOT, generated, source_of
from generators import gen_grammar, gen_lowerable_grammar, gen_sound_grammar
from run_states import recorded_states


def _touches(node, rules):
    """Whether matching node may change the value stack, given the rules that may."""
    t = type(node)
    if t in (r.Capture, r.Push, r.Drop, r.Action):
        return True
    if t in (r.AndPredicate, r.NotPredicate):
        return False  # externally stack-neutral; they restore internally
    if t is r.Sequence:
        return any(_touches(c, rules) for c in node.children)
    if t is r.FirstOf:
        return any(_touches(a, rules) for a in node.alternatives)
    if t in (r.Optional, r.ZeroOrMore, r.OneOrMore, r.Quiet):
        return _touches(node.inner, rules)
    if t is r.RuleRef:
        return rules.get(node.name, True)
    return False  # terminals


def _rule_touches(grammar):
    touches = dict.fromkeys(grammar.rules, False)
    changed = True
    while changed:
        changed = False
        for name, rd in grammar.rules.items():
            if not touches[name] and _touches(rd.expr, touches):
                touches[name] = changed = True
    return touches


def _same(head):
    """A head with its characters as a set, for comparing."""
    return None if head is None else (head[0], frozenset(head[1]), head[2])


def _resolved(tables, head):
    """A head from the compile walk with the heads of the rules on cycles
    that it names joined in, for comparing."""
    head = _resolve(head, tables._cyclic)
    assert head is None or head[3] == ()  # it names no rule any more
    return _same(head)


_NOTHING = (0, frozenset(), False)  # the head of what takes no character


def _join(heads):
    """Union of heads in the form of ``_same``; None when one is None."""
    if None in heads:
        return None
    mask = 0
    for h in heads:
        mask |= h[0]
    return mask, frozenset().union(*(h[1] for h in heads)), any(h[2] for h in heads)


def _passes(ins):
    """Whether a sequence's head passes through an exact instruction: ``?``,
    ``*`` (a fused scan too), ``!`` over a body that touches no stack, the
    empty string, and a capture or quiet of one of them; never ``&``, an
    action, a push or a drop."""
    op = ins[0]
    if op == CAPTURE or op == QUIET:
        return _passes(ins[2])
    return (op == OPT or (op == REP or op == CHARS) and not ins[3]
            or op == PRED and ins[3] and not ins[4] or op == STR and not ins[2])


def _code_head(tables, ins):
    """Head of an exact instruction's generated code, or None, whether or
    not it lowers to one regex; what passes has the head of what it may
    take. A sequence's is the union of its children's up to and including
    the first that does not pass; where a choice, loop, option or reference
    meets a body that passes, the body starts anywhere. Through a reference,
    the head of the rule's body, which ends because validation rejects left
    recursion."""
    op = ins[0]
    if op == STR and not ins[2]:
        return _NOTHING
    if op <= ISTR:
        return _same(_terminal_head(ins))
    if op == SEQ:
        heads = []
        for kid in ins[2][:-1]:
            heads.append(_code_head(tables, kid))
            if not _passes(kid):
                return _join(heads)
        return None  # every child passes: it may take nothing
    if op == ALT:
        return _join([_starts(tables, k) for k in ins[2][:-1]])
    if op == CHARS:
        return _same(_terminal_head(ins[2]))
    if op == REP or op == OPT:
        return _starts(tables, ins[2])
    if op == REF:
        return _starts(tables, tables.bodies[ins[2]])
    if op == CAPTURE or op == QUIET:
        return _code_head(tables, ins[2])
    if op == PRED:
        return _NOTHING if _passes(ins) else None  # an & stops a head, as does a touching !
    return None


def _starts(tables, ins):
    """Where a choice's alternative, a body or a rule can start: its head,
    or None when it passes."""
    return None if _passes(ins) else _code_head(tables, ins)


def _node_head(node):
    """A terminal's head by its node type, in the form of ``_terminal_head``."""
    t = type(node)
    if t is r.Ch or (t is r.Str and node.text):
        c = node.char if t is r.Ch else node.text[0]
        o = ord(c)
        return (1 << o, (), False) if o < 128 else (0, (c,), False)
    if t is r.CharPred:
        return node.pred.mask & _ASCII, (), node.pred.extra is not None
    if t is r.NoneOf:
        return ~node.pred.mask & _ASCII, (), True
    if t is r.AnyChar:
        return _ASCII, (), True
    return None  # end of input, ignore case, the empty string


def _node_source(node):
    """A terminal's regex source by its node type; a mask holds only its
    ASCII members, since a higher bit names no member."""
    t = type(node)
    if t is r.Ch:
        return re.escape(node.char)
    if t is r.Str:
        return re.escape(node.text)
    if t is r.AnyChar:
        return "."
    if t is r.EndOfInput:
        return r"\Z"
    if t is r.CharPred or t is r.NoneOf:
        if node.pred.extra is not None:
            return None
        return _char_class(node.pred.mask & _ASCII, t is r.NoneOf)
    return None  # ignore case: str.lower and re.IGNORECASE differ


_FUSED = (r.Ch, r.AnyChar, r.CharPred, r.NoneOf)  # one character per repetition


def _grammars():
    rng = random.Random(20261019)
    for i in range(180):
        yield (lambda g: gen_grammar(g, 4), gen_sound_grammar, gen_lowerable_grammar)[i % 3](rng)
    for path in ("grammars/calc.peg", "bench/json.peg"):
        yield load_grammar(ROOT / path)
    yield meta_grammar()
    # pushes and calls inside a predicate do not count: only Peek touches
    yield r.grammar({"Top": r.seq(r.and_pred(r.ref("Peek")), r.ref("Look")),
                     "Peek": r.capture(r.ch("a")), "Look": r.not_pred(r.capture(r.ch("b")))})
    # a choice and a loop that start with a rule on a cycle: its head is joined in
    yield r.grammar({"List": r.first_of(r.ref("Group"), r.ch("x")),
                     "Group": r.seq(r.ch("("), r.zero_or_more(r.ref("List")), r.ch(")"))})
    # heads through what passes, and the nodes that stop them: & looks past
    # the next character, an action, push or drop has an effect, a ! whose
    # body touches the stack may run one, and EOI and ignore case have none
    passing = [r.opt(r.ch("a")), r.zero_or_more(r.seq(r.ch("b"), r.ch("c"))),
               r.zero_or_more(r.ch(" ")), r.not_pred(r.ch("d")), r.Str(""),
               r.capture(r.zero_or_more(r.ch("e"))), r.quiet(r.opt(r.ch("f")))]
    stopping = [r.and_pred(r.ch("g")), r.not_pred(r.capture(r.ch("h"))), r.push(str_value("i")),
                r.drop(), cons("C", 1), r.EOI, r.ignore_case("j"), r.ref("Nullable")]
    pairs = (r.seq(p, s, r.ch("z")) for p in passing for s in stopping)
    yield r.grammar({"Top": r.first_of(*pairs, r.seq(*passing), r.seq(*passing, r.ch("y"))),
                     "Nullable": r.opt(r.ch("k"))}, start="Top")  # unvalidated: '' is rejected


def test_the_facts_pass_agrees_with_the_recursive_definitions(monkeypatch):
    # what building the tables compiled for each node, by id(node): a
    # Parser compiles nothing after it is built
    compiled = {}
    compile_ = instructions.Tables._compile
    monkeypatch.setattr(instructions.Tables, "_compile", lambda self, node: compiled.setdefault(
        id(node), (node, compile_(self, node)))[1])
    cyclic_heads = 0
    for grammar in _grammars():
        compiled.clear()
        tables = Parser(grammar)._tables
        touches = _rule_touches(grammar)
        assert tables._rule_touches == touches  # rule by rule
        for name, rd in grammar.rules.items():
            acyclic = name in tables._acyclic
            head = tables._acyclic[name] if acyclic else tables._cyclic[name]
            assert _resolved(tables, head) == _starts(tables, tables.bodies[name]), name
            cyclic_heads += not acyclic and head is not None
            for node in r.walk(rd.expr):  # node by node
                ins, touched, head, passes = compiled[id(node)][1]
                assert touched == _touches(node, touches), node
                assert passes == _passes(ins), node
                assert _resolved(tables, head) == _code_head(tables, ins), node
    assert cyclic_heads > 50  # rules on cycles with a head are covered


def _value_free(grammar):
    """Whether no action but a cons occurs anywhere in the grammar's rules,
    inside predicates too."""
    return not any(type(node) is r.Action and type(node.fn) is not ConsFn
                   for rd in grammar.rules.values() for node in r.walk(rd.expr))


def test_values_decide_no_match_where_every_action_is_a_cons_a_push_or_a_drop():
    def same(*values):
        return values

    user = r.Action(1, same, StackEffect(("Str",), ("Str",)), name="same")
    calc, json = (Parser(load_grammar(ROOT / path))._tables.value_free
                  for path in ("grammars/calc.peg", "bench/json.peg"))
    assert calc and json
    push_drop = r.grammar({"Top": r.seq(r.push(str_value("a")), r.ch("a"), r.ref("Gone")),
                           "Gone": r.first_of(r.seq(r.ch("b"), r.drop()), r.drop())})
    assert Parser(push_drop)._tables.value_free
    outside = r.grammar({"Top": r.seq(r.capture(r.ch("a")), r.ref("Same")),
                         "Same": r.first_of(user, r.seq(r.drop(), r.ch("b")))})
    assert not Parser(outside)._tables.value_free
    for pred in (r.and_pred, r.not_pred):  # a user action only inside a predicate
        inside = r.grammar({"Top": r.seq(pred(r.seq(r.capture(r.ch("a")), user)),
                                         r.capture(r.ch("a")), cons("A", 1))})
        assert not Parser(inside)._tables.value_free
    kinds = set()
    for grammar in _grammars():
        value_free = Parser(grammar)._tables.value_free
        assert value_free == _value_free(grammar)
        kinds.add(value_free)
    assert kinds == {True, False}  # both kinds of grammar are covered


def test_a_chain_of_rules_that_double_checks_and_builds_in_linear_time():
    # R_i <- R_i+1 R_i+1 / 'x': each undeclared rule's effect is inferred
    # once, not once per reference, and the regex source that references
    # inline stops growing at a bound instead of doubling per rule
    rules = {f"R{i}": r.first_of(r.seq(r.ref(f"R{i + 1}"), r.ref(f"R{i + 1}")), r.ch("x"))
             for i in range(40)}
    rules["R40"] = r.ch("a")
    grammar = r.validate_grammar(r.grammar(rules, start="R0"))
    start = time.perf_counter()
    report = check_grammar(grammar)
    parser = generated(grammar)
    assert time.perf_counter() - start < 1.0
    assert set(report.values()) == {NEUTRAL}
    assert parser.run("x").values == ()
    assert parser.run_phase("xx").cursor == 2
    error = parser.run("aa").error
    assert (error.position.index, error.expected()) == (2, ["'a'", "'x'"])


def test_a_long_chain_of_rules_is_ordered_and_touches_in_linear_time():
    # R_i <- R_i+1 'x' ending in capture('x'): the touches flag travels
    # up the whole chain, and one depth-first order settles it in one round
    # and puts every rule after the rules it references; the capture keeps
    # every source None, so no regex is compiled
    rules = {f"R{i}": r.seq(r.ref(f"R{i + 1}"), r.ch("x")) for i in range(2000)}
    rules["R2000"] = r.capture(r.ch("x"))
    grammar = r.grammar(rules, start="R0")
    start = time.perf_counter()
    tables = Parser(grammar)._tables
    assert time.perf_counter() - start < 1.0
    assert tables._acyclic.keys() == rules.keys()
    assert all(tables._rule_touches[name] for name in rules)
    seen = set()
    for name in tables._acyclic:
        assert {n.name for n in r.walk(rules[name]) if type(n) is r.RuleRef} <= seen, name
        seen.add(name)


def _cycle_of_options(n: int) -> r.Grammar:
    """R_i <- 'x' R_i+1? for i < n and R_n <- ('y' R0)* 'z': one cycle of n + 1
    rules without declared effects, each option and the loop a body that
    reaches it."""
    rules = {f"R{i}": r.seq(r.ch("x"), r.opt(r.ref(f"R{i + 1}"))) for i in range(n)}
    rules[f"R{n}"] = r.seq(r.zero_or_more(r.seq(r.ch("y"), r.ref("R0"))), r.ch("z"))
    return r.validate_grammar(r.grammar(rules, start="R0"))


def _tags(tables) -> dict[str, list]:
    """The collect tags of each rule's repetitions and options."""
    tags = {}
    for name, body in tables.bodies.items():
        todo, found = [body], []
        while todo:
            ins = todo.pop()
            if ins[0] in (REP, OPT):
                found.append(ins[4 if ins[0] == REP else 3])
            if ins[0] in (SEQ, ALT):
                todo.extend(ins[2][:-1])
            elif ins[0] in (REP, OPT, PRED, CAPTURE, QUIET):
                todo.append(ins[2])
        tags[name] = found
    return tags


def test_a_long_cycle_of_undeclared_rules_gives_its_repetition_bodies_no_tag_without_recursing():
    # inferring a body that references the cycle would recurse once per rule
    # until it met the cycle, past the recursion limit at 1,500 rules; the
    # rules on the cycle fail in the memo before any body is inferred
    small, large = Parser(_cycle_of_options(10)), generated(_cycle_of_options(1500))
    assert small.fault is None and large.fault is None
    tags, expected = _tags(large._tables), _tags(small._tables)
    assert expected["R0"] == [None] and expected["R10"] == [None]
    assert all(tags[f"R{i}"] == expected["R0"] for i in range(1500))
    assert tags["R1500"] == expected["R10"]
    # past DEPTH_BOUND open functions the generated run gives up and reruns
    # on the exact table; 150 x's stay below it
    for text in ("x" * 1500 + "z", "x" * 1500 + "zyxz", "x" * 150 + "z", "xy", "", "y"):
        with recorded_states() as states:
            result = large.run(text)
        exact = large.run_phase(text)
        assert result.values == (() if text.startswith("x") else None)
        assert states[0].cursor == exact.cursor
        assert result.ok or result.error.position.index == exact.stats.max_cursor


def test_terminal_facts_from_the_instruction_agree_with_the_node_definitions():
    high = r.CharPredicate((1 << 97) | (1 << 0xE9))  # a bit at 0xE9 names no member
    edge = [r.Ch("\u00e9"), r.Ch("\n"), r.Ch("."), r.Str("\u00e9a"), r.Str("a.b"), r.Str(""),
            r.char_pred(r.CharPredicate.from_chars("a\u00e9")), r.char_pred(r.DIGIT),
            r.char_pred(high), r.char_pred(r.CharPredicate(0)), r.any_of("+-"), r.none_of("ab"),
            r.none_of("a\u00e9"), r.none_of(""), r.NoneOf(high), r.ANY, r.EOI,
            r.ignore_case("k"), r.ignore_case("Ab")]
    terminals = [node for grammar in _grammars() for rd in grammar.rules.values()
                 for node in r.walk(rd.expr) if type(node) in r.TERMINALS]
    nodes = terminals + edge
    # each node, and a + of it, as a rule of one grammar
    rules = {f"T{i}": node for i, node in enumerate(nodes)}
    rules.update({f"F{i}": r.one_or_more(node) for i, node in enumerate(nodes)})
    bodies = Parser(r.grammar(rules, start="T0"))._tables.bodies
    for i, node in enumerate(nodes):
        ins = bodies[f"T{i}"]
        assert _same(_terminal_head(ins)) == _same(_node_head(node)), node
        assert _terminal_source(ins) == _node_source(node), node
        fused = bodies[f"F{i}"]
        assert (fused[0] == CHARS) == (type(node) in _FUSED), node
        if fused[0] == CHARS:
            source = _node_source(node)
            scan = fused[4]
            assert (scan is None) == (source is None), node
            assert scan is None or scan.__self__.pattern == source + "*", node


def _instructions(bodies):
    """Every instruction of a table, each once."""
    seen, todo = {}, list(bodies.values())
    while todo:
        ins = todo.pop()
        if ins is None or id(ins) in seen:
            continue
        seen[id(ins)] = ins
        if ins[0] == SEQ or ins[0] == ALT:
            todo.extend(ins[2])
        elif ins[0] in (CHARS, REP, OPT, PRED, CAPTURE, QUIET):
            todo.append(ins[2])
    return seen.values()


def test_each_regex_is_compiled_once_while_a_parser_is_built(monkeypatch):
    # one re.compile per regex fragment of the generated code and per fused
    # scan, between building the Parser and writing its module; a fragment
    # runs wherever its rule's code is copied, and the chain's one fragment
    # is R0's, which holds the whole chain
    calls = []
    compile_ = re.compile
    monkeypatch.setattr(re, "compile", lambda *args: calls.append(args) or compile_(*args))
    chain = {f"R{i}": r.seq(r.ref(f"R{i + 1}"), r.ch("x")) for i in range(300)}
    chain["R300"] = r.ch("a")
    for grammar, count in ((load_grammar(ROOT / "bench/json.peg"), 3 + 14),
                           (meta_grammar(), 4 + 7),
                           (r.validate_grammar(r.grammar(chain, start="R0")), 1 + 0)):
        calls.clear()
        parser = generated(grammar)
        made = len(calls)  # before source_of writes the module again
        regexes = len(set(re.findall(r"(?:m\d+ = |:= |pos = )(M\d+)\(text, pos\)",
                                     source_of(parser))))
        scans = sum(ins[0] == CHARS and ins[4] is not None
                    for ins in _instructions(parser._tables.bodies))
        assert made == regexes + scans == count


def test_the_head_of_each_node_is_computed_once(monkeypatch):
    # each choice offers its own alternative or the next choice: a walk that
    # takes a node's head again for every choice whose head it decides
    # visits the terminals of this nest quadratically often
    heads = []
    terminal_head = instructions._terminal_head
    monkeypatch.setattr(instructions, "_terminal_head",
                        lambda ins: heads.append(ins) or terminal_head(ins))
    expr = r.ch("e")
    for i in range(150):
        expr = r.first_of(r.seq(r.ch(chr(ord("0") + i % 64)), r.capture(r.ch("b"))), expr)
    tables = Parser(r.grammar({"Top": expr}))._tables
    assert len(heads) == 2 * 150 + 1  # once per terminal
    assert tables.bodies["Top"][4]  # and the choices dispatch
