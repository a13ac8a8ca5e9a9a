"""Seeded inputs for the benchmark and the expectations they are checked against.

No expectation is built with pegstack: calc documents carry the AST their
generator built, JSON documents are checked against ``json.loads`` of the
same text, and CLI stdout is rendered from the generator's AST. Values are
compared as flat pre-order token lists, built without recursion, because a
100 KB calc document is a left-deep tree tens of thousands of nodes deep.

Every pool is stratified: document sizes are equal steps in log(size) from
the smallest to the largest, so two seeds give the same size distribution
and differ only in content. A pass visits the pool in ``spread_order``,
which interleaves small and large documents, so a stretch of time when the
machine runs slow does not fall on one size class only.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

KB = 1000  # bytes; inputs are ASCII, so characters and bytes agree

CALC_OPS = {"+": "Add", "-": "Sub", "*": "Mul", "/": "Div"}


@dataclass
class Doc:
    text: str
    tokens: list  # expected value as flat pre-order tokens
    error_at: int | None = None  # index of the injected '!', for failing docs
    as_json: bool = False  # CLI output format


def log_sizes(n: int, lo: int, hi: int) -> list[int]:
    """n sizes from lo to hi, both included, in equal steps on a log scale."""
    return [round(lo * (hi / lo) ** (i / (n - 1))) for i in range(n)]


def spread_order(n: int) -> list[int]:
    """Visit order whose every prefix covers the index range evenly."""
    golden = (math.sqrt(5) - 1) / 2
    return sorted(range(n), key=lambda i: (i * golden) % 1.0)


def corrupt(text: str, fraction: float) -> tuple[str, int]:
    """Replace one character by '!', which no calc rule accepts."""
    at = min(int(len(text) * fraction), len(text) - 1)
    return text[:at] + "!" + text[at + 1:], at


# ---------------------------------------------------------------------------
# calc documents (grammars/calc.peg)


class CalcGenerator:
    """Arithmetic over non-negative integers, built together with its AST."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def number(self) -> tuple[str, list]:
        rng = self.rng
        digits = "".join(rng.choice("0123456789") for _ in range(rng.randint(1, 6)))
        return digits, [("N", "Val", 1), ("S", digits)]

    def factor(self, depth: int) -> tuple[str, list]:
        if depth < 4 and self.rng.random() < 0.08:
            text, tokens = self.chain(self.rng.randint(1, 3), "+-", depth + 1)
            return "(" + text + ")", tokens
        return self.number()

    def term(self, depth: int) -> tuple[str, list]:
        return self.chain(self.rng.randint(0, 3), "*/", depth)

    def chain(self, ops: int, alphabet: str, depth: int) -> tuple[str, list]:
        # '+-' chains are expressions of terms, '*/' chains terms of factors
        part = self.term if alphabet == "+-" else self.factor
        operands = [part(depth) for _ in range(ops + 1)]
        signs = [self.rng.choice(alphabet) for _ in range(ops)]
        return _fold(operands, signs)

    def document(self, target: int) -> Doc:
        """One top-level expression of at least ``target`` characters."""
        operands = [self.term(0)]
        signs: list[str] = []
        size = len(operands[0][0])
        while size < target:
            signs.append(self.rng.choice("+-"))
            operands.append(self.term(0))
            size += 1 + len(operands[-1][0])
        text, tokens = _fold(operands, signs)
        return Doc(text, tokens)


def _fold(operands: list[tuple[str, list]], signs: list[str]) -> tuple[str, list]:
    """Left-associative chain: a-b+c is Add(Sub(a,b),c)."""
    pieces = [operands[0][0]]
    tokens = [("N", CALC_OPS[s], 2) for s in reversed(signs)]
    tokens.extend(operands[0][1])
    for sign, (text, toks) in zip(signs, operands[1:]):
        pieces.append(sign)
        pieces.append(text)
        tokens.extend(toks)
    return "".join(pieces), tokens


# ---------------------------------------------------------------------------
# JSON documents (bench/json.peg)

_WORDS = ("alpha", "beta", "gamma", "delta", "x", "id", "name", "value", "tag", "ok")
_ESCAPED = ('"', "\\", "\n", "\t", "/", "é", "☃")
# element kinds by position in an array; values are seeded, the mix is not
_KINDS = ("int", "int", "int", "float", "int", "literal", "int", "string", "int", "int")


class JsonGenerator:
    """Compact JSON with shallow nesting and Zipf-like array lengths.

    A document of target size S holds records; record k carries an array of
    about S/10/k scalars, so a 24 KB document has arrays from 0 to about
    2,400 elements. Array lengths, element kinds and record shapes depend on
    S and position only, and the seed picks the values, which keeps the cost
    of each pool position steady across seeds.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng

    def string(self) -> str:
        """Two words and one character that JSON escapes."""
        rng = self.rng
        words = [rng.choice(_WORDS), rng.choice(_WORDS)]
        words.insert(rng.randrange(3), rng.choice(_ESCAPED))
        return " ".join(words)

    def scalar(self, kind: str):
        rng = self.rng
        if kind == "int":  # mostly short numbers, so long arrays stay small in KB
            return rng.randrange(-99, 1000)
        if kind == "float":
            return round(rng.uniform(-1e4, 1e4), 2)
        if kind == "literal":
            return rng.choice((True, False, None))
        return self.string()

    def record(self, index: int, samples: int) -> dict:
        rng = self.rng
        rec = {"id": index, "name": self.string(), "score": self.scalar("float"),
               "active": rng.choice((True, False)),
               "samples": [self.scalar(_KINDS[i % len(_KINDS)]) for i in range(samples)]}
        if index % 3 == 0:
            rec["meta"] = {"tags": [self.string() for _ in range(index % 4)],
                           "parent": rng.choice((None, index - 1)), "exp": 1.5e-05}
        return rec

    def document(self, target: int) -> Doc:
        head = max(1, target // 10)
        records: list[dict] = []
        size = 0
        while size < target:
            rec = self.record(len(records), head // (len(records) + 1))
            records.append(rec)
            size += len(dumps(rec)) + 1
        # a fixed interleaving of long and short arrays: which record sits where
        # decides how deep the value stack is under each array, so the seed
        # must not choose it
        records = [records[i] for i in spread_order(len(records))]
        text = dumps({"version": 1, "records": records, "count": len(records)})
        return Doc(text, json_tokens(json.loads(text)))


def dumps(value) -> str:
    return json.dumps(value, separators=(",", ":"))


# ---------------------------------------------------------------------------
# flat token forms


def value_tokens(value) -> list:
    """Pre-order tokens of a pegstack Value, without recursion.

    ("N", label, arity) for a node, ("S", text) for a string, ("L", n) for a
    list, ("U",) for unit, ("?", repr) for anything else.
    """
    out = []
    pending = [value]
    while pending:
        v = pending.pop()
        payload = v.payload
        if isinstance(payload, str):
            out.append(("S", payload))
        elif isinstance(payload, tuple):
            out.append(("L", len(payload)))
            pending.extend(reversed(payload))
        elif hasattr(payload, "label") and hasattr(payload, "children"):
            out.append(("N", payload.label, len(payload.children)))
            pending.extend(reversed(payload.children))
        elif payload is None and v.tag == "Unit":
            out.append(("U",))
        else:
            out.append(("?", repr(payload)))
    return out


def decode_json_leaves(tokens: list) -> list:
    """Turn the captured text under String/Number nodes into Python values."""
    out = []
    for tok in tokens:
        prev = out[-1] if out else None
        if tok[0] == "S" and prev is not None and prev[0] == "N":
            if prev[1] == "String":
                tok = ("str", json.loads('"' + tok[1] + '"'))
            elif prev[1] == "Number":
                tok = ("num", json.loads(tok[1]))
        out.append(tok)
    return out


def json_tokens(data) -> list:
    """Tokens of the value json.peg builds for ``data`` (a json.loads result)."""
    out = []
    pending = [data]
    while pending:
        v = pending.pop()
        if isinstance(v, dict):
            members = list(v.items())
            _json_collection(out, pending, "Object", [("member", kv) for kv in members])
        elif isinstance(v, list):
            _json_collection(out, pending, "Array", v)
        elif isinstance(v, tuple) and len(v) == 2 and v[0] == "member":
            key, inner = v[1]
            out.extend((("N", "Member", 2), ("N", "String", 1), ("str", key)))
            pending.append(inner)
        elif isinstance(v, tuple):  # ("L", n) marker between first item and rest
            out.append(v)
        elif isinstance(v, str):
            out.extend((("N", "String", 1), ("str", v)))
        elif v is None or isinstance(v, bool):
            out.extend((("N", "Literal", 1), ("S", json.dumps(v))))
        else:
            out.extend((("N", "Number", 1), ("num", v)))
    return out


def _json_collection(out: list, pending: list, label: str, items: list) -> None:
    # json.peg builds Label([Items(first, [rest...])]) or Label([]) when empty
    out.append(("N", label, 1))
    if not items:
        out.append(("L", 0))
        return
    out.extend((("L", 1), ("N", "Items", 2)))
    rest = items[1:]
    pending.extend(reversed(rest))
    pending.append(("L", len(rest)))
    pending.append(items[0])


def render_tokens(tokens: list) -> str:
    """What ``render_value`` prints for a node/string value."""
    return _nest(tokens, lambda label: label + "(", ",", ")")


def json_output(tokens: list) -> str:
    """What ``pegstack run --json`` prints for a successful calc parse."""
    body = _nest(tokens, lambda label: '{"label": ' + json.dumps(label) + ', "children": [',
                 ", ", "]}")
    return '{"result": "success", "values": [' + body + "]}"


def _nest(tokens: list, opener, separator: str, closer: str) -> str:
    # a stack of children still due per open node replaces recursion
    out = []
    due: list[int] = []
    for tok in tokens:
        if tok[0] == "N" and tok[2]:
            out.append(opener(tok[1]))
            due.append(tok[2])
            continue
        out.append(opener(tok[1]) + closer if tok[0] == "N" else json.dumps(tok[1]))
        while due:  # one value finished; close every node it completes
            due[-1] -= 1
            if due[-1]:
                out.append(separator)
                break
            due.pop()
            out.append(closer)
    return "".join(out)


# ---------------------------------------------------------------------------
# pools


def calc_pool(rng: random.Random, sizes: list[int]) -> list[Doc]:
    gen = CalcGenerator(rng)
    return [gen.document(size) for size in sizes]


def error_fractions(rng: random.Random, n: int) -> list[float]:
    """One error position per document, stratified over 10 %..90 %.

    Strata are dealt to documents in spread_order, so small and large
    documents both see early and late errors. The seed moves the spot by up
    to a tenth of a stratum around its middle: a failing parse costs time in
    proportion to the error position, and a wider spread would let the seed
    reorder documents by cost and so move the percentiles.
    """
    strata = spread_order(n)
    return [0.1 + 0.8 * (strata[i] + 0.45 + 0.1 * rng.random()) / n for i in range(n)]


def calc_error_pool(rng: random.Random, sizes: list[int]) -> list[Doc]:
    docs = calc_pool(rng, sizes)
    for doc, fraction in zip(docs, error_fractions(rng, len(docs))):
        doc.text, doc.error_at = corrupt(doc.text, fraction)
        doc.tokens = []
    return docs


def json_pool(rng: random.Random, sizes: list[int]) -> list[Doc]:
    gen = JsonGenerator(rng)
    return [gen.document(size) for size in sizes]


# (corrupted, --json) by rank from the largest input down, repeating every 8
CLI_ROLES = ((False, False), (False, True), (True, False), (False, True),
             (False, False), (True, True), (False, True), (False, False))


def cli_pool(rng: random.Random, sizes: list[int]) -> list[Doc]:
    """Calc inputs: a quarter corrupted, half run with --json, at every size.

    Roles go by size rank, not by seed, so the largest inputs, which set the
    90th percentile, play the same roles for every seed. The largest input
    is valid and printed as text, the case that makes ``render_value``
    recurse deepest.
    """
    docs = calc_pool(rng, sizes)
    fractions = error_fractions(rng, len(docs))
    for i, (doc, fraction) in enumerate(zip(docs, fractions)):
        broken, doc.as_json = CLI_ROLES[(len(docs) - 1 - i) % len(CLI_ROLES)]
        if broken:
            doc.text, doc.error_at = corrupt(doc.text, fraction)
    return docs
