"""Words over named generators and the presentation input language.

Presentation text looks like

    gens: x, y; rels: x^16 = y^16 = 1; (x*y^-1)^2 = [x,y]^4 = 1; [x,y,x] = x^4

Commutator brackets are left-normed ([a,b,c] means [[a,b],c]) and are
expanded while parsing, so relators come out as plain freely reduced
words.  A relation ``u = v`` is stored as the single relator ``u*v^-1``;
a chain ``u = v = w`` pairs every earlier word with the last one, giving
one relator per equated word.  ``1`` denotes the identity word.  With a
syllable limit, a product, a power of a longer word or a commutator that
would write out more syllables than the limit is refused before it is
written out.  A syllable is a generator with its exponent, so
``a^1000000000`` is one; the count is taken before free reduction, since
the unreduced word is what gets written.  The limit covers the whole
presentation: a new word counts together with the syllables of every
relator already written, the ``u*v^-1`` relators of chains included.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

__all__ = [
    "MAX_GENERATORS",
    "PresentationError",
    "WordLimitError",
    "Word",
    "word",
    "GroupPresentation",
    "free_reduce",
    "commutator_word",
    "parse_presentation",
    "parse_word",
]

GEN_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")

# The parser recurses once per open bracket; deeper input is rejected
# with a PresentationError long before Python's recursion limit.
MAX_NESTING = 100

# Group elements carry words whose letters (a generator or its inverse)
# are stored one per byte, with a spare value for padding.
MAX_GENERATORS = 127


class PresentationError(ValueError):
    """Raised for malformed presentation text or inconsistent words."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position


class WordLimitError(RuntimeError):
    """A word would be written out with more syllables than the limit."""


def _reduced(syllables) -> tuple[tuple[str, int], ...]:
    # Each syllable tuple is kept as given; a new one is made only where
    # two syllables merge, or where the caller's syllable is not a tuple.
    out: list[tuple[str, int]] = []
    for syl in syllables:
        gen, exp = syl
        if exp == 0:
            continue
        if out and out[-1][0] == gen:
            exp += out.pop()[1]
            if exp:
                out.append((gen, exp))
        else:
            out.append(syl if type(syl) is tuple else (gen, exp))
    return tuple(out)


@dataclass(frozen=True)
class Word:
    """A word in the free group, as (generator, exponent) syllables.

    Instances are not forced into reduced form; the arithmetic below
    always returns reduced results, and free_reduce() normalizes.
    """

    syllables: tuple[tuple[str, int], ...] = ()

    def __mul__(self, other: "Word") -> "Word":
        return Word(_reduced(self.syllables + other.syllables))

    def inverse(self) -> "Word":
        return Word(tuple((g, -e) for g, e in reversed(self.syllables)))

    def __pow__(self, n: int) -> "Word":
        if n == 0:
            return Word()
        if len(self.syllables) == 1:
            ((g, e),) = self.syllables
            return Word(_reduced(((g, e * n),)))
        base = self.syllables if n > 0 else self.inverse().syllables
        return Word(_reduced(base * abs(n)))

    def generators(self) -> set[str]:
        return {g for g, _ in self.syllables}

    def letter_count(self) -> int:
        return sum(abs(e) for _, e in self.syllables)

    def is_identity_word(self) -> bool:
        return not _reduced(self.syllables)

    def __str__(self) -> str:
        if not self.syllables:
            return "1"
        return "*".join(g if e == 1 else f"{g}^{e}" for g, e in self.syllables)


def word(name: str, exp: int = 1) -> Word:
    """Single-syllable word, a convenience for tests and builders."""
    return Word(_reduced(((name, exp),)))


def free_reduce(w: Word) -> Word:
    """The unique freely reduced word equal to w.  Idempotent."""
    return Word(_reduced(w.syllables))


def commutator_word(*items: Word) -> Word:
    """Left-normed commutator [w1, w2, ..., wk] = [[w1, w2], ..., wk].

    [a, b] expands to a^-1 * b^-1 * a * b and the result is reduced.
    """
    if len(items) < 2:
        raise PresentationError("commutator needs at least two arguments")
    acc = items[0]
    for nxt in items[1:]:
        acc = acc.inverse() * nxt.inverse() * acc * nxt
    return acc


@dataclass(frozen=True)
class GroupPresentation:
    generators: tuple[str, ...]
    relators: tuple[Word, ...]

    def __post_init__(self):
        seen = set()
        for g in self.generators:
            if not GEN_NAME.match(g):
                raise PresentationError(f"bad generator name {g!r}")
            if g in seen:
                raise PresentationError(f"duplicate generator {g!r}")
            seen.add(g)
        if not self.generators:
            raise PresentationError("presentation needs at least one generator")
        for r in self.relators:
            stray = r.generators() - seen
            if stray:
                raise PresentationError(
                    f"undeclared generator {sorted(stray)[0]!r} in relator {r}"
                )
            if free_reduce(r) != r:
                raise PresentationError(f"relator {r} is not freely reduced")

    def serialize(self) -> str:
        gens = ", ".join(self.generators)
        rels = "; ".join(str(r) for r in self.relators)
        return f"gens: {gens}; rels: {rels}"


_TOKEN = re.compile(
    r"(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<int>-?\d+)|(?P<sym>[,;=*^()\[\]:])|(?P<bad>\S)"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise PresentationError(f"unexpected character {m.group()!r}", m.start())
        tokens.append((kind, m.group(), m.start()))
    return tokens


class _Parser:
    def __init__(self, text: str, generators: set[str] | None = None,
                 max_syllables: int | None = None):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0
        self.generators = generators
        self.max_syllables = max_syllables
        self.written = 0  # syllables in the relators stored so far

    def fits(self, syllables: int, pos: int):
        """Refuse a word of `syllables` syllables before writing it out
        when, with the relators already written, it passes the limit."""
        if (self.max_syllables is not None
                and self.written + syllables > self.max_syllables):
            earlier = (f" after {self.written} in earlier relators"
                       if self.written else "")
            raise WordLimitError(
                f"a word of {syllables} syllables{earlier} exceeds the "
                f"limit of {self.max_syllables} (at offset {pos})")

    def store(self, relators: list, w: "Word"):
        """Append w, already reduced, and count its syllables as written."""
        relators.append(w)
        self.written += len(w.syllables)

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, "", len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def accept(self, value: str) -> int | None:
        """If the next token is value, consume it and return its offset."""
        kind, val, pos = self.peek()
        if val != value:
            return None
        self.i += 1
        return pos

    def expect(self, value: str):
        kind, val, pos = self.next()
        if val != value:
            raise PresentationError(f"expected {value!r}, found {val or 'end of input'!r}", pos)

    def end(self):
        """Refuse any token left after the input's last part."""
        if self.i < len(self.tokens):
            kind, val, pos = self.peek()
            raise PresentationError(f"trailing input {val!r}", pos)

    # word := term ("*" term)*
    def word(self) -> Word:
        acc = self.term()
        while (pos := self.accept("*")) is not None:
            t = self.term()
            self.fits(len(acc.syllables) + len(t.syllables), pos)
            acc = acc * t
        return acc

    # term := atom ("^" int)?
    def term(self) -> Word:
        atom = self.atom()
        if self.accept("^") is not None:
            kind, val, pos = self.next()
            if kind != "int":
                raise PresentationError(f"expected an exponent, found {val!r}", pos)
            exp = int(val)
            if exp == 0:
                raise PresentationError("zero exponent literal", pos)
            if len(atom.syllables) > 1:
                self.fits(len(atom.syllables) * abs(exp), pos)
            return atom**exp
        return atom

    # atom := name | "1" | "(" word ")" | "[" word ("," word)+ "]"
    def atom(self) -> Word:
        kind, val, pos = self.next()
        if kind == "name":
            if self.generators is not None and val not in self.generators:
                raise PresentationError(f"undeclared generator {val!r}", pos)
            return Word(((val, 1),))
        if kind == "int":
            if val == "1":
                return Word()
            raise PresentationError(f"unexpected number {val!r}", pos)
        if val == "(":
            inner = self.nested_word(pos)
            self.expect(")")
            return inner
        if val == "[":
            parts = [self.nested_word(pos)]
            while self.accept(",") is not None:
                parts.append(self.nested_word(pos))
            self.expect("]")
            if len(parts) < 2:
                raise PresentationError("commutator needs at least two arguments", pos)
            size = len(parts[0].syllables)
            for part in parts[1:]:
                size = 2 * (size + len(part.syllables))
            self.fits(size, pos)
            return commutator_word(*parts)
        raise PresentationError(f"unexpected {val or 'end of input'!r}", pos)

    def nested_word(self, pos: int) -> Word:
        """A word inside the bracket opened at pos, with the depth capped."""
        if self.depth >= MAX_NESTING:
            raise PresentationError(f"brackets nested deeper than {MAX_NESTING}", pos)
        self.depth += 1
        inner = self.word()
        self.depth -= 1
        return inner

    # relation := word ("=" word)*
    def relation(self) -> list[Word]:
        words = [self.word()]
        while self.accept("=") is not None:
            words.append(self.word())
        return words


def parse_presentation(text: str,
                       max_syllables: int | None = None) -> GroupPresentation:
    """Parse presentation text into a GroupPresentation.

    Raises PresentationError (offset-annotated) on syntax errors,
    undeclared generators, zero exponent literals and more than
    MAX_GENERATORS generators, and WordLimitError when the
    presentation's relators would write out more than max_syllables
    syllables in all.
    """
    p = _Parser(text, max_syllables=max_syllables)
    p.expect("gens")
    p.expect(":")
    gens = []
    while True:
        kind, val, pos = p.next()
        if kind != "name":
            raise PresentationError(f"expected a generator name, found {val!r}", pos)
        gens.append(val)
        if len(gens) > MAX_GENERATORS:
            raise PresentationError(
                f"more than {MAX_GENERATORS} generators", pos)
        if p.accept(",") is None:
            break
    if len(set(gens)) != len(gens):
        raise PresentationError("duplicate generator name", pos)
    p.expect(";")
    p.expect("rels")
    p.expect(":")
    p.generators = set(gens)

    relators: list[Word] = []
    while True:
        pos = p.peek()[2]
        chain = p.relation()
        if len(chain) == 1:
            p.store(relators, chain[0])
        else:
            last = chain[-1]
            for w in chain[:-1]:
                p.fits(len(w.syllables) + len(last.syllables), pos)
                p.store(relators, w * last.inverse())
        if p.accept(";") is None:
            break
    p.end()
    return GroupPresentation(tuple(gens), tuple(relators))


def parse_word(text: str, generators, max_syllables: int | None = None) -> Word:
    """Parse a single word expression over the given generator names."""
    p = _Parser(text, set(generators), max_syllables)
    if not p.tokens:
        raise PresentationError("empty word expression", 0)
    w = p.word()
    p.end()
    return w
