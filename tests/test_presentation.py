import pytest
from hypothesis import given
from hypothesis import strategies as st

from baerkit.presentation import (
    MAX_GENERATORS,
    MAX_NESTING,
    GroupPresentation,
    PresentationError,
    Word,
    WordLimitError,
    commutator_word,
    free_reduce,
    parse_presentation,
    parse_word,
    word,
)

GENS = ("x", "y", "z")

syllable = st.tuples(st.sampled_from(GENS),
                     st.integers(-4, 4).filter(lambda e: e != 0))
words = st.builds(lambda s: Word(tuple(s)), st.lists(syllable, max_size=8))


def test_word_multiplication_concatenates_and_reduces():
    w = word("x") * word("y", -1) * word("y")
    assert w == word("x")
    assert str(w) == "x"


def test_word_inverse_reverses_and_negates():
    w = word("x", 2) * word("y", -1)
    assert w.inverse() == word("y") * word("x", -2)


def test_identity_word_prints_as_one():
    assert str(Word()) == "1"
    assert (word("x") * word("x", -1)).is_identity_word()


@given(words)
def test_free_reduce_is_idempotent(w):
    r = free_reduce(w)
    assert free_reduce(r) == r


@given(words)
def test_word_times_inverse_is_identity(w):
    assert (w * w.inverse()).is_identity_word()
    assert (w.inverse() * w).is_identity_word()


@given(words, words, words)
def test_word_multiplication_is_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(words, st.integers(-5, 5))
def test_power_matches_repeated_multiplication(w, n):
    expected = Word()
    step = w if n >= 0 else w.inverse()
    for _ in range(abs(n)):
        expected = expected * step
    assert w ** n == expected


def test_commutator_hand_expansion():
    x, y = word("x"), word("y")
    assert commutator_word(x, y) == (
        word("x", -1) * word("y", -1) * x * y)


def test_left_normed_commutator_frozen_value():
    # [x, y, x] written out by hand, one letter at a time.
    x, y = word("x"), word("y")
    got = commutator_word(x, y, x)
    expected = (word("y", -1) * word("x", -1) * word("y") * word("x", -1) *
                word("y", -1) * word("x") * word("y") * word("x"))
    assert got == expected


def test_parse_minimal_cyclic():
    p = parse_presentation("gens: a; rels: a^5")
    assert p.generators == ("a",)
    assert len(p.relators) == 1
    assert p.relators[0] == word("a", 5)


def test_parse_commutator_and_conjugation_syntax():
    p = parse_presentation("gens: x, y; rels: [x,y,x] = x^4")
    assert p.relators[0] == commutator_word(word("x"), word("y"), word("x")) * word("x", -4)


def test_chained_equalities_produce_one_relator_per_link():
    p = parse_presentation("gens: a, b; rels: a^2 = b^2 = 1")
    assert len(p.relators) == 2
    assert p.relators[0] == word("a", 2)
    assert p.relators[1] == word("b", 2)


def test_serialize_round_trip():
    texts = [
        "gens: a; rels: a^5",
        "gens: r, s; rels: r^8; s^2; (r*s)^2",
        "gens: x, y; rels: x^16 = y^16 = 1; (x*y^-1)^2 = [x,y]^4 = 1; "
        "[x,y,x] = x^4; [x,y,y] = y^4",
    ]
    for text in texts:
        p = parse_presentation(text)
        assert parse_presentation(p.serialize()) == p


@given(st.lists(st.lists(syllable, min_size=1, max_size=5), min_size=1, max_size=5))
def test_serialize_round_trip_generated(relator_syllables):
    relators = []
    for syls in relator_syllables:
        w = free_reduce(Word(tuple(syls)))
        if not w.is_identity_word():
            relators.append(w)
    if not relators:
        relators = [word("x", 2)]
    p = GroupPresentation(GENS, tuple(relators))
    assert parse_presentation(p.serialize()) == p


def test_parse_word_requires_known_generators():
    w = parse_word("x*y^-2", ("x", "y"))
    assert w == word("x") * word("y", -2)
    with pytest.raises(PresentationError):
        parse_word("x*w", ("x", "y"))


def test_parse_rejects_malformed_input():
    for bad in [
        "rels: a^2",
        "gens: ; rels: a",
        "gens: a; rels: a^",
        "gens: a; rels: (a",
        "gens: a, a; rels: a^2",
        "gens: a; rels: b^2",
        "gens: a; rels: a^2 extra",
    ]:
        with pytest.raises(PresentationError):
            parse_presentation(bad)


@pytest.mark.parametrize("text, message", [
    ("x: a; rels: a", "expected 'gens', found 'x' (at offset 0)"),
    ("", "expected 'gens', found 'end of input' (at offset 0)"),
    ("gens: a; x: a", "expected 'rels', found 'x' (at offset 9)"),
    ("gens: a; rels: a)", "trailing input ')' (at offset 16)"),
])
def test_parse_errors_name_the_token_and_its_offset(text, message):
    with pytest.raises(PresentationError) as info:
        parse_presentation(text)
    assert str(info.value) == message


def test_written_out_words_share_their_syllables():
    # A power repeats its base's syllable tuples, and reduction keeps
    # them, so a long word costs a pointer per syllable.
    w = parse_word("((a*b)^1000)^10", ("a", "b"))
    assert len(w.syllables) == 20_000
    assert len({id(s) for s in w.syllables}) == 2


def test_parse_word_rejects_empty_and_trailing():
    with pytest.raises(PresentationError):
        parse_word("", ("x",))
    with pytest.raises(PresentationError):
        parse_word("x )", ("x",))


def test_nesting_depth_is_capped():
    deepest = "(" * MAX_NESTING + "a" + ")" * MAX_NESTING
    assert parse_presentation(f"gens: a; rels: {deepest}^2").relators == (word("a", 2),)
    for bad in [
        "(" * (MAX_NESTING + 1) + "a" + ")" * (MAX_NESTING + 1),
        "[" * (MAX_NESTING + 1) + "a" + ",a]" * (MAX_NESTING + 1),
        "(" * 5000 + "a",
    ]:
        with pytest.raises(PresentationError, match="nested deeper than"):
            parse_presentation(f"gens: a; rels: {bad}")
        with pytest.raises(PresentationError, match="nested deeper than"):
            parse_word(bad, ("a",))


def test_huge_exponent_literal_stays_one_syllable():
    pres = parse_presentation("gens: a, b; rels: a^1000000000; (b^-2)^3")
    assert pres.relators == (word("a", 1000000000), word("b", -6))


def test_long_powers_and_commutators_are_refused_before_expanding():
    gens = ("a", "b")
    assert parse_word("(a*b)^3", gens, max_syllables=6).letter_count() == 6
    assert parse_word("(a*b)^2*a*b", gens, max_syllables=6).letter_count() == 6
    # Counted before free reduction: 6 syllables are written out first.
    assert parse_word("(b*a*b^-1)^2", gens, max_syllables=6) == parse_word(
        "b*a^2*b^-1", gens)
    assert parse_word("(a*b)^-3", gens, max_syllables=6).letter_count() == 6
    assert parse_word("[a*b, a]", gens, max_syllables=6) == parse_word(
        "b^-1*a^-1*b*a", gens)
    for text in ("(a*b)^4", "(a*b)^-4", "((a*b)^2)^2", "[a*b, a, b]",
                 "(a*b)^3*a", "(a*b)^2*(a*b)^2", "(b*a*b^-1)^3"):
        with pytest.raises(WordLimitError):
            parse_word(text, gens, max_syllables=6)
    with pytest.raises(WordLimitError, match="6000000 syllables"):
        parse_presentation("gens: a, b; rels: (a*b)^3000000",
                           max_syllables=2_000_000)
    with pytest.raises(WordLimitError, match="2002000 syllables"):
        parse_presentation("gens: a, b; rels: ((a*b)^1000)^1001",
                           max_syllables=2_000_000)
    nested = "[" + ",".join("ab" * 20) + "]"
    with pytest.raises(WordLimitError):
        parse_presentation(f"gens: a, b; rels: {nested}", max_syllables=2_000_000)


def test_single_syllable_powers_are_not_counted_against_the_limit():
    pres = parse_presentation("gens: a, b; rels: a^1000000000; (b^-2)^3",
                              max_syllables=10)
    assert pres.relators == (word("a", 1000000000), word("b", -6))
    assert parse_word("b*a^1000000000*b", ("a", "b"), max_syllables=3) == \
        Word((("b", 1), ("a", 1000000000), ("b", 1)))


def test_the_syllable_limit_covers_the_whole_presentation():
    # Each relator fits the limit of 10; together they do not.
    assert len(parse_presentation("gens: a, b; rels: (a*b)^2; (a*b)^3",
                                  max_syllables=10).relators) == 2
    with pytest.raises(WordLimitError,
                       match="4 syllables after 8 in earlier relators"):
        parse_presentation("gens: a, b; rels: (a*b)^2; (a*b)^2; (a*b)^2",
                           max_syllables=10)
    # A chain u = v writes u*v^-1, which counts both words.
    assert parse_presentation("gens: a, b; rels: a*b*a = b*a*b",
                              max_syllables=6).relators == (
        parse_word("a*b*a*b^-1*a^-1*b^-1", ("a", "b")),)
    with pytest.raises(WordLimitError, match="a word of 6 syllables"):
        parse_presentation("gens: a, b; rels: a*b*a = b*a*b",
                           max_syllables=5)
    # u = v = w writes u*w^-1 (5 syllables), then v*w^-1 counts 5 more.
    with pytest.raises(WordLimitError,
                       match="a word of 5 syllables after 5 in earlier"):
        parse_presentation("gens: a, b; rels: a*b*a = b*a*b = a*b",
                           max_syllables=9)


def test_generator_count_is_limited():
    def text(k):
        return f"gens: {', '.join(f'g{i}' for i in range(k))}; rels: g0^2"
    assert len(parse_presentation(text(MAX_GENERATORS)).generators) == 127
    for k in (MAX_GENERATORS + 1, 130):
        with pytest.raises(PresentationError, match="more than 127 generators"):
            parse_presentation(text(k))
