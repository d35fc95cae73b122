import pytest

from refmon.presentation import Presentation, Relation, make_presentation, parse_presentation
from refmon.words import GeneratorSet, ParseError, Word

SAMPLE = """\
# the mixing relation
monoid M0
generators x0 y0 z0
relation x0 + y0 = x0 + z0
"""


def test_parse_basic():
    p = parse_presentation(SAMPLE)
    assert p.name == "M0"
    assert p.gens.names == ("x0", "y0", "z0")
    assert len(p.relations) == 1
    rel = p.relations[0]
    assert rel.lhs == Word.of([(0, 1), (1, 1)])
    assert rel.rhs == Word.of([(0, 1), (2, 1)])


def test_format_roundtrip():
    p = parse_presentation(SAMPLE)
    again = parse_presentation(p.format())
    assert again == p


def test_trivial_relations_dropped():
    text = "monoid T\ngenerators a b\nrelation a + b = b + a\n"
    p = parse_presentation(text)
    assert p.relations == ()


def test_errors_carry_line_numbers():
    with pytest.raises(ParseError, match=r"^line 3: unknown generator 'q'$") as err:
        parse_presentation("monoid X\ngenerators a\nrelation a = q\n")
    assert err.value.line == 3
    # comments and blank lines count; a bad term on either side names its line
    with pytest.raises(ParseError, match=r"^line 5: negative coefficient$"):
        parse_presentation("# c\n\nmonoid X\ngenerators a b\nrelation a + -1*b = b\n")
    with pytest.raises(ParseError, match=r"^line 4: empty summand in term$"):
        parse_presentation("monoid X\ngenerators a b\nrelation a = b\nrelation a = b +\n")
    with pytest.raises(ParseError):
        parse_presentation("relation a = a\n")
    with pytest.raises(ParseError, match="unknown directive"):
        parse_presentation("monoid X\ngenerators a\nfrobnicate\n")


def test_relation_before_generators():
    with pytest.raises(ParseError):
        parse_presentation("monoid X\nrelation a = a\ngenerators a\n")


def test_make_presentation_reads_terms():
    p = make_presentation("T", ["a", "b"], [("2*a", "b"), ("a + b", "b + a"), ("b", "0")])
    assert p.relations == (Relation(Word.of([(0, 2)]), Word.of([(1, 1)])), Relation(Word.of([(1, 1)]), Word()))
    with pytest.raises(ParseError, match="unknown generator 'c'"):
        make_presentation("bad", ["a"], [("a", "a + c")])


def test_presentation_validates_indices():
    gens = GeneratorSet(("a",))
    with pytest.raises(ValueError, match="index 3 out of range"):
        Presentation(gens, (Relation(Word.of([(0, 1)]), Word.of([(3, 1)])),), "bad")


def test_word_helper():
    p = parse_presentation(SAMPLE)
    assert p.word("2*x0") == Word.of([(0, 2)])
