"""One lexer for terms and types: `syntax.Lexer` under each grammar's token
table gives the tokens and the errors of the hand-written loops in
conftest (`ref_term_tokens`, `ref_type_tokens`)."""

import pytest
from hypothesis import given, strategies as st

from bangcalc.qtypes import TYPE_TOKENS, BaseVar, TypeParseError, parse_type
from bangcalc.syntax import TERM_TOKENS, Lexer, ParseError

from conftest import ref_term_tokens, ref_type_tokens

TABLES = [(TERM_TOKENS, ref_term_tokens), (TYPE_TOKENS, ref_type_tokens)]
# both grammars' characters, their near misses, and characters neither takes
ALPHABET = "\\λ.()[]!:=xyzoder_'0129,->abn \t\n é#²٣-:"


def outcome(lex, *args):
    try:
        return "ok", lex(*args)
    except (ParseError, TypeParseError) as ex:
        return type(ex).__name__, str(ex)


@pytest.mark.parametrize("table, ref", TABLES, ids=["term", "type"])
@given(text=st.text(alphabet=ALPHABET, max_size=40))
def test_tokens_and_errors_match_the_reference_lexers(table, ref, text):
    assert outcome(lambda t: Lexer(t, table).toks, text) == outcome(ref, text)


@pytest.mark.parametrize("table, ref", TABLES, ids=["term", "type"])
@given(text=st.text(max_size=20))
def test_any_text_lexes_as_the_reference_lexers_do(table, ref, text):
    assert outcome(lambda t: Lexer(t, table).toks, text) == outcome(ref, text)


@pytest.mark.parametrize("text, message", [
    ("o²", "bad character 'o' in type"),
    ("o1²", "bad character '²' in type"),
    ("[o٣]", "bad character 'o' in type"),
])
def test_a_base_variable_is_o_and_decimal_digits(text, message):
    with pytest.raises(TypeParseError) as ex:
        parse_type(text)
    assert str(ex.value) == message
    assert parse_type("o12") == BaseVar(12)
