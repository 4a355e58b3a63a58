"""Each module of the package stays at or below TOKEN_LIMIT tokens.

Tokens are counted with the tokenize module, leaving out ENCODING, COMMENT
and NL, so comments, blank lines and the length of a docstring are free.
CPython's parser doubles its token buffer past 2^13 tokens, and with no
bytecode cache the package is compiled at every import, so a module past
the limit raises peak RSS by about half a megabyte (CHANGES.md).  The
largest modules are numkernel.py (5019 tokens), resolvent.py (4625) and
tails.py (3476), since every block model takes the one block scan; a
change that would take one past the limit makes room first.
"""
import pathlib
import tokenize

import pytest

import pseudolab

PACKAGE = pathlib.Path(pseudolab.__file__).parent
TOKEN_LIMIT = 8191
FREE = (tokenize.ENCODING, tokenize.COMMENT, tokenize.NL)


def _tokens(path: pathlib.Path) -> int:
    with path.open("rb") as fh:
        return sum(1 for tok in tokenize.tokenize(fh.readline) if tok.type not in FREE)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_stays_within_the_token_limit(path):
    assert _tokens(path) <= TOKEN_LIMIT


def test_the_count_skips_comments_and_blank_lines(tmp_path):
    plain = tmp_path / "plain.py"
    plain.write_text("x = 1\n")
    padded = tmp_path / "padded.py"
    padded.write_text("# a comment\n\nx = 1  # another\n\n")
    # NAME, OP, NUMBER, NEWLINE and ENDMARKER
    assert _tokens(plain) == _tokens(padded) == 5
