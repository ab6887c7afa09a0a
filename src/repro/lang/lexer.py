"""Lexer for the while language.

Identifiers may contain ``/``, ``:``, ``#`` and ``-`` after the first
character so that machine-generated site/callsite labels (which embed method
signatures, e.g. ``Main.main/Order``) survive a print/parse round trip.

The source is cut into lines and one regular expression splits each
line into (leading blanks, token) pairs, so the Python loop runs once
per token and builds one tuple per token (see :mod:`repro.lang.tokens`).
"""

import re

from repro.errors import ParseError
from repro.lang.tokens import EOF, IDENT, KEYWORD, KEYWORDS, PUNCT, PUNCTUATION

#: One match per token: its leading blanks, then exactly one of an
#: identifier, a punctuation mark, the start of a comment or any other
#: non-blank (unexpected) character.  The blanks group can match
#: nothing, so a run of blanks with no token after it would be retried
#: from each of its positions (quadratic in the run); ``tokenize``
#: therefore matches only the line with its trailing blanks stripped.
_TOKEN_RE = re.compile(
    r"([ \t\r]*)(?:([A-Za-z_$][A-Za-z0-9_$/:#-]*)|(%s)|(//)|([^ \t\r]))"
    % "|".join(re.escape(punct) for punct in PUNCTUATION)
)


def tokenize(source):
    """Convert source text into a list of token tuples ending with EOF.

    Comments run from ``//`` to end of line.
    """
    tokens = []
    append = tokens.append
    findall = _TOKEN_RE.findall
    line = 0
    for text in source.split("\n"):
        line += 1
        col = 1
        for blanks, word, punct, comment, other in findall(text.rstrip(" \t\r")):
            if blanks:
                col += len(blanks)
            if word:
                append((KEYWORD if word in KEYWORDS else IDENT, word, line, col))
                col += len(word)
            elif punct:
                append((PUNCT, punct, line, col))
                col += len(punct)
            elif comment:
                break
            else:
                raise ParseError("unexpected character %r" % other, line, col)
        else:
            # Trailing blanks move the column; a comment does not.
            col = len(text) + 1
    append((EOF, "", line, col))
    return tokens
