"""Token kinds for the while-language frontend.

A token is a plain tuple ``(kind, value, line, column)`` with a 1-based
source position; :data:`KIND`, :data:`VALUE`, :data:`LINE` and
:data:`COLUMN` name its fields.  A value fixes its kind except for
identifiers: no identifier spells a keyword or a punctuation mark, and
only EOF has the empty value, so the parser tests keywords and
punctuation by value alone.
"""

# Token kinds
IDENT = "IDENT"
KEYWORD = "KEYWORD"
PUNCT = "PUNCT"
EOF = "EOF"

# Token fields
KIND, VALUE, LINE, COLUMN = range(4)

KEYWORDS = frozenset(
    {
        "class",
        "extends",
        "library",
        "field",
        "method",
        "static",
        "entry",
        "new",
        "null",
        "call",
        "return",
        "if",
        "else",
        "loop",
        "while",
        "nonnull",
    }
)

PUNCTUATION = (
    "[]",  # array marker; must precede single-char tokens
    "{",
    "}",
    "(",
    ")",
    ";",
    ",",
    "=",
    ".",
    "@",
    "*",
)
