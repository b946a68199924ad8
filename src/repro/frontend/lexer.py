"""Lexer for the mini-C language the workloads are written in.

Supports the C subset that the NAS/Parboil kernel recreations need:
numeric literals, identifiers/keywords, all arithmetic/logic/assignment
operators, comments and a tiny preprocessor (``#define NAME <number>``
object-like macros only; ``#include`` lines are ignored).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..errors import LexError, SourceLocation

KEYWORDS = frozenset({
    "void", "char", "int", "long", "float", "double", "unsigned", "signed",
    "const", "static", "struct", "if", "else", "for", "while", "do",
    "return", "break", "continue", "sizeof",
})

# Longest-match-first operator table.
OPERATORS = (
    "<<=", ">>=", "...",
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^", "~",
    "?", ":", ";", ",", ".", "(", ")", "[", "]", "{", "}",
)

_FLOAT = (r"(?:\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
          r"|\d+[eE][+-]?\d+)[fF]?")
_INT = r"(?:0[xX][0-9a-fA-F]+|\d+)[uUlL]*"
_IDENT_RE = re.compile(r"[A-Za-z_]\w*")

# One alternation in the order the kinds are tried: a float before an int
# (so ``1.5`` is not ``1`` then ``.5``), numbers before identifiers, and the
# operator table longest first. ``re`` alternation takes the first branch
# that matches, so this is the same maximal-munch rule token by token.
_TOKEN_RE = re.compile("|".join((
    r"(?P<nl>\n)",
    r"(?P<ws>[ \t\r]+)",
    f"(?P<float>{_FLOAT})",
    f"(?P<int>{_INT})",
    f"(?P<ident>{_IDENT_RE.pattern})",
    "(?P<op>" + "|".join(re.escape(op) for op in OPERATORS) + ")",
)))

# A block comment without its ``*/`` falls through to the bare ``/*``.
_COMMENT_RE = re.compile(r"//[^\n]*|/\*.*?\*/|/\*", re.DOTALL)


@dataclass(frozen=True)
class Token:
    kind: str  # 'ident', 'keyword', 'int', 'float', 'op', 'eof'
    text: str
    location: SourceLocation

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r})"


def strip_comments(source: str) -> str:
    """Remove // and /* */ comments, preserving line structure."""
    return _COMMENT_RE.sub(_blank_comment, source)


def _blank_comment(match: re.Match) -> str:
    text = match.group(0)
    if text == "/*":
        raise LexError("unterminated block comment")
    return "\n" * text.count("\n")


def preprocess(source: str) -> str:
    """Apply the tiny preprocessor: object-like numeric #defines.

    ``#include`` lines are dropped. Macro bodies may reference earlier
    macros. Non-numeric or function-like macros are rejected.
    """
    source = strip_comments(source)
    macros: dict[str, str] = {}
    lines_out: list[str] = []
    for lineno, line in enumerate(source.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("#include"):
            lines_out.append("")
            continue
        if stripped.startswith("#define"):
            body = stripped[len("#define"):].strip()
            match = re.match(r"([A-Za-z_]\w*)(\(.*?\))?\s*(.*)$", body)
            if not match:
                raise LexError("malformed #define",
                               SourceLocation(lineno, 1))
            if match.group(2):
                raise LexError("function-like macros are not supported",
                               SourceLocation(lineno, 1))
            name, value = match.group(1), match.group(3).strip()
            value = _expand_macros(value, macros)
            macros[name] = value
            lines_out.append("")
            continue
        if stripped.startswith("#"):
            raise LexError(f"unsupported preprocessor directive: {stripped}",
                           SourceLocation(lineno, 1))
        lines_out.append(_expand_macros(line, macros))
    return "\n".join(lines_out)


def _expand_macros(text: str, macros: dict[str, str]) -> str:
    if not macros:
        return text

    def replace(match: re.Match) -> str:
        word = match.group(0)
        expansion = macros.get(word)
        return f"({expansion})" if expansion is not None else word

    # Iterate to support macros referencing macros (bounded to avoid cycles).
    for _ in range(8):
        new = _IDENT_RE.sub(replace, text)
        if new == text:
            return new
        text = new
    return text


def tokenize(source: str, filename: str = "<input>") -> list[Token]:
    """Tokenize preprocessed mini-C source."""
    source = preprocess(source)
    tokens: list[Token] = []
    append = tokens.append
    match = _TOKEN_RE.match
    keywords = KEYWORDS
    line = 1
    line_start = 0
    i, n = 0, len(source)
    while i < n:
        m = match(source, i)
        if m is None:
            raise LexError(f"unexpected character {source[i]!r}",
                           SourceLocation(line, i - line_start + 1,
                                          filename))
        kind = m.lastgroup
        end = m.end()
        if kind == "nl":
            line += 1
            line_start = end
        elif kind != "ws":
            text = m.group()
            if kind == "ident" and text in keywords:
                kind = "keyword"
            append(Token(kind, text,
                         SourceLocation(line, i - line_start + 1, filename)))
        i = end
    tokens.append(Token("eof", "", SourceLocation(line, 1, filename)))
    return tokens
