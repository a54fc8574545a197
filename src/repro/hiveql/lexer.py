"""Tokenizer for the HiveQL subset."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List

from repro.errors import HiveQLSyntaxError

KEYWORDS = {
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "ORDER", "ASC", "DESC",
    "LIMIT", "JOIN", "INNER", "ON", "AS", "AND", "OR", "NOT", "BETWEEN",
    "IN", "CREATE", "TABLE", "INDEX", "DROP", "EXPLAIN", "ANALYZE", "SHOW",
    "TABLES",
    "INDEXES", "DESCRIBE", "INSERT", "OVERWRITE", "INTO", "DIRECTORY",
    "STORED", "PARTITIONED", "IDXPROPERTIES", "WITH", "DEFERRED", "REBUILD",
    "NULL", "TRUE", "FALSE", "DISTINCT", "LIKE", "IF", "EXISTS",
}

#: exponent suffix of a numeric literal (``1e-05``, ``2.5E+16``)
_EXPONENT = re.compile(r"[eE][+-]?[0-9]+")

SYMBOLS = ("<=", ">=", "<>", "!=", "=", "<", ">", "(", ")", ",", ".", "*",
           "+", "-", "/", ";", "%")


@dataclass(frozen=True)
class Token:
    """One lexical token: kind in {KEYWORD, IDENT, NUMBER, STRING, SYMBOL,
    EOF}, the matched text (keywords upper-cased), and its byte offset."""

    kind: str
    text: str
    position: int

    def is_keyword(self, word: str) -> bool:
        return self.kind == "KEYWORD" and self.text == word.upper()

    def is_symbol(self, sym: str) -> bool:
        return self.kind == "SYMBOL" and self.text == sym


def tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    pos = 0
    length = len(text)
    while pos < length:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if text.startswith("--", pos):  # line comment
            newline = text.find("\n", pos)
            pos = length if newline < 0 else newline + 1
            continue
        if ch == "'" or ch == '"':
            end = text.find(ch, pos + 1)
            if end < 0:
                raise HiveQLSyntaxError("unterminated string literal",
                                        pos, text)
            tokens.append(Token("STRING", text[pos + 1:end], pos))
            pos = end + 1
            continue
        if ch.isdigit() or (ch == "." and pos + 1 < length
                            and text[pos + 1].isdigit()):
            end = pos
            seen_dot = False
            while end < length and (text[end].isdigit()
                                    or (text[end] == "." and not seen_dot)):
                if text[end] == ".":
                    # "1.x" where x is not a digit is "1" "." "x"
                    if end + 1 >= length or not text[end + 1].isdigit():
                        break
                    seen_dot = True
                end += 1
            exponent = _EXPONENT.match(text, end)
            if exponent:
                end = exponent.end()
            tokens.append(Token("NUMBER", text[pos:end], pos))
            pos = end
            continue
        if ch.isalpha() or ch == "_":
            end = pos
            while end < length and (text[end].isalnum() or text[end] == "_"):
                end += 1
            word = text[pos:end]
            if word.upper() in KEYWORDS:
                tokens.append(Token("KEYWORD", word.upper(), pos))
            else:
                tokens.append(Token("IDENT", word, pos))
            pos = end
            continue
        for sym in SYMBOLS:
            if text.startswith(sym, pos):
                tokens.append(Token("SYMBOL", sym, pos))
                pos += len(sym)
                break
        else:
            raise HiveQLSyntaxError(f"unexpected character {ch!r}", pos, text)
    tokens.append(Token("EOF", "", length))
    return tokens
