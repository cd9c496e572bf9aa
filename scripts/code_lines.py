#!/usr/bin/env python3
"""Count code lines per Python module and in total.

A line counts when it holds a token, as ``tokenize`` splits the source,
that is not a comment or a docstring.  A docstring is a string that is a
statement by itself; a token that spans lines, such as a triple-quoted
string inside an expression, counts every line it spans.  Blank lines,
comment lines and docstring lines do not count.

Usage: ``python3 scripts/code_lines.py PATH [PATH ...]``, where each PATH
is a ``.py`` file or a directory searched for them recursively.  Prints
one ``count path`` line per module, then ``count total``.
"""
import argparse
import sys
import tokenize
from pathlib import Path

# tokens that hold no code of their own
_LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}
# tokens after which a string starts a statement
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
                    tokenize.ENCODING}


def code_lines(path) -> int:
    """The number of code lines in the Python file ``path``."""
    with open(path, "rb") as f:
        # comments and line breaks inside a statement or between them
        # hold no code and end no statement
        tokens = [t for t in tokenize.tokenize(f.readline)
                  if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    # the first token is ENCODING and the last ENDMARKER, neither code
    for before, tok, after in zip(tokens, tokens[1:], tokens[2:]):
        if tok.type in _LAYOUT:
            continue
        if (tok.type == tokenize.STRING and before.type in _STATEMENT_START
                and after.type == tokenize.NEWLINE):
            continue  # a docstring
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def python_files(paths):
    """Each ``.py`` file named in ``paths`` or found under a directory there,
    in sorted order."""
    for path in map(Path, paths):
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        else:
            yield path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("paths", nargs="+",
                        help="Python files, or directories to search")
    args = parser.parse_args(argv)
    total = 0
    for path in python_files(args.paths):
        count = code_lines(path)
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")


if __name__ == "__main__":
    sys.exit(main())
