"""Print the source size of the qspde package: lines and Python tokens.

Tokens are counted with the standard tokenize module over src/qspde/*.py,
leaving out comments and the layout tokens (NL, NEWLINE, INDENT, DEDENT,
ENDMARKER), so that reflowing code or comments does not move the count.

    python tools/count_tokens.py
"""

import pathlib
import tokenize

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def main():
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "qspde"
    lines = tokens = 0
    for path in sorted(src.glob("*.py")):
        with open(path, encoding="utf-8") as fh:
            lines += sum(1 for _ in fh)
            fh.seek(0)
            tokens += sum(1 for tok in tokenize.generate_tokens(fh.readline) if tok.type not in SKIP)
    print(f"src/qspde: {lines} lines, {tokens} tokens")


if __name__ == "__main__":
    main()
