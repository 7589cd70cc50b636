"""Code lines of src/padua, per module and in total: lines that hold a token other than a
comment, a line break or indentation, outside docstrings (ast + tokenize).

Run: python checks/code_lines.py [package directory]
"""

import ast, io, sys, tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}

def code_lines(source):
    """The number of code lines of a module's source: a docstring is the string statement
    that opens the body of a module, class or function, and takes all its lines."""
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docs.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)

def main(package=ROOT / "src" / "padua"):
    """Print each module's code lines and the total; return the total."""
    counts = {path.name: code_lines(path.read_text()) for path in sorted(Path(package).glob("*.py"))}
    for name, count in counts.items():
        print(f"{name:15} {count:5}")
    print(f"{'total':15} {sum(counts.values()):5}")
    return sum(counts.values())

if __name__ == "__main__":
    main(*sys.argv[1:])
