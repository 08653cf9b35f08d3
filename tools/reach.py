#!/usr/bin/env python3
"""Report which statements of ``src/optomac`` the command line reaches.

Runs the ``optomac`` command in this process under ``sys.settrace`` (the
standard library only) on:

* every scenario under every protocol (``config.SCENARIO_NAMES`` and
  ``config.PROTOCOL_NAMES``), seeds 0-2, at the ``power`` trace level,
  writing the artifacts and then verifying them;
* every document in ``tests/data`` the same way, as CI's artifact step
  runs them: among them the inputs with laser gaps, with bottom detectors
  lit and with relay requests repeated over a long inert stretch;
* ``--dump-patterns``.

Then it prints, per module, each function that ran with the statements it
never reached, and the functions never entered.  A statement is every
statement in a function body except the docstring; a compound statement
counts as reached when its own lines or any statement inside it ran.

Run from the repository root, with no arguments::

    python tools/reach.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "optomac"
CONFIGS = {path.stem: path
           for path in sorted((ROOT / "tests" / "data").glob("*.json"))}
SEEDS = "0..2"

_BODIES = ("body", "orelse", "finalbody", "handlers")


class Statement:
    """One statement: its own lines and the statements nested in it."""

    def __init__(self, node: ast.stmt, children: list["Statement"]):
        self.line = node.lineno
        self.children = children
        inner = set()
        for child in children:
            inner.update(child.span)
        self.span = set(range(node.lineno, node.end_lineno + 1))
        self.own = self.span - inner

    def reached(self, hit: set[int]) -> bool:
        return bool(self.own & hit) or any(c.reached(hit)
                                           for c in self.children)

    def unreached(self, hit: set[int]) -> list[int]:
        """The first lines of this statement and those inside it that
        never ran."""
        out = [] if self.reached(hit) else [self.line]
        for child in self.children:
            out += child.unreached(hit)
        return out

    def count(self) -> int:
        return 1 + sum(c.count() for c in self.children)


# dotted name -> (first line of its code object, statements of its body)
Functions = dict[str, tuple[int, list[Statement]]]


def _statements(body: list[ast.stmt], functions: Functions, prefix: str
                ) -> list[Statement]:
    """The statements of ``body``; functions and classes defined in it are
    recorded in ``functions`` under their dotted names instead."""
    out = []
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _function(node, functions, prefix)
            children: list[Statement] = []
        elif isinstance(node, ast.ClassDef):
            _statements(node.body, functions, f"{prefix}{node.name}.")
            children = []
        else:
            children = []
            for field in _BODIES:
                for part in getattr(node, field, []):
                    # an except clause is no statement; its body is
                    block = part.body if isinstance(part, ast.excepthandler) \
                        else [part]
                    children += _statements(block, functions, prefix)
        out.append(Statement(node, children))
    return out


def _function(node, functions: Functions, prefix: str) -> None:
    body = node.body
    if (isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]
    name = f"{prefix}{node.name}"
    # a decorated function's code starts at its first decorator
    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
    functions[name] = (first, _statements(body, functions, f"{name}."))


def functions_of(path: Path) -> Functions:
    functions: Functions = {}
    _statements(ast.parse(path.read_text()).body, functions, "")
    return functions


def _runs(out: Path) -> list[list[str]]:
    """The command lines to trace, each writing then verifying."""
    from optomac.config import PROTOCOL_NAMES, SCENARIO_NAMES
    runs = []
    inputs = [(["--scenario", s, "--protocol", p], f"{s}-{p}")
              for s in SCENARIO_NAMES for p in PROTOCOL_NAMES]
    inputs += [(["--config", str(path), "--protocol", p], f"{label}-{p}")
               for label, path in CONFIGS.items() for p in PROTOCOL_NAMES]
    for args, label in inputs:
        run = args + ["--seeds", SEEDS, "--trace-level", "power"]
        runs.append(run + ["--out", str(out / label)])
        runs.append(run + ["--verify", str(out / label)])
    runs.append(["--scenario", "photothermal", "--dump-patterns"])
    return runs


def trace_cli() -> tuple[dict[str, set[int]], dict[str, set[int]]]:
    """Per source file of the package, the lines that ran and the first
    lines of the code objects that were entered, while the runs execute."""
    hit: dict[str, set[int]] = {}
    entered: dict[str, set[int]] = {}
    package = str(PACKAGE)

    def local(frame, event, arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(package):
            return None
        entered.setdefault(filename, set()).add(frame.f_code.co_firstlineno)
        hit.setdefault(filename, set())
        return local

    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        sys.settrace(global_)
        try:
            from optomac import cli
            for argv in _runs(Path(tmp)):
                # a stdout over bytes, as a terminal's: --dump-patterns
                # writes UTF-8 bytes to it
                with contextlib.redirect_stdout(
                        io.TextIOWrapper(io.BytesIO(), "utf-8")), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(argv)
                if code not in (0, 1):
                    raise SystemExit(f"optomac {' '.join(argv)}: exit {code}")
        finally:
            sys.settrace(None)
    return ({str(Path(k).resolve()): v for k, v in hit.items()},
            {str(Path(k).resolve()): v for k, v in entered.items()})


def _ranges(lines: list[int]) -> str:
    parts: list[list[int]] = []
    for line in sorted(lines):
        if parts and parts[-1][1] == line - 1:
            parts[-1][1] = line
        else:
            parts.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in parts)


def main() -> int:
    hit, entered = trace_cli()
    never: list[str] = []
    total = missed_total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        key = str(path.resolve())
        lines, starts = hit.get(key, set()), entered.get(key, set())
        report = []
        for name, (first, body) in functions_of(path).items():
            size = sum(s.count() for s in body)
            total += size
            if first not in starts:
                never.append(f"{path.stem}.{name}")
                missed_total += size
                continue
            missed = [line for s in body for line in s.unreached(lines)]
            missed_total += len(missed)
            if missed:
                report.append(f"  {name}: {len(missed)} of {size} "
                              f"unreached, lines {_ranges(missed)}")
        if report:
            print(path.relative_to(ROOT))
            print("\n".join(report))
    print(f"never entered ({len(never)}):")
    for name in never:
        print(f"  {name}")
    print(f"{total - missed_total} of {total} statements in functions "
          "reached")
    return 0


if __name__ == "__main__":
    sys.exit(main())
