"""Every executable line of src/toricpick runs in the tier-1 suite.

Runs the tier-1 suite in this process under sys.settrace, recording each
line event in a frame of src/toricpick, and fails if an executable line
never ran.  The executable lines of a module are those that co_lines() of
its code objects names, line 0 (no source line) left out.  Only code that
runs in a child process is allowed to stay unrun: cli.entry, the console
entry point, with its call under cli.py's `if __name__ == "__main__":`, and
__main__.py, the `python -m toricpick` shim.  The outcome
of the tests is not gated here (the tier-1 step judges it, and the wall-time
bounds of test_cli.py do not hold under a tracer), only the unrun lines.
Needs Python 3.11 or later (co_qualname).  From the repository root:

    PYTHONPATH=src python tests/line_trace.py
"""

import ast
import os
import sys
import types

import pytest

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src", "toricpick")
# (module, qualified name) of code that runs only in a child process; None is the whole module
CHILD_ONLY = {("cli.py", "entry"), ("__main__.py", None)}


def script_lines(tree):
    """The lines of the module-level `if __name__ == "__main__":` blocks."""
    return {line for node in tree.body
            if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
            for statement in node.body
            for line in range(statement.lineno, statement.end_lineno + 1)}


def executable_lines(path):
    """(lines, child_only): the executable lines of a module, and those of
    them that only code of CHILD_ONLY or a `__main__` block holds."""
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    code = compile(source, path, "exec")
    module, script = os.path.basename(path), script_lines(ast.parse(source))
    lines, held = set(), set()
    stack = [(code, (module, None) in CHILD_ONLY)]
    while stack:
        code, child = stack.pop()
        child = child or (module, code.co_qualname) in CHILD_ONLY
        for _, _, line in code.co_lines():
            if line:
                (held if child or line in script else lines).add(line)
        stack.extend((c, child) for c in code.co_consts if isinstance(c, types.CodeType))
    return lines | held, held - lines


def trace_suite(args):
    """Run pytest on args under a tracer; the lines run, by module path."""
    run, files = {}, {}

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        lines = files.get(name, False)
        if lines is False:
            path = os.path.abspath(name)
            lines = files[name] = (run.setdefault(path, set())
                                   if os.path.dirname(path) == SRC else None)
        if lines is None:
            return None

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line
        return on_line

    sys.settrace(on_call)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
    return run, status


def main():
    run, status = trace_suite(["-q", "-p", "no:cacheprovider", TESTS])
    unrun, allowed = [], 0
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            path = os.path.join(SRC, name)
            lines, child_only = executable_lines(path)
            missed = lines - run.get(path, set())
            allowed += len(missed & child_only)
            unrun += ["%s:%d" % (name, line) for line in sorted(missed - child_only)]
    print("pytest exit status %s (not gated here); %d unrun lines of child-only code"
          % (status, allowed))
    if unrun:
        print("%d executable lines of src/toricpick never ran:" % len(unrun))
        print("\n".join(unrun))
        return 1
    print("every other executable line of src/toricpick ran")
    return 0


if __name__ == "__main__":
    sys.exit(main())
