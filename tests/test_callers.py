"""Every definition in ``src/repro`` has a caller outside its own tests.

An AST scan collects each function, method and class defined in the
package and looks for its name anywhere else in ``src/repro``,
``examples/``, ``perfbench/`` or ``benchmarks/``.  A definition whose name
appears nowhere else is code that only its own tests exercise (or nothing
does): delete it with those tests, or name it in :data:`ALLOWED` with the
reason it stays.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
SEARCHED = (PACKAGE, ROOT / "examples", ROOT / "perfbench", ROOT / "benchmarks")

#: Callerless definitions that stay, keyed ``module:qualified.name``.
ALLOWED = {
    "exp/engine.py:Session.run_point":
        "the README quickstart's one-point entry",
    "emulib/disasm.py:disassemble":
        "DESIGN section 10's listing/parse round trip",
    "emulib/disasm.py:parse_instr":
        "DESIGN section 10's listing/parse round trip",
    "apps/reference.py:avg_ref":
        "numpy reference of the avg_block stage",
    "apps/reference.py:dot16_ref":
        "numpy reference of the dot16 stage",
    "core/matrix.py:MomRegister.from_lane_matrix":
        "how tests build matrix-register inputs",
    "core/accumulator.py:PackedAccumulator.read_third":
        "how tests check the raw 192-bit accumulator image",
    "emulib/base_builder.py:RegisterAllocator.in_use":
        "how tests check the allocator's free-list invariant",
    "isa/model.py:InstrClass.is_load":
        "one of the is_* class-property family",
    "isa/model.py:InstrClass.is_control":
        "one of the is_* class-property family",
    "cpu/core.py:SimResult.ipc":
        "the headline per-point rate of a result",
}


def _definitions(tree: ast.AST, prefix: str = ""):
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node, prefix + node.name
            if isinstance(node, ast.ClassDef):
                yield from _definitions(node, prefix + node.name + ".")


def _callerless() -> set[str]:
    words = Counter()
    for base in SEARCHED:
        for path in base.rglob("*.py"):
            words.update(re.findall(r"\w+", path.read_text()))
    found = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).as_posix()
        for node, qualname in _definitions(ast.parse(path.read_text())):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if words[name] <= 1:      # the definition itself
                found.add(f"{module}:{qualname}")
    return found


def test_every_definition_has_a_caller():
    callerless = _callerless()
    unexplained = sorted(callerless - set(ALLOWED))
    assert not unexplained, (
        "defined in src/repro but named nowhere else in src, examples, "
        f"perfbench or benchmarks: {unexplained}"
    )


def test_allowlist_is_current():
    stale = sorted(set(ALLOWED) - _callerless())
    assert not stale, f"allowlisted definitions now have callers: {stale}"
