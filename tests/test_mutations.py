"""Mutation harness: every seeded defect is caught by the intended pass.

Each test plants one known-bad artifact -- a corrupted IR or a corrupted
lowered stream -- and asserts the static verification layer reports it
under the expected pass/rule.  The
companion guarantee (zero findings on the shipped kernel x ISA grid,
i.e. no false positives) lives in ``test_analysis.py``.

IR mutants bypass ``__post_init__`` with ``object.__setattr__`` on deep
copies, exactly the route a buggy future IR producer would take; stream
mutants wrap a genuinely-built kernel behind a proxy whose trace has one
instruction edited, inserted or dropped.
"""

import copy

from repro.analysis import check_ir, check_ranges, check_stream
from repro.analysis.streamcheck import _extents
from repro.emulib.trace import DynInstr
from repro.kernels import KERNELS
from repro.vc import COMPILED, compile_kernel
from repro.vc.ir import (Buffer, Const, Load, LoopKernel, SatU8, Shr, Sub,
                         Mul)


# --- plumbing ---------------------------------------------------------------

def _built(name, isa):
    spec = KERNELS[name]
    record = COMPILED[name]
    workload = spec.make_workload(1)
    return compile_kernel(record.ir, isa, record.bind(workload),
                          record.output_key)


class _Mutant:
    """A builder proxy whose trace has been tampered with."""

    def __init__(self, builder, trace):
        self._builder = builder
        self.trace = trace

    def __getattr__(self, name):
        return getattr(self._builder, name)


def _clone(instr, **over):
    fields = dict(op=instr.op, srcs=instr.srcs, dsts=instr.dsts,
                  addr=instr.addr, nbytes=instr.nbytes, stride=instr.stride,
                  vl=instr.vl, taken=instr.taken, site=instr.site)
    fields.update(over)
    return DynInstr(**fields)


def _rules(findings):
    return {(f.pass_name, f.rule) for f in findings}


def _find(trace, predicate):
    for i, instr in enumerate(trace):
        if predicate(instr):
            return i
    raise AssertionError("mutation anchor not found in trace")


def _nodes(expr, kind):
    out = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, kind):
            out.append(node)
        stack.extend(v for v in vars(node).values()
                     if hasattr(v, "children"))
    return out


# --- IR mutations (caught by the ir pass) -----------------------------------

def test_mutation_const_out_of_domain():
    ir = copy.deepcopy(COMPILED["blend"].ir)
    object.__setattr__(_nodes(ir.expr, Const)[0], "value", 70000)
    assert ("ir", "const-range") in _rules(check_ir(ir))


def test_mutation_bad_tile_shape():
    ir = copy.deepcopy(COMPILED["blend"].ir)
    object.__setattr__(ir, "cols", 12)
    assert ("ir", "tile-shape") in _rules(check_ir(ir))


def test_mutation_identical_reduction_operands():
    ir = copy.deepcopy(COMPILED["ssd"].ir)
    sub = _nodes(ir.expr, Sub)[0]
    object.__setattr__(sub, "b", copy.deepcopy(sub.a))
    assert ("ir", "reduce-shape") in _rules(check_ir(ir))


def test_mutation_shift_count_out_of_range():
    ir = copy.deepcopy(COMPILED["blend"].ir)
    object.__setattr__(_nodes(ir.expr, Shr)[0], "count", 17)
    assert ("ir", "shift-count") in _rules(check_ir(ir))


# --- range mutations (caught by the saturation-range pass) ------------------

def test_mutation_dropped_saturation():
    ir = copy.deepcopy(COMPILED["blend"].ir)
    assert isinstance(ir.expr, SatU8)
    # Stripping SatU8 leaves a half-domain root: structurally invalid.
    object.__setattr__(ir, "expr", ir.expr.a)
    assert ("ir", "unsaturated-root") in _rules(check_ir(ir))
    # Stripping the scaling shift as well makes the root's interval
    # provably escape u8: the range proof fails on every ISA.
    object.__setattr__(ir, "expr", ir.expr.a)
    for isa in ("alpha", "mmx"):
        findings, _ = check_ranges(ir, None, isa)
        assert ("range", "root-range") in _rules(findings), isa


def test_mutation_wrapping_multiply_constant():
    ir = copy.deepcopy(COMPILED["blend"].ir)
    mul = _nodes(ir.expr, Mul)[0]
    object.__setattr__(_nodes(mul, Const)[0], "value", 400)
    findings, checkpoints = check_ranges(ir, None, "mmx")
    assert ("range", "half-width") in _rules(findings)
    assert any(c["status"] == "violated" for c in checkpoints)


def test_mutation_scalar_table_escape():
    # SatU8 over an interval dipping below -TABLE_BIAS: packushb absorbs
    # it, but the scalar lookup table does not.
    ir = LoopKernel(
        name="mutant", rows=8, cols=8,
        buffers=(Buffer("src"), Buffer("out", out=True)),
        expr=SatU8(Sub(Load("src"), Const(300))),
    )
    scalar, _ = check_ranges(ir, None, "alpha")
    packed, _ = check_ranges(ir, None, "mmx")
    assert ("range", "sat-table") in _rules(scalar)
    assert ("range", "sat-table") not in _rules(packed)


def test_mutation_unsaturated_store():
    built = _built("blend", "mmx")
    trace = list(built.builder.trace)
    pack_at = _find(trace, lambda x: x.op.name == "packushb")
    donor = trace[_find(trace, lambda x: x.op.name == "paddh")]
    trace[pack_at] = _clone(trace[pack_at], op=donor.op)
    findings = check_stream(_Mutant(built.builder, trace), "blend", "mmx")
    assert ("range", "unsaturated-store") in _rules(findings)


# --- stream mutations (caught by the dataflow pass) -------------------------

def test_mutation_vl_corruption():
    built = _built("blend", "mom")
    trace = list(built.builder.trace)
    at = _find(trace, lambda x: x.vl > 1)
    wild = trace[:]
    wild[at] = _clone(wild[at], vl=17)
    findings = check_stream(_Mutant(built.builder, wild), "blend", "mom")
    assert ("dataflow", "vl-range") in _rules(findings)

    short = trace[:]
    short[at] = _clone(short[at], vl=trace[at].vl - 1)
    findings = check_stream(_Mutant(built.builder, short), "blend", "mom")
    assert ("dataflow", "vl-mismatch") in _rules(findings)


def test_mutation_off_by_one_tile():
    built = _built("blend", "mmx")
    trace = list(built.builder.trace)
    extents = _extents(built.builder)
    src_end = next(end for name, _, end in extents if name == "src0")
    at = _find(trace, lambda x: x.op.iclass.is_memory and x.addr is not None)
    # Slide the access so it straddles the end of its buffer.
    trace[at] = _clone(trace[at], addr=src_end - trace[at].nbytes // 2)
    findings = check_stream(_Mutant(built.builder, trace), "blend", "mmx")
    assert ("dataflow", "oob") in _rules(findings)


def test_mutation_wild_pointer():
    built = _built("blend", "mmx")
    trace = list(built.builder.trace)
    at = _find(trace, lambda x: x.op.iclass.is_memory and x.addr is not None)
    trace[at] = _clone(trace[at], addr=built.builder.mem._brk + 4096)
    findings = check_stream(_Mutant(built.builder, trace), "blend", "mmx")
    assert ("dataflow", "oob") in _rules(findings)


def test_mutation_dropped_clracc():
    built = _built("ssd", "mdmx")
    trace = list(built.builder.trace)
    clears = [i for i, x in enumerate(trace) if x.op.name == "clracc"]
    assert len(clears) >= 8, "need at least two instances of clears"
    del trace[clears[5]]        # a mid-stream clear, not the first group
    findings = check_stream(_Mutant(built.builder, trace), "ssd", "mdmx")
    assert ("dataflow", "acc-stale") in _rules(findings)


def test_mutation_dropped_accumulate():
    built = _built("ssd", "mdmx")
    trace = list(built.builder.trace)
    at = _find(trace, lambda x: x.dsts and x.dsts[0] in x.srcs
               and x.op.name.startswith("pacc"))
    del trace[at]
    findings = check_stream(_Mutant(built.builder, trace), "ssd", "mdmx")
    assert ("dataflow", "acc-count") in _rules(findings)


def test_mutation_removed_zeroing_def():
    built = _built("ssd", "mmx")
    trace = list(built.builder.trace)
    at = _find(trace, lambda x: x.op.name == "pxor")
    del trace[at]
    findings = check_stream(_Mutant(built.builder, trace), "ssd", "mmx")
    assert ("dataflow", "use-before-def") in _rules(findings)


def test_mutation_swapped_operand():
    built = _built("blend", "mmx")
    trace = list(built.builder.trace)
    at = _find(trace, lambda x: len(x.srcs) >= 2 and not x.dsts[0] in x.srcs
               if x.dsts else False)
    instr = trace[at]
    phantom = (instr.srcs[0] & ~0xFF) | 0x3F      # same pool, never written
    trace[at] = _clone(instr, srcs=(phantom,) + instr.srcs[1:])
    findings = check_stream(_Mutant(built.builder, trace), "blend", "mmx")
    assert ("dataflow", "use-before-def") in _rules(findings)


def test_mutation_injected_dead_write():
    built = _built("blend", "mmx")
    trace = list(built.builder.trace)
    # Duplicate a load: the first of the pair is overwritten unread.
    at = _find(trace, lambda x: x.op.name == "mmx_ldq")
    trace.insert(at, _clone(trace[at]))
    findings = check_stream(_Mutant(built.builder, trace), "blend", "mmx")
    assert ("dataflow", "dead-write") in _rules(findings)
