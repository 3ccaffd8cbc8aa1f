"""High-level IR (HIR) of the optimizing compiler.

The HIR is a block-structured, register-based IR with *explicit use-def
edges*: every operand of an instruction is a reference to the
instruction that produced it (or to a block-entry :samp:`param`, whose
producer is unknown).  Section 5.2's instructions-of-interest analysis
is a walk over exactly these edges: "the opt-compiler computes this
mapping by walking the use-def edges upwards from heap access
instructions".

Construction (:func:`build_hir`) abstractly interprets the operand
stack, so stack traffic disappears: values flow directly from producers
to consumers, and only block-boundary reconciliation ("sync moves" into
canonical per-local / per-stack-slot virtual registers) remains.  This
is the essential difference from baseline code, which spills every push
and pop to frame memory.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.vm.bytecode import (
    BRANCH_OPS,
    TERMINAL_OPS,
    Analysis,
    analyze,
    branch_target,
)
from repro.vm.model import MethodInfo

#: HIR operation names.
HIR_OPS = (
    "param", "const", "alu", "getfield", "putfield", "getstatic",
    "putstatic", "new", "newarray", "aload", "astore", "len",
    "call", "callv", "nullcheck", "move", "ret", "br", "bc",
)

#: Heap-access HIR ops: the candidate instructions S of section 5.2
#: (field/array accesses, virtual calls / object-header accesses).
HEAP_ACCESS_HIR_OPS = frozenset(
    {"getfield", "putfield", "aload", "astore", "len", "callv"}
)

#: Ops with observable effects (never dead-code-eliminated).  Loads are
#: included: they can fault and they produce the cache events the whole
#: system is about.
EFFECTFUL_OPS = frozenset(
    {"getfield", "putfield", "getstatic", "putstatic", "new", "newarray",
     "aload", "astore", "len", "call", "callv", "nullcheck", "move",
     "ret", "br", "bc"}
)


class HIRInst:
    """One HIR instruction; operands in ``args`` are use-def edges."""

    __slots__ = ("id", "op", "args", "aux", "imm", "typ", "vreg", "bc_index")

    def __init__(self, id_: int, op: str, args: Tuple = (), aux=None,
                 imm=None, typ: str = "v", vreg: Optional[int] = None,
                 bc_index: int = -1):
        self.id = id_
        self.op = op
        self.args = args
        self.aux = aux
        self.imm = imm
        self.typ = typ  # "i" int, "r" ref, "v" void, "x" conflict
        self.vreg = vreg
        self.bc_index = bc_index

    def __getstate__(self):
        return (self.id, self.op, self.args, self.aux, self.imm, self.typ,
                self.vreg, self.bc_index)

    def __setstate__(self, state):
        (self.id, self.op, self.args, self.aux, self.imm, self.typ,
         self.vreg, self.bc_index) = state

    def __repr__(self) -> str:
        ops = ",".join(f"t{a.id}" if a is not None else "?" for a in self.args)
        return f"<hir {self.id}: {self.op}({ops}) v{self.vreg}>"


class HIRBlock:
    """A basic block: bytecode range plus its instructions."""

    def __init__(self, index: int, start_bci: int):
        self.index = index
        self.start_bci = start_bci
        self.insts: List[HIRInst] = []
        #: Block indices of successors (filled by the builder).
        self.successors: List[int] = []

    def __repr__(self) -> str:
        return f"<block {self.index} @bc{self.start_bci} n={len(self.insts)}>"


class HIRFunction:
    """The HIR of one method."""

    def __init__(self, method: MethodInfo, blocks: List[HIRBlock],
                 max_locals: int, max_stack: int, analysis: Analysis):
        self.method = method
        self.blocks = blocks
        self.max_locals = max_locals
        self.max_stack = max_stack
        self.analysis = analysis
        #: Total virtual registers allocated (canonical + temps).
        self.vreg_count = 0
        #: vreg -> set of abstract types seen ("i"/"r").
        self.vreg_types: Dict[int, set] = {}

    # A set of strings pickles in string-hash order, which follows
    # PYTHONHASHSEED; sorted tuples make snapshot bytes independent of it.
    def __getstate__(self):
        state = self.__dict__.copy()
        state["vreg_types"] = {vreg: tuple(sorted(types))
                               for vreg, types in self.vreg_types.items()}
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.vreg_types = {vreg: set(types)
                           for vreg, types in self.vreg_types.items()}

    def all_insts(self):
        for block in self.blocks:
            yield from block.insts


def _leaders(method: MethodInfo) -> List[int]:
    """Bytecode indices that start basic blocks."""
    code = method.code
    leaders = {0}
    for pc, instr in enumerate(code):
        if instr.op in BRANCH_OPS:
            leaders.add(branch_target(instr))
            if pc + 1 < len(code):
                leaders.add(pc + 1)
        elif instr.op in TERMINAL_OPS and pc + 1 < len(code):
            leaders.add(pc + 1)
    return sorted(leaders)


class _Builder:
    """Abstract interpreter turning bytecode into HIR blocks."""

    def __init__(self, method: MethodInfo):
        self.method = method
        self.analysis = analyze(method)
        self.max_locals = method.max_locals
        self.max_stack = self.analysis.max_stack
        self._next_id = 0
        self._next_temp = self.max_locals + self.max_stack
        self.vreg_types: Dict[int, set] = {}
        self.func: Optional[HIRFunction] = None

    # vreg conventions: locals 0..L-1, stack slots L..L+S-1, temps above.
    def local_vreg(self, i: int) -> int:
        return i

    def stack_vreg(self, j: int) -> int:
        return self.max_locals + j

    def _new_inst(self, block: HIRBlock, op: str, args=(), aux=None, imm=None,
                  typ: str = "v", vreg: Optional[int] = None,
                  bc_index: int = -1) -> HIRInst:
        if vreg is None and typ in ("i", "r", "x"):
            vreg = self._next_temp
            self._next_temp += 1
        inst = HIRInst(self._next_id, op, tuple(args), aux, imm, typ, vreg,
                       bc_index)
        self._next_id += 1
        block.insts.append(inst)
        if vreg is not None and typ in ("i", "r"):
            self.vreg_types.setdefault(vreg, set()).add(typ)
        return inst

    def build(self) -> HIRFunction:
        method = self.method
        code = method.code
        leaders = _leaders(method)
        block_of_bci = {}
        blocks = []
        for index, bci in enumerate(leaders):
            block_of_bci[bci] = index
            blocks.append(HIRBlock(index, bci))
        bounds = leaders[1:] + [len(code)]

        for block, end_bci in zip(blocks, bounds):
            self._build_block(block, end_bci, block_of_bci, code)

        func = HIRFunction(method, blocks, self.max_locals, self.max_stack,
                           self.analysis)
        func.vreg_count = self._next_temp
        func.vreg_types = self.vreg_types
        return func

    def _entry_state(self, block: HIRBlock):
        """Materialize block-entry params for locals and stack slots."""
        state = self.analysis.states[block.start_bci]
        locals_: List[Optional[HIRInst]] = []
        for i, t in enumerate(state.locals):
            typ = t if t in ("i", "r") else "x"
            locals_.append(self._new_inst(block, "param", aux=("L", i),
                                          typ=typ, vreg=self.local_vreg(i),
                                          bc_index=block.start_bci))
        stack: List[HIRInst] = []
        for j, t in enumerate(state.stack):
            typ = t if t in ("i", "r") else "x"
            stack.append(self._new_inst(block, "param", aux=("S", j),
                                        typ=typ, vreg=self.stack_vreg(j),
                                        bc_index=block.start_bci))
        return locals_, stack

    def _sync_moves(self, block: HIRBlock, locals_, stack, bci: int) -> None:
        """Reconcile the abstract state with the canonical vregs."""
        for i, value in enumerate(locals_):
            if value is not None and not (value.op == "param"
                                          and value.aux == ("L", i)):
                self._new_inst(block, "move", (value,), aux=("L", i),
                               typ=value.typ if value.typ != "x" else "i",
                               vreg=self.local_vreg(i), bc_index=bci)
        for j, value in enumerate(stack):
            if not (value.op == "param" and value.aux == ("S", j)):
                self._new_inst(block, "move", (value,), aux=("S", j),
                               typ=value.typ if value.typ != "x" else "i",
                               vreg=self.stack_vreg(j), bc_index=bci)

    def _shield(self, block: HIRBlock, value: HIRInst, bci: int) -> HIRInst:
        """Copy a param into a temp so sync moves cannot clobber it before
        the terminator reads it."""
        if value.op != "param":
            return value
        return self._new_inst(block, "move", (value,), aux=None,
                              typ=value.typ if value.typ != "x" else "i",
                              bc_index=bci)

    def _build_block(self, block: HIRBlock, end_bci: int, block_of_bci,
                     code) -> None:
        if self.analysis.states[block.start_bci] is None:
            return  # unreachable block: no code
        locals_, stack = self._entry_state(block)
        emit = self._new_inst
        bci = block.start_bci
        terminated = False
        while bci < end_bci:
            instr = code[bci]
            op = instr.op
            if op == "iconst":
                stack.append(emit(block, "const", imm=instr.a, typ="i",
                                  bc_index=bci))
            elif op == "aconst_null":
                stack.append(emit(block, "const", imm=None, typ="r",
                                  bc_index=bci))
            elif op in ("iload", "rload"):
                stack.append(locals_[instr.a])
            elif op in ("istore", "rstore"):
                locals_[instr.a] = stack.pop()
            elif op in ("iadd", "isub", "imul", "idiv", "irem", "iand",
                        "ior", "ixor", "ishl", "ishr"):
                b = stack.pop()
                a = stack.pop()
                stack.append(emit(block, "alu", (a, b), aux=op[1:], typ="i",
                                  bc_index=bci))
            elif op == "ineg":
                a = stack.pop()
                stack.append(emit(block, "alu", (a,), aux="neg", typ="i",
                                  bc_index=bci))
            elif op == "dup":
                stack.append(stack[-1])
            elif op == "pop":
                stack.pop()
            elif op == "swap":
                stack[-1], stack[-2] = stack[-2], stack[-1]
            elif op == "getfield":
                base = stack.pop()
                field = instr.a
                stack.append(emit(block, "getfield", (base,), aux=field,
                                  typ="r" if field.is_ref else "i",
                                  bc_index=bci))
            elif op == "putfield":
                value = stack.pop()
                base = stack.pop()
                emit(block, "putfield", (base, value), aux=instr.a,
                     bc_index=bci)
            elif op == "getstatic":
                field = instr.a
                stack.append(emit(block, "getstatic", (),
                                  aux=(field.declaring_class, field),
                                  typ="r" if field.is_ref else "i",
                                  bc_index=bci))
            elif op == "putstatic":
                value = stack.pop()
                field = instr.a
                emit(block, "putstatic", (value,),
                     aux=(field.declaring_class, field), bc_index=bci)
            elif op == "new":
                stack.append(emit(block, "new", (), aux=instr.a, typ="r",
                                  bc_index=bci))
            elif op == "newarray":
                length = stack.pop()
                stack.append(emit(block, "newarray", (length,), aux=instr.a,
                                  typ="r", bc_index=bci))
            elif op == "arraylength":
                arr = stack.pop()
                stack.append(emit(block, "len", (arr,), typ="i",
                                  bc_index=bci))
            elif op == "arrload":
                index = stack.pop()
                arr = stack.pop()
                stack.append(emit(block, "aload", (arr, index), aux=instr.a,
                                  typ="r" if instr.a == "ref" else "i",
                                  bc_index=bci))
            elif op == "arrstore":
                value = stack.pop()
                index = stack.pop()
                arr = stack.pop()
                emit(block, "astore", (arr, index, value), aux=instr.a,
                     bc_index=bci)
            elif op in ("invokestatic", "invokevirtual"):
                if op == "invokestatic":
                    target = instr.a
                else:
                    target = instr.a.method(instr.b)
                n = target.num_args
                args = stack[len(stack) - n:] if n else []
                del stack[len(stack) - n:]
                typ = {"int": "i", "ref": "r"}.get(target.return_kind, "v")
                if op == "invokestatic":
                    result = emit(block, "call", tuple(args), aux=target,
                                  typ=typ, bc_index=bci)
                else:
                    result = emit(block, "callv", tuple(args),
                                  aux=(instr.a, instr.a.vtable_slot(instr.b)),
                                  typ=typ, bc_index=bci)
                if typ != "v":
                    stack.append(result)
            elif op in ("return", "ireturn", "rreturn"):
                value = (stack.pop(),) if op != "return" else ()
                emit(block, "ret", value, bc_index=bci)
                terminated = True
                break
            elif op == "goto":
                self._sync_moves(block, locals_, stack, bci)
                emit(block, "br", imm=block_of_bci[instr.a], bc_index=bci)
                block.successors.append(block_of_bci[instr.a])
                terminated = True
                break
            elif op in ("if_icmp", "ifz", "ifnull", "ifnonnull"):
                if op == "if_icmp":
                    b = stack.pop()
                    a = stack.pop()
                    cond, target_bci = instr.a, instr.b
                    operands = (self._shield(block, a, bci),
                                self._shield(block, b, bci))
                elif op == "ifz":
                    a = stack.pop()
                    cond, target_bci = instr.a, instr.b
                    operands = (self._shield(block, a, bci),)
                else:
                    a = stack.pop()
                    cond, target_bci = op[2:], instr.a
                    operands = (self._shield(block, a, bci),)
                self._sync_moves(block, locals_, stack, bci)
                emit(block, "bc", operands, aux=cond,
                     imm=block_of_bci[target_bci], bc_index=bci)
                block.successors.append(block_of_bci[target_bci])
                block.successors.append(block_of_bci[bci + 1])
                terminated = True
                break
            elif op == "nop":
                pass
            else:  # pragma: no cover - verifier rejects unknown ops
                raise ValueError(f"hir builder: unknown bytecode {op}")
            bci += 1
        if not terminated:
            # Fall through into the next block.
            self._sync_moves(block, locals_, stack, end_bci - 1)
            block.successors.append(block_of_bci[end_bci])


def build_hir(method: MethodInfo) -> HIRFunction:
    """Translate a verified method into HIR."""
    return _Builder(method).build()
