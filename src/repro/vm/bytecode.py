"""The guest bytecode: a compact Java-bytecode analog.

The instruction set mirrors the subset of Java bytecode the paper's
analyses care about: local-variable traffic, an operand stack, field and
array accesses (the heap accesses the instructions-of-interest analysis
filters), object allocation, virtual/static calls, and branches.

Operands are *resolved* (FieldInfo / ClassInfo / MethodInfo references,
not constant-pool indices): this is the form a JIT sees after constant
pool resolution.

The module also provides:

* :class:`Asm` — a tiny assembler with labels, used by the workload
  generators,
* :func:`analyze` — the abstract interpretation of the operand stack and
  locals used by both compilers (stack depths, ref-ness of every slot at
  every pc — the raw material for GC maps).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.vm.model import ClassInfo, MethodInfo

# ---------------------------------------------------------------------------
# Instructions
# ---------------------------------------------------------------------------

#: op -> (pops, pushes) for fixed-effect instructions; variable-effect ops
#: (calls) are handled explicitly.
STACK_EFFECTS = {
    "iconst": (0, 1),
    "aconst_null": (0, 1),
    "iload": (0, 1),
    "rload": (0, 1),
    "istore": (1, 0),
    "rstore": (1, 0),
    "iadd": (2, 1), "isub": (2, 1), "imul": (2, 1), "idiv": (2, 1),
    "irem": (2, 1), "iand": (2, 1), "ior": (2, 1), "ixor": (2, 1),
    "ishl": (2, 1), "ishr": (2, 1),
    "ineg": (1, 1),
    "dup": (1, 2),
    "pop": (1, 0),
    "swap": (2, 2),
    "goto": (0, 0),
    "if_icmp": (2, 0),
    "ifz": (1, 0),
    "ifnull": (1, 0),
    "ifnonnull": (1, 0),
    "getfield": (1, 1),
    "putfield": (2, 0),
    "getstatic": (0, 1),
    "putstatic": (1, 0),
    "new": (0, 1),
    "newarray": (1, 1),
    "arraylength": (1, 1),
    "arrload": (2, 1),
    "arrstore": (3, 0),
    "return": (0, 0),
    "ireturn": (1, 0),
    "rreturn": (1, 0),
    "nop": (0, 0),
}

BRANCH_OPS = {"goto", "if_icmp", "ifz", "ifnull", "ifnonnull"}
TERMINAL_OPS = {"goto", "return", "ireturn", "rreturn"}
CONDITIONS = ("eq", "ne", "lt", "ge", "gt", "le")

#: Heap-accessing opcodes — the candidates S of the instructions-of-
#: interest analysis (section 5.2: field/array access, virtual calls and
#: object-header access).
HEAP_ACCESS_OPS = {
    "getfield", "putfield", "arrload", "arrstore", "arraylength",
    "invokevirtual",
}


class Instr:
    """One bytecode instruction: an opcode with up to two operands."""

    __slots__ = ("op", "a", "b")

    def __init__(self, op: str, a=None, b=None):
        self.op = op
        self.a = a
        self.b = b

    def __getstate__(self):
        return (self.op, self.a, self.b)

    def __setstate__(self, state):
        self.op, self.a, self.b = state

    def __repr__(self) -> str:
        parts = [self.op]
        if self.a is not None:
            parts.append(repr(self.a))
        if self.b is not None:
            parts.append(repr(self.b))
        return " ".join(parts)


class BytecodeError(Exception):
    """Malformed bytecode (assembler or analysis failure)."""


# ---------------------------------------------------------------------------
# Assembler
# ---------------------------------------------------------------------------

class Asm:
    """A label-resolving assembler for guest bytecode.

    >>> asm = Asm()
    >>> asm.emit("iconst", 0)          # doctest: +SKIP
    >>> asm.label("loop")              # doctest: +SKIP
    >>> asm.emit("goto", "loop")       # doctest: +SKIP
    >>> code = asm.finish()            # doctest: +SKIP
    """

    def __init__(self):
        self._code: List[Instr] = []
        self._labels: Dict[str, int] = {}

    def emit(self, op: str, a=None, b=None) -> "Asm":
        if op not in STACK_EFFECTS and op != "invokestatic" and op != "invokevirtual":
            raise BytecodeError(f"unknown opcode {op!r}")
        self._code.append(Instr(op, a, b))
        return self

    def label(self, name: str) -> "Asm":
        if name in self._labels:
            raise BytecodeError(f"duplicate label {name!r}")
        self._labels[name] = len(self._code)
        return self

    def finish(self) -> List[Instr]:
        """Resolve labels to instruction indices and return the code."""
        code = self._code
        for instr in code:
            if instr.op in BRANCH_OPS:
                target_operand = "a" if instr.op in ("goto", "ifnull", "ifnonnull") else "b"
                target = getattr(instr, target_operand)
                if isinstance(target, str):
                    if target not in self._labels:
                        raise BytecodeError(f"undefined label {target!r}")
                    setattr(instr, target_operand, self._labels[target])
        return code


def branch_target(instr: Instr) -> int:
    """Return the branch target index of a branch instruction."""
    if instr.op in ("goto", "ifnull", "ifnonnull"):
        return instr.a
    if instr.op in ("if_icmp", "ifz"):
        return instr.b
    raise BytecodeError(f"{instr.op} is not a branch")


# ---------------------------------------------------------------------------
# Abstract interpretation (stack/locals typing)
# ---------------------------------------------------------------------------

#: Abstract slot types: int, reference, or conflict (never used as a ref).
T_INT = "i"
T_REF = "r"
T_CONFLICT = "x"


class StackState:
    """Per-pc abstract state: operand-stack types and local-slot types."""

    __slots__ = ("stack", "locals")

    def __init__(self, stack: Tuple[str, ...], locals_: Tuple[str, ...]):
        self.stack = stack
        self.locals = locals_

    def merge(self, other: "StackState") -> Optional["StackState"]:
        """Join two states; returns None when nothing changed."""
        if len(self.stack) != len(other.stack):
            raise BytecodeError("stack depth mismatch at merge point")
        new_stack = tuple(
            a if a == b else T_CONFLICT for a, b in zip(self.stack, other.stack)
        )
        new_locals = tuple(
            a if a == b else T_CONFLICT for a, b in zip(self.locals, other.locals)
        )
        if new_stack == self.stack and new_locals == self.locals:
            return None
        return StackState(new_stack, new_locals)


class Analysis:
    """Result of :func:`analyze`: one :class:`StackState` per reachable pc."""

    def __init__(self, states: List[Optional[StackState]], max_stack: int):
        self.states = states
        self.max_stack = max_stack

    def state_at(self, pc: int) -> StackState:
        state = self.states[pc]
        if state is None:
            raise BytecodeError(f"pc {pc} is unreachable")
        return state

    def stack_depth(self, pc: int) -> int:
        return len(self.state_at(pc).stack)


def _effect(instr: Instr, state: StackState) -> StackState:
    """Apply one instruction to an abstract state."""
    op = instr.op
    stack = list(state.stack)
    locals_ = state.locals

    def push(t: str) -> None:
        stack.append(t)

    def pop_n(n: int) -> None:
        if len(stack) < n:
            raise BytecodeError(f"stack underflow at {instr}")
        del stack[len(stack) - n:]

    if op == "iconst":
        push(T_INT)
    elif op == "aconst_null":
        push(T_REF)
    elif op == "iload":
        push(T_INT)
    elif op == "rload":
        if locals_[instr.a] == T_CONFLICT:
            raise BytecodeError(f"rload of conflicted local {instr.a}")
        push(T_REF)
    elif op == "istore":
        pop_n(1)
        locals_ = locals_[: instr.a] + (T_INT,) + locals_[instr.a + 1:]
    elif op == "rstore":
        pop_n(1)
        locals_ = locals_[: instr.a] + (T_REF,) + locals_[instr.a + 1:]
    elif op in ("iadd", "isub", "imul", "idiv", "irem", "iand", "ior",
                "ixor", "ishl", "ishr"):
        pop_n(2)
        push(T_INT)
    elif op == "ineg":
        pop_n(1)
        push(T_INT)
    elif op == "dup":
        if not stack:
            raise BytecodeError("dup on empty stack")
        stack.append(stack[-1])
    elif op == "pop":
        pop_n(1)
    elif op == "swap":
        if len(stack) < 2:
            raise BytecodeError("swap needs two operands")
        stack[-1], stack[-2] = stack[-2], stack[-1]
    elif op in ("goto", "nop"):
        pass
    elif op == "if_icmp":
        pop_n(2)
    elif op == "ifz":
        pop_n(1)
    elif op in ("ifnull", "ifnonnull"):
        pop_n(1)
    elif op == "getfield":
        pop_n(1)
        push(T_REF if instr.a.is_ref else T_INT)
    elif op == "putfield":
        pop_n(2)
    elif op == "getstatic":
        push(T_REF if instr.a.is_ref else T_INT)
    elif op == "putstatic":
        pop_n(1)
    elif op == "new":
        push(T_REF)
    elif op == "newarray":
        pop_n(1)
        push(T_REF)
    elif op == "arraylength":
        pop_n(1)
        push(T_INT)
    elif op == "arrload":
        pop_n(2)
        push(T_REF if instr.a == "ref" else T_INT)
    elif op == "arrstore":
        pop_n(3)
    elif op == "invokestatic":
        method: MethodInfo = instr.a
        pop_n(method.num_args)
        if method.return_kind == "int":
            push(T_INT)
        elif method.return_kind == "ref":
            push(T_REF)
    elif op == "invokevirtual":
        klass: ClassInfo = instr.a
        method = klass.method(instr.b)
        pop_n(method.num_args)
        if method.return_kind == "int":
            push(T_INT)
        elif method.return_kind == "ref":
            push(T_REF)
    elif op in ("return", "ireturn", "rreturn"):
        if op == "ireturn" or op == "rreturn":
            pop_n(1)
    else:  # pragma: no cover - assembler already rejects unknown ops
        raise BytecodeError(f"unknown opcode {op!r}")
    return StackState(tuple(stack), locals_)


def analyze(method: MethodInfo) -> Analysis:
    """Abstractly interpret ``method``'s bytecode.

    Returns per-pc stack/locals types.  This single analysis backs the
    baseline compiler's stack-slot assignment, the opt compiler's HIR
    construction, and the ref-maps that become GC maps.
    """
    code = method.code
    if not code:
        raise BytecodeError(f"{method.qualified_name} has no code")
    n_locals = method.max_locals
    if n_locals < method.num_args:
        raise BytecodeError("max_locals smaller than argument count")
    init_locals = tuple(
        (T_REF if kind == "ref" else T_INT) for kind in method.arg_kinds
    ) + tuple(T_INT for _ in range(n_locals - method.num_args))
    states: List[Optional[StackState]] = [None] * len(code)
    states[0] = StackState((), init_locals)
    worklist = [0]
    max_stack = 0
    while worklist:
        pc = worklist.pop()
        state = states[pc]
        instr = code[pc]
        after = _effect(instr, state)
        max_stack = max(max_stack, len(after.stack), len(state.stack))
        successors = []
        if instr.op in BRANCH_OPS:
            successors.append(branch_target(instr))
        if instr.op not in TERMINAL_OPS:
            if pc + 1 >= len(code):
                raise BytecodeError(
                    f"{method.qualified_name}: control falls off the end"
                )
            successors.append(pc + 1)
        for succ in successors:
            if states[succ] is None:
                states[succ] = after
                worklist.append(succ)
            else:
                merged = states[succ].merge(after)
                if merged is not None:
                    states[succ] = merged
                    worklist.append(succ)
    return Analysis(states, max_stack)
