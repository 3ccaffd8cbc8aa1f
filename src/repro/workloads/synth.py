"""Workload-construction helpers.

The benchmark programs of Table 1 are synthesized as guest bytecode
(DESIGN.md §2).  Writing stack bytecode by hand is noisy, so this
module provides :class:`Fn`, a structured-assembly wrapper over
:class:`repro.vm.bytecode.Asm`: named locals, ``with``-based counted
loops, and field/array access shorthands.  Everything lowers to plain
verified bytecode — the workloads exercise exactly the same compiler
and VM paths as hand-written code.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import count
from typing import Optional, Sequence

from repro.vm.bytecode import Asm
from repro.vm.model import ClassInfo, MethodInfo
from repro.vm.program import Program


class Fn:
    """A method under construction."""

    _label_counter = count()

    def __init__(self, program: Program, klass: ClassInfo, name: str,
                 args: Sequence[str] = (), returns: str = "void",
                 static: bool = True):
        self.program = program
        self.klass = klass
        self.name = name
        self.args = list(args)
        self.returns = returns
        self.static = static
        self.asm = Asm()
        self._nlocals = len(self.args)
        self._finished: Optional[MethodInfo] = None

    # -- locals -------------------------------------------------------------

    def local(self) -> int:
        """Allocate a fresh local-variable slot."""
        index = self._nlocals
        self._nlocals += 1
        return index

    # -- raw emission ---------------------------------------------------------

    def emit(self, op: str, a=None, b=None) -> "Fn":
        self.asm.emit(op, a, b)
        return self

    def label(self, name: str) -> "Fn":
        self.asm.label(name)
        return self

    def fresh_label(self, hint: str = "L") -> str:
        return f"{hint}_{next(Fn._label_counter)}"

    # -- shorthands -----------------------------------------------------------

    def iconst(self, value: int) -> "Fn":
        return self.emit("iconst", value)

    def iload(self, idx: int) -> "Fn":
        return self.emit("iload", idx)

    def istore(self, idx: int) -> "Fn":
        return self.emit("istore", idx)

    def rload(self, idx: int) -> "Fn":
        return self.emit("rload", idx)

    def rstore(self, idx: int) -> "Fn":
        return self.emit("rstore", idx)

    def getfield(self, klass: "ClassInfo | str", field: str) -> "Fn":
        if isinstance(klass, str):
            klass = self.program.klass(klass)
        return self.emit("getfield", klass.field(field))

    def putfield(self, klass: "ClassInfo | str", field: str) -> "Fn":
        if isinstance(klass, str):
            klass = self.program.klass(klass)
        return self.emit("putfield", klass.field(field))

    def getstatic(self, klass: ClassInfo, field: str) -> "Fn":
        return self.emit("getstatic", klass.static(field))

    def putstatic(self, klass: ClassInfo, field: str) -> "Fn":
        return self.emit("putstatic", klass.static(field))

    def new(self, klass: "ClassInfo | str") -> "Fn":
        if isinstance(klass, str):
            klass = self.program.klass(klass)
        return self.emit("new", klass)

    def call(self, method: MethodInfo) -> "Fn":
        return self.emit("invokestatic", method)

    def callv(self, klass: ClassInfo, name: str) -> "Fn":
        return self.emit("invokevirtual", klass, name)

    # -- structured control flow ------------------------------------------------

    @contextmanager
    def loop(self, limit, start: int = 0, step: int = 1):
        """Counted loop; yields the induction-variable local.

        ``limit`` is an int constant or a local index wrapped in
        :func:`local_ref`.

        with fn.loop(100) as i:
            ... body using local i ...
        """
        i = self.local()
        head = self.fresh_label("head")
        done = self.fresh_label("done")
        self.iconst(start).istore(i)
        self.label(head)
        self.iload(i)
        if isinstance(limit, LocalRef):
            self.iload(limit.index)
        else:
            self.iconst(limit)
        self.emit("if_icmp", "ge", done)
        yield i
        self.iload(i).iconst(step).emit("iadd").istore(i)
        self.emit("goto", head)
        self.label(done)

    # -- finalization ---------------------------------------------------------------

    def ret(self) -> "Fn":
        return self.emit("return")

    def iret(self) -> "Fn":
        return self.emit("ireturn")

    def rret(self) -> "Fn":
        return self.emit("rreturn")

    def finish(self) -> MethodInfo:
        if self._finished is None:
            self._finished = self.program.define_method(
                self.klass, self.name, args=self.args, returns=self.returns,
                max_locals=self._nlocals, static=self.static, code=self.asm)
        return self._finished


class LocalRef:
    """Marks a loop limit as a local index rather than a constant."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index


def local_ref(index: int) -> LocalRef:
    return LocalRef(index)


def lcg_step(fn: Fn, state_local: int, modulus: int) -> None:
    """Advance an LCG and leave ``(state >> 7) % modulus`` on the stack —
    a deterministic shuffled access pattern.

    The high bits are used because the low bits of a power-of-two LCG
    cycle with a tiny period (the classic LCG pitfall)."""
    fn.iload(state_local)
    fn.iconst(1103515245).emit("imul")
    fn.iconst(12345).emit("iadd")
    fn.iconst(0x7FFFFFFF).emit("iand")
    fn.istore(state_local)
    fn.iload(state_local)
    fn.iconst(7).emit("ishr")
    fn.iconst(modulus).emit("irem")
