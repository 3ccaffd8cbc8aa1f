"""Program container and "class loader" for the guest VM.

A :class:`Program` owns the set of loaded classes, designates a ``main``
method, and provides the prelude classes every workload shares
(``Object`` and ``String`` — the String/char[] pair is the protagonist of
the paper's db case study, Figures 7 and 8).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.vm.bytecode import Asm, BytecodeError, Instr, analyze
from repro.vm.model import ClassInfo, MethodInfo


class Program:
    """All static state of one guest program."""

    def __init__(self, name: str):
        self.name = name
        self.classes: Dict[str, ClassInfo] = {}
        self.main: Optional[MethodInfo] = None
        self.object_class = self.define_class("Object")
        self.object_class.seal()
        # java.lang.String analog: a character array plus bookkeeping
        # fields.  Layout (header 8B): value@8 (ref), count@12, hash@16.
        self.string_class = self.define_class("String")
        self.string_class.add_field("value", "ref")
        self.string_class.add_field("count", "int")
        self.string_class.add_field("hash", "int")
        self.string_class.seal()

    # -- class loading ---------------------------------------------------------

    def define_class(self, name: str,
                     superclass: Optional[ClassInfo] = None) -> ClassInfo:
        if name in self.classes:
            raise ValueError(f"class {name} already defined")
        klass = ClassInfo(name, superclass)
        self.classes[name] = klass
        return klass

    def klass(self, name: str) -> ClassInfo:
        try:
            return self.classes[name]
        except KeyError:
            raise KeyError(f"class {name} not loaded") from None

    def define_method(self, klass: ClassInfo, name: str, *,
                      args: List[str], returns: str = "void",
                      max_locals: Optional[int] = None,
                      static: bool = True,
                      code: "List[Instr] | Asm") -> MethodInfo:
        """Declare a method; verifies its bytecode eagerly.

        ``args`` lists argument kinds ("int"/"ref"); for virtual methods
        the receiver must be the first entry.
        """
        if isinstance(code, Asm):
            code = code.finish()
        if not static and (not args or args[0] != "ref"):
            raise BytecodeError("virtual method needs a 'ref' receiver arg")
        if max_locals is None:
            max_locals = len(args)
        method = MethodInfo(
            name, klass, is_static=static, arg_kinds=list(args),
            return_kind=returns, max_locals=max_locals, code=code,
        )
        klass.add_method(method)
        analyze(method)  # eager verification
        return method

    def set_main(self, method: MethodInfo) -> None:
        if method.num_args != 0:
            raise ValueError("main must take no arguments")
        self.main = method

    # -- queries -----------------------------------------------------------------

    def all_methods(self) -> List[MethodInfo]:
        methods: List[MethodInfo] = []
        for klass in self.classes.values():
            methods.extend(klass.methods.values())
        return methods

    def total_bytecodes(self) -> int:
        return sum(len(m.code) for m in self.all_methods())

    def __repr__(self) -> str:
        return (f"<Program {self.name}: {len(self.classes)} classes, "
                f"{len(self.all_methods())} methods>")
