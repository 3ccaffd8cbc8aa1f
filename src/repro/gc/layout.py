"""Address-space layout of the simulated VM.

The heap is split into disjoint regions, mirroring the Jikes RVM / MMTk
organization the paper relies on:

* **stack** — thread stacks (frames of baseline-compiled code keep their
  operand stack and locals here),
* **statics** — the class statics table (JTOC analog),
* **code** — the *immortal* space where compiled machine code lives.
  The paper allocates compiled methods here precisely so that the copying
  GC never moves code, keeping the sorted method lookup table valid
  (section 4.2),
* **nursery** — bump-pointer-allocated young space,
* **mature** — free-list (GenMS) or semispace (GenCopy) old space,
* **los** — the large-object space for objects above the free-list limit.

Addresses are plain integers; the regions are generously sized and far
apart, so region membership can be tested by range.
"""

from __future__ import annotations

STACK_BASE = 0x0100_0000
STACK_LIMIT = 0x0600_0000

STATICS_BASE = 0x0600_0000
STATICS_LIMIT = 0x0800_0000

CODE_BASE = 0x0800_0000
CODE_LIMIT = 0x1000_0000

NURSERY_BASE = 0x1000_0000
NURSERY_LIMIT = 0x2000_0000

MATURE_BASE = 0x2000_0000
MATURE_LIMIT = 0x4000_0000

LOS_BASE = 0x4000_0000
LOS_LIMIT = 0x6000_0000


def in_code_space(addr: int) -> bool:
    """True when ``addr`` points into JIT-generated machine code.

    The sample collector drops addresses outside the VM-generated code
    (kernel space, native libraries) immediately — section 4.2.
    """
    return CODE_BASE <= addr < CODE_LIMIT
