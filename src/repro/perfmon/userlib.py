"""Native shared library analog (section 4.1, part 2).

"Since we cannot call device drivers directly from Java ... we
developed a native library to provide an interface to the kernel
functions and access it via the Java Native Interface (JNI). ...  We
provide a pre-allocated array to the native code.  The library function
then copies all collected samples into this array directly without any
JNI calls. We only need to make sure that the GC does not interfere
during this transfer."

The cost structure matters for Figure 2: one fixed JNI round trip per
poll plus a small per-sample copy cost into the pre-allocated ``int[]``
— *not* a JNI call per sample.  The GC-interference guard is modeled
explicitly: the VM's GC is disabled for the duration of the copy (the
paper's argument: no allocation happens in the copying code, so the GC
cannot be triggered; we assert exactly that).
"""

from __future__ import annotations

from typing import Callable, List

from repro.core.config import PerfmonConfig
from repro.hw.pebs import SAMPLE_BYTES
from repro.perfmon.kernel import PerfmonSession


class UserSampleLibrary:
    """The libpfm-style user-space layer with its 80 KB buffer."""

    def __init__(self, session: PerfmonSession, config: PerfmonConfig,
                 charge: Callable[[int], None],
                 gc_guard=None):
        self.session = session
        self.config = config
        self.charge = charge
        #: Context-manager factory disabling the GC around the copy
        #: (provided by the VM; None in standalone tests).
        self.gc_guard = gc_guard
        #: Buffer capacity in samples: 80 KB / 40-byte samples.
        self.capacity = config.user_buffer_bytes // SAMPLE_BYTES
        self.polls = 0
        self.samples_copied = 0

    def read_samples(self) -> List[int]:
        """One poll: drain the kernel buffer into the pre-allocated array.

        Returns the raw EIPs (the collector thread hands them to the
        VM's monitoring module).  Costs: one fixed JNI round trip plus
        the batched copy.
        """
        self.polls += 1
        self.charge(self.config.poll_cost)
        if self.gc_guard is not None:
            with self.gc_guard():
                batch = self.session.read(self.capacity)
        else:
            batch = self.session.read(self.capacity)
        if not batch:
            return []
        self.charge(self.config.user_copy_cost * len(batch))
        self.samples_copied += len(batch)
        return batch
