"""Coverage for smaller APIs: GC stats, workload metadata used by the
oracle ablation, the ablation helpers, and the configuration surface."""

import ast
import dataclasses
import pathlib

import pytest

from repro.core import config
from repro.gc.stats import GCStats
from repro.harness import ablations as ab
from repro.workloads import suite


class TestGCStats:
    def test_note_coalloc_accounting(self):
        stats = GCStats()
        stats.note_coalloc("String")
        stats.note_coalloc("String")
        stats.note_coalloc("Row")
        assert stats.coalloc_pairs == 3
        assert stats.coallocated_objects == 6
        assert stats.coalloc_by_class == {"String": 2, "Row": 1}

    def test_summary_mentions_key_numbers(self):
        stats = GCStats(minor_gcs=3, full_gcs=1)
        stats.note_coalloc("A")
        text = stats.summary()
        assert "3 minor" in text and "1 full" in text
        assert "2 objs" in text


class TestWorkloadMetadata:
    @pytest.mark.parametrize("name", ["db", "jess", "pseudojbb", "bloat"])
    def test_hot_fields_resolve(self, name):
        """The declared hot fields (used by the static-oracle ablation)
        must name real reference fields."""
        workload = suite.build(name)
        for qualified in workload.hot_fields:
            class_name, field_name = qualified.split("::")
            klass = workload.program.klass(class_name)
            field = klass.field(field_name)
            assert field.is_ref

    def test_min_heaps_fit_plans(self):
        """Every benchmark must complete at its declared minimum heap
        under both collectors (spot-check the two smallest)."""
        from repro.core.config import GCConfig, SystemConfig
        from repro.vm.vmcore import run_program

        for name in ("fop", "antlr"):
            for plan_name in ("genms", "gencopy"):
                w = suite.build(name)
                cfg = SystemConfig(monitoring=False, gc_plan=plan_name,
                                   gc=GCConfig(heap_bytes=w.min_heap_bytes))
                result = run_program(w.program, cfg,
                                     compilation_plan=w.plan)
                assert result.cycles > 0


class TestAblationHelpers:
    def test_prefetcher_ablation_structure(self):
        result = ab.prefetcher_ablation("fop")
        assert result.cycles_with > 0
        assert result.cycles_without >= result.cycles_with * 0.99
        assert isinstance(result.slowdown_without, float)

    def test_oracle_ablation_on_small_benchmark(self):
        result = ab.static_oracle_ablation("fop", heap_mult=4.0)
        assert result.baseline_cycles > 0
        # The oracle co-allocates at least as much as online guidance.
        assert result.oracle_coalloc >= result.online_coalloc


class TestConfigSurface:
    def test_every_config_field_is_read(self):
        """A config field (or config property) nothing under
        ``src/repro`` loads off a config object is a setting without a
        user: make it a constant or delete it.  A config object is a
        name containing ``config``/``cfg``, a ``SystemConfig`` or
        ``MachineConfig`` field (``self.config.gc``, ``machine.l1``),
        or ``self`` inside ``core/config.py`` — never a config class:
        ``PEBSConfig.x`` reads the default, which no setting moves."""
        classes = [cls for cls in vars(config).values()
                   if isinstance(cls, type) and dataclasses.is_dataclass(cls)
                   and cls.__module__ == config.__name__]
        sections = {f.name for cls in (config.SystemConfig,
                                       config.MachineConfig)
                    for f in dataclasses.fields(cls)}
        class_names = {cls.__name__ for cls in classes}

        def holds_config(value, in_config_module):
            name = (value.id if isinstance(value, ast.Name) else
                    value.attr if isinstance(value, ast.Attribute) else "")
            if name in class_names:
                return False
            return ("config" in name or "cfg" in name or name in sections
                    or (in_config_module and name == "self"))

        package = pathlib.Path(config.__file__).parents[1]
        read = set()
        for path in package.rglob("*.py"):
            in_config_module = path == pathlib.Path(config.__file__)
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute) \
                        and isinstance(node.ctx, ast.Load) \
                        and holds_config(node.value, in_config_module):
                    read.add(node.attr)
        unread = []
        for cls in classes:
            names = [f.name for f in dataclasses.fields(cls)]
            names += [name for name, value in vars(cls).items()
                      if isinstance(value, property)]
            unread += [f"{cls.__name__}.{name}" for name in names
                       if name not in read]
        assert unread == []
