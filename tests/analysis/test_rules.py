"""Per-rule good/bad fixtures, checked through :func:`lint_source`.

Every rule gets at least one fixture that must be flagged and one that must
pass, at a package-relative path inside the rule's scope — so these tests pin
both the detection and the deliberate exemptions (scoping, order-neutral
consumers, seeded constructors ...).
"""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis import lint_source
from repro.analysis.contracts import read_all_literal
from repro.analysis.rules import RULE_REGISTRY, get_rule, select_rules
from repro.errors import AnalysisError


def findings_for(text: str, rel: str, rule: str):
    """Findings of one rule on one in-memory module."""
    found = lint_source(textwrap.dedent(text), rel, rules=[rule])
    assert all(finding.rule == rule for finding in found)
    return found


class TestRegistry:
    def test_all_eight_rules_registered(self):
        assert set(RULE_REGISTRY) == {
            "DET-RNG",
            "DET-CLOCK",
            "DET-ORDER",
            "FP-FIELD",
            "IO-ATOMIC",
            "FLOAT-FMT",
            "API-SURFACE",
            "EXC-BARE",
        }

    def test_get_rule_unknown_id_fails_loudly(self):
        with pytest.raises(AnalysisError):
            get_rule("NO-SUCH-RULE")

    def test_select_rules_defaults_to_all(self):
        assert {rule.id for rule in select_rules(None)} == set(RULE_REGISTRY)

    def test_every_rule_documents_itself(self):
        for rule in RULE_REGISTRY.values():
            assert rule.title
            assert rule.rationale


class TestDetRng:
    def test_unseeded_default_rng_is_flagged(self):
        found = findings_for(
            """
            import numpy as np
            rng = np.random.default_rng()
            """,
            "repro/workload/example.py",
            "DET-RNG",
        )
        assert len(found) == 1
        assert "without a seed" in found[0].message

    def test_seeded_default_rng_passes(self):
        assert not findings_for(
            """
            import numpy as np
            rng = np.random.default_rng(2003)
            """,
            "repro/workload/example.py",
            "DET-RNG",
        )

    def test_from_import_is_resolved(self):
        found = findings_for(
            """
            from numpy.random import default_rng
            rng = default_rng()
            """,
            "repro/workload/example.py",
            "DET-RNG",
        )
        assert len(found) == 1

    def test_stdlib_random_module_is_flagged_even_when_seeded(self):
        found = findings_for(
            """
            import random
            rng = random.Random(2003)
            """,
            "repro/stats/example.py",
            "DET-RNG",
        )
        assert len(found) == 1
        assert "random.Random" in found[0].message

    def test_stdlib_global_draw_is_flagged(self):
        found = findings_for(
            """
            import random
            x = random.random()
            """,
            "repro/core/example.py",
            "DET-RNG",
        )
        assert len(found) == 1

    def test_legacy_numpy_global_state_is_flagged(self):
        found = findings_for(
            """
            import numpy as np
            np.random.seed(0)
            x = np.random.rand(3)
            """,
            "repro/core/example.py",
            "DET-RNG",
        )
        assert len(found) == 2

    def test_the_stream_factory_module_is_exempt(self):
        assert not findings_for(
            """
            import numpy as np
            rng = np.random.default_rng()
            """,
            "repro/simulation/rng.py",
            "DET-RNG",
        )


class TestDetClock:
    def test_wall_clock_in_simulation_is_flagged(self):
        found = findings_for(
            """
            import time
            t = time.time()
            """,
            "repro/simulation/engine.py",
            "DET-CLOCK",
        )
        assert len(found) == 1
        assert "wall-clock" in found[0].message

    def test_datetime_now_in_store_is_flagged(self):
        found = findings_for(
            """
            import datetime
            stamp = datetime.datetime.now()
            """,
            "repro/store/example.py",
            "DET-CLOCK",
        )
        assert len(found) == 1

    def test_obs_package_is_the_sole_exemption(self):
        assert not findings_for(
            """
            import time
            t = time.perf_counter()
            """,
            "repro/obs/wallclock.py",
            "DET-CLOCK",
        )

    def test_scope_is_package_wide_outside_obs(self):
        # Before the obs subsystem the rule only watched four subsystems;
        # now every repro module except repro/obs/ is in scope.
        found = findings_for(
            """
            import time
            t = time.perf_counter()
            """,
            "repro/results/observers.py",
            "DET-CLOCK",
        )
        assert len(found) == 1
        assert "repro.obs" in found[0].message


class TestDetOrder:
    def test_set_iteration_feeding_output_is_flagged(self):
        found = findings_for(
            """
            def ids(records):
                return [r.id for r in {r for r in records}]
            """,
            "repro/results/example.py",
            "DET-ORDER",
        )
        assert len(found) == 1

    def test_sorted_set_iteration_passes(self):
        assert not findings_for(
            """
            def ids(records):
                return [r.id for r in sorted({r for r in records})]
            """,
            "repro/results/example.py",
            "DET-ORDER",
        )

    def test_set_algebra_is_seen_through(self):
        found = findings_for(
            """
            def common(a, b):
                return [k for k in set(a) & set(b)]
            """,
            "repro/metrics/example.py",
            "DET-ORDER",
        )
        assert len(found) == 1

    def test_membership_and_len_are_order_neutral(self):
        assert not findings_for(
            """
            def stats(a, b):
                n = len(set(a) & set(b))
                hit = "x" in set(a)
                return n, hit
            """,
            "repro/metrics/example.py",
            "DET-ORDER",
        )

    def test_listdir_is_flagged(self):
        found = findings_for(
            """
            import os
            def files(root):
                return [name for name in os.listdir(root)]
            """,
            "repro/store/example.py",
            "DET-ORDER",
        )
        assert len(found) == 1
        assert "filesystem order" in found[0].message

    def test_store_index_views_are_flagged(self):
        found = findings_for(
            """
            def listing(index):
                return [entry for entry in index.values()]
            """,
            "repro/store/example.py",
            "DET-ORDER",
        )
        assert len(found) == 1
        assert "journal-replay" in found[0].message

    def test_dict_views_outside_the_store_are_insertion_ordered(self):
        assert not findings_for(
            """
            def listing(index):
                return [entry for entry in index.values()]
            """,
            "repro/results/example.py",
            "DET-ORDER",
        )

    def test_out_of_scope_modules_are_ignored(self):
        assert not findings_for(
            """
            def ids(records):
                return [r for r in {1, 2, 3}]
            """,
            "repro/platform/example.py",
            "DET-ORDER",
        )


class TestFpField:
    def test_plain_field_is_flagged(self):
        found = findings_for(
            """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class ExperimentConfig:
                seed: int = 2003
            """,
            "repro/experiments/config.py",
            "FP-FIELD",
        )
        assert len(found) == 1
        assert "seed" in found[0].message

    def test_non_literal_role_is_flagged(self):
        found = findings_for(
            """
            from dataclasses import dataclass

            ROLE = True

            @dataclass(frozen=True)
            class ExperimentConfig:
                seed: int = config_field(number_determining=ROLE, default=2003)
            """,
            "repro/experiments/config.py",
            "FP-FIELD",
        )
        assert len(found) == 1
        assert "literal" in found[0].message

    def test_declared_fields_pass(self):
        assert not findings_for(
            """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class ExperimentConfig:
                seed: int = config_field(number_determining=True, default=2003)
                jobs: int = config_field(number_determining=False, default=1)
            """,
            "repro/experiments/config.py",
            "FP-FIELD",
        )

    def test_other_modules_are_out_of_scope(self):
        assert not findings_for(
            """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class ExperimentConfig:
                seed: int = 2003
            """,
            "repro/experiments/other.py",
            "FP-FIELD",
        )


class TestIoAtomic:
    def test_write_mode_open_in_store_is_flagged(self):
        found = findings_for(
            """
            def save(path, text):
                with open(path, "w") as handle:
                    handle.write(text)
            """,
            "repro/store/example.py",
            "IO-ATOMIC",
        )
        assert len(found) == 1

    def test_append_and_plus_modes_are_flagged(self):
        found = findings_for(
            """
            def save(path):
                open(path, "a").close()
                open(path, mode="r+").close()
            """,
            "repro/results/example.py",
            "IO-ATOMIC",
        )
        assert len(found) == 2

    def test_read_mode_open_passes(self):
        assert not findings_for(
            """
            def load(path):
                with open(path, "r", encoding="utf-8") as handle:
                    return handle.read()
            """,
            "repro/store/example.py",
            "IO-ATOMIC",
        )

    def test_path_write_text_is_flagged(self):
        found = findings_for(
            """
            def save(path, text):
                path.write_text(text)
            """,
            "repro/store/example.py",
            "IO-ATOMIC",
        )
        assert len(found) == 1

    @pytest.mark.parametrize("rel", ["repro/obs/example.py", "repro/bench/example.py"])
    def test_obs_and_bench_writers_are_covered(self, rel):
        source = """
            def save(path, text):
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(text)
            """
        assert len(findings_for(source, rel, "IO-ATOMIC")) == 1
        assert not findings_for(source, "repro/platform/example.py", "IO-ATOMIC")

    def test_journal_module_is_exempt(self):
        assert not findings_for(
            """
            def atomic_write_text(path, text):
                with open(path + ".tmp", "w") as handle:
                    handle.write(text)
            """,
            "repro/store/journal.py",
            "IO-ATOMIC",
        )


class TestFloatFmt:
    def test_fixed_precision_fstring_is_flagged(self):
        found = findings_for(
            """
            def cell(x):
                return f"{x:.6f}"
            """,
            "repro/results/records.py",
            "FLOAT-FMT",
        )
        assert len(found) == 1

    def test_round_is_flagged(self):
        found = findings_for(
            """
            def cell(x):
                return round(x, 3)
            """,
            "repro/store/example.py",
            "FLOAT-FMT",
        )
        assert len(found) == 1

    def test_percent_formatting_is_flagged(self):
        found = findings_for(
            """
            def cell(x):
                return "%.2f" % x
            """,
            "repro/results/resultset.py",
            "FLOAT-FMT",
        )
        assert len(found) == 1

    def test_str_format_template_is_flagged(self):
        found = findings_for(
            """
            def cell(x):
                return "{:.3g}".format(x)
            """,
            "repro/results/records.py",
            "FLOAT-FMT",
        )
        assert len(found) == 1

    def test_repr_and_plain_fstrings_pass(self):
        assert not findings_for(
            """
            def cell(x):
                return f"value={repr(x)}"
            """,
            "repro/results/records.py",
            "FLOAT-FMT",
        )

    def test_human_renderers_are_out_of_scope(self):
        assert not findings_for(
            """
            def cell(x):
                return f"{x:.2f}"
            """,
            "repro/metrics/table.py",
            "FLOAT-FMT",
        )


class TestApiSurface:
    def test_missing_literal_all_is_flagged(self):
        found = findings_for(
            """
            run = None
            """,
            "repro/api.py",
            "API-SURFACE",
        )
        assert len(found) == 1
        assert "__all__" in found[0].message

    def test_read_all_literal(self):
        import ast

        tree = ast.parse('__all__ = ["a", "b"]')
        assert read_all_literal(tree) == ["a", "b"]
        assert read_all_literal(ast.parse("x = 1")) is None
        assert read_all_literal(ast.parse('__all__ = ["a"] + extra')) is None


class TestExcBare:
    def test_builtin_raise_in_heuristics_is_flagged(self):
        found = findings_for(
            """
            def select(context):
                raise ValueError("no candidates")
            """,
            "repro/core/heuristics/example.py",
            "EXC-BARE",
        )
        assert len(found) == 1

    def test_assert_is_flagged(self):
        found = findings_for(
            """
            def select(context):
                assert context is not None
            """,
            "repro/platform/middleware.py",
            "EXC-BARE",
        )
        assert len(found) == 1
        assert "assert" in found[0].message

    def test_library_hierarchy_and_reraise_pass(self):
        assert not findings_for(
            """
            from repro.errors import SchedulingError

            def select(context):
                try:
                    raise SchedulingError("no candidate")
                except SchedulingError:
                    raise
            """,
            "repro/core/heuristics/example.py",
            "EXC-BARE",
        )

    def test_not_implemented_error_stays_legal(self):
        assert not findings_for(
            """
            def select(context):
                raise NotImplementedError
            """,
            "repro/core/heuristics/base.py",
            "EXC-BARE",
        )

    def test_other_modules_are_out_of_scope(self):
        assert not findings_for(
            """
            def check(x):
                raise ValueError(x)
            """,
            "repro/workload/example.py",
            "EXC-BARE",
        )
