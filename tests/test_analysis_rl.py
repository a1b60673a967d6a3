"""RL rule family of the project analyzer: one golden case per rule.

Each case writes a snippet at a path under a fake ``repro/`` tree (the
rules are path-scoped) and runs the RL family alone, without the RL900
suppression audit.  Suppression, syntax errors, the CLI and the shipped
tree's cleanliness are covered in test_analysis_engine.py and
test_analysis_cc.py."""

import textwrap

import pytest

from repro.analysis.engine import analyze_paths, load_rules

load_rules()


def run_lint(tmp_path, rel, code):
    """Write ``code`` at ``rel`` under a fake tree and analyze it."""
    path = tmp_path / rel.lstrip("/")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(code))
    return analyze_paths([tmp_path], families=("RL",), audit=False)


def rules_of(findings):
    return [f.rule for f in findings]


class TestRL001FloatEquality:
    def test_fires_in_geometry(self, tmp_path):
        findings = run_lint(tmp_path, "repro/geometry/foo.py", """\
            def f(x):
                return x == 0.5
        """)
        assert rules_of(findings) == ["RL001"]

    def test_silent_outside_scope(self, tmp_path):
        findings = run_lint(tmp_path, "repro/data/foo.py", """\
            def f(x):
                return x == 0.5
        """)
        assert findings == []

    def test_int_equality_allowed(self, tmp_path):
        findings = run_lint(tmp_path, "repro/geometry/foo.py", """\
            def f(x):
                return x == 3
        """)
        assert findings == []

    def test_negative_float_literal(self, tmp_path):
        findings = run_lint(tmp_path, "repro/ebf/foo.py", """\
            def f(x):
                return x != -1.0
        """)
        assert rules_of(findings) == ["RL001"]


class TestRL002SetIteration:
    def test_for_over_set_call(self, tmp_path):
        findings = run_lint(tmp_path, "repro/lp/foo.py", """\
            def f(xs):
                for x in set(xs):
                    print(x)
        """)
        assert rules_of(findings) == ["RL002"]

    def test_comprehension_over_set_literal(self, tmp_path):
        findings = run_lint(tmp_path, "repro/ebf/foo.py", """\
            def f():
                return [x for x in {1, 2, 3}]
        """)
        assert rules_of(findings) == ["RL002"]

    def test_sorted_set_allowed(self, tmp_path):
        findings = run_lint(tmp_path, "repro/lp/foo.py", """\
            def f(xs):
                for x in sorted(set(xs)):
                    print(x)
        """)
        assert findings == []

    def test_set_algebra_flagged(self, tmp_path):
        findings = run_lint(tmp_path, "repro/lp/foo.py", """\
            def f(a, b):
                for x in set(a) - set(b):
                    print(x)
        """)
        assert rules_of(findings) == ["RL002"]

    def test_out_of_scope_module_silent(self, tmp_path):
        findings = run_lint(tmp_path, "repro/perf/foo.py", """\
            def f(xs):
                for x in set(xs):
                    print(x)
        """)
        assert findings == []


class TestRL003CacheMutation:
    def test_attribute_store(self, tmp_path):
        findings = run_lint(tmp_path, "repro/ebf/foo.py", """\
            def f(topo):
                topo._sinks_under = {}
        """)
        assert rules_of(findings) == ["RL003"]

    def test_subscript_store_into_accessor(self, tmp_path):
        findings = run_lint(tmp_path, "repro/embedding/foo.py", """\
            def f(topo):
                topo.sinks_under()[3] = ()
        """)
        assert rules_of(findings) == ["RL003"]

    def test_mutating_method_on_accessor(self, tmp_path):
        findings = run_lint(tmp_path, "repro/ebf/foo.py", """\
            def f(topo):
                topo.root_path_incidence(1).append(2)
        """)
        assert rules_of(findings) == ["RL003"]

    def test_owner_file_exempt(self, tmp_path):
        findings = run_lint(tmp_path, "repro/topology/tree.py", """\
            def f(self):
                self._sinks_under = {}
        """)
        assert findings == []

    def test_reading_accessor_allowed(self, tmp_path):
        findings = run_lint(tmp_path, "repro/ebf/foo.py", """\
            def f(topo):
                return len(topo.sinks_under())
        """)
        assert findings == []


class TestRL004BroadExcept:
    @pytest.mark.parametrize("clause", ["except Exception:", "except:",
                                        "except BaseException:"])
    def test_fires(self, tmp_path, clause):
        findings = run_lint(tmp_path, "repro/lp/foo.py", f"""\
            def f():
                try:
                    pass
                {clause}
                    pass
        """)
        assert rules_of(findings) == ["RL004"]

    def test_resilience_exempt(self, tmp_path):
        findings = run_lint(tmp_path, "repro/resilience/foo.py", """\
            def f():
                try:
                    pass
                except Exception:
                    pass
        """)
        assert findings == []

    def test_noqa_ble001_suppresses(self, tmp_path):
        findings = run_lint(tmp_path, "repro/lp/foo.py", """\
            def f():
                try:
                    pass
                except Exception:  # noqa: BLE001 — boundary
                    pass
        """)
        assert findings == []

    def test_named_exception_allowed(self, tmp_path):
        findings = run_lint(tmp_path, "repro/lp/foo.py", """\
            def f():
                try:
                    pass
                except ValueError:
                    pass
        """)
        assert findings == []


class TestRL005SetRebuildInComprehension:
    def test_fires(self, tmp_path):
        findings = run_lint(tmp_path, "repro/data/foo.py", """\
            def f(xs, ys):
                return [x for x in xs if x in set(ys)]
        """)
        assert rules_of(findings) == ["RL005"]

    def test_hoisted_allowed(self, tmp_path):
        findings = run_lint(tmp_path, "repro/data/foo.py", """\
            def f(xs, ys):
                ok = set(ys)
                return [x for x in xs if x in ok]
        """)
        assert findings == []


class TestRL006PerNodeTrrInLoop:
    @pytest.mark.parametrize("build", ["TRR(p, r)", "TRR.from_point(p)"])
    def test_fires_inside_a_loop_under_embedding(self, tmp_path, build):
        findings = run_lint(tmp_path, "repro/embedding/foo.py", f"""\
            def f(points, r):
                out = []
                for p in points:
                    out.append({build})
                return out
        """)
        assert rules_of(findings) == ["RL006"]

    def test_silent_outside_a_loop(self, tmp_path):
        findings = run_lint(tmp_path, "repro/embedding/foo.py", """\
            def f(p, r):
                return TRR(p, r)
        """)
        assert findings == []
