"""Hot-loop purity lint: the tree is clean and each rule catches its bug."""

import textwrap

from repro.analyze.hotlint import lint_source, run_hotlint


def lint(source, **kwargs):
    return lint_source(textwrap.dedent(source), **kwargs)


def codes(findings):
    return [f.code for f in findings]


class TestTreeIsClean:
    def test_hot_targets_lint_clean(self):
        report = run_hotlint()
        assert [f for f in report.findings if f.severity == "error"] == []

    def test_scheduler_placement_is_a_target(self):
        from repro.analyze.hotlint import HOT_TARGETS

        targets = {q: rules for path, q, rules in HOT_TARGETS
                   if path == "repro/sim/scheduler.py"}
        for method in ("place", "occupy", "release"):
            assert targets[f"OSScheduler.{method}"] == ("alloc", "per-call")

    def test_mapping_refinement_is_a_target(self):
        from repro.analyze.hotlint import HOT_TARGETS

        targets = {(path, q): rules for path, q, rules in HOT_TARGETS}
        for key in (
            ("repro/treematch/grouping.py", "refine_groups"),
            ("repro/treematch/bisect.py", "_attraction_rows"),
            ("repro/treematch/bisect.py", "_rebalance_exact"),
            ("repro/util/matrix.py", "affinity_into"),
        ):
            assert targets[key] == ("alloc", "per-call")

    def test_mapping_suppressions_give_a_reason(self):
        # Every once-per-call or once-per-pass allocation in the mapping
        # targets is suppressed with a stated reason, not bare.
        import inspect

        from repro.treematch import bisect, grouping
        from repro.util import matrix

        for fn in (grouping.refine_groups, bisect._attraction_rows,
                   bisect._rebalance_exact, matrix.affinity_into):
            for line in inspect.getsource(fn).splitlines():
                if "hotlint: ok" in line:
                    reason = line.split("hotlint: ok(alloc)", 1)[1]
                    assert reason.strip(" —-"), line

    def test_per_pass_rebalance_comprehension_flagged(self):
        # A rebalance pass that rebuilt the candidate lists with a
        # comprehension allocates once per pass; per-call scope sees it.
        findings = lint("""
            def _rebalance_exact(cand, order):
                while True:
                    ranked = [int(cand[o]) for o in order]
        """, qualname="_rebalance_exact", rules=("alloc", "per-call"))
        assert codes(findings) == ["hot-loop-alloc"]

    def test_per_tile_list_in_affinity_build_flagged(self):
        # The affinity build runs no while loop; only per-call scope
        # lints its tile loop.
        source = """
            def affinity_into(a, out, tiles):
                for i0, j0 in tiles:
                    blk = [i0, j0, list(range(i0, j0))]
        """
        assert codes(lint(source, qualname="affinity_into",
                          rules=("alloc",))) == []
        assert codes(lint(source, qualname="affinity_into",
                          rules=("alloc", "per-call"))) == ["hot-loop-alloc"]

    def test_per_candidate_span_list_flagged(self):
        # The span walk _attraction_rows used to build, once per call.
        findings = lint("""
            def _attraction_rows(indptr, cand):
                spans = [np.arange(indptr[v], indptr[v + 1]) for v in cand]
                return spans
        """, qualname="_attraction_rows", rules=("alloc", "per-call"))
        assert codes(findings) == ["hot-loop-alloc"]

    def test_all_configured_targets_found(self):
        # A rename in the simulator must update the lint config too.
        report = run_hotlint()
        assert "hot-target-missing" not in {f.code for f in report.findings}
        assert "hot-missing-slots" not in {f.code for f in report.findings}


class TestAllocRule:
    def test_dict_display_in_while_flagged(self):
        findings = lint("""
            def drain(q):
                while q:
                    state = {"head": q[0]}
                    q.pop()
        """)
        assert codes(findings) == ["hot-loop-alloc"]
        assert findings[0].line == 4

    def test_comprehension_flagged(self):
        findings = lint("""
            def drain(q):
                while q:
                    live = [t for t in q if t.ready]
                    q.pop()
        """)
        assert codes(findings) == ["hot-loop-alloc"]

    def test_builtin_ctor_flagged(self):
        findings = lint("""
            def drain(q):
                while q:
                    order = sorted(q)
                    q.pop()
        """)
        assert codes(findings) == ["hot-loop-alloc"]

    def test_list_display_allowed(self):
        # Fixed-size list displays compile to BUILD_LIST — cheap, common.
        findings = lint("""
            def drain(q):
                while q:
                    pair = [q[0], q[-1]]
                    q.pop()
        """)
        assert findings == []

    def test_raise_path_exempt(self):
        findings = lint("""
            def drain(q):
                while q:
                    if q[0] is None:
                        raise ValueError(f"bad head in {sorted(q)}")
                    q.pop()
        """)
        assert findings == []

    def test_outside_while_allowed(self):
        findings = lint("""
            def drain(q):
                seen = {q[0]: True}
                while q:
                    q.pop()
        """)
        assert findings == []

    def test_per_call_scope_lints_whole_body(self):
        # A function called once per event is hot without a loop of its
        # own: the list-scan placement this rule now keeps out.
        source = """
            def place(self, thread):
                candidates = [p for p in self.pus if self.free(p)]
                return min(candidates)
        """
        assert lint(source, rules=("alloc",)) == []
        findings = lint(source, rules=("alloc", "per-call"))
        assert codes(findings) == ["hot-loop-alloc"]
        assert findings[0].line == 3

    def test_suppression_comment(self):
        findings = lint("""
            def drain(q):
                while q:
                    order = sorted(q)  # hotlint: ok(alloc)
                    q.pop()
        """)
        assert findings == []

    def test_nested_def_in_while_flagged_once(self):
        findings = lint("""
            def drain(q):
                while q:
                    fn = lambda: 1
                    q.pop()
        """)
        assert codes(findings) == ["hot-loop-alloc"]


class TestTapRule:
    def test_unguarded_tap_flagged(self):
        findings = lint("""
            def run(self):
                while self.pending:
                    self.step()
                    notify_monitors(self)
        """, rules=("tap",))
        assert codes(findings) == ["hot-tap-unguarded"]

    def test_guarded_tap_allowed(self):
        findings = lint("""
            def run(self):
                while self.pending:
                    self.step()
                    if self.monitors:
                        notify_monitors(self)
        """, rules=("tap",))
        assert findings == []


class TestSelfAttrRule:
    def test_self_attr_in_while_body_flagged(self):
        findings = lint("""
            def run(self):
                while True:
                    x = self.pending
        """, rules=("self-attr",))
        assert codes(findings) == ["hot-self-attr"]

    def test_while_condition_itself_allowed(self):
        # The loop must re-check its own condition; only body traffic
        # is expected to be hoisted.
        findings = lint("""
            def run(self):
                while self.pending:
                    pass
        """, rules=("self-attr",))
        assert findings == []

    def test_hoisted_local_allowed(self):
        findings = lint("""
            def run(self):
                pending = self.pending
                while pending:
                    pending.pop()
        """, rules=("self-attr",))
        assert findings == []


class TestSlotsRule:
    def test_missing_slots_flagged(self):
        findings = lint("""
            class Event:
                def __init__(self):
                    self.when = 0.0
        """, rules=(), slots_classes=("Event",))
        assert codes(findings) == ["hot-missing-slots"]

    def test_present_slots_clean(self):
        findings = lint("""
            class Event:
                __slots__ = ("when",)

                def __init__(self):
                    self.when = 0.0
        """, rules=(), slots_classes=("Event",))
        assert findings == []


class TestTargetResolution:
    def test_missing_qualname_warns(self):
        findings = lint("def f():\n    pass\n", qualname="Engine.run")
        assert codes(findings) == ["hot-target-missing"]
        assert findings[0].severity == "warning"

    def test_qualname_scopes_the_scan(self):
        src = """
            class Engine:
                def run(self):
                    while self.q:
                        x = sorted(self.q)

            def cold():
                while True:
                    y = sorted([])
        """
        findings = lint(src, qualname="Engine.run", rules=("alloc",))
        assert len(findings) == 1
        assert "Engine.run" in findings[0].message or findings[0].line == 5
