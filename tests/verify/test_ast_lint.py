"""Source-level lint: unyielded ops and raw op construction."""

import importlib

from repro.verify import lint_module, lint_source
from repro.verify.run import KERNEL_MODULES


def test_unyielded_ctx_op_is_a201():
    src = """
class K(Kernel):
    def step(self, ctx):
        space = yield ctx.get_space("out", 8)
        ctx.write("out", 0, b"x")      # discarded
        ctx.put_space("out", 8)        # discarded
        return StepOutcome.COMPLETED
"""
    rep = lint_source(src, filename="k.py")
    hits = [d for d in rep if d.rule_id == "A201"]
    assert len(hits) == 2
    assert hits[0].task == "K"
    assert hits[0].source.startswith("k.py:")
    assert "yield ctx.write" in hits[0].message


def test_raw_op_construction_is_a202():
    src = """
class K(Kernel):
    def step(self, ctx):
        yield ReadOp("in", 0, 8)
        yield kernel.PutSpaceOp("in", 8)
        return StepOutcome.COMPLETED
"""
    rep = lint_source(src, filename="k.py")
    assert len([d for d in rep if d.rule_id == "A202"]) == 2


def test_clean_kernel_source_has_no_findings():
    src = """
class K(Kernel):
    def step(self, ctx):
        space = yield ctx.get_space("in", 8)
        if not space:
            return StepOutcome.ABORTED
        data = yield ctx.read("in", 0, 8)
        yield ctx.put_space("in", 8)
        return StepOutcome.COMPLETED
"""
    assert len(lint_source(src)) == 0


def test_undeclared_mutable_state_is_a203():
    src = """
class AccumKernel(Kernel):
    def __init__(self):
        super().__init__()
        self.collected = bytearray()
        self.seen = {}

    def step(self, ctx):
        data = yield ctx.read("in", 0, 8)
        self.history = list(data)
        return StepOutcome.COMPLETED
"""
    rep = lint_source(src, filename="k.py")
    hits = [d for d in rep if d.rule_id == "A203"]
    assert len(hits) == 1  # one diagnostic per class, not per attribute
    assert hits[0].task == "AccumKernel"
    assert "collected, history, seen" in hits[0].message


def test_state_fields_declaration_suppresses_a203():
    src = """
class AccumKernel(Kernel):
    STATE_FIELDS = ("collected",)

    def __init__(self):
        super().__init__()
        self.collected = bytearray()
"""
    assert not [d for d in lint_source(src) if d.rule_id == "A203"]


def test_getstate_declaration_suppresses_a203():
    src = """
class AccumKernel(Kernel):
    def __init__(self):
        super().__init__()
        self.collected = bytearray()

    def __getstate__(self):
        return {"collected": bytes(self.collected)}
"""
    assert not [d for d in lint_source(src) if d.rule_id == "A203"]


def test_non_kernel_class_is_not_a203():
    src = """
class Tracker:
    def __init__(self):
        self.events = []
"""
    assert not [d for d in lint_source(src) if d.rule_id == "A203"]


def test_a203_respects_ignore():
    src = """
class AccumKernel(Kernel):
    def __init__(self):
        self.collected = []
"""
    rep = lint_source(src, filename="k.py")
    assert [d.rule_id for d in rep] == ["A203"]
    assert len(rep.ignoring(["A203"])) == 0


def test_syntax_error_reports_not_crashes():
    rep = lint_source("def broken(:\n    pass", filename="bad.py")
    assert rep.rule_ids() == {"P106"}
    assert rep.diagnostics[0].source.startswith("bad.py:")


def test_shipped_kernel_modules_are_clean():
    for name in KERNEL_MODULES:
        rep = lint_module(importlib.import_module(name))
        assert len(rep) == 0, rep.render_text()
