"""Audit: the per-message and per-op handlers keep the protocol vocabulary
off their hot path.

On CPython 3.11 every ``MsgType.X`` / ``MoesiState.X`` class lookup runs
through ``EnumType``'s attribute hook (several times the cost of a plain
attribute load), ``.value`` is a Python-level property, and
``self.stats.inc(...)`` is a method call around one dict increment.  None
of this shows up as its own profile row -- it lands in the callers' self
time -- and 3.10 / 3.12 do not have the slow lookup at all, so a timing
test could not keep it out.  This AST audit does: in each function named
in :data:`HOT_FUNCTIONS`, nested closures included, it refuses

- an attribute load ``<protocol enum>.<MEMBER>`` (bind the member once at
  module level instead),
- a ``.value`` load (key a prebuilt dict by the member instead), except
  on the names in :data:`VALUE_RECORDS`, which hold a plain data field
  called ``value``,
- a ``self.stats.inc(`` call (increment the bound ``_counters`` dict).
"""

from __future__ import annotations

import ast
import importlib
import inspect

import pytest

from repro.protocol import types

#: the protocol enums whose member lookups must not appear on a hot path
ENUMS = {
    cls.__name__: cls
    for cls in (types.MoesiState, types.MsgType, types.ProbeType,
                types.RequesterKind, types.ViState, types.DirState)
}

#: local names whose ``.value`` is a data word, not an enum's wire name
VALUE_RECORDS = {
    "request",  # CpuRequest.value: the word a store writes
    "op",       # trace Store / VStore .value(s): the word a program stores
}

#: module -> class -> handlers run once (or more) per message or per op
HOT_FUNCTIONS = {
    "repro.cpu.core": {"CpuCore": ("_advance", "_dispatch")},
    "repro.cpu.corepair": {
        "CorePair": ("access", "_execute", "_do_load", "_do_store",
                     "handle_message", "_on_probe", "_ack"),
    },
    "repro.sim.component": {"Controller": ("deliver",)},
    "repro.sim.network": {
        "Network": ("send", "_out_done", "_arb_arrive", "_arb_grant"),
    },
    "repro.coherence.directory": {
        "DirectoryController": (
            "handle_message", "_accept_request", "_maybe_finish_permission",
            "_respond", "_maybe_complete", "_send_probes", "_act_probe_ack",
        ),
    },
    "repro.coherence.engine": {"TransitionTable": ("fire",)},
    # run on every transaction of a verified (litmus) run
    "repro.verify.invariants": {
        "CoherenceMonitor": ("on_transition", "check_line", "_l2_states",
                             "_check_moesi"),
    },
    "repro.protocol.messages": {
        "Message": ("request", "probe", "probe_ack", "unblock"),
    },
}


def _violations(func: ast.AST) -> list[str]:
    """Every forbidden construct inside ``func``, nested scopes included."""
    found = []
    for node in ast.walk(func):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            owner = node.value
            if (isinstance(owner, ast.Name) and owner.id in ENUMS
                    and node.attr in ENUMS[owner.id].__members__):
                found.append(f"line {node.lineno}: {owner.id}.{node.attr}")
            elif node.attr == "value" and not (
                    isinstance(owner, ast.Name) and owner.id in VALUE_RECORDS):
                found.append(f"line {node.lineno}: .value load")
        elif isinstance(node, ast.Call):
            callee = node.func
            if (isinstance(callee, ast.Attribute) and callee.attr == "inc"
                    and isinstance(callee.value, ast.Attribute)
                    and callee.value.attr == "stats"
                    and isinstance(callee.value.value, ast.Name)
                    and callee.value.value.id == "self"):
                found.append(f"line {node.lineno}: self.stats.inc(...)")
    return found


def _method(module_name: str, class_name: str, name: str) -> ast.AST:
    tree = ast.parse(inspect.getsource(importlib.import_module(module_name)))
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and item.name == name):
                    return item
    raise AssertionError(f"{module_name}.{class_name}.{name} not found")


CASES = [
    (module, cls, name)
    for module, classes in HOT_FUNCTIONS.items()
    for cls, names in classes.items()
    for name in names
]


@pytest.mark.parametrize("module,cls,name", CASES,
                         ids=[f"{c}.{n}" for _m, c, n in CASES])
def test_hot_function_is_free_of_enum_and_stat_overhead(module, cls, name):
    found = _violations(_method(module, cls, name))
    assert not found, f"{module}.{cls}.{name}: " + "; ".join(found)


def test_audit_detects_each_forbidden_form():
    source = '''
def handler(self, msg):
    def later():
        return msg.mtype is MsgType.PROBE
    self.stats.inc("x")
    return msg.mtype.value, later
'''
    found = _violations(ast.parse(source))
    assert len(found) == 3, found
    assert any("MsgType.PROBE" in f for f in found)
    assert any(".value" in f for f in found)
    assert any("self.stats.inc" in f for f in found)


def test_audit_allows_bound_members_and_counters():
    source = '''
_PROBE = MsgType.PROBE

def handler(self, msg):
    self._counters["x"] += 1
    return msg.mtype is _PROBE, MsgType, request.value
'''
    tree = ast.parse(source)
    assert _violations(tree.body[1]) == []
