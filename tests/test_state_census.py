"""The state census: every attribute a class in ``src/repro`` assigns with
``self.<name> = ...``, and every dataclass field, is read somewhere, or is
allow-listed below with its reason.

A read is an attribute load of the name, or the name as the string of a
``getattr``, in ``src/repro``, ``bench/``, ``examples/`` or a ``run:``
script of ``.github/workflows/ci.yml``.  Tests are not readers.  Writing
through a name is not reading it: an augmented assignment (``self.n +=
1``), an item store (``self.d[k] = v``) and a mutating call
(``self.log.append(x)``) leave it unread.  The scan is by name, so a
name one class reads keeps every class's attribute of that name; it is
static and fast, so it is tier-1.

State nothing reads is a counter nobody looks at, a copy of a fact kept
elsewhere, or a list that grows per step: delete it, or give it one of the
call census's four reasons to stay (``tests/test_call_census.py``).
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

from test_call_census import ci_steps, parse

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"


def _allow(reason: str, module: str, *names: str) -> dict:
    return {f"{module}:{name}": reason for name in names}


#: ``module:Class.name`` -> why state nothing reads stays.  The call
#: census's four reasons, for state: (1) an open ROADMAP item reads it,
#: (2) it is documented surface or a persisted field, (3) something outside
#: the census reads it, such as the standard library, or (4) a test
#: compares the run path against it.
ALLOWED_STATE = {
    **_allow("1: the KHI item reads the fit it validates the shear run with",
             "repro.analysis.growth", "GrowthRateFit.rate",
             "GrowthRateFit.energy_rate", "GrowthRateFit.amplitude",
             "GrowthRateFit.window", "GrowthRateFit.r_squared"),
    **_allow("2: a field of the persisted run record (the store's JSONL); "
             "a record written by an older retry policy keeps its count",
             "repro.campaign.store", "RunRecord.attempts"),
    **_allow("2: the client's documented error: the server's message "
             "without the status", "repro.service.client",
             "ServiceError.message"),
    **_allow("3: http.server reads it to end a keep-alive connection",
             "repro.service.server", "CampaignServiceHandler.close_connection"),
}

#: a call on an attribute with one of these names writes through it
MUTATORS = frozenset({"append", "appendleft", "extend", "add", "update",
                      "insert", "clear"})


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if (isinstance(target, ast.Name) and target.id == "dataclass") or (
                isinstance(target, ast.Attribute) and target.attr == "dataclass"):
            return True
    return False


def _own_nodes(node: ast.ClassDef):
    """Every node in a class's body, less those of the classes it nests."""
    pending = list(node.body)
    while pending:
        child = pending.pop()
        if not isinstance(child, ast.ClassDef):
            yield child
            pending.extend(ast.iter_child_nodes(child))


def state_of(tree: ast.Module, module: str) -> dict:
    """``module:Class.name`` -> ``name`` of each attribute a class in
    ``tree`` assigns with ``self.<name> = ...`` and each dataclass field."""
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, ast.ClassDef):
                visit(child, prefix)
                continue
            qualname = f"{prefix}{child.name}"
            nodes = list(_own_nodes(child))
            # an augmented assignment's target is a store too, but it
            # assigns nothing new
            augmented = {id(statement.target) for statement in nodes
                         if isinstance(statement, ast.AugAssign)}
            for target in nodes:
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.ctx, ast.Store)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                        and id(target) not in augmented):
                    found[f"{module}:{qualname}.{target.attr}"] = target.attr
            if _is_dataclass(child):
                for statement in child.body:
                    if (isinstance(statement, ast.AnnAssign)
                            and isinstance(statement.target, ast.Name)
                            and "ClassVar" not in ast.unparse(statement.annotation)):
                        name = statement.target.id
                        found[f"{module}:{qualname}.{name}"] = name
            visit(child, f"{qualname}.")

    visit(tree, "")
    return found


def state() -> dict:
    """:func:`state_of` over every module in ``src/repro``."""
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts)
        found.update(state_of(parse(path), module.removesuffix(".__init__")))
    return found


def reads_of(tree: ast.Module) -> set:
    """The attribute names ``tree`` reads: loads and ``getattr`` strings,
    less the loads that only write through the attribute."""
    written_through = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
            written_through.add(id(node.value))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in MUTATORS):
            written_through.add(id(node.func.value))
    names = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and id(node) not in written_through):
            names.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant)
              and isinstance(node.args[1].value, str)):
            names.add(node.args[1].value)
    return names


def reads() -> set:
    """Every attribute name ``src/repro``, ``bench/``, ``examples/`` and
    CI's ``run:`` scripts read (the scripts by a ``.name`` in their text)."""
    names = set()
    for directory in (PACKAGE, ROOT / "bench", ROOT / "examples"):
        for path in sorted(directory.rglob("*.py")):
            if "tests" not in path.relative_to(ROOT).parts:
                names |= reads_of(parse(path))
    for _, _, script in ci_steps():
        names |= set(re.findall(r"\.([A-Za-z_]\w*)", script))
    return names


def unread() -> list:
    """``module:Class.name`` of the state nothing reads."""
    names = reads()
    return sorted(key for key, name in state().items() if name not in names)


@pytest.fixture(scope="module")
def census() -> set:
    return set(unread())


def test_every_attribute_and_field_is_read_or_allow_listed(census):
    assert sorted(census - set(ALLOWED_STATE)) == []


def test_the_allow_list_names_only_state_nothing_reads(census):
    """A stale entry fails: it names state that went, or that is read."""
    assert sorted(set(ALLOWED_STATE) - census) == []


def test_every_allow_list_entry_gives_a_reason_to_stay():
    assert [key for key, reason in ALLOWED_STATE.items()
            if not re.match(r"[1234]: \S", reason)] == []


# The census's own parts


SOURCE = '''
from dataclasses import dataclass, field
from typing import ClassVar


@dataclass(frozen=True)
class Record:
    kept: int
    listed: list = field(default_factory=list)
    LIMIT: ClassVar[int] = 3


class Counter:
    def __init__(self):
        self.count = 0
        self.log, self.seen = [], {}
        self.total: int = 0

    def step(self, key):
        self.count += 1
        self.log.append(key)
        self.seen[key] = True
        return self.total

    class Inner:
        def __init__(self):
            self.depth = 1
'''


def test_state_is_self_assignments_and_dataclass_fields():
    assert state_of(ast.parse(SOURCE), "m") == {
        "m:Record.kept": "kept", "m:Record.listed": "listed",
        "m:Counter.count": "count", "m:Counter.log": "log",
        "m:Counter.seen": "seen", "m:Counter.total": "total",
        "m:Counter.Inner.depth": "depth"}


def test_writing_through_an_attribute_is_not_reading_it():
    """``count +=``, ``log.append`` and ``seen[key] =`` write; ``return
    self.total`` reads."""
    assert reads_of(ast.parse(SOURCE)) & {"count", "log", "seen", "total"} == {
        "total"}


def test_a_load_anywhere_and_a_getattr_string_are_reads():
    tree = ast.parse("x = record.kept.size\n"
                     "y = getattr(counter, 'depth', None)\n"
                     "z = counter.log.pop()\n")
    assert {"kept", "size", "depth", "log", "pop"} <= reads_of(tree)
