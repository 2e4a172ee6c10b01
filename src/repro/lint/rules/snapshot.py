"""Snapshot purity (SNP001) -- a cross-module rule.

The checkpoint/restore codec (``sim/snapshot.py``) promises bit-exact
resume: every mutable field of the hot-path state classes must be encoded
into (and decoded out of) the snapshot document.  The classes in question
declare their fields statically, which makes the contract mechanically
checkable: a field the codec never mentions is a field the snapshot
silently drops -- the restored run would start from a subtly wrong state
and the differential net would only catch it on an input that happens to
exercise that field at the cut cycle.

The rule cross-checks, per inventoried class (:data:`SNAPSHOT_INVENTORY`):

* the class's fields are its ``__slots__`` names or, without
  ``__slots__``, every ``self.<name>`` its ``__init__`` assigns;
* the codec module's AST is scanned for every name it mentions --
  attribute accesses, keyword arguments, string literals (document keys);
* a field is *covered* when the codec mentions it directly, **or** when the
  codec calls a method of the class (by name) whose body touches the field
  via ``self.<field>`` -- that is how the codec delegates the event queue's
  internals to ``snapshot_events``/``restore_events`` without reaching
  into them;
* an uncovered, non-exempt field is a finding, as is an inventoried module
  or class that no longer exists (the inventory itself must track
  refactors).

Exemptions are per-field and deliberate: a field may be skipped only when
it is fixed at construction and the restore target rebuilds it on its own
(e.g. ``WorkerState.worker_id``, minted in pool order by ``WorkerPool``'s
constructor, or ``DependenceMemory._index_of``, derived from the DM
design).  When the codec module itself is absent the rule is silent:
partial-tree lints (single-directory invocations) cannot judge coverage.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from repro.lint.framework import Finding, Project, Rule, register_rule

#: Package-relative key of the snapshot codec module.
SNAPSHOT_CODEC_MODULE = "sim/snapshot.py"

#: ``(module key, class name, exempt fields)`` -- every field of these
#: classes must be covered by the codec.  Exemptions name fields fixed at
#: construction that the restore target rebuilds itself.
SNAPSHOT_INVENTORY: Tuple[Tuple[str, str, FrozenSet[str]], ...] = (
    ("sim/engine.py", "Event", frozenset()),
    ("sim/engine.py", "EventQueue", frozenset()),
    # worker_id is positional identity: WorkerPool's constructor mints the
    # states in id order, and the codec stores them as an ordered list.
    ("sim/worker.py", "WorkerState", frozenset({"worker_id"})),
    ("sim/worker.py", "WorkerPool", frozenset()),
    ("core/gateway.py", "PendingSubmission", frozenset()),
    # The flat datapath's memories and controllers (fields from __init__).
    ("core/task_memory.py", "TaskMemory", frozenset()),
    # design and _index_of (the set-index function) follow the config.
    ("core/dependence_memory.py", "DependenceMemory", frozenset({"design", "_index_of"})),
    ("core/version_memory.py", "VersionMemory", frozenset()),
    ("core/dct.py", "DependenceChainTracker", frozenset({"dct_id"})),
    # _single_trs and _max_deps are shortcuts into the construction config.
    ("core/gateway.py", "Gateway", frozenset({"_single_trs", "_max_deps"})),
    ("core/reference/task_memory.py", "DependenceSlot", frozenset()),
    ("core/reference/task_memory.py", "TaskEntry", frozenset()),
    ("core/reference/dependence_memory.py", "DMWay", frozenset()),
    ("core/reference/version_memory.py", "VersionEntry", frozenset()),
)


def _mentioned_names(tree: ast.Module) -> Set[str]:
    """Every name the codec module mentions, in any role.

    Attribute accesses (``way.tag``), keyword arguments (``DMWay(tag=...)``)
    and string literals (document keys like ``"tag"``) all count: each is a
    way the codec can handle a field.
    """
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg is not None:
            names.add(node.arg)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def _class_def(tree: ast.Module, name: str) -> Optional[ast.ClassDef]:
    for statement in tree.body:
        if isinstance(statement, ast.ClassDef) and statement.name == name:
            return statement
    return None


def _fields_of(class_def: ast.ClassDef) -> List[Tuple[str, int]]:
    """The class's fields with the line declaring each.

    A ``__slots__`` tuple is authoritative; without one, the fields are
    the ``self.<name>`` targets assigned in ``__init__``.
    """
    for statement in class_def.body:
        if not isinstance(statement, ast.Assign):
            continue
        targets = [
            t.id for t in statement.targets if isinstance(t, ast.Name)
        ]
        if "__slots__" not in targets:
            continue
        value = statement.value
        if isinstance(value, (ast.Tuple, ast.List)):
            return [
                (element.value, statement.lineno)
                for element in value.elts
                if isinstance(element, ast.Constant)
                and isinstance(element.value, str)
            ]
    fields: Dict[str, int] = {}
    for statement in class_def.body:
        if isinstance(statement, ast.FunctionDef) and statement.name == "__init__":
            for node in ast.walk(statement):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                ):
                    fields.setdefault(node.attr, node.lineno)
    return list(fields.items())


def _delegated_fields(class_def: ast.ClassDef, mentioned: Set[str]) -> Set[str]:
    """Fields covered through methods the codec calls by name.

    For every method of the class whose *name* the codec mentions (e.g.
    ``snapshot_events``), every ``self.<field>`` its body touches counts as
    covered: the codec reads/writes those fields through the delegate.
    """
    covered: Set[str] = set()
    for statement in class_def.body:
        if not isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if statement.name not in mentioned:
            continue
        for node in ast.walk(statement):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                covered.add(node.attr)
    return covered


class SnapshotPurityRule(Rule):
    """SNP001: every field of the inventoried state classes is snapshot-covered."""

    id = "SNP001"
    summary = "every inventoried state-class field must appear in the snapshot codec"

    def check_project(self, project: Project) -> Iterator[Finding]:
        codec = project.get(SNAPSHOT_CODEC_MODULE)
        if codec is None:
            # Partial-tree lint without the codec: coverage is unjudgeable.
            return
        mentioned = _mentioned_names(codec.tree)
        for key, class_name, exempt in SNAPSHOT_INVENTORY:
            module = project.get(key)
            if module is None:
                continue
            class_def = _class_def(module.tree, class_name)
            if class_def is None:
                yield module.finding(
                    self.id,
                    1,
                    f"snapshot-inventoried class {class_name} no longer exists "
                    f"in {key}; update SNAPSHOT_INVENTORY to match the refactor",
                )
                continue
            fields = _fields_of(class_def)
            if not fields:
                yield module.finding(
                    self.id,
                    class_def,
                    f"snapshot-inventoried class {class_name} declares no "
                    "__slots__ tuple or __init__ fields the rule can read",
                )
                continue
            delegated = _delegated_fields(class_def, mentioned)
            for field, line in fields:
                if field in exempt or field in mentioned or field in delegated:
                    continue
                yield module.finding(
                    self.id,
                    line,
                    f"{class_name}.{field} is mutable simulator state the "
                    f"snapshot codec ({SNAPSHOT_CODEC_MODULE}) never mentions; "
                    "a restored run would silently drop it",
                )


def _register() -> List[Rule]:
    rules: Iterable[Rule] = (SnapshotPurityRule(),)
    return [register_rule(rule) for rule in rules]


_RULES = _register()
