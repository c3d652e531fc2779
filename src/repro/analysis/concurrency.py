"""Concurrency-discipline rules (REP008–REP012).

The serve stack is the most heavily threaded code in the repo — a
selectors event loop and its dispatcher pool, one ``BatchScheduler``
worker per host process, ``SessionManager`` with three locks, the chaos
proxy — and the hazards
that kill long-lived servers (lock-order inversions, blocking calls
under a held lock, unguarded shared-state mutation) are invisible to
generic linters.  These rules encode the repo's lock discipline:

- REP008 — an attribute a class mutates under one of its own locks is
  shared state; mutating it *outside* any lock (after ``__init__``)
  races with the guarded sites.
- REP009 — the project-wide lock-order graph, built from nested
  lock-like ``with`` blocks (and ``acquire``/``finally: release``
  holds) across every checked file.  Acquisition cycles — including
  AB/BA inversions — are would-deadlocks; a module may also declare
  its intended order via ``_LOCK_ORDER = ("outer", ..., "inner")`` and
  any edge acquired against a declaration is flagged even without a
  full cycle.
- REP010 — blocking calls (``time.sleep``, socket I/O, unbounded
  ``.join()``/``.wait()``/queue ops, ``open``) while holding a lock
  stall every thread contending for it; file locks
  (``FileLock``) are exempt since they exist to serialize I/O.
- REP011 — ``threading.Thread`` created in library code without an
  explicit ``daemon=`` decision can hang interpreter shutdown.
- REP012 — ``Condition.wait/notify`` outside ``with <condition>:`` is
  a runtime ``RuntimeError`` at best and a lost wakeup at worst.

Lock identity for REP009 normalizes ``self.X`` to ``ClassName.X`` so
sites in different methods agree; bare module-level names are kept
verbatim, which intentionally merges same-named locks across files
(lock *roles*, matching the dynamic side in
:mod:`repro.analysis.lockwatch`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.context import (FileContext, _looks_lock_like,
                                    _lock_expr_name, dotted_name, noqa_codes)
from repro.analysis.findings import Finding
from repro.analysis.rulebase import Rule

#: ``threading`` constructors whose result is an exclusive guard
_LOCK_CTORS = frozenset({"Lock", "RLock", "Condition", "Semaphore",
                         "BoundedSemaphore"})

#: method names that mutate their receiver in place
_MUTATING_METHODS = frozenset({
    "append", "add", "update", "clear", "pop", "popitem", "setdefault",
    "extend", "remove", "discard", "insert", "appendleft", "extendleft",
    "popleft", "rotate", "sort", "reverse",
})

#: module-level names that declare a file's intended lock order
_LOCK_ORDER_NAMES = ("_LOCK_ORDER", "__lock_order__")


def _lock_ctor_kind(value: ast.AST) -> Optional[str]:
    """``'Condition'``/``'Lock'``/... when ``value`` is ``threading.X()``."""
    if not isinstance(value, ast.Call):
        return None
    name = dotted_name(value.func)
    if name is None:
        return None
    last = name.split(".")[-1]
    return last if last in _LOCK_CTORS else None


def _self_attr(node: ast.AST) -> Optional[str]:
    """``Y`` when ``node`` is (a subscript of) ``self.Y``/``self.Y.…``."""
    if isinstance(node, ast.Subscript):
        node = node.value
    attr = None
    while isinstance(node, ast.Attribute):
        attr = node.attr
        node = node.value
    if isinstance(node, ast.Name) and node.id in ("self", "cls"):
        return attr
    return None


class _ConcurrencyRule(Rule):
    """Shared helpers for the lock-discipline rules."""

    runs_on_tests = False

    def _held(self, node: ast.AST) -> List[str]:
        function = self.context.enclosing_function(node)
        return self.context.held_locks(node, within=function)

    def _enclosing_class(self, node: ast.AST) -> Optional[ast.ClassDef]:
        for ancestor in self.context.ancestors(node):
            if isinstance(ancestor, ast.ClassDef):
                return ancestor
        return None

    def _normalize(self, raw: str, node: ast.AST) -> str:
        """``self.X`` → ``ClassName.X``; anything else verbatim."""
        parts = raw.split(".")
        if parts[0] in ("self", "cls"):
            owner = self._enclosing_class(node)
            if owner is not None:
                return ".".join([owner.name] + parts[1:])
        return raw


# ---------------------------------------------------------------------------
# REP008 — unguarded writes to lock-guarded instance state
# ---------------------------------------------------------------------------

class GuardedStateRule(_ConcurrencyRule):
    code = "REP008"
    name = "unguarded-shared-state"
    rationale = ("an attribute a class mutates under one of its own locks "
                 "is shared across threads; mutating it outside any lock "
                 "(after __init__) races with the guarded sites")

    def begin_module(self) -> None:
        for node in ast.walk(self.context.tree):
            if isinstance(node, ast.ClassDef):
                self._check_class(node)

    def _check_class(self, classdef: ast.ClassDef) -> None:
        lock_attrs = self._lock_attrs(classdef)
        if not lock_attrs:
            return
        writes = self._attribute_writes(classdef, lock_attrs)
        guarded = {attr for attr, _node, locked, _meth in writes if locked}
        for attr, node, locked, method in writes:
            if attr not in guarded or locked:
                continue
            if method in (None, "__init__"):
                continue           # construction happens-before sharing
            self.report(node, f"write to `self.{attr}` outside a lock in "
                              f"`{classdef.name}.{method}`; other sites "
                              "mutate it under a held lock, so this write "
                              "races with them")

    def _lock_attrs(self, classdef: ast.ClassDef) -> Set[str]:
        """Attributes assigned a ``threading.Lock()``-style constructor."""
        attrs: Set[str] = set()
        for node in ast.walk(classdef):
            if (isinstance(node, ast.Assign)
                    and _lock_ctor_kind(node.value) is not None):
                for target in node.targets:
                    attr = _self_attr(target)
                    if attr is not None and not isinstance(target,
                                                           ast.Subscript):
                        attrs.add(attr)
        return attrs

    def _attribute_writes(self, classdef: ast.ClassDef, lock_attrs: Set[str]
                          ) -> List[Tuple[str, ast.AST, bool, Optional[str]]]:
        writes: List[Tuple[str, ast.AST, bool, Optional[str]]] = []

        def record(attr: Optional[str], node: ast.AST) -> None:
            if attr is None or attr in lock_attrs:
                return
            locked = bool(self._held(node))
            writes.append((attr, node, locked, self._method_name(node,
                                                                classdef)))

        for node in ast.walk(classdef):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    record(_self_attr(target), node)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                record(_self_attr(node.target), node)
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    record(_self_attr(target), node)
            elif (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _MUTATING_METHODS):
                record(_self_attr(node.func.value), node)
        return writes

    def _method_name(self, node: ast.AST,
                     classdef: ast.ClassDef) -> Optional[str]:
        """Name of the outermost function between ``node`` and the class."""
        name = None
        for ancestor in self.context.ancestors(node):
            if ancestor is classdef:
                break
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = ancestor.name
        return name


# ---------------------------------------------------------------------------
# REP009 — project-wide lock-order graph
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LockEdge:
    """One observed nested acquisition: ``acquired`` taken under ``holder``."""
    holder: str
    acquired: str
    path: str
    line: int
    col: int
    text: str


class LockOrderRule(_ConcurrencyRule):
    code = "REP009"
    name = "lock-order"
    rationale = ("nested lock acquisitions define a project-wide order "
                 "graph; a cycle (e.g. AB in one thread, BA in another) "
                 "is a would-deadlock, and modules may pin the intended "
                 "order with `_LOCK_ORDER = (\"outer\", ..., \"inner\")`")
    project_wide = True

    def begin_module(self) -> None:
        self.edges: List[LockEdge] = []
        self.declarations: List[Tuple[str, Tuple[str, ...]]] = []
        for statement in self.context.tree.body:
            if not (isinstance(statement, ast.Assign)
                    and len(statement.targets) == 1
                    and isinstance(statement.targets[0], ast.Name)
                    and statement.targets[0].id in _LOCK_ORDER_NAMES):
                continue
            value = statement.value
            if isinstance(value, (ast.Tuple, ast.List)):
                names = tuple(elt.value for elt in value.elts
                              if isinstance(elt, ast.Constant)
                              and isinstance(elt.value, str))
                if names:
                    self.declarations.append((self.context.path, names))

    def _visit_with(self, node: ast.With) -> None:
        lock_names = [self._normalize(_lock_expr_name(item.context_expr),
                                      node)
                      for item in node.items
                      if _looks_lock_like(item.context_expr)]
        if not lock_names:
            return
        suppressed = noqa_codes(self.context.source_line(node.lineno))
        if suppressed is not None and (not suppressed
                                       or self.code in suppressed):
            return                 # suppressing the site removes its edges
        function = self.context.enclosing_function(node)
        held = [self._normalize(name, node)
                for name in self.context.held_locks(node, within=function)]
        line = node.lineno
        text = self.context.source_line(line).strip()
        for acquired in lock_names:
            for holder in held:
                self.edges.append(LockEdge(holder, acquired,
                                           self.context.path, line,
                                           getattr(node, "col_offset", 0),
                                           text))
            held = [acquired] + held   # `with a, b:` acquires b under a
    visit_With = _visit_with
    visit_AsyncWith = _visit_with

    @classmethod
    def finalize_project(cls, instances: Sequence["LockOrderRule"]
                         ) -> List[Finding]:
        edges = [edge for rule in instances for edge in rule.edges]
        declarations = [decl for rule in instances
                        for decl in rule.declarations]
        return lock_order_findings(edges, declarations)


def _find_path(graph: Dict[str, Set[str]], start: str,
               goal: str) -> Optional[List[str]]:
    """A path ``start → … → goal`` through ``graph`` (DFS), or None."""
    stack: List[List[str]] = [[start]]
    seen = {start}
    while stack:
        path = stack.pop()
        node = path[-1]
        if node == goal:
            return path
        for neighbor in sorted(graph.get(node, ())):
            if neighbor not in seen:
                seen.add(neighbor)
                stack.append(path + [neighbor])
    return None


def lock_order_findings(
        edges: Sequence[LockEdge],
        declarations: Sequence[Tuple[str, Tuple[str, ...]]]
) -> List[Finding]:
    """Cycle + declared-order analysis over the merged project graph."""
    graph: Dict[str, Set[str]] = {}
    sites: Dict[Tuple[str, str], List[LockEdge]] = {}
    for edge in edges:
        graph.setdefault(edge.holder, set()).add(edge.acquired)
        sites.setdefault((edge.holder, edge.acquired), []).append(edge)

    findings: List[Finding] = []
    reported: Set[Tuple[str, int, int]] = set()

    def report(edge: LockEdge, message: str) -> None:
        key = (edge.path, edge.line, edge.col)
        if key in reported:
            return
        reported.add(key)
        findings.append(Finding(code=LockOrderRule.code, message=message,
                                path=edge.path, line=edge.line,
                                col=edge.col, text=edge.text))

    # declared-order violations: an edge acquired against a declaration
    for decl_path, order in declarations:
        index = {name: i for i, name in enumerate(order)}
        for edge in edges:
            if (edge.holder in index and edge.acquired in index
                    and index[edge.acquired] < index[edge.holder]):
                report(edge, f"acquiring `{edge.acquired}` while holding "
                             f"`{edge.holder}` violates the declared lock "
                             f"order in {decl_path} "
                             f"({' -> '.join(order)})")

    # acquisition cycles (includes 2-cycles = AB/BA inversions and
    # self-nesting of a non-reentrant lock)
    for (holder, acquired), edge_sites in sorted(sites.items()):
        if holder == acquired:
            for edge in edge_sites:
                report(edge, f"nested acquisition of `{holder}` under "
                             "itself deadlocks a non-reentrant Lock "
                             "(use RLock deliberately, or restructure)")
            continue
        back_path = _find_path(graph, acquired, holder)
        if back_path is None:
            continue
        cycle = " -> ".join([holder] + back_path)
        for edge in edge_sites:
            report(edge, f"acquiring `{acquired}` while holding "
                         f"`{holder}` closes the lock-order cycle "
                         f"{cycle}; two threads taking opposite routes "
                         "deadlock")

    findings.sort(key=Finding.sort_key)
    return findings


# ---------------------------------------------------------------------------
# REP010 — blocking calls while holding a lock
# ---------------------------------------------------------------------------

_SOCKET_BLOCKING = frozenset({"recv", "recvfrom", "recv_into", "accept",
                              "sendall", "connect"})


def _has_keyword(node: ast.Call, name: str) -> bool:
    return any(kw.arg == name for kw in node.keywords)


class BlockingUnderLockRule(_ConcurrencyRule):
    code = "REP010"
    name = "blocking-under-lock"
    rationale = ("a blocking call under a held lock stalls every thread "
                 "contending for it — sleeps, socket I/O, unbounded "
                 "joins/waits/queue ops and file I/O belong outside the "
                 "critical section (FileLock holds are exempt: they exist "
                 "to serialize file I/O)")

    def _thread_locks(self, node: ast.AST) -> List[str]:
        """Held locks minus file locks (which sanction I/O, not forbid it)."""
        return [name for name in self._held(node)
                if "file" not in name.lower()]

    def visit_Call(self, node: ast.Call) -> None:
        held = self._thread_locks(node)
        if not held:
            return
        holder = held[0]
        func = node.func
        name = dotted_name(func)
        if name in ("time.sleep", "sleep"):
            self.report(node, f"`{name}(...)` while holding `{holder}`; "
                              "sleep outside the critical section")
            return
        if isinstance(func, ast.Name) and func.id == "open":
            self.report(node, f"file I/O (`open`) while holding `{holder}`; "
                              "stage data outside the lock")
            return
        if not isinstance(func, ast.Attribute):
            return
        attr = func.attr
        receiver = dotted_name(func.value)
        if attr in _SOCKET_BLOCKING:
            self.report(node, f"blocking socket call `.{attr}(...)` while "
                              f"holding `{holder}`; a stalled peer stalls "
                              "every contender")
        elif (attr == "join" and not node.args
                and not _has_keyword(node, "timeout")):
            self.report(node, f"unbounded `.join()` while holding "
                              f"`{holder}`; pass a timeout or join outside "
                              "the lock")
        elif attr in ("wait", "wait_for"):
            if receiver is not None and receiver in self._held(node):
                return             # Condition.wait releases the lock it holds
            timeout_position = 0 if attr == "wait" else 1
            if (len(node.args) > timeout_position
                    or _has_keyword(node, "timeout")):
                return
            self.report(node, f"unbounded `.{attr}()` while holding "
                              f"`{holder}`; wait with a timeout or outside "
                              "the lock")
        elif attr in ("get", "put") and receiver is not None \
                and "queue" in receiver.lower():
            bounded = (_has_keyword(node, "timeout")
                       or _has_keyword(node, "block")
                       or len(node.args) > (0 if attr == "get" else 1))
            if not bounded:
                self.report(node, f"unbounded `{receiver}.{attr}(...)` "
                                  f"while holding `{holder}`; a full/empty "
                                  "queue blocks every contender")


# ---------------------------------------------------------------------------
# REP011 — threads without an explicit daemon decision
# ---------------------------------------------------------------------------

_THREAD_CTORS = ("threading.Thread", "Thread")


class ThreadDaemonRule(_ConcurrencyRule):
    code = "REP011"
    name = "thread-daemon"
    rationale = ("library code must decide thread lifetime explicitly: a "
                 "Thread without `daemon=` inherits the creator's flag and "
                 "a forgotten non-daemon worker hangs interpreter shutdown")

    def visit_Call(self, node: ast.Call) -> None:
        if dotted_name(node.func) not in _THREAD_CTORS:
            return
        if not _has_keyword(node, "daemon"):
            self.report(node, "threading.Thread(...) without an explicit "
                              "`daemon=`; decide the thread's lifetime "
                              "(daemon=True, or daemon=False plus a "
                              "recorded join)")

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if not any(dotted_name(base) in _THREAD_CTORS
                   for base in node.bases):
            return
        sets_daemon = any(
            isinstance(sub, ast.Assign)
            and any(_self_attr(t) == "daemon" for t in sub.targets)
            for sub in ast.walk(node))
        for sub in ast.walk(node):
            if not (isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr == "__init__"
                    and isinstance(sub.func.value, ast.Call)
                    and dotted_name(sub.func.value.func) == "super"):
                continue
            if not _has_keyword(sub, "daemon") and not sets_daemon:
                self.report(sub, f"Thread subclass `{node.name}` forwards "
                                 "super().__init__ without `daemon=`; "
                                 "decide the thread's lifetime explicitly")


# ---------------------------------------------------------------------------
# REP012 — Condition.wait/notify outside the condition's lock
# ---------------------------------------------------------------------------

_CONDITION_METHODS = frozenset({"wait", "wait_for", "notify", "notify_all"})


class ConditionDisciplineRule(_ConcurrencyRule):
    code = "REP012"
    name = "condition-discipline"
    rationale = ("Condition.wait/notify outside `with <condition>:` raises "
                 "RuntimeError at runtime and loses wakeups under race — "
                 "the condition must be held at the call site")

    def begin_module(self) -> None:
        self.condition_names: Set[str] = set()
        for node in ast.walk(self.context.tree):
            if (isinstance(node, ast.Assign)
                    and _lock_ctor_kind(node.value) == "Condition"):
                for target in node.targets:
                    name = dotted_name(target)
                    if name is not None:
                        self.condition_names.add(name)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if not (isinstance(func, ast.Attribute)
                and func.attr in _CONDITION_METHODS):
            return
        receiver = dotted_name(func.value)
        if receiver is None:
            return
        is_condition = (receiver in self.condition_names
                        or "cond" in receiver.split(".")[-1].lower())
        if not is_condition:
            return
        if receiver in self._held(node):
            return
        self.report(node, f"`{receiver}.{func.attr}(...)` outside "
                          f"`with {receiver}:`; the condition's lock must "
                          "be held at the call site")
