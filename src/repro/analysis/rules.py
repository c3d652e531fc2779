"""The project-specific invariant rules (``REPxxx``).

Each rule is an AST visitor targeting one way a PR can silently erode a
guarantee this repo has paid for — seeded determinism, crash-safe IO,
thread-local backend state.  Rules declare ``visit_<NodeType>`` methods;
the engine walks each file's tree once and dispatches every node to
every active rule (see :mod:`repro.analysis.engine`).

The catalog (code — invariant protected):

- REP001 — global-state ``np.random.*`` / ``random.*`` calls: all
  randomness must flow through seeded ``np.random.Generator`` objects
  (``default_rng``), or per-cell seeding breaks and parallel workers
  diverge from the serial twin.
- REP002 — wall-clock reads (``time.time``/``datetime.now``) in the
  seed/resume-critical packages (``core``, ``resilience``,
  ``parallel``): resumed runs must be bit-identical to uninterrupted
  ones, which a wall-clock dependence silently breaks.  Monotonic and
  ``perf_counter`` duration timing is fine.
- REP003 — raw file writes (``open(..., "w")``, ``json.dump``,
  ``np.save*``, ``Path.write_text``/``write_bytes``) that bypass
  :mod:`repro.resilience.atomic`: a crash mid-write must never leave a
  half-written artifact.  Writes to a name bound by
  ``with atomic_path(...) as tmp`` are the sanctioned pattern and are
  not flagged.
- REP004 — mutable default arguments: shared-across-calls state is
  exactly the hidden coupling the resilience layer exists to avoid.
- REP005 — writes to module-level mutable globals outside a lock: the
  process is multi-threaded (watchdog threads, the serve daemon's
  dispatcher and scheduler threads), so module-global mutation must
  happen inside a ``with <lock>:`` block (or through a designated
  accessor object, which mutates attributes, not module globals).
- REP006 — error-swallowing exception handlers: a bare ``except:`` or
  an ``except Exception:`` whose body is only ``pass``/``continue``
  hides exactly the failures the journal exists to record.
- REP007 — broadcast-unsafe exact array equality in tests
  (``(a == b).all()``): silently True under shape broadcasting;
  ``np.array_equal`` states bit-identity intent and checks shapes,
  ``np.allclose`` states numeric closeness.
- REP008–REP012 — the concurrency-discipline rules for the threaded
  serve stack (unguarded shared-state writes, lock-order cycles,
  blocking calls under a lock, daemon-less threads, condition misuse);
  see :mod:`repro.analysis.concurrency` and docs/ANALYSIS.md.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple, Type

from repro.analysis.context import dotted_name
from repro.analysis.rulebase import Rule


# ---------------------------------------------------------------------------
# REP001 — global-state RNG
# ---------------------------------------------------------------------------

#: numpy legacy global-state functions (the seeded-Generator API —
#: default_rng / Generator / SeedSequence / bit generators — is allowed)
_NP_GLOBAL_RNG = frozenset({
    "seed", "rand", "randn", "randint", "random", "ranf", "sample",
    "random_sample", "choice", "shuffle", "permutation", "uniform",
    "normal", "standard_normal", "binomial", "poisson", "beta", "gamma",
    "exponential", "lognormal", "get_state", "set_state", "bytes",
    "random_integers",
})

#: stdlib ``random`` module functions (module-global Mersenne state)
_STDLIB_RNG = frozenset({
    "seed", "random", "randint", "randrange", "choice", "choices",
    "shuffle", "sample", "uniform", "gauss", "normalvariate",
    "getstate", "setstate", "betavariate", "expovariate",
})


class GlobalRandomRule(Rule):
    code = "REP001"
    name = "global-rng"
    rationale = ("randomness must flow through seeded np.random.Generator "
                 "instances; global-state RNG calls break per-cell seeding "
                 "and serial/parallel bit-identity")

    def visit_Call(self, node: ast.Call) -> None:
        name = dotted_name(node.func)
        if name is None:
            return
        parts = name.split(".")
        if (len(parts) == 3 and parts[0] in ("np", "numpy")
                and parts[1] == "random" and parts[2] in _NP_GLOBAL_RNG):
            self.report(node, f"global-state numpy RNG call `{name}(...)`; "
                              "thread a seeded np.random.Generator "
                              "(np.random.default_rng) through instead")
        elif (len(parts) == 2 and parts[0] == "random"
                and parts[1] in _STDLIB_RNG):
            self.report(node, f"stdlib global-state RNG call `{name}(...)`; "
                              "use a seeded np.random.Generator instead")


# ---------------------------------------------------------------------------
# REP002 — wall clock in seed/resume-critical packages
# ---------------------------------------------------------------------------

_WALL_CLOCK = frozenset({
    "time.time", "time.time_ns",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "date.today", "datetime.date.today",
})


class WallClockRule(Rule):
    code = "REP002"
    name = "wall-clock"
    rationale = ("core/resilience/parallel must produce bit-identical "
                 "results on resume; wall-clock timestamps leak "
                 "nondeterminism (perf_counter/monotonic durations are fine)")
    scope_dirs = ("core", "resilience", "parallel")
    runs_on_tests = False

    def visit_Call(self, node: ast.Call) -> None:
        name = dotted_name(node.func)
        if name in _WALL_CLOCK:
            self.report(node, f"wall-clock read `{name}()` in a "
                              "seed/resume-critical module; use "
                              "time.perf_counter/monotonic for durations "
                              "or pass timestamps in explicitly")


# ---------------------------------------------------------------------------
# REP003 — raw writes bypassing the atomic helpers
# ---------------------------------------------------------------------------

_NUMPY_SAVERS = frozenset({"save", "savez", "savez_compressed", "savetxt"})


class RawWriteRule(Rule):
    code = "REP003"
    name = "raw-write"
    rationale = ("persisted artifacts must survive a crash mid-write; "
                 "route writes through repro.resilience.atomic "
                 "(atomic_path / atomic_write_bytes / atomic_write_text)")
    runs_on_tests = False

    def _is_sanctioned(self, node: ast.Call, target: Optional[ast.AST]) -> bool:
        """Writes to a ``with atomic_path(...) as tmp`` binding are fine."""
        if not isinstance(target, ast.Name):
            return False
        return target.id in self.context.atomic_path_bindings(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        # open(path, "w"/"wb"/"x"/...)
        if isinstance(func, ast.Name) and func.id == "open":
            mode = None
            if len(node.args) >= 2:
                mode = node.args[1]
            for keyword in node.keywords:
                if keyword.arg == "mode":
                    mode = keyword.value
            if (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                    and any(ch in mode.value for ch in "wx")):
                target = node.args[0] if node.args else None
                if not self._is_sanctioned(node, target):
                    self.report(node, f"raw `open(..., {mode.value!r})` "
                                      "bypasses the atomic-write helpers; "
                                      "a crash mid-write corrupts the target")
            return
        # <path>.write_text(...) / <path>.write_bytes(...) — checked
        # before the dotted-name match because the receiver is often a
        # call result (``Path(p).write_text``), which has no dotted name
        if (isinstance(func, ast.Attribute)
                and func.attr in ("write_text", "write_bytes")):
            if not self._is_sanctioned(node, func.value):
                self.report(node, f"raw `.{func.attr}(...)` write; use "
                                  "atomic_write_text/atomic_write_bytes")
            return
        name = dotted_name(func)
        if name is None:
            return
        parts = name.split(".")
        # json.dump(obj, fp)
        if name == "json.dump":
            target = node.args[1] if len(node.args) >= 2 else None
            if not self._is_sanctioned(node, target):
                self.report(node, "`json.dump` writes through a raw handle; "
                                  "serialize with json.dumps and write via "
                                  "atomic_write_text")
            return
        # np.save / np.savez / np.savez_compressed / np.savetxt
        if (len(parts) == 2 and parts[0] in ("np", "numpy")
                and parts[1] in _NUMPY_SAVERS):
            target = node.args[0] if node.args else None
            for keyword in node.keywords:
                if keyword.arg == "file":
                    target = keyword.value
            if not self._is_sanctioned(node, target):
                self.report(node, f"raw `{name}` write; wrap it in "
                                  "`with atomic_path(target) as tmp:` and "
                                  "write to the temp sibling")


# ---------------------------------------------------------------------------
# REP004 — mutable default arguments
# ---------------------------------------------------------------------------

_MUTABLE_CTORS = frozenset({"dict", "list", "set", "bytearray",
                            "defaultdict", "OrderedDict", "Counter", "deque"})


def _is_mutable_literal(node: ast.AST) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set,
                         ast.ListComp, ast.SetComp, ast.DictComp)):
        return True
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name is not None and name.split(".")[-1] in _MUTABLE_CTORS:
            return True
    return False


class MutableDefaultRule(Rule):
    code = "REP004"
    name = "mutable-default"
    rationale = ("a mutable default is shared across every call — hidden "
                 "cross-call state that survives resets and breaks "
                 "cell isolation")

    def _check(self, node) -> None:
        args = node.args
        for default in list(args.defaults) + [d for d in args.kw_defaults
                                              if d is not None]:
            if _is_mutable_literal(default):
                self.report(default, "mutable default argument; default to "
                                     "None and build the object inside "
                                     "the function")

    visit_FunctionDef = _check
    visit_AsyncFunctionDef = _check
    visit_Lambda = _check


# ---------------------------------------------------------------------------
# REP005 — unguarded writes to module-level mutable globals
# ---------------------------------------------------------------------------

_MUTATORS = frozenset({"append", "add", "update", "clear", "pop", "popitem",
                       "setdefault", "extend", "remove", "discard", "insert",
                       "appendleft", "extendleft"})


class GlobalMutationRule(Rule):
    code = "REP005"
    name = "global-mutation"
    rationale = ("watchdog threads and the serve daemon's dispatcher and "
                 "scheduler threads share module state; module-global "
                 "mutation must sit inside a `with <lock>:` block or "
                 "behind a dedicated accessor object (use_backend / "
                 "no_grad / caches exposing clear())")
    runs_on_tests = False

    def begin_module(self) -> None:
        self.module_mutables: Set[str] = set()
        for node in self.context.tree.body:
            targets: List[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
                value = node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
                value = node.value
            else:
                continue
            if _is_mutable_literal(value):
                for target in targets:
                    if isinstance(target, ast.Name):
                        self.module_mutables.add(target.id)

    def _unguarded(self, node: ast.AST) -> bool:
        function = self.context.enclosing_function(node)
        if function is None:
            return False             # import-time init is single-threaded
        return not self.context.inside_lock(node, within=function)

    def _is_global_name(self, node: ast.AST, name: str) -> bool:
        function = self.context.enclosing_function(node)
        if function is None:
            return False
        return name in self.context.global_declarations(function)

    def _check_target(self, node: ast.AST, target: ast.AST) -> None:
        if isinstance(target, ast.Name):
            if self._is_global_name(node, target.id) and self._unguarded(node):
                self.report(node, f"rebinding module global `{target.id}` "
                                  "outside a lock-guarded block")
        elif isinstance(target, ast.Subscript):
            base = target.value
            if (isinstance(base, ast.Name) and base.id in self.module_mutables
                    and self._unguarded(node)):
                self.report(node, f"writing into module-level mutable "
                                  f"`{base.id}` outside a lock-guarded block")

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_target(node, target)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_target(node, node.target)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_target(node, node.target)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr in _MUTATORS):
            return
        base = func.value
        if (isinstance(base, ast.Name) and base.id in self.module_mutables
                and self._unguarded(node)):
            self.report(node, f"mutating module-level `{base.id}."
                              f"{func.attr}(...)` outside a lock-guarded "
                              "block")


# ---------------------------------------------------------------------------
# REP006 — error-swallowing exception handlers
# ---------------------------------------------------------------------------

def _swallows(body: List[ast.stmt]) -> bool:
    """True when a handler body does nothing with the error."""
    for statement in body:
        if isinstance(statement, (ast.Pass, ast.Continue)):
            continue
        if (isinstance(statement, ast.Expr)
                and isinstance(statement.value, ast.Constant)
                and statement.value.value is Ellipsis):
            continue
        return False
    return True


class SwallowedExceptionRule(Rule):
    code = "REP006"
    name = "swallowed-exception"
    rationale = ("executor and journal code must record failures, not hide "
                 "them; catch the narrowest exception (or use "
                 "contextlib.suppress for the expected one) and act on it")

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.report(node, "bare `except:` catches everything including "
                              "KeyboardInterrupt; name the exception")
            return
        names = []
        types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        for type_node in types:
            name = dotted_name(type_node)
            if name is not None:
                names.append(name.split(".")[-1])
        if any(name in ("Exception", "BaseException") for name in names):
            if _swallows(node.body):
                self.report(node, "over-broad `except "
                                  f"{'/'.join(names)}` silently swallows "
                                  "the error; narrow it or record the "
                                  "failure")


# ---------------------------------------------------------------------------
# REP007 — broadcast-unsafe exact array equality in tests
# ---------------------------------------------------------------------------

class ArrayEqualityRule(Rule):
    code = "REP007"
    name = "array-float-eq"
    rationale = ("`(a == b).all()` broadcasts silently under shape "
                 "mismatch; np.array_equal states bit-identity intent and "
                 "checks shapes, np.allclose states numeric closeness")
    runs_on_source = False            # a tests-only rule

    @staticmethod
    def _is_exact_compare(node: ast.AST) -> bool:
        return (isinstance(node, ast.Compare) and len(node.ops) == 1
                and isinstance(node.ops[0], (ast.Eq, ast.NotEq)))

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        # (a == b).all() / .any()
        if (isinstance(func, ast.Attribute)
                and func.attr in ("all", "any")
                and not node.args and not node.keywords
                and self._is_exact_compare(func.value)):
            self.report(node, f"exact array equality via `(... == ...)."
                              f"{func.attr}()`; use np.array_equal for "
                              "intentional bit-identity or np.allclose "
                              "for numeric closeness")
            return
        # np.all(a == b) / np.any(a == b)
        name = dotted_name(func)
        if (name in ("np.all", "np.any", "numpy.all", "numpy.any")
                and len(node.args) == 1
                and self._is_exact_compare(node.args[0])):
            self.report(node, f"exact array equality via `{name}(... == "
                              "...)`; use np.array_equal for intentional "
                              "bit-identity or np.allclose for numeric "
                              "closeness")


# the concurrency rules live in their own module but share this base
# class and catalog; imported at the bottom so `Rule` exists first
from repro.analysis.concurrency import (  # noqa: E402
    BlockingUnderLockRule,
    ConditionDisciplineRule,
    GuardedStateRule,
    LockOrderRule,
    ThreadDaemonRule,
)

#: the rule catalog, in code order
RULES: Tuple[Type[Rule], ...] = (
    GlobalRandomRule,
    WallClockRule,
    RawWriteRule,
    MutableDefaultRule,
    GlobalMutationRule,
    SwallowedExceptionRule,
    ArrayEqualityRule,
    GuardedStateRule,
    LockOrderRule,
    BlockingUnderLockRule,
    ThreadDaemonRule,
    ConditionDisciplineRule,
)

RULES_BY_CODE: Dict[str, Type[Rule]] = {rule.code: rule for rule in RULES}

#: every valid rule code, in order
RULE_CODES: Tuple[str, ...] = tuple(rule.code for rule in RULES)
