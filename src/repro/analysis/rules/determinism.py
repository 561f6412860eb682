"""SIM1xx — determinism rules.

Simulation results must be a pure function of (program, config, seed):
the campaign store's byte-identity across serial/parallel runs, resume,
and replay reuse all depend on it. These rules catch the ways that
property has actually been broken (or nearly broken) in this codebase.
"""

from __future__ import annotations

import ast
from typing import ClassVar, Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.framework import FileContext, Rule

#: wall-clock and CPU-clock reads (resolved dotted names)
_WALLCLOCK = frozenset({
    "time.time", "time.time_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
    "time.clock_gettime", "time.clock_gettime_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})


class WallClock(Rule):
    """SIM101: no wall-clock reads in simulation paths."""

    code: ClassVar[str] = "SIM101"
    summary: ClassVar[str] = (
        "wall-clock read in a sim path — results must be a pure function "
        "of (program, config, seed)")
    example: ClassVar[str] = "t0 = time.perf_counter()  # inside a model"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = ctx.resolve(node.func)
            if resolved in _WALLCLOCK:
                yield self.finding(
                    ctx, node,
                    f"{resolved}() reads the wall clock; sim state may "
                    f"not depend on real time (move timing to the "
                    f"harness, or per-path-ignore this file)")


class UnseededRandom(Rule):
    """SIM102: every RNG must be an explicitly seeded instance."""

    code: ClassVar[str] = "SIM102"
    summary: ClassVar[str] = (
        "unseeded or process-global RNG — trials must replay from their "
        "recorded seed")
    example: ClassVar[str] = "flip = random.random() < rate"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = ctx.resolve(node.func)
            if resolved is None:
                continue
            if resolved == "random.Random":
                if not node.args or (isinstance(node.args[0], ast.Constant)
                                     and node.args[0].value is None):
                    yield self.finding(
                        ctx, node,
                        "random.Random() without a seed is seeded from "
                        "the OS; pass the trial seed explicitly")
            elif resolved == "random.SystemRandom":
                yield self.finding(
                    ctx, node,
                    "random.SystemRandom is nondeterministic by design; "
                    "use random.Random(seed)")
            elif resolved.startswith("random."):
                yield self.finding(
                    ctx, node,
                    f"{resolved}() uses the process-global RNG (shared, "
                    f"seed-order dependent); use an explicitly seeded "
                    f"random.Random instance")
            elif resolved == "numpy.random.default_rng":
                if not node.args and not node.keywords:
                    yield self.finding(
                        ctx, node,
                        "numpy.random.default_rng() without a seed is "
                        "entropy-seeded; pass the trial seed")
            elif resolved.startswith("numpy.random."):
                yield self.finding(
                    ctx, node,
                    f"{resolved}() uses numpy's legacy global RNG; use "
                    f"numpy.random.default_rng(seed)")


#: attribute calls that mutate their receiver (state-mutating loop test)
_MUTATORS = frozenset({
    "add", "append", "appendleft", "extend", "insert", "push", "write",
    "pop", "popleft", "popitem", "remove", "discard", "clear", "update",
    "setdefault", "send", "emit", "record", "raise_interrupt",
})

_SET_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)


class _SetExprs:
    """Which expressions in a file are known to be sets.

    Tracks three signal sources: literal set expressions, local names
    assigned from set expressions inside the same function, and
    ``self.X`` attributes assigned (or annotated) as sets anywhere in
    the same class. Deliberately flow-insensitive — a name rebound away
    from a set later in the function stays flagged; use the pragma for
    the rare deliberate case.
    """

    def __init__(self, ctx: FileContext) -> None:
        self._ctx = ctx
        #: ClassDef node -> set attribute names
        self._class_attrs: Dict[ast.ClassDef, Set[str]] = {}
        #: FunctionDef node -> set local names
        self._fn_locals: Dict[ast.AST, Set[str]] = {}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                self._class_attrs[node] = self._collect_attrs(node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._fn_locals[node] = self._collect_locals(node)

    def _collect_attrs(self, cls: ast.ClassDef) -> Set[str]:
        attrs: Set[str] = set()
        for node in ast.walk(cls):
            target: Optional[ast.expr] = None
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign):
                target, value = node.target, node.value
                if self._is_set_annotation(node.annotation):
                    value = ast.Set(elts=[])  # annotation alone is enough
            if (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and value is not None
                    and self._is_literal_set(value)):
                attrs.add(target.attr)
        return attrs

    def _collect_locals(self, fn: ast.AST) -> Set[str]:
        names: Set[str] = set()
        for node in ast.walk(fn):
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and self._is_literal_set(node.value)):
                names.add(node.targets[0].id)
        return names

    def _is_set_annotation(self, ann: ast.expr) -> bool:
        resolved = self._ctx.resolve(ann)
        if resolved in ("set", "frozenset", "typing.Set",
                        "typing.FrozenSet", "Set", "FrozenSet"):
            return True
        if isinstance(ann, ast.Subscript):
            return self._is_set_annotation(ann.value)
        return False

    def _is_literal_set(self, node: ast.expr) -> bool:
        """A set-producing expression, ignoring name tracking."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            return self._ctx.resolve(node.func) in ("set", "frozenset")
        return False

    def is_set(self, node: ast.expr, fn: Optional[ast.AST],
               cls: Optional[ast.ClassDef]) -> bool:
        if self._is_literal_set(node):
            return True
        if (isinstance(node, ast.Name) and fn is not None
                and node.id in self._fn_locals.get(fn, set())):
            return True
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self" and cls is not None
                and node.attr in self._class_attrs.get(cls, set())):
            return True
        if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPS):
            return (self.is_set(node.left, fn, cls)
                    or self.is_set(node.right, fn, cls))
        return False


def _enclosing_scopes(tree: ast.Module
                      ) -> Dict[ast.AST, Tuple[Optional[ast.AST],
                                               Optional[ast.ClassDef]]]:
    """node -> (enclosing function, enclosing class) for every node."""
    scopes: Dict[ast.AST, Tuple[Optional[ast.AST],
                                Optional[ast.ClassDef]]] = {}

    def walk(node: ast.AST, fn: Optional[ast.AST],
             cls: Optional[ast.ClassDef]) -> None:
        for child in ast.iter_child_nodes(node):
            scopes[child] = (fn, cls)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, child, cls)
            elif isinstance(child, ast.ClassDef):
                walk(child, fn, child)
            else:
                walk(child, fn, cls)

    walk(tree, None, None)
    return scopes


def _mutates_state(body: List[ast.stmt]) -> bool:
    """Whether a loop body writes anything outside its own locals."""
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Assign):
                if any(isinstance(t, (ast.Attribute, ast.Subscript))
                       for t in node.targets):
                    return True
            elif isinstance(node, ast.AugAssign):
                # `total += x` on a local accumulator is order-free for
                # the common ops; writes through attributes/subscripts
                # reach shared state and are not
                if isinstance(node.target, (ast.Attribute, ast.Subscript)):
                    return True
            elif isinstance(node, ast.Delete):
                if any(isinstance(t, (ast.Attribute, ast.Subscript))
                       for t in node.targets):
                    return True
            elif (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _MUTATORS):
                return True
    return False


class UnorderedSetIteration(Rule):
    """SIM103: no order-sensitive consumption of sets without sorted().

    The shipped EIH originally popped pending error interrupts in hash
    order, which diverged between the serial and process-pool campaign
    paths. Any of: iterating a set in a state-mutating loop,
    ``set.pop()``, ``next(iter(set))``, or materializing a set with
    ``list()``/``tuple()``/a list comprehension reintroduces that bug
    class.
    """

    code: ClassVar[str] = "SIM103"
    summary: ClassVar[str] = (
        "order-sensitive consumption of an unordered set — wrap in "
        "sorted(...) to pin the order")
    example: ClassVar[str] = "victim = self.pending.pop()  # hash order!"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        sets = _SetExprs(ctx)
        scopes = _enclosing_scopes(ctx.tree)

        def is_set(node: ast.expr, at: ast.AST) -> bool:
            fn, cls = scopes.get(at, (None, None))
            return sets.is_set(node, fn, cls)

        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.For) and is_set(node.iter, node):
                if _mutates_state(node.body):
                    yield self.finding(
                        ctx, node,
                        "iterating a set in a state-mutating loop; "
                        "iteration order is hash order — wrap the "
                        "iterable in sorted(...)")
            elif isinstance(node, ast.ListComp):
                gen = node.generators[0]
                if is_set(gen.iter, node):
                    yield self.finding(
                        ctx, node,
                        "list comprehension over a set materializes "
                        "hash order; wrap the set in sorted(...)")
            elif isinstance(node, ast.Call):
                resolved = ctx.resolve(node.func)
                if (resolved in ("list", "tuple") and len(node.args) == 1
                        and is_set(node.args[0], node)):
                    yield self.finding(
                        ctx, node,
                        f"{resolved}(set) materializes hash order; use "
                        f"sorted(...)")
                elif (isinstance(node.func, ast.Attribute)
                        and node.func.attr == "pop" and not node.args
                        and is_set(node.func.value, node)):
                    yield self.finding(
                        ctx, node,
                        "set.pop() removes an arbitrary (hash-order) "
                        "element — the EIH-pop bug; pop "
                        "min(...)/max(...) with an explicit key instead")
                elif (resolved == "next" and node.args
                        and isinstance(node.args[0], ast.Call)
                        and ctx.resolve(node.args[0].func) == "iter"
                        and node.args[0].args
                        and is_set(node.args[0].args[0], node)):
                    yield self.finding(
                        ctx, node,
                        "next(iter(set)) picks a hash-order element; "
                        "use min(...)/sorted(...) with an explicit key")


class IdAsKey(Rule):
    """SIM104: ``id()`` is allocation-dependent — never key or hash on it.

    The campaign baseline cache was originally keyed on ``id(config)``;
    once a config was garbage-collected its id was reused and a *wrong
    baseline* silently matched. Key caches on value tuples
    (``dataclasses.astuple``) and compare identity with ``is``.
    """

    code: ClassVar[str] = "SIM104"
    summary: ClassVar[str] = (
        "id() in sim code — allocation-dependent values must not reach "
        "keys, hashes, or ordering")
    example: ClassVar[str] = "cache[id(config)] = baseline_result"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "id"
                    and "id" not in ctx.imports):
                yield self.finding(
                    ctx, node,
                    "id() is allocation-dependent (and reused after gc) "
                    "— key on value tuples, compare with `is`")


_DICT_MUTATORS = frozenset({"pop", "popitem", "clear", "update",
                            "setdefault", "__setitem__", "__delitem__"})
_VIEW_METHODS = frozenset({"keys", "values", "items"})


class DictMutatedDuringIteration(Rule):
    """SIM105: don't mutate a dict while iterating it (or its views)."""

    code: ClassVar[str] = "SIM105"
    summary: ClassVar[str] = (
        "dict mutated while iterating its view — RuntimeError at best, "
        "order-dependent skips at worst")
    example: ClassVar[str] = "for k in d: d.pop(k)"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.For):
                continue
            target = node.iter
            if (isinstance(target, ast.Call)
                    and isinstance(target.func, ast.Attribute)
                    and target.func.attr in _VIEW_METHODS
                    and not target.args):
                base = target.func.value
            elif isinstance(target, (ast.Name, ast.Attribute)):
                base = target
            else:
                continue
            base_dump = ast.dump(base)
            if self._body_mutates(node.body, base_dump):
                yield self.finding(
                    ctx, node,
                    "loop mutates the mapping it is iterating; snapshot "
                    "the keys first (`for k in sorted(d):` or "
                    "`list(d.items())`)")

    @staticmethod
    def _body_mutates(body: List[ast.stmt], base_dump: str) -> bool:
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.Assign, ast.Delete)):
                    targets = (node.targets if isinstance(
                        node, (ast.Assign, ast.Delete)) else [])
                    for t in targets:
                        if (isinstance(t, ast.Subscript)
                                and ast.dump(t.value) == base_dump):
                            return True
                elif (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in _DICT_MUTATORS
                        and ast.dump(node.func.value) == base_dump):
                    return True
        return False


class DeepcopyOnHotState(Rule):
    """SIM106: no ``copy.deepcopy`` on hot system state.

    ``deepcopy`` walks the whole object graph through the generic memo
    machinery — against the differential-replay snapshot path (typed
    ``clone()`` methods, content-interned page tables, copy-on-write
    restores) it is an order-of-magnitude tax, and it silently drags in
    whatever the graph happens to reach (telemetry sinks, bus/L2
    cross-references, bound RNGs), decoupling the copy's meaning from
    the snapshot protocol's. Scoped (by ``COPY_PACKAGES`` in
    :mod:`repro.analysis.config`) to the campaign and checkpoint
    packages, where per-trial copies are the hot path.
    """

    code: ClassVar[str] = "SIM106"
    summary: ClassVar[str] = (
        "copy.deepcopy on hot system state — use the snapshot protocol "
        "(ArchState.clone / checkpoint.snapshot) instead")
    example: ClassVar[str] = "saved = copy.deepcopy(system)  # per trial!"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if ctx.resolve(node.func) == "copy.deepcopy":
                yield self.finding(
                    ctx, node,
                    "copy.deepcopy walks the full object graph per call "
                    "— snapshot hot state with ArchState.clone() / "
                    "repro.checkpoint.snapshot (typed, page-interned, "
                    "copy-on-write) instead")
