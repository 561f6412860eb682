"""Whole-program nondeterminism taint tracking (the SIM5xx engine).

The per-file SIM1xx rules catch a wall-clock read *at the line it
happens*; they cannot see a ``time.time()`` laundered through a helper
function before it lands in a trial record. This engine closes that
gap: it computes, for every project function, which *taint kinds* its
return value may carry, propagates those summaries along the call
graph to a fixpoint, and then flags call sites where a tainted value
reaches a **determinism sink** — trial-record construction, result
store / journal appends, RNG seeds, telemetry event payloads, and
mapping-key writes (the shape of the historical ``id()``-keyed
baseline-cache bug).

Taint kinds and their rule codes:

========== ======= ==================================================
kind        code    sources
========== ======= ==================================================
wall-clock  SIM501  ``time.time``/``perf_counter``/``datetime.now``...
rng         SIM502  process-global ``random.*``, unseeded ``Random()``
set-order   SIM503  ``set.pop()``, ``dict.popitem()``, iteration /
                    materialization of an unordered set
alloc-id    SIM504  ``id()``, ``threading.get_ident``, ``os.getpid``
env         SIM505  ``os.environ`` / ``os.getenv``
========== ======= ==================================================

Sanitizers: ``sorted``/``min``/``max``/``len``/``sum``/``any``/``all``
erase *set-order* taint (they are order-insensitive); a seeded
``random.Random(seed)`` is not a source (but forwards its seed
argument's taint — ``random.Random(time.time())`` stays wall-clock
tainted); ``# simlint: off=SIM50x`` at the sink suppresses as usual.

The analysis is deliberately value-flow only: taint enters through a
function's *return value* or flows positionally through parameters
(summaries carry ``param:<name>`` pass-through entries), which is
exactly the shape of both historical determinism bugs. Attribute state
is not tracked — the per-file rules cover direct attribute abuse.

Every finding renders the full source → call-chain → sink path, and
every surface (iteration order, chain selection, message text) is
deterministic so reports stay byte-stable.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.callgraph import (CallGraph, ProjectContext,
                                      postorder, resolve_call)
from repro.analysis.findings import Finding
from repro.analysis.framework import FileContext
from repro.analysis.rules.determinism import _WALLCLOCK
from repro.analysis.symbols import FunctionInfo, SymbolTable

#: taint kind tags (also the sort order of chains within one message)
WALLCLOCK = "wall-clock"
RNG = "rng"
SET_ORDER = "set-order"
ALLOC_ID = "alloc-id"
ENV = "env"

KIND_CODES: Dict[str, str] = {
    WALLCLOCK: "SIM501",
    RNG: "SIM502",
    SET_ORDER: "SIM503",
    ALLOC_ID: "SIM504",
    ENV: "SIM505",
}

KIND_LABELS: Dict[str, str] = {
    WALLCLOCK: "wall-clock value",
    RNG: "process-global/unseeded RNG value",
    SET_ORDER: "unordered-collection-order value",
    ALLOC_ID: "allocation/identity-dependent value",
    ENV: "environment-dependent value",
}

#: identity-ish reads: stable within a run, different across runs
_IDENTITY_SOURCES = frozenset({"threading.get_ident", "os.getpid",
                               "os.getppid"})

#: external callables whose result does not depend on argument order
_ORDER_INSENSITIVE = frozenset({"sorted", "len", "sum", "min", "max",
                                "any", "all"})

_PARAM = "param:"

#: maximum rendered hops per chain (cycles would otherwise grow them)
_MAX_CHAIN = 8

Chain = Tuple[str, ...]
TaintSet = Dict[str, Chain]


def _merge(into: TaintSet, other: TaintSet) -> None:
    """Union ``other`` into ``into``; the first-seen chain wins."""
    for key, chain in other.items():
        into.setdefault(key, chain)


def _hop(label: str, path: str, lineno: int) -> str:
    return f"{label} [{path}:{lineno}]"


def _extend(chain: Chain, hop: str) -> Chain:
    if len(chain) >= _MAX_CHAIN:
        return chain
    return chain + (hop,)


def _callee_params(fi: FunctionInfo) -> List[str]:
    args = fi.node.args
    names = [a.arg for a in args.posonlyargs] + [a.arg for a in args.args]
    if fi.class_symbol is not None and names \
            and names[0] in ("self", "cls"):
        names = names[1:]
    names += [a.arg for a in args.kwonlyargs]
    return names


class _SinkHit:
    """One tainted value arriving at one sink call/write."""

    __slots__ = ("kind", "chain", "sink_label", "node")

    def __init__(self, kind: str, chain: Chain, sink_label: str,
                 node: ast.AST) -> None:
        self.kind = kind
        self.chain = chain
        self.sink_label = sink_label
        self.node = node


class _FunctionTaint:
    """One intraprocedural pass over one function body.

    Statements are processed in source order, twice, so loop-carried
    and forward-referenced locals settle; sinks are collected on the
    second pass only, when the environment is complete.
    """

    def __init__(self, engine: "TaintEngine", fi: FunctionInfo,
                 collect: bool = False) -> None:
        self.engine = engine
        self.fi = fi
        self.ctx: FileContext = \
            engine.table.modules[fi.module].ctx
        self.vars: Dict[str, TaintSet] = {}
        self.set_vars: Set[str] = set()
        self.returns: TaintSet = {}
        self.collect = collect
        self.hits: List[_SinkHit] = []
        self._collecting = False

    # -- entry --------------------------------------------------------------
    def run(self) -> TaintSet:
        self._seed_params()
        body = self.fi.node.body
        self._collecting = False
        self._process_block(body)
        self._collecting = self.collect
        self._process_block(body)
        return self.returns

    def _seed_params(self) -> None:
        args = self.fi.node.args
        every = (list(args.posonlyargs) + list(args.args)
                 + list(args.kwonlyargs))
        for arg in every:
            if arg.arg in ("self", "cls"):
                continue
            self.vars[arg.arg] = {_PARAM + arg.arg: ()}
            if arg.annotation is not None \
                    and self._is_set_annotation(arg.annotation):
                self.set_vars.add(arg.arg)

    def _is_set_annotation(self, ann: ast.expr) -> bool:
        resolved = self.ctx.resolve(ann)
        if resolved in ("set", "frozenset", "typing.Set",
                        "typing.FrozenSet", "Set", "FrozenSet"):
            return True
        if isinstance(ann, ast.Subscript):
            return self._is_set_annotation(ann.value)
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            head = ann.value.split("[", 1)[0].strip()
            return head in ("set", "frozenset", "Set", "FrozenSet",
                            "typing.Set", "typing.FrozenSet")
        return False

    # -- statements ---------------------------------------------------------
    def _process_block(self, stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            self._process_stmt(stmt)

    def _process_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            taint = self._expr(stmt.value)
            is_set = self._is_set_expr(stmt.value)
            for target in stmt.targets:
                self._bind(target, taint, is_set)
        elif isinstance(stmt, ast.AnnAssign):
            taint = self._expr(stmt.value) if stmt.value is not None \
                else {}
            is_set = (stmt.value is not None
                      and self._is_set_expr(stmt.value)) \
                or self._is_set_annotation(stmt.annotation)
            self._bind(stmt.target, taint, is_set)
        elif isinstance(stmt, ast.AugAssign):
            taint = self._expr(stmt.value)
            if isinstance(stmt.target, ast.Name):
                merged = dict(self.vars.get(stmt.target.id, {}))
                _merge(merged, taint)
                self.vars[stmt.target.id] = merged
            else:
                self._bind(stmt.target, taint, False)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                _merge(self.returns, self._expr(stmt.value))
        elif isinstance(stmt, ast.Expr):
            self._expr(stmt.value)
        elif isinstance(stmt, ast.For):
            iter_taint = self._expr(stmt.iter)
            if self._is_set_expr(stmt.iter):
                _merge(iter_taint, {SET_ORDER: (
                    _hop("iteration over unordered set",
                         self.ctx.path, stmt.iter.lineno),)})
            self._bind(stmt.target, iter_taint, False)
            self._process_block(stmt.body)
            self._process_block(stmt.orelse)
        elif isinstance(stmt, ast.AsyncFor):
            self._bind(stmt.target, self._expr(stmt.iter), False)
            self._process_block(stmt.body)
            self._process_block(stmt.orelse)
        elif isinstance(stmt, (ast.While, ast.If)):
            self._expr(stmt.test)
            self._process_block(stmt.body)
            self._process_block(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                taint = self._expr(item.context_expr)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, taint, False)
            self._process_block(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._process_block(stmt.body)
            for handler in stmt.handlers:
                self._process_block(handler.body)
            self._process_block(stmt.orelse)
            self._process_block(stmt.finalbody)
        elif isinstance(stmt, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._expr(child)
        # nested defs/classes analyze under their own symbols (methods)
        # or not at all (closures) — their sinks are out of scope here

    def _bind(self, target: ast.expr, taint: TaintSet,
              is_set: bool) -> None:
        if isinstance(target, ast.Name):
            merged = dict(self.vars.get(target.id, {}))
            _merge(merged, taint)
            self.vars[target.id] = merged
            if is_set:
                self.set_vars.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, taint, False)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, taint, False)
        elif isinstance(target, ast.Subscript):
            # a nondeterministic mapping key is itself a sink (the
            # id()-keyed baseline cache shape); single-hop taint born
            # on the sink's own line is the per-file rules' territory
            # (SIM104 already flags `cache[id(x)] = v` directly)
            key_taint = self._expr(target.slice)
            self._sink(target, "mapping-key write", key_taint,
                       label="[...]=", skip_same_line_direct=True)
            self._expr(target.value)

    # -- expressions --------------------------------------------------------
    def _expr(self, expr: ast.expr) -> TaintSet:
        if isinstance(expr, ast.Call):
            return self._call(expr)
        if isinstance(expr, ast.Name):
            return dict(self.vars.get(expr.id, {}))
        if isinstance(expr, ast.Attribute):
            if self.ctx.resolve(expr) == "os.environ":
                return {ENV: (_hop("os.environ", self.ctx.path,
                                   expr.lineno),)}
            return self._expr(expr.value)
        if isinstance(expr, ast.Subscript):
            out = self._expr(expr.value)
            _merge(out, self._expr(expr.slice))
            return out
        if isinstance(expr, ast.BinOp):
            out = self._expr(expr.left)
            _merge(out, self._expr(expr.right))
            return out
        if isinstance(expr, ast.BoolOp):
            out: TaintSet = {}
            for value in expr.values:
                _merge(out, self._expr(value))
            return out
        if isinstance(expr, ast.Compare):
            out = self._expr(expr.left)
            for comparator in expr.comparators:
                _merge(out, self._expr(comparator))
            return out
        if isinstance(expr, ast.UnaryOp):
            return self._expr(expr.operand)
        if isinstance(expr, ast.IfExp):
            out = self._expr(expr.body)
            _merge(out, self._expr(expr.orelse))
            _merge(out, self._expr(expr.test))
            return out
        if isinstance(expr, ast.JoinedStr):
            out = {}
            for value in expr.values:
                if isinstance(value, ast.FormattedValue):
                    _merge(out, self._expr(value.value))
            return out
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            out = {}
            for elt in expr.elts:
                _merge(out, self._expr(elt))
            return out
        if isinstance(expr, ast.Dict):
            out = {}
            for key in expr.keys:
                if key is not None:
                    _merge(out, self._expr(key))
            for value in expr.values:
                _merge(out, self._expr(value))
            return out
        if isinstance(expr, (ast.ListComp, ast.SetComp,
                             ast.GeneratorExp)):
            return self._comprehension(expr, [expr.elt])
        if isinstance(expr, ast.DictComp):
            return self._comprehension(expr, [expr.key, expr.value])
        if isinstance(expr, ast.Await):
            return self._expr(expr.value)
        if isinstance(expr, ast.Starred):
            return self._expr(expr.value)
        if isinstance(expr, ast.NamedExpr):
            taint = self._expr(expr.value)
            self._bind(expr.target, taint, self._is_set_expr(expr.value))
            return taint
        return {}

    def _comprehension(self, expr: ast.expr,
                       elts: List[ast.expr]) -> TaintSet:
        out: TaintSet = {}
        generators = getattr(expr, "generators", [])
        for gen in generators:
            gen_taint = self._expr(gen.iter)
            if self._is_set_expr(gen.iter):
                _merge(gen_taint, {SET_ORDER: (
                    _hop("comprehension over unordered set",
                         self.ctx.path, gen.iter.lineno),)})
            self._bind(gen.target, gen_taint, False)
            _merge(out, gen_taint)
        for elt in elts:
            _merge(out, self._expr(elt))
        if isinstance(expr, ast.SetComp):
            out.pop(SET_ORDER, None)  # result is itself unordered
        return out

    # -- set-ness -----------------------------------------------------------
    def _is_set_expr(self, expr: ast.expr) -> bool:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Call):
            return self.ctx.resolve(expr.func) in ("set", "frozenset")
        if isinstance(expr, ast.Name):
            return expr.id in self.set_vars
        if isinstance(expr, ast.BinOp) and isinstance(
                expr.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
            return self._is_set_expr(expr.left) \
                or self._is_set_expr(expr.right)
        return False

    # -- calls --------------------------------------------------------------
    def _call(self, call: ast.Call) -> TaintSet:
        arg_taints = [self._expr(a) for a in call.args]
        kw_taints = {kw.arg: self._expr(kw.value)
                     for kw in call.keywords if kw.arg is not None}
        for kw in call.keywords:
            if kw.arg is None:  # **kwargs expansion
                kw_taints.setdefault("**", self._expr(kw.value))
        resolved = self.ctx.resolve(call.func)
        target = resolve_call(self.engine.table, self.fi, self.ctx, call)
        canonical, external = (target if target is not None
                               else (resolved, True))

        out: TaintSet = {}
        if target is not None and not external:
            out = self._project_call(call, canonical or "", arg_taints,
                                     kw_taints)
        else:
            out = self._external_call(call, resolved, arg_taints,
                                      kw_taints)
        if self._collecting:
            self._check_sinks(call, resolved, canonical, external,
                              arg_taints, kw_taints)
        return out

    def _passthrough(self, arg_taints: List[TaintSet],
                     kw_taints: Dict[str, TaintSet]) -> TaintSet:
        out: TaintSet = {}
        for taint in arg_taints:
            _merge(out, taint)
        for taint in kw_taints.values():
            _merge(out, taint)
        return out

    def _project_call(self, call: ast.Call, callee: str,
                      arg_taints: List[TaintSet],
                      kw_taints: Dict[str, TaintSet]) -> TaintSet:
        table = self.engine.table
        if callee in table.classes:
            # constructing a project class: conservatively assume the
            # instance carries its constructor arguments' taint
            return self._passthrough(arg_taints, kw_taints)
        fi = table.functions.get(callee)
        summary = self.engine.summaries.get(callee, {})
        short = callee.rsplit(".", 1)[-1]
        hop = _hop(f"{short}()", self.ctx.path, call.lineno)
        params = _callee_params(fi) if fi is not None else []
        out: TaintSet = {}
        for key, chain in summary.items():
            if key.startswith(_PARAM):
                name = key[len(_PARAM):]
                arg_taint: Optional[TaintSet] = None
                if name in kw_taints:
                    arg_taint = kw_taints[name]
                elif name in params:
                    idx = params.index(name)
                    if idx < len(arg_taints):
                        arg_taint = arg_taints[idx]
                if arg_taint:
                    for kind, arg_chain in arg_taint.items():
                        if kind.startswith(_PARAM):
                            out.setdefault(kind, _extend(arg_chain, hop))
                        else:
                            merged = arg_chain + chain
                            out.setdefault(kind,
                                           _extend(merged[:_MAX_CHAIN],
                                                   hop))
            else:
                out.setdefault(key, _extend(chain, hop))
        return out

    def _external_call(self, call: ast.Call, resolved: Optional[str],
                       arg_taints: List[TaintSet],
                       kw_taints: Dict[str, TaintSet]) -> TaintSet:
        path, line = self.ctx.path, call.lineno
        name = resolved or ""
        source: Optional[Tuple[str, str]] = None  # (kind, label)
        if name in _WALLCLOCK:
            source = (WALLCLOCK, f"{name}()")
        elif name in _IDENTITY_SOURCES:
            source = (ALLOC_ID, f"{name}()")
        elif name == "id" and "id" not in self.ctx.imports:
            source = (ALLOC_ID, "id()")
        elif name in ("os.getenv", "os.environ.get"):
            source = (ENV, f"{name}()")
        elif name in ("uuid.uuid1", "uuid.uuid4"):
            source = (RNG, f"{name}()")
        elif name == "random.SystemRandom":
            source = (RNG, "random.SystemRandom()")
        elif name == "random.Random":
            if not call.args or (isinstance(call.args[0], ast.Constant)
                                 and call.args[0].value is None):
                source = (RNG, "random.Random()  # unseeded")
            # seeded: not a source, but the seed's taint flows through
        elif name == "numpy.random.default_rng":
            if not call.args and not call.keywords:
                source = (RNG, "numpy.random.default_rng()")
        elif name.startswith("random.") or (
                name.startswith("numpy.random.")
                and name != "numpy.random.default_rng"):
            source = (RNG, f"{name}()")

        out = self._passthrough(arg_taints, kw_taints)
        if name in _ORDER_INSENSITIVE:
            out.pop(SET_ORDER, None)
        if name in ("list", "tuple") and len(call.args) == 1 \
                and self._is_set_expr(call.args[0]):
            out.setdefault(SET_ORDER, (
                _hop(f"{name}(unordered set)", path, line),))
        if isinstance(call.func, ast.Attribute):
            attr = call.func.attr
            if attr == "popitem" and not call.args:
                out.setdefault(SET_ORDER,
                               (_hop("dict.popitem()", path, line),))
            elif attr == "pop" and not call.args \
                    and self._is_set_expr(call.func.value):
                out.setdefault(SET_ORDER,
                               (_hop("set.pop()", path, line),))
            _merge(out, self._expr(call.func.value))
        if name == "next" and call.args \
                and isinstance(call.args[0], ast.Call) \
                and self.ctx.resolve(call.args[0].func) == "iter" \
                and call.args[0].args \
                and self._is_set_expr(call.args[0].args[0]):
            out.setdefault(SET_ORDER,
                           (_hop("next(iter(set))", path, line),))
        if source is not None:
            kind, label = source
            out.setdefault(kind, (_hop(label, path, line),))
        return out

    # -- sinks --------------------------------------------------------------
    def _check_sinks(self, call: ast.Call, resolved: Optional[str],
                     canonical: Optional[str], external: bool,
                     arg_taints: List[TaintSet],
                     kw_taints: Dict[str, TaintSet]) -> None:
        sink: Optional[Tuple[str, str]] = None  # (description, label)
        if isinstance(call.func, ast.Attribute):
            attr = call.func.attr
            receiver = self.ctx.resolve(call.func.value) or ""
            if attr == "append_trial":
                sink = ("result-store append", "append_trial(...)")
            elif attr == "emit":
                sink = ("telemetry event payload", "emit(...)")
            elif attr == "record" and "journal" in receiver:
                sink = ("journal append", "record(...)")
            elif attr == "seed":
                sink = ("RNG seed", "seed(...)")
        if not external and canonical is not None \
                and canonical in self.engine.table.classes:
            cls_name = self.engine.table.classes[canonical].name
            if cls_name in ("TrialResult", "TrialSpec"):
                sink = ("trial-record construction", f"{cls_name}(...)")
        if resolved == "random.Random" \
                and (call.args or call.keywords):
            sink = ("RNG seed", "random.Random(...)")
        if sink is None:
            return
        description, label = sink
        taint = self._passthrough(arg_taints, kw_taints)
        self._sink(call, description, taint, label=label)

    def _sink(self, node: ast.AST, description: str, taint: TaintSet,
              label: str, skip_same_line_direct: bool = False) -> None:
        if not self._collecting:
            return
        lineno = getattr(node, "lineno", 1)
        for kind in sorted(taint):
            if kind.startswith(_PARAM):
                continue
            chain = taint[kind]
            if skip_same_line_direct and len(chain) == 1 \
                    and chain[0].endswith(f"[{self.ctx.path}:{lineno}]"):
                continue
            sink_hop = _hop(label, self.ctx.path, lineno)
            self.hits.append(_SinkHit(kind, _extend(chain, sink_hop),
                                      description, node))


class TaintEngine:
    """Summary fixpoint + sink collection over one project."""

    def __init__(self, project: ProjectContext) -> None:
        self.project = project
        self.table: SymbolTable = project.table
        self.graph: CallGraph = project.graph
        self.summaries: Dict[str, TaintSet] = {}
        self._findings: Optional[List[Finding]] = None

    def compute(self, max_rounds: int = 10) -> None:
        order = postorder(self.graph)
        for _ in range(max_rounds):
            changed = False
            for symbol in order:
                fi = self.table.functions.get(symbol)
                if fi is None:
                    continue
                new = _FunctionTaint(self, fi).run()
                old = self.summaries.get(symbol, {})
                merged = dict(old)
                _merge(merged, new)
                if set(merged) != set(old):
                    changed = True
                self.summaries[symbol] = merged
            if not changed:
                break

    def findings(self) -> List[Finding]:
        if self._findings is not None:
            return self._findings
        self.compute()
        out: Dict[Tuple[str, int, int, str, str], Finding] = {}
        for symbol in sorted(self.table.functions):
            fi = self.table.functions[symbol]
            pass_ = _FunctionTaint(self, fi, collect=True)
            pass_.run()
            ctx = pass_.ctx
            for hit in pass_.hits:
                code = KIND_CODES[hit.kind]
                lineno = getattr(hit.node, "lineno", 1)
                col = getattr(hit.node, "col_offset", 0)
                message = (f"{KIND_LABELS[hit.kind]} reaches "
                           f"{hit.sink_label}: "
                           + " -> ".join(hit.chain))
                key = (ctx.path, lineno, col, code, message)
                out.setdefault(key, Finding(
                    path=ctx.path, line=lineno, col=col, code=code,
                    message=message))
        self._findings = sorted(out.values())
        return self._findings


def taint_engine(project: ProjectContext) -> TaintEngine:
    """The per-project cached engine (five rules share one fixpoint)."""
    engine = project.cache.get("taint")
    if not isinstance(engine, TaintEngine):
        engine = TaintEngine(project)
        project.cache["taint"] = engine
    return engine
