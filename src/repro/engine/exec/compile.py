"""Plan-to-closure compilation: the engine's fast path.

The reference interpreter walks the plan tree at execution time,
dispatching per operator and materializing a ``CVSet`` at every node.
The paper's Section 4.4 reading is that genericity metadata makes a
plan's behaviour uniform across instantiations, so nothing about the
walk depends on the data — which means the walk can happen **once**,
ahead of time.  This module lowers an annotated physical plan into a
single specialized Python function:

* every operator becomes a straight-line comprehension (or a hash-probe
  loop) in one generated code object — no per-node dispatch and no
  interpreter stack;
* ``Scan`` binds directly to the relation's underlying ``frozenset``
  (bound as a default argument of the generated function, so reads are
  local loads), and set operations compile to C-level ``|``/``-``/``&``;
* ``Join`` compiles to a hash probe over an index built from the
  right child when the function runs;
* weight/ledger accounting is hoisted out of the per-tuple loop: scan
  weights are bound constants (from the ``relation_stats`` hook when
  given), and intermediate weights are ``len(v) * width`` arithmetic
  whenever the tuple width is statically known;
* repeated subtrees (CSE) execute once; later occurrences replay their
  ledger segment with a constant-index ``_L.extend(_L[s:e])`` — every
  ledger position is known at compile time;
* rows the generated code builds stay plain ``tuple``s.  ``Project``,
  ``Join`` and ``Product`` output plain rows, and a set operation over
  two plain inputs stays plain.  A ``Tup`` is built (``_mk``) only
  where code the engine cannot see or the caller receives the row: a
  ``Select`` predicate or a ``MapNode`` function gets ``Tup``s (a
  selection passes on the ones it keeps), a plain side meeting
  ``Tup``s (a scan, a map or a selection output) in a set operation is
  wrapped, and so is a plain answer.  A plain tuple is built and
  hashed in C; a ``Tup`` runs ``Tup.__init__`` in Python.

The contract: identical ``CVSet`` answer, identical total work,
identical per-node postorder ledger as
:func:`repro.optimizer.plan.execute_reference`, for every plan over
every database.  Plain rows keep it: ``Tup`` and ``tuple`` are in
bijection, projection, join, product and the set operations give the
same rows on either side of it, and a plain row has the length, and
so the weight, of its ``Tup``.  Which rows are plain follows from the
plan's shape alone.  :func:`execute_compiled` lowers the plan on every
call, against the current data.  The generated source depends on the
plan alone: relation contents, weights and callables are bound as
default arguments of the generated function.  So
:func:`_code_for`, memoized by source, is the one program memo: a
rerun, even after an insert, reuses the code object and only rebinds
the data.  Results are not cached here:
:meth:`~repro.engine.database.Database.run` owns the result cache,
around whichever executor runs.

Plans deeper than :data:`MAX_PIPELINE_DEPTH` run on the reference
interpreter instead; the fallback preserves the full contract.

One deliberate asymmetry with the reference: projection reads a
``Tup`` row's components from ``t.items`` (once per row) instead of
calling ``t.project(...)``, and a plain row's as ``t[i]``.  On every
well-typed input (all ``Tup`` rows — everything the generators produce)
the values are identical and the direct read is markedly faster.  A
row that is not a tuple raises in both executors, though not always
with the same exception: an atom has no ``items`` and a ``CVList`` no
``project`` (``AttributeError`` there), and ``CVList.items`` is a
method, so reading its components raises ``TypeError`` here, even for
a projection on no columns (``r[:0]``).
:meth:`~repro.engine.database.Database.run` degrades to the reference
on any error, so it raises the reference's exception.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from typing import Mapping as TMapping, Optional

from ...obs.trace import Span, Tracer
from ...optimizer.plan import (
    Difference,
    ExecutionResult,
    Intersect,
    Join,
    MapNode,
    Plan,
    Product,
    Project,
    Scan,
    Select,
    Union,
    execute_reference,
    node_label,
    tuple_weight,
)
from ...types.values import CVSet, Tup
from .fingerprint import annotate_plan

__all__ = [
    "CompiledPlan",
    "MAX_PIPELINE_DEPTH",
    "compile_plan",
    "execute_compiled",
    "plan_depth",
]

_EMPTY = CVSet()

#: Deepest plan :func:`execute_compiled` lowers; deeper plans run on
#: the reference interpreter.  Each operator emits a few lines into
#: one generated function, so the generated source grows with the
#: plan, and compiling thousand-operator sources costs more than the
#: interpreter it replaces.  128 covers every plan the rewriter and
#: the workloads produce short of the deliberate deep chains.
MAX_PIPELINE_DEPTH = 128

def plan_depth(plan: Plan) -> int:
    """Operator depth of a plan tree (explicit stack, any depth)."""
    depth: dict[int, int] = {}
    stack: list[tuple[Plan, bool]] = [(plan, False)]
    while stack:
        node, ready = stack.pop()
        if ready:
            children = node.children()
            depth[id(node)] = 1 + max(
                (depth[id(c)] for c in children), default=0
            )
            continue
        stack.append((node, True))
        for child in node.children():
            stack.append((child, False))
    return depth[id(plan)]


class CompiledPlan:
    """A plan lowered to one specialized function.

    ``run()`` returns ``(root_values, ledger)`` where ``root_values``
    is an iterable of distinct result rows, each the value the
    reference returns (a plain root result is wrapped in ``Tup``s on
    the way out), and ``ledger`` is the reference-identical per-node
    log.
    """

    __slots__ = ("run", "span_program")

    def __init__(self, run, span_program) -> None:
        self.run = run
        self.span_program = span_program


_VISIT, _COMBINE = 0, 1

_SET_OP_SYMBOL = {Union: "|", Difference: "-", Intersect: "&"}


class _Res:
    """Compile-time state of one emitted (sub)result variable."""

    __slots__ = ("var", "width", "wvar", "rows", "plain")

    def __init__(self, var, width, rows=None, plain=False) -> None:
        self.var = var
        self.width = width
        #: Name of the weight: a bound constant for scans, otherwise a
        #: runtime variable emitted on demand.
        self.wvar = None
        self.rows = rows  # known only for scans
        #: True when the rows are plain ``tuple``s built by the
        #: generated code (always a set of them); False when they are
        #: values a scan, a map function or ``_mk`` supplied.
        self.plain = plain


def _tup_rows(res: _Res) -> str:
    """An expression iterating ``res``'s rows as ``Tup``s."""
    return f"map(_mk, {res.var})" if res.plain else res.var


def _as_row(e) -> tuple:
    """A row that is not a ``Tup`` as a plain ``tuple``, read by index as
    the reference reads join rows: a row that cannot be indexed (a set,
    an atom) raises as it does there."""
    return tuple(e[i] for i in range(len(e)))


def _emit_tuple_loop(res: _Res, row: str, emit) -> None:
    """Emit a loop header binding ``row`` to each row of ``res`` as a
    plain ``tuple`` (a ``Tup``'s ``items``, other rows through
    :func:`_as_row`); the loop body follows at one indent."""
    if res.plain:
        emit(f"for {row} in {res.var}:")
    else:
        emit(f"for _e in {res.var}:")
        emit(f"    {row} = _e.items if _e.__class__ is _mk else _ar(_e)")


def _emit_all_pairs(var: str, left: _Res, right: _Res, fresh, emit) -> None:
    """Emit ``var`` = every left row concatenated with every right row,
    as plain ``tuple``s (a product, or a join on no columns)."""
    rows = right.var
    if not right.plain:
        rows = fresh("_r")
        emit(f"{rows} = list(map(tuple, {right.var}))")
    lefts = left.var if left.plain else f"map(tuple, {left.var})"
    emit(f"{var} = {{h + b for h in {lefts} for b in {rows}}}")


def compile_plan(
    plan: Plan,
    db: TMapping[str, CVSet],
    *,
    info: Optional[dict] = None,
    relation_stats=None,
) -> CompiledPlan:
    """Lower ``plan`` (over the *current* contents of ``db``) to a
    :class:`CompiledPlan`.

    The returned function replays the data it was lowered against —
    scan bindings and scan weights are bound when it is built — so
    lower the plan again after a mutation (:func:`execute_compiled`
    lowers on every call).
    """
    if info is None:
        info = annotate_plan(plan, {}, lambda name, fn: (name, id(fn)))

    # Occurrence counts per semantic token (CSE detection) and the set
    # of tokens consumed by a set operation (those must compile to
    # ``set``/``frozenset`` values, not lists).
    counts: Counter = Counter()
    need_set: set[int] = set()
    walk = [plan]
    while walk:
        node = walk.pop()
        if not isinstance(node, Plan):
            raise TypeError(f"unknown plan node: {node!r}")
        counts[info[id(node)][0]] += 1
        if isinstance(node, (Union, Difference, Intersect)):
            need_set.add(info[id(node.left)][0])
            need_set.add(info[id(node.right)][0])
        walk.extend(node.children())

    lines: list[str] = []
    emit = lines.append
    consts: dict[str, object] = {"_tw": tuple_weight, "_mk": Tup, "_ar": _as_row}
    fresh_counter = [0]

    def fresh(prefix: str) -> str:
        fresh_counter[0] += 1
        return f"{prefix}{fresh_counter[0]}"

    def const(prefix: str, value) -> str:
        name = fresh(prefix)
        consts[name] = value
        return name

    def weight_expr(res: _Res) -> str:
        """An expression for ``res``'s total tuple weight, hoisting the
        per-tuple sum into O(1) arithmetic when the width is known."""
        if res.wvar is None:
            res.wvar = fresh("_w")
            if res.width is not None:
                emit(f"{res.wvar} = len({res.var}) * {max(res.width, 1)}")
            else:
                emit(f"{res.wvar} = sum(map(_tw, {res.var}))")
        return res.wvar

    # One shared binding (and compile-time stats) per scanned relation.
    scan_res: dict[str, _Res] = {}

    def scan_result(node: Scan) -> _Res:
        res = scan_res.get(node.relation)
        if res is not None:
            return res
        relation = db.get(node.relation, _EMPTY)
        values = (
            relation.frozen()
            if isinstance(relation, CVSet)
            else frozenset(relation)
        )
        stats = (
            relation_stats(node.relation)
            if relation_stats is not None
            else None
        )
        if stats is not None:
            weight, width = stats
        else:
            weight = 0
            width = None
            first = True
            for t in values:
                try:
                    n = len(t)
                except TypeError:
                    n = None
                if first:
                    width, first = n, False
                elif n != width:
                    width = None
                weight += max(n, 1) if n is not None else 1
        res = _Res(const("_s", values), width, rows=len(values))
        res.wvar = const("_n", weight)
        scan_res[node.relation] = res
        return res

    pos = 0  # next ledger index — every append below is compile-time static
    # token -> (res, ledger segment) for emitted subtrees (CSE replay).
    done: dict[int, tuple[_Res, int, int]] = {}
    out: list[tuple[_Res, tuple]] = []  # (result, span template)
    stack: list[tuple] = [(_VISIT, plan)]

    while stack:
        item = stack.pop()
        node = item[1]
        if item[0] == _VISIT:
            if isinstance(node, Scan):
                res = scan_result(node)
                emit(f"_a(({node.relation!r}, 0))")
                out.append((res, ("scan", node.relation, pos, res.rows)))
                pos += 1
                continue
            token = info[id(node)][0]
            prior = done.get(token)
            if prior is not None:
                res, seg_start, seg_end = prior
                emit(f"_L.extend(_L[{seg_start}:{seg_end}])")
                out.append(
                    (res, ("cse", node_label(node), seg_start, seg_end))
                )
                pos += seg_end - seg_start
                continue
            stack.append((_COMBINE, node, pos))
            for child in reversed(node.children()):
                stack.append((_VISIT, child))
            continue

        # _COMBINE: children emitted; lower this operator.
        _, node, seg_start = item
        n = len(node.children())
        inputs = out[-n:]
        del out[-n:]
        token = info[id(node)][0]
        shared = counts[token] > 1
        as_set = token in need_set or shared
        is_root = node is plan
        label = node_label(node)
        var = fresh("_v")

        if isinstance(node, Project):
            (child, child_span) = inputs[0]
            work = weight_expr(child)
            if node.columns:
                body = "(%s%s)" % (
                    ", ".join(f"r[{i}]" for i in node.columns),
                    "," if len(node.columns) == 1 else "",
                )
            else:
                # Still reads the row, so a row without components
                # raises, as ``t.project(())`` does.
                body = "r[:0]"
            if child.plain:
                rows = f"r in {child.var}"
            else:
                # A one-element ``for`` compiles to an assignment: each
                # ``Tup`` row's ``items`` is read once.
                rows = f"t in {child.var} for r in [t.items]"
            emit(f"{var} = {{{body} for {rows}}}")
            emit(f"_a(({label!r}, {work}))")
            res = _Res(var, len(node.columns), plain=True)
            template = ("op", label, pos, (child_span,))
            pos += 1
        elif isinstance(node, Select):
            (child, child_span) = inputs[0]
            work = weight_expr(child)
            pred = const("_p", node.predicate)
            opener, closer = ("{", "}") if as_set else ("[", "]")
            emit(
                f"{var} = {opener}t for t in {_tup_rows(child)} "
                f"if {pred}(t){closer}"
            )
            emit(f"_a(({label!r}, {work}))")
            res = _Res(var, child.width)
            template = ("op", label, pos, (child_span,))
            pos += 1
        elif isinstance(node, MapNode):
            (child, child_span) = inputs[0]
            work = weight_expr(child)
            fn = const("_f", node.fn)
            opener, closer = (
                ("[", "]") if is_root and not as_set else ("{", "}")
            )
            emit(
                f"{var} = {opener}{fn}(t) for t in {_tup_rows(child)}"
                f"{closer}"
            )
            emit(f"_a(({label!r}, {work}))")
            res = _Res(var, None)
            template = ("op", label, pos, (child_span,))
            pos += 1
        elif isinstance(node, (Union, Difference, Intersect)):
            (left, left_span), (right, right_span) = inputs
            wl, wr = weight_expr(left), weight_expr(right)
            lv, rv = left.var, right.var
            if left.plain != right.plain:
                # A plain side meets a side of Tups: wrap the plain one.
                lv, rv = (
                    f"set({_tup_rows(side)})" if side.plain else side.var
                    for side in (left, right)
                )
            emit(f"{var} = {lv} {_SET_OP_SYMBOL[type(node)]} {rv}")
            emit(f"_a(({label!r}, {wl} + {wr}))")
            if isinstance(node, Union):
                width = left.width if left.width == right.width else None
            else:
                width = left.width
            res = _Res(var, width, plain=left.plain and right.plain)
            template = ("op", label, pos, (left_span, right_span))
            pos += 1
        elif isinstance(node, Product):
            (left, left_span), (right, right_span) = inputs
            wl, wr = weight_expr(left), weight_expr(right)
            _emit_all_pairs(var, left, right, fresh, emit)
            emit(f"_a(({label!r}, len({left.var}) * {wr} + {wl}))")
            width = (
                left.width + right.width
                if left.width is not None and right.width is not None
                else None
            )
            res = _Res(var, width, plain=True)
            template = ("op", label, pos, (left_span, right_span))
            pos += 1
        elif isinstance(node, Join):
            res, template, pos = _emit_join(
                node, inputs, fresh, emit, weight_expr, var, label, pos
            )
        else:
            raise TypeError(f"unknown plan node: {node!r}")

        done[token] = (res, seg_start, pos)
        out.append((res, template))

    root_res, root_template = out.pop()
    emit(f"return {_tup_rows(root_res)}, _L")

    params = ", ".join(f"{name}={name}" for name in consts)
    body = "\n".join("    " + line for line in lines)
    source = (
        f"def _run({params}):\n"
        f"    _L = []\n"
        f"    _a = _L.append\n"
        f"{body}\n"
    )
    namespace = dict(consts)
    exec(_code_for(source), namespace)
    return CompiledPlan(namespace["_run"], root_template)


@functools.lru_cache(maxsize=256)
def _code_for(source: str):
    """The code object of one generated source: the engine's only
    program memo.  Sources carry no data (relation contents, weights
    and callables are bound as default arguments), so a rerun of a
    plan, after an insert too, reuses the code and only rebinds the
    data.  256 entries, the result cache's default capacity."""
    return compile(source, "<plan-compile>", "exec")


def _emit_join(node, inputs, fresh, emit, weight_expr, var, label, pos):
    """Lower one ``Join``; returns ``(res, span template, new pos)``.

    The output rows are plain ``tuple``s: each is the concatenation of
    a left and a right row.  Work parity with the reference's
    first-column probe count: one unit per candidate pair sharing the
    first join column, plus both input weights.
    """
    on = node.on
    (left, left_span), (right, right_span) = inputs
    wl, wr = weight_expr(left), weight_expr(right)
    width = (
        left.width + right.width
        if left.width is not None and right.width is not None
        else None
    )
    template = ("op", label, pos, (left_span, right_span))

    if not on:
        # Degenerate join: every pair is a candidate, one unit each.
        _emit_all_pairs(var, left, right, fresh, emit)
        emit(
            f"_a(({label!r}, {wl} + {wr} + "
            f"len({left.var}) * len({right.var})))"
        )
        return _Res(var, width, plain=True), template, pos + 1

    i0, j0 = on[0]
    cand = fresh("_c")
    upd = fresh("_u")

    if len(on) == 1:
        ivar = fresh("_i")
        sd = fresh("_d")
        emit(f"{ivar} = {{}}")
        emit(f"{sd} = {ivar}.setdefault")
        emit(f"for _b in {right.var}:")
        right_row = "_b" if right.plain else "tuple(_b)"
        emit(f"    {sd}(_b[{j0}], []).append({right_row})")
        get = fresh("_g")
        emit(f"{get} = {ivar}.get")
        emit(f"{cand} = 0")
        emit(f"{var} = set()")
        emit(f"{upd} = {var}.update")
        row = "_h" if left.plain else "_t"
        emit(f"for {row} in {left.var}:")
        emit(f"    _b = {get}({row}[{i0}])")
        emit("    if _b:")
        emit(f"        {cand} += len(_b)")
        if not left.plain:
            emit("        _h = tuple(_t)")
        emit(f"        {upd}(map(_h.__add__, _b))")
        emit(f"_a(({label!r}, {wl} + {wr} + {cand}))")
        return _Res(var, width, plain=True), template, pos + 1

    left_cols = tuple(i for i, _ in on)
    right_cols = tuple(j for _, j in on)
    right_key = "(" + ", ".join(f"_row[{j}]" for j in right_cols) + ",)"
    left_key = "(" + ", ".join(f"_h[{i}]" for i in left_cols) + ",)"
    ivar = fresh("_i")
    fvar = fresh("_fd")
    emit(f"{ivar} = {{}}")
    emit(f"{fvar} = {{}}")
    _emit_tuple_loop(right, "_row", emit)
    emit(f"    {ivar}.setdefault({right_key}, []).append(_row)")
    emit(f"    _k = _row[{j0}]")
    emit(f"    {fvar}[_k] = {fvar}.get(_k, 0) + 1")
    get = fresh("_g")
    fc = fresh("_fc")
    emit(f"{get} = {ivar}.get")
    emit(f"{fc} = {fvar}.get")
    emit(f"{cand} = 0")
    emit(f"{var} = set()")
    emit(f"{upd} = {var}.update")
    _emit_tuple_loop(left, "_h", emit)
    emit(f"    {cand} += {fc}(_h[{i0}], 0)")
    emit(f"    _b = {get}({left_key})")
    emit("    if _b:")
    emit(f"        {upd}(map(_h.__add__, _b))")
    emit(f"_a(({label!r}, {wl} + {wr} + {cand}))")
    return _Res(var, width, plain=True), template, pos + 1


def _build_spans(template: tuple, log: list) -> Span:
    """Instantiate the compile-time span program against one run's
    ledger.  Each ledger entry's work lands on exactly one span, so the
    tree's total work equals the execution total by construction."""
    out: list[Span] = []
    stack: list[tuple[tuple, bool]] = [(template, False)]
    while stack:
        t, ready = stack.pop()
        kind = t[0]
        if kind == "op" and not ready:
            stack.append((t, True))
            for child in reversed(t[3]):
                stack.append((child, False))
            continue
        if kind == "scan":
            span = Span(t[1])
            span.work = log[t[2]][1]
            span.rows = t[3]
            out.append(span)
            continue
        if kind == "cse":
            span = Span(t[1])
            span.cache = "cse"
            span.work = sum(w for _, w in log[t[2] : t[3]])
            out.append(span)
            continue
        _, spanlabel, idx, children = t
        span = Span(spanlabel)
        span.work = log[idx][1]
        count = len(children)
        if count:
            span.children = out[-count:]
            del out[-count:]
        out.append(span)
    return out[-1]


def execute_compiled(
    plan: Plan,
    db: TMapping[str, CVSet],
    *,
    info: Optional[dict] = None,
    relation_stats=None,
    tracer: Optional[Tracer] = None,
    fault_injector=None,
) -> ExecutionResult:
    """Evaluate ``plan`` over ``db`` through the plan compiler.

    Returns an :class:`ExecutionResult` identical (value, work,
    per-node ledger) to :func:`repro.optimizer.plan.execute_reference`.

    Every call lowers the plan against the current ``db``; the code
    object comes from the source-keyed :func:`_code_for` memo.
    ``info`` is the plan's annotation when the caller already has it
    (:meth:`~repro.engine.database.Database.run` annotates once for
    its result cache and CSE both).  Plans deeper than
    :data:`MAX_PIPELINE_DEPTH` run on the reference interpreter.

    ``fault_injector`` draws a seeded ``"compile"`` fault before plan
    lowering and an ``"operator"`` fault before the compiled function
    runs.
    """
    if plan_depth(plan) > MAX_PIPELINE_DEPTH:
        return execute_reference(plan, db, tracer=tracer)

    if fault_injector is not None:
        fault_injector.maybe_raise("compile", node_label(plan))
    compiled = compile_plan(
        plan, db, info=info, relation_stats=relation_stats
    )

    if fault_injector is not None:
        fault_injector.maybe_raise("operator", node_label(plan))
    start = time.perf_counter() if tracer is not None else 0.0
    values, log = compiled.run()
    value = CVSet(values)
    elapsed = time.perf_counter() - start if tracer is not None else 0.0
    work_total = sum(w for _, w in log)

    if tracer is not None:
        root_span = _build_spans(compiled.span_program, log)
        root_span.rows = len(value)
        root_span.wall_s = elapsed
        tracer.record(root_span)

    return ExecutionResult(value=value, work=work_total, per_node=log)
