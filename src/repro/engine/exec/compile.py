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
* ``Join`` compiles to a pre-built hash probe: the build side's index
  is constructed at *compile* time when the build side is a bare scan
  (or borrowed from the database's maintained secondary index via the
  ``key_index`` hook), so per-execution cost is probe-only;
* weight/ledger accounting is hoisted out of the per-tuple loop: scan
  weights are bound constants (from the ``relation_stats`` hook when
  given), and intermediate weights are ``len(v) * width`` arithmetic
  whenever the tuple width is statically known;
* repeated subtrees (CSE) execute once; later occurrences replay their
  ledger segment with a constant-index ``_L.extend(_L[s:e])`` — every
  ledger position is known at compile time.

The contract: identical ``CVSet`` answer, identical total work,
identical per-node postorder ledger as
:func:`repro.optimizer.plan.execute_reference`, for every plan over
every database.  Compiled artifacts are memoized in a
:class:`~repro.engine.exec.cache.PlanCache` side table under the
semantic keys (token + base-relation fingerprints, so callable aliasing
keys apart exactly like results do) and are invalidated per relation —
a mutated relation both changes the fingerprint (stale artifacts become
unreachable) and drops the artifact (space stays bounded).  The
generated source binds all data as default arguments, so recompiling
a plan after an insert reuses its code object (:func:`_code_for`).
Results are not cached here: :meth:`~repro.engine.database.Database.run`
owns the result cache, around whichever executor runs.

Plans deeper than :data:`MAX_PIPELINE_DEPTH` run on the reference
interpreter instead; the fallback preserves the full contract.

One deliberate asymmetry with the reference: projection reads tuple
components as ``t.items[i]`` instead of ``t.project(...)``.  On every
well-typed input (all ``Tup`` rows — everything the generators produce)
the values are identical and the direct read is markedly faster; on an
atom row both raise ``AttributeError``.  Only ``CVList`` rows differ in
the *exception type* raised (``TypeError`` here), never in a value.
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
    tuple_weight,
)
from ...types.values import CVSet, Tup
from .cache import PlanCache
from .fingerprint import annotate_plan, semantic_cache_key
from .operators import node_label

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

_TUP_NEW = Tup.__new__
_SET = object.__setattr__


def _mk_tup(items, _new=_TUP_NEW, _set=_SET, _cls=Tup) -> Tup:
    """Build a ``Tup`` around an already-constructed ``tuple`` without
    re-running ``Tup.__init__``'s ``tuple(items)`` copy."""
    t = _new(_cls)
    _set(t, "items", items)
    return t


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
    is an iterable of distinct result rows and ``ledger`` is the
    reference-identical per-node log.
    """

    __slots__ = ("run", "relations", "span_program")

    def __init__(self, run, relations, span_program) -> None:
        self.run = run
        self.relations = relations
        self.span_program = span_program

    def __repr__(self) -> str:
        return f"CompiledPlan(relations={sorted(self.relations)})"


_VISIT, _COMBINE = 0, 1

_SET_OP_SYMBOL = {Union: "|", Difference: "-", Intersect: "&"}


class _Res:
    """Compile-time state of one emitted (sub)result variable."""

    __slots__ = ("var", "width", "wvar", "rows")

    def __init__(self, var, width, rows=None) -> None:
        self.var = var
        self.width = width
        #: Name of the weight: a bound constant for scans, otherwise a
        #: runtime variable emitted on demand.
        self.wvar = None
        self.rows = rows  # known only for scans


def compile_plan(
    plan: Plan,
    db: TMapping[str, CVSet],
    *,
    info: Optional[dict] = None,
    key_index=None,
    relation_stats=None,
) -> CompiledPlan:
    """Lower ``plan`` (over the *current* contents of ``db``) to a
    :class:`CompiledPlan`.

    The artifact is specialized to the data it was compiled against —
    scan bindings, pre-built join indexes and hoisted weights all
    assume the relations are unchanged — so callers must key it by the
    plan's semantic cache key (:func:`execute_compiled` does).
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
    consts: dict[str, object] = {"_tw": tuple_weight, "_mk": _mk_tup}
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
    stack: list[tuple] = [(_VISIT, plan, None, None)]

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
            prebuilt = None
            if (
                key_index is not None
                and isinstance(node, Join)
                and len(node.on) == 1
                and isinstance(node.right, Scan)
            ):
                prebuilt = key_index(node.right.relation, (node.on[0][1],))
            stack.append((_COMBINE, node, pos, prebuilt))
            if prebuilt is not None:
                stack.append((_VISIT, node.left, None, None))
            else:
                for child in reversed(node.children()):
                    stack.append((_VISIT, child, None, None))
            continue

        # _COMBINE: children emitted; lower this operator.
        _, node, seg_start, prebuilt = item
        n = len(node.children()) - (1 if prebuilt is not None else 0)
        inputs = out[-n:]
        del out[-n:]
        token = info[id(node)][0]
        shared = counts[token] > 1
        as_set = token in need_set or shared
        is_root = node is plan
        label = node_label(node)
        source = None
        var = fresh("_v")

        if isinstance(node, Project):
            (child, child_span) = inputs[0]
            work = weight_expr(child)
            body = "_mk((%s%s))" % (
                ", ".join(f"t.items[{i}]" for i in node.columns),
                "," if len(node.columns) == 1 else "",
            )
            opener, closer = (
                ("[", "]") if is_root and not as_set else ("{", "}")
            )
            emit(f"{var} = {opener}{body} for t in {child.var}{closer}")
            emit(f"_a(({label!r}, {work}))")
            res = _Res(var, len(node.columns))
            template = ("op", label, pos, (child_span,), source)
            pos += 1
        elif isinstance(node, Select):
            (child, child_span) = inputs[0]
            work = weight_expr(child)
            pred = const("_p", node.predicate)
            opener, closer = ("{", "}") if as_set else ("[", "]")
            emit(
                f"{var} = {opener}t for t in {child.var} "
                f"if {pred}(t){closer}"
            )
            emit(f"_a(({label!r}, {work}))")
            res = _Res(var, child.width)
            template = ("op", label, pos, (child_span,), source)
            pos += 1
        elif isinstance(node, MapNode):
            (child, child_span) = inputs[0]
            work = weight_expr(child)
            fn = const("_f", node.fn)
            opener, closer = (
                ("[", "]") if is_root and not as_set else ("{", "}")
            )
            emit(f"{var} = {opener}{fn}(t) for t in {child.var}{closer}")
            emit(f"_a(({label!r}, {work}))")
            res = _Res(var, None)
            template = ("op", label, pos, (child_span,), source)
            pos += 1
        elif isinstance(node, (Union, Difference, Intersect)):
            (left, left_span), (right, right_span) = inputs
            wl, wr = weight_expr(left), weight_expr(right)
            emit(f"{var} = {left.var} {_SET_OP_SYMBOL[type(node)]} {right.var}")
            emit(f"_a(({label!r}, {wl} + {wr}))")
            if isinstance(node, Union):
                width = left.width if left.width == right.width else None
            else:
                width = left.width
            res = _Res(var, width)
            template = ("op", label, pos, (left_span, right_span), source)
            pos += 1
        elif isinstance(node, Product):
            (left, left_span), (right, right_span) = inputs
            wl, wr = weight_expr(left), weight_expr(right)
            rows_expr = None
            if isinstance(node.right, Scan):
                try:
                    rows_expr = const(
                        "_r", [tuple(b) for b in consts[right.var]]
                    )
                except Exception:
                    rows_expr = None
            if rows_expr is None:
                rows_expr = fresh("_r")
                emit(f"{rows_expr} = [tuple(b) for b in {right.var}]")
            emit(
                f"{var} = {{_mk(h + b) for h in "
                f"(tuple(a) for a in {left.var}) for b in {rows_expr}}}"
            )
            emit(f"_a(({label!r}, len({left.var}) * {wr} + {wl}))")
            width = (
                left.width + right.width
                if left.width is not None and right.width is not None
                else None
            )
            res = _Res(var, width)
            template = ("op", label, pos, (left_span, right_span), source)
            pos += 1
        elif isinstance(node, Join):
            res, template, pos = _emit_join(
                node, inputs, prebuilt, consts, const, fresh, emit,
                weight_expr, var, label, pos,
            )
        else:
            raise TypeError(f"unknown plan node: {node!r}")

        done[token] = (res, seg_start, pos)
        out.append((res, template))

    root_res, root_template = out.pop()
    emit(f"return {root_res.var}, _L")

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
    return CompiledPlan(
        namespace["_run"],
        info[id(plan)][1],
        root_template,
    )


@functools.lru_cache(maxsize=64)
def _code_for(source: str):
    """The code object of one generated source.  Sources carry no data
    (relation contents, weights and indexes are bound as default
    arguments), so a plan recompiled after an insert dropped its
    artifact reuses the code and only rebinds the data.  64 entries
    cover a hot set of plans re-run between writes; live artifacts
    share their code with this memo, so it adds little memory."""
    return compile(source, "<plan-compile>", "exec")


def _emit_join(
    node, inputs, prebuilt, consts, const, fresh, emit, weight_expr,
    var, label, pos,
):
    """Lower one ``Join``; returns ``(res, span template, new pos)``.

    Work parity with the reference's first-column probe count: one unit
    per candidate pair sharing the first join column, plus both input
    weights.
    """
    on = node.on

    if prebuilt is not None:
        # The right scan is served by the database's maintained index:
        # logged for ledger parity, never re-read.
        (left, left_span) = inputs[0]
        wl = weight_expr(left)
        index, right_w = prebuilt
        right_w = const("_n", right_w)
        emit(f"_a(({str(node.right)!r}, 0))")
        right_idx = pos
        pos += 1
        get = const("_g", index.get)
        cand = fresh("_c")
        upd = fresh("_u")
        i0 = on[0][0]
        emit(f"{cand} = 0")
        emit(f"{var} = set()")
        emit(f"{upd} = {var}.update")
        emit(f"for _t in {left.var}:")
        emit(f"    _b = {get}((_t[{i0}],))")
        emit("    if _b:")
        emit(f"        {cand} += len(_b)")
        emit("        _h = tuple(_t)")
        emit(f"        {upd}(_mk(_h + tuple(_x)) for _x in _b)")
        emit(f"_a(({label!r}, {wl} + {right_w} + {cand}))")
        template = (
            "op", label, pos,
            (left_span, ("scan", str(node.right), right_idx, None)),
            "index",
        )
        return _Res(var, None), template, pos + 1

    (left, left_span), (right, right_span) = inputs
    wl, wr = weight_expr(left), weight_expr(right)
    width = (
        left.width + right.width
        if left.width is not None and right.width is not None
        else None
    )
    template = ("op", label, pos, (left_span, right_span), None)

    if not on:
        # Degenerate join: every pair is a candidate, one unit each.
        rows_expr = None
        rows_len = None
        if isinstance(node.right, Scan):
            try:
                rows = [tuple(b) for b in consts[right.var]]
                rows_expr = const("_r", rows)
                rows_len = const("_n", len(rows))
            except Exception:
                rows_expr = None
        if rows_expr is None:
            rows_expr = fresh("_r")
            emit(f"{rows_expr} = [tuple(b) for b in {right.var}]")
            rows_len = f"len({rows_expr})"
        emit(
            f"{var} = {{_mk(h + b) for h in "
            f"(tuple(a) for a in {left.var}) for b in {rows_expr}}}"
        )
        emit(
            f"_a(({label!r}, {wl} + {wr} + len({left.var}) * {rows_len}))"
        )
        return _Res(var, width), template, pos + 1

    i0, j0 = on[0]
    cand = fresh("_c")
    upd = fresh("_u")

    if len(on) == 1:
        get = None
        if isinstance(node.right, Scan):
            # Hoist the build side to compile time: the relation is
            # frozen for the artifact's lifetime (fingerprint-keyed).
            try:
                index: dict = {}
                for b in consts[right.var]:
                    index.setdefault(b[j0], []).append(tuple(b))
                get = const("_g", index.get)
            except Exception:
                get = None
        if get is None:
            ivar = fresh("_i")
            sd = fresh("_d")
            emit(f"{ivar} = {{}}")
            emit(f"{sd} = {ivar}.setdefault")
            emit(f"for _b in {right.var}:")
            emit(f"    {sd}(_b[{j0}], []).append(tuple(_b))")
            get = fresh("_g")
            emit(f"{get} = {ivar}.get")
        emit(f"{cand} = 0")
        emit(f"{var} = set()")
        emit(f"{upd} = {var}.update")
        emit(f"for _t in {left.var}:")
        emit(f"    _b = {get}(_t[{i0}])")
        emit("    if _b:")
        emit(f"        {cand} += len(_b)")
        emit("        _h = tuple(_t)")
        emit(f"        {upd}(_mk(_h + _x) for _x in _b)")
        emit(f"_a(({label!r}, {wl} + {wr} + {cand}))")
        return _Res(var, width), template, pos + 1

    left_cols = tuple(i for i, _ in on)
    right_cols = tuple(j for _, j in on)
    right_key = "(" + ", ".join(f"_row[{j}]" for j in right_cols) + ",)"
    left_key = "(" + ", ".join(f"_h[{i}]" for i in left_cols) + ",)"
    get = fc = None
    if isinstance(node.right, Scan):
        try:
            index = {}
            first_counts: dict = {}
            for b in consts[right.var]:
                row = tuple(b)
                index.setdefault(
                    tuple(row[j] for j in right_cols), []
                ).append(row)
                key0 = row[j0]
                first_counts[key0] = first_counts.get(key0, 0) + 1
            get = const("_g", index.get)
            fc = const("_fc", first_counts.get)
        except Exception:
            get = fc = None
    if get is None:
        ivar = fresh("_i")
        fvar = fresh("_fd")
        emit(f"{ivar} = {{}}")
        emit(f"{fvar} = {{}}")
        emit(f"for _b in {right.var}:")
        emit("    _row = tuple(_b)")
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
    emit(f"for _t in {left.var}:")
    emit("    _h = tuple(_t)")
    emit(f"    {cand} += {fc}(_h[{i0}], 0)")
    emit(f"    _b = {get}({left_key})")
    emit("    if _b:")
    emit(f"        {upd}(_mk(_h + _x) for _x in _b)")
    emit(f"_a(({label!r}, {wl} + {wr} + {cand}))")
    return _Res(var, width), template, pos + 1


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
        _, spanlabel, idx, children, source = t
        span = Span(spanlabel)
        span.work = log[idx][1]
        span.source = source
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
    compile_store: Optional[PlanCache] = None,
    info: Optional[dict] = None,
    key_index=None,
    relation_stats=None,
    tracer: Optional[Tracer] = None,
    fault_injector=None,
) -> ExecutionResult:
    """Evaluate ``plan`` over ``db`` through the plan compiler.

    Returns an :class:`ExecutionResult` identical (value, work,
    per-node ledger) to :func:`repro.optimizer.plan.execute_reference`.

    ``compile_store`` memoizes :class:`CompiledPlan` artifacts in its
    side table, keyed semantically and invalidated per relation;
    without one, every call compiles afresh.  ``info`` is
    ``compile_store.annotate(plan)`` when the caller already has it
    (:meth:`~repro.engine.database.Database.run` annotates once for
    its result cache and the artifact memo both).  Plans deeper than
    :data:`MAX_PIPELINE_DEPTH` run on the reference interpreter.

    ``fault_injector`` draws a seeded ``"compile"`` fault before plan
    lowering and an ``"operator"`` fault before the compiled function
    runs.
    """
    if plan_depth(plan) > MAX_PIPELINE_DEPTH:
        return execute_reference(plan, db, tracer=tracer)

    if info is None:
        if compile_store is not None:
            info = compile_store.annotate(plan)
        else:
            info = annotate_plan(plan, {}, lambda name, fn: (name, id(fn)))

    compiled = None
    store_key = None
    if compile_store is not None:
        store_key = semantic_cache_key(*info[id(plan)], db)
        compiled = compile_store.get_compiled(store_key)
    if compiled is None:
        if fault_injector is not None:
            fault_injector.maybe_raise("compile", node_label(plan))
        compiled = compile_plan(
            plan,
            db,
            info=info,
            key_index=key_index,
            relation_stats=relation_stats,
        )
        if compile_store is not None:
            compile_store.put_compiled(store_key, compiled)

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
