"""Plan lowering: the engine's fast path.

The reference interpreter walks the plan tree at execution time,
dispatching per operator and materializing a ``CVSet`` at every node.
The paper's Section 4.4 reading is that genericity metadata makes a
plan's behaviour uniform across instantiations, so nothing about the
walk depends on the data — which means the walk can happen **once**,
ahead of time.  This module lowers an annotated physical plan into a
flat, postorder list of operator closures over a register list (a
:class:`CompiledPlan`):

* every operator becomes one step: a closure over its column indices,
  predicate or map function, register numbers and ledger position,
  whose per-row loop is a comprehension (or a hash-probe loop) written
  once in this module.  No source is generated and nothing is
  ``compile()``d, so lowering costs the same few closures per operator
  at every depth, and a run is one loop over the steps, with no
  per-node dispatch and no interpreter stack;
* ``Scan`` is a register filled when the plan is lowered, with the
  relation's underlying ``frozenset`` and its weight (from the
  ``relation_stats`` hook when given), so a scan costs nothing at run
  time; set operations are C-level ``|``/``-``/``&``;
* ``Join`` probes a hash index built from the right child when the
  step runs;
* weight accounting is hoisted out of the per-tuple loop: a register
  whose width is statically known weighs ``len(v) * width``, and one
  of unknown width sums its row lengths in C (:func:`_weight`);
* repeated subtrees (CSE) execute once; later occurrences copy their
  ledger segment — every ledger position is known when the plan is
  lowered;
* rows the steps build stay plain ``tuple``s.  ``Project``, ``Join``
  and ``Product`` output plain rows, and a set operation over two
  plain inputs stays plain.  A ``Tup`` is built only where code the
  engine cannot see or the caller receives the row: a ``Select``
  predicate or a ``MapNode`` function gets ``Tup``s (a selection
  passes on the ones it keeps), a plain side meeting ``Tup``s (a
  scan, a map or a selection output) in a set operation is wrapped,
  and so is a plain answer.  A plain tuple is built and hashed in C; a
  ``Tup`` runs ``Tup.__init__`` in Python.

The contract: identical ``CVSet`` answer, identical total work,
identical per-node postorder ledger as
:func:`repro.optimizer.plan.execute_reference`, for every plan over
every database.  Plain rows keep it: ``Tup`` and ``tuple`` are in
bijection, projection, join, product and the set operations give the
same rows on either side of it, and a plain row has the length, and
so the weight, of its ``Tup``.  Which rows are plain follows from the
plan's shape alone.  :func:`execute_compiled` lowers the plan on every
call, against the current data: relation contents, weights and
callables are arguments of the steps, so there is no program memo to
keep.  Results are not cached here:
:meth:`~repro.engine.database.Database.run` owns the result cache,
around whichever executor runs.

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

import time
from collections import Counter
from operator import and_, attrgetter, itemgetter, or_, sub
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
    node_label,
    tuple_weight,
)
from ...types.values import CVSet, Tup
from .fingerprint import annotate_plan

__all__ = ["CompiledPlan", "compile_plan", "execute_compiled"]

_EMPTY = CVSet()

#: A row's components.  Not ``_items``: ``CVSet`` and ``CVList`` have
#: that slot too, and a row that is not a ``Tup`` must raise.
_items = attrgetter("items")

_SET_OPS = {Union: or_, Difference: sub, Intersect: and_}
_OPERATORS = (Scan, Project, Select, MapNode, Product, Join, *_SET_OPS)


class CompiledPlan:
    """A plan lowered to a flat postorder list of steps.

    Each step is called as ``step(registers, weights, ledger)``: it
    reads its inputs' rows and weights from their registers, writes
    its output register and sets its own ledger entry.  ``run()``
    calls every step on fresh copies of the three lists and returns
    ``(registers, ledger)``.  Every operator's register then holds its
    distinct output rows (a root ``MapNode`` may repeat rows), and
    ``ledger`` is the reference-identical per-node log;
    :meth:`answer` reads the result rows, each the value the reference
    returns (a plain root result is wrapped in ``Tup``s).
    """

    __slots__ = (
        "steps", "registers", "weights", "ledger", "root", "plain_root",
        "span_program",
    )

    def __init__(
        self, steps, registers, weights, ledger, root, plain_root,
        span_program,
    ) -> None:
        self.steps = steps
        self.registers = registers
        self.weights = weights
        self.ledger = ledger
        self.root = root
        self.plain_root = plain_root
        self.span_program = span_program

    def run(self) -> tuple[list, list]:
        registers = self.registers.copy()
        weights = self.weights.copy()
        ledger = self.ledger.copy()
        for step in self.steps:
            step(registers, weights, ledger)
        return registers, ledger

    def answer(self, registers: list):
        rows = registers[self.root]
        return map(Tup, rows) if self.plain_root else rows


# ----------------------------------------------------------------------
# Weights.  A register of known width weighs ``len(v) * width``; these
# sum the rows of one whose width is unknown, as ``tuple_weight`` does.


def _plain_weight(rows) -> int:
    """Total weight of plain rows (or of ``Tup`` components), their
    lengths summed in C; a row of no components weighs 1."""
    lens = list(map(len, rows))
    return sum(lens) + lens.count(0)


def _weight(rows) -> int:
    """Total weight of rows that need not be plain: ``Tup`` lengths are
    read in C, and anything else (atoms, bags, mixed rows) is weighed
    row by row with :func:`tuple_weight`."""
    if {Tup}.issuperset(map(type, rows)):
        return _plain_weight(map(_items, rows))
    return sum(map(tuple_weight, rows))


# ----------------------------------------------------------------------
# Steps.  ``src``/``lhs``/``rhs`` are input registers, ``dst`` the
# output register and ``pos`` the node's ledger position.


def _project(columns, src, dst, pos, label, plain):
    """``pi[columns]``: plain rows out, read from plain rows or from
    ``Tup`` components."""
    if len(columns) == 1:
        (a,) = columns

        def project(rows):
            return {(r[a],) for r in rows}
    elif len(columns) == 2:
        a, b = columns

        def project(rows):
            return {(r[a], r[b]) for r in rows}
    elif len(columns) == 3:
        a, b, c = columns

        def project(rows):
            return {(r[a], r[b], r[c]) for r in rows}
    elif columns:
        project_row = itemgetter(*columns)

        def project(rows):
            return set(map(project_row, rows))
    else:
        # Still reads each row, so a row without components raises,
        # as ``t.project(())`` does.
        def project(rows):
            return {r[:0] for r in rows}

    def step(R, W, L):
        v = R[src]
        R[dst] = project(v if plain else map(_items, v))
        L[pos] = (label, W[src])

    return step


def _select(predicate, src, dst, pos, label, plain, as_set):
    """``sigma``: the ``Tup``s the predicate keeps, as a set when a set
    operation or a CSE reader needs one."""
    def step(R, W, L):
        v = R[src]
        rows = map(Tup, v) if plain else v
        R[dst] = (
            {t for t in rows if predicate(t)} if as_set
            else [t for t in rows if predicate(t)]
        )
        L[pos] = (label, W[src])

    return step


def _map(fn, src, dst, pos, label, plain, as_list):
    """``map``: the function's distinct outputs (a list at the root,
    where the answer's ``CVSet`` removes repeats)."""
    def step(R, W, L):
        v = R[src]
        rows = map(Tup, v) if plain else v
        R[dst] = [fn(t) for t in rows] if as_list else {fn(t) for t in rows}
        L[pos] = (label, W[src])

    return step


def _set_op(op, lhs, rhs, dst, pos, label, wrap_left, wrap_right):
    """Union, difference or intersection; a plain side meeting ``Tup``s
    is wrapped first."""
    def step(R, W, L):
        left, right = R[lhs], R[rhs]
        if wrap_left:
            left = set(map(Tup, left))
        if wrap_right:
            right = set(map(Tup, right))
        R[dst] = op(left, right)
        L[pos] = (label, W[lhs] + W[rhs])

    return step


def _as_row(e) -> tuple:
    """A row that is not a ``Tup`` as a plain ``tuple``, read by index as
    the reference reads join rows: a row that cannot be indexed (a set,
    an atom) raises as it does there."""
    return tuple(e[i] for i in range(len(e)))


def _tuples(rows, plain, read=tuple):
    """``rows`` as plain tuples: a ``Tup``'s components, any other row
    through ``read`` (``tuple``, as the reference concatenates rows, or
    :func:`_as_row` where it indexes them)."""
    if plain:
        return rows
    return [e.items if e.__class__ is Tup else read(e) for e in rows]


def _all_pairs(lhs, rhs, dst, pos, label, plain_left, plain_right, join):
    """A product, or a join on no columns: every left row concatenated
    with every right row.  The join charges one unit per pair."""
    def step(R, W, L):
        left, right = R[lhs], R[rhs]
        rights = _tuples(right, plain_right)
        R[dst] = {h + b for h in _tuples(left, plain_left) for b in rights}
        if join:
            work = W[lhs] + W[rhs] + len(left) * len(right)
        else:
            work = len(left) * W[rhs] + W[lhs]
        L[pos] = (label, work)

    return step


def _join_one(on, lhs, rhs, dst, pos, label, plain_left, plain_right):
    """A join on one column pair.  Work parity with the reference: one
    unit per candidate pair sharing the column, plus both input
    weights."""
    ((i0, j0),) = on

    def step(R, W, L):
        index = {}
        add = index.setdefault
        for b in _tuples(R[rhs], plain_right, _as_row):
            add(b[j0], []).append(b)
        get = index.get
        candidates = 0
        out = set()
        update = out.update
        for h in _tuples(R[lhs], plain_left, _as_row):
            matches = get(h[i0])
            if matches:
                candidates += len(matches)
                update(map(h.__add__, matches))
        R[dst] = out
        L[pos] = (label, W[lhs] + W[rhs] + candidates)

    return step


def _join_many(on, lhs, rhs, dst, pos, label, plain_left, plain_right):
    """A join on several column pairs: a hash probe on all of them,
    charged like the reference's probe on the first pair alone."""
    i0, j0 = on[0]
    left_key = itemgetter(*(i for i, _ in on))
    right_key = itemgetter(*(j for _, j in on))
    right_first = itemgetter(j0)

    def step(R, W, L):
        rights = _tuples(R[rhs], plain_right, _as_row)
        index = {}
        add = index.setdefault
        for b in rights:
            add(right_key(b), []).append(b)
        firsts = Counter(map(right_first, rights)).get
        get = index.get
        candidates = 0
        out = set()
        update = out.update
        for h in _tuples(R[lhs], plain_left, _as_row):
            candidates += firsts(h[i0], 0)
            matches = get(left_key(h))
            if matches:
                update(map(h.__add__, matches))
        R[dst] = out
        L[pos] = (label, W[lhs] + W[rhs] + candidates)

    return step


def _replay(start, end, pos):
    """A later occurrence of a shared subtree: its ledger segment again."""
    stop = pos + end - start

    def step(R, W, L):
        L[pos:stop] = L[start:end]

    return step


def _weigh(dst, width, plain):
    """The weight of register ``dst``, for the step that reads it."""
    if width is not None:
        width = max(width, 1)

        def step(R, W, L):
            W[dst] = len(R[dst]) * width
    else:
        weigh = _plain_weight if plain else _weight

        def step(R, W, L):
            W[dst] = weigh(R[dst])

    return step


_VISIT, _COMBINE = 0, 1


def compile_plan(
    plan: Plan,
    db: TMapping[str, CVSet],
    *,
    info: Optional[dict] = None,
    relation_stats=None,
) -> CompiledPlan:
    """Lower ``plan`` (over the *current* contents of ``db``) to a
    :class:`CompiledPlan`.

    The steps replay the data they were lowered against — scan
    registers and scan weights are filled here — so lower the plan
    again after a mutation (:func:`execute_compiled` lowers on every
    call).
    """
    if info is None:
        info = annotate_plan(plan, {})

    # Occurrence counts per semantic token (CSE detection) and the set
    # of tokens consumed by a set operation (those must be sets, not
    # lists).
    counts: Counter = Counter()
    need_set: set[int] = set()
    walk = [plan]
    while walk:
        node = walk.pop()
        if not isinstance(node, _OPERATORS):
            raise TypeError(f"unknown plan node: {node!r}")
        counts[info[id(node)][0]] += 1
        if isinstance(node, (Union, Difference, Intersect)):
            need_set.add(info[id(node.left)][0])
            need_set.add(info[id(node.right)][0])
        walk.extend(node.children())

    # Initial register, weight and ledger contents: filled for scans,
    # ``None`` where a step writes at run time.
    registers: list = []
    weights: list = []
    ledger: list = []
    steps: list = []
    # A register at lowering time: (index, width or None, plain).
    scans: dict[str, tuple] = {}
    # token -> (register, ledger segment) of lowered subtrees (CSE).
    done: dict[int, tuple[tuple, int, int]] = {}
    out: list[tuple[tuple, tuple]] = []  # (register, span template)
    stack: list[tuple] = [(_VISIT, plan)]

    while stack:
        item = stack.pop()
        node = item[1]
        if item[0] == _VISIT:
            if isinstance(node, Scan):
                name = node.relation
                reg = scans.get(name)
                if reg is None:
                    relation = db.get(name, _EMPTY)
                    values = (
                        relation.frozen()
                        if isinstance(relation, CVSet)
                        else frozenset(relation)
                    )
                    # Without the hook the width is unknown, so the
                    # registers computed from this scan are weighed by
                    # ``_weight``.
                    weight, width = (
                        relation_stats(name)
                        if relation_stats is not None
                        else (_weight(values), None)
                    )
                    reg = scans[name] = (len(registers), width, False)
                    registers.append(values)
                    weights.append(weight)
                rows = len(registers[reg[0]])
                out.append((reg, ("scan", name, len(ledger), rows)))
                ledger.append((name, 0))
                continue
            token = info[id(node)][0]
            prior = done.get(token)
            if prior is not None:
                reg, start, end = prior
                steps.append(_replay(start, end, len(ledger)))
                ledger.extend([None] * (end - start))
                template = ("cse", node_label(node), start, end, reg[0])
                out.append((reg, template))
                continue
            stack.append((_COMBINE, node, len(ledger)))
            for child in reversed(node.children()):
                stack.append((_VISIT, child))
            continue

        # _COMBINE: children lowered; lower this operator.
        _, node, start = item
        n = len(node.children())
        inputs = out[-n:]
        del out[-n:]
        token = info[id(node)][0]
        as_set = token in need_set or counts[token] > 1
        label = node_label(node)
        dst, pos = len(registers), len(ledger)
        (src, width, plain), _ = inputs[0]
        if isinstance(node, Project):
            step = _project(node.columns, src, dst, pos, label, plain)
            width, plain = len(node.columns), True
        elif isinstance(node, Select):
            step = _select(node.predicate, src, dst, pos, label, plain, as_set)
            plain = False
        elif isinstance(node, MapNode):
            as_list = node is plan and not as_set
            step = _map(node.fn, src, dst, pos, label, plain, as_list)
            width, plain = None, False
        else:
            (rhs, right_width, right_plain), _ = inputs[1]
            if isinstance(node, (Union, Difference, Intersect)):
                step = _set_op(
                    _SET_OPS[type(node)], src, rhs, dst, pos, label,
                    plain and not right_plain, right_plain and not plain,
                )
                if isinstance(node, Union) and width != right_width:
                    width = None
                plain = plain and right_plain
            else:
                args = (src, rhs, dst, pos, label, plain, right_plain)
                if isinstance(node, Product) or not node.on:
                    step = _all_pairs(*args, isinstance(node, Join))
                elif len(node.on) == 1:
                    step = _join_one(node.on, *args)
                else:
                    step = _join_many(node.on, *args)
                width = (
                    width + right_width
                    if width is not None and right_width is not None
                    else None
                )
                plain = True
        registers.append(None)
        weights.append(None)
        ledger.append(None)
        steps.append(step)
        reg = (dst, width, plain)
        if node is not plan:
            steps.append(_weigh(dst, width, plain))
        done[token] = (reg, start, len(ledger))
        children = tuple(template for _, template in inputs)
        out.append((reg, ("op", label, pos, dst, children)))

    (root, _, plain_root), root_template = out.pop()
    return CompiledPlan(
        steps, registers, weights, ledger, root, plain_root, root_template
    )


def _build_spans(template: tuple, log: list, registers: list) -> Span:
    """Instantiate the span program against one run's ledger and
    registers.  Each ledger entry's work lands on exactly one span, so
    the tree's total work equals the execution total by construction;
    each span's rows are its register's row count."""
    out: list[Span] = []
    stack: list[tuple[tuple, bool]] = [(template, False)]
    while stack:
        t, ready = stack.pop()
        kind = t[0]
        if kind == "op" and not ready:
            stack.append((t, True))
            for child in reversed(t[4]):
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
            span.rows = len(registers[t[4]])
            out.append(span)
            continue
        _, spanlabel, idx, reg, children = t
        span = Span(spanlabel)
        span.work = log[idx][1]
        span.rows = len(registers[reg])
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

    Every call lowers the plan against the current ``db``, at any
    depth.  ``info`` is the plan's annotation when the caller already
    has it (:meth:`~repro.engine.database.Database.run` annotates once
    for its result cache and CSE both).

    ``fault_injector`` draws a seeded ``"compile"`` fault before plan
    lowering and an ``"operator"`` fault before the steps run.
    """
    if fault_injector is not None:
        fault_injector.maybe_raise("compile", node_label(plan))
    compiled = compile_plan(
        plan, db, info=info, relation_stats=relation_stats
    )

    if fault_injector is not None:
        fault_injector.maybe_raise("operator", node_label(plan))
    start = time.perf_counter() if tracer is not None else 0.0
    registers, log = compiled.run()
    value = CVSet(compiled.answer(registers))
    elapsed = time.perf_counter() - start if tracer is not None else 0.0
    work_total = sum(w for _, w in log)

    if tracer is not None:
        root_span = _build_spans(compiled.span_program, log, registers)
        root_span.rows = len(value)
        root_span.wall_s = elapsed
        tracer.record(root_span)

    return ExecutionResult(value=value, work=work_total, per_node=log)
