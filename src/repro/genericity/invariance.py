"""Invariance of queries under extended mappings (Definition 2.9).

A function ``Q`` is *invariant* under ``H^x`` if for any two legal
inputs ``R1, R2`` with ``H^x(R1, R2)``, also ``H^x(Q(R1), Q(R2))``.

The machinery here is constructive: given a base mapping family and an
input value, we *build* a partner value related to it (for the ``rel``
mode by sampling images level by level; for the ``strong`` mode by
repairing the input into a closed value whose strong image is uniquely
determined, per Prop 2.8(ii)), then check that the query outputs are
related.  Every generated pair is re-validated with ``holds`` before
use, so a reported violation is always a genuine counterexample.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from ..mappings.extensions import (
    STRONG,
    BagRelExt,
    BagStrongExt,
    ExtensionMode,
    ListRel,
    ProductRel,
    SetRelExt,
    SetStrongExt,
)
from ..mappings.families import MappingFamily
from ..mappings.mapping import Rel
from ..types.ast import BaseType, Type, free_type_vars, substitute
from ..types.values import CVBag, CVList, CVSet, Tup, Value
from ..algebra.query import Query

__all__ = [
    "sample_image",
    "strong_repair",
    "related_pair",
    "Witness",
    "InvarianceReport",
    "check_pair",
    "check_invariance",
    "instantiate_at",
]


def sample_image(rel: Rel, x: Value, rng: random.Random) -> Optional[Value]:
    """Sample some ``y`` with ``rel.holds(x, y)`` for the *rel* mode.

    Returns ``None`` when ``x`` has no image (mappings need not be
    total).  For set nodes, every valid image is a union of nonempty
    subsets of the element images (Def 2.5(1)), so we sample such a
    union directly instead of enumerating.
    """
    if isinstance(rel, ProductRel):
        if not isinstance(x, Tup) or len(x) != len(rel.components):
            return None
        parts = []
        for component, xi in zip(rel.components, x):
            yi = sample_image(component, xi, rng)
            if yi is None:
                return None
            parts.append(yi)
        return Tup(parts)
    if isinstance(rel, ListRel):
        if not isinstance(x, CVList):
            return None
        parts = []
        for xi in x:
            yi = sample_image(rel.inner, xi, rng)
            if yi is None:
                return None
            parts.append(yi)
        return CVList(parts)
    if isinstance(rel, SetRelExt):
        if not isinstance(x, CVSet):
            return None
        out: set = set()
        for xi in x:
            images = []
            # Sample up to three candidate images per element; taking a
            # nonempty subset keeps the two-way cover condition true.
            for _ in range(3):
                yi = sample_image(rel.inner, xi, rng)
                if yi is not None:
                    images.append(yi)
            if not images:
                return None
            count = rng.randint(1, len(images))
            out.update(rng.sample(images, count))
        return CVSet(out)
    if isinstance(rel, SetStrongExt):
        for y in rel.images(x):
            return y
        return None
    if isinstance(rel, BagStrongExt):
        # Strong bag mode preserves total mass: map occurrences 1-1.
        if not isinstance(x, CVBag):
            return None
        items = []
        for xi in x:
            yi = sample_image(rel.inner, xi, rng)
            if yi is None:
                return None
            items.append(yi)
        candidate = CVBag(items)
        return candidate if rel.holds(x, candidate) else None
    if isinstance(rel, BagRelExt):
        # The rel bag extension is support-based, so partners may have
        # arbitrary multiplicities; sample them rather than copying the
        # input's, or multiplicity-sensitive queries look spuriously
        # invariant.
        if not isinstance(x, CVBag):
            return None
        items = []
        for xi in x.support():
            yi = sample_image(rel.inner, xi, rng)
            if yi is None:
                return None
            items.extend([yi] * rng.randint(1, 2))
        return CVBag(items)
    # Base relations (Mapping, IdentityRel, ...) enumerate images.
    images = list(rel.images(x))
    if not images:
        return None
    return rng.choice(images)


def strong_repair(rel: Rel, x: Value) -> Optional[Value]:
    """Repair ``x`` into a value admitting a *strong* image.

    Strong extensions are injective on set types (Prop 2.8(ii)): a set
    either has exactly one image (when it is "closed" — maximal w.r.t.
    its own image) or none.  This routine closes ``x`` from the inside
    out: unmappable elements are dropped, then the set is saturated by
    alternating maximal-image / maximal-preimage steps until it is a
    fixpoint.  A set none of whose elements can be mapped repairs to the
    empty set, which strongly relates to itself, so ``related_pair``
    hands out ``({}, {})`` for it and the search counts that as a
    checked pair.  Returns ``None`` when a base value, or a component of
    a tuple or list, has no image, when the closed set has no strong
    image, and when ``x`` is not of the shape ``rel`` relates (a tuple
    or a list where a set is expected, say).
    """
    if isinstance(rel, SetStrongExt):
        if not isinstance(x, CVSet):
            return None
        repaired = []
        for item in x:
            fixed = strong_repair(rel.inner, item)
            if fixed is not None:
                repaired.append(fixed)
        current = CVSet(repaired)
        for _ in range(64):
            image = rel.maximal_image(current)
            closure = rel.maximal_preimage(image)
            if closure == current:
                break
            current = closure
        if next(rel.images(current), None) is None:
            return None
        return current
    if isinstance(rel, ProductRel):
        if not isinstance(x, Tup) or len(x) != len(rel.components):
            return None
        parts = []
        for component, xi in zip(rel.components, x):
            fixed = strong_repair(component, xi)
            if fixed is None:
                return None
            parts.append(fixed)
        return Tup(parts)
    if isinstance(rel, ListRel):
        if not isinstance(x, CVList):
            return None
        parts = []
        for xi in x:
            fixed = strong_repair(rel.inner, xi)
            if fixed is None:
                return None
            parts.append(fixed)
        return CVList(parts)
    if isinstance(rel, (BagRelExt, BagStrongExt)):
        return x if isinstance(x, CVBag) else None
    # Base level: any element with at least one image survives as is.
    if next(rel.images(x), None) is None:
        return None
    return x


def related_pair(
    rel: Rel,
    x: Value,
    mode: ExtensionMode,
    rng: random.Random,
) -> Optional[tuple[Value, Value]]:
    """Produce a pair ``(x', y)`` with ``rel`` holding in mode ``mode``.

    ``x'`` is ``x`` possibly repaired (strong mode) or restricted to the
    mapped part of the domain.  The returned pair is validated before
    being handed out; ``None`` means no partner could be constructed.
    """
    if mode == STRONG:
        repaired = strong_repair(rel, x)
        if repaired is None:
            return None
        y = sample_image(rel, repaired, rng)
        if y is None:
            return None
        holds = rel.holds(repaired, y)
        return (repaired, y) if holds else None
    y = sample_image(rel, x, rng)
    if y is None:
        return None
    return (x, y) if rel.holds(x, y) else None


@dataclass
class Witness:
    """A concrete invariance violation: related inputs whose outputs
    fail to be related."""

    input_pair: tuple[Value, Value]
    output_pair: tuple[Value, Value]
    family: MappingFamily
    mode: ExtensionMode

    def __repr__(self) -> str:
        return (
            f"Witness(mode={self.mode}, inputs={self.input_pair!r}, "
            f"outputs={self.output_pair!r})"
        )


@dataclass
class InvarianceReport:
    """Outcome of an invariance check across many generated pairs."""

    query_name: str
    mode: ExtensionMode
    pairs_checked: int = 0
    pairs_skipped: int = 0
    witness: Optional[Witness] = None

    @property
    def invariant(self) -> bool:
        """True iff no violation was found (statistical, not a proof)."""
        return self.witness is None

    def __repr__(self) -> str:
        status = "ok" if self.invariant else "VIOLATED"
        return (
            f"InvarianceReport({self.query_name}, {self.mode}: {status}, "
            f"checked={self.pairs_checked}, skipped={self.pairs_skipped})"
        )


def instantiate_at(t: Type, base: BaseType) -> Type:
    """Instantiate every type variable of ``t`` at the base type ``base``.

    Turns a polymorphic query type into the concrete instance type the
    genericity check runs at."""
    assignment = {name: base for name in free_type_vars(t)}
    return substitute(t, assignment)


def check_pair(
    query: Query,
    pair: tuple[Value, Value],
    out_rel: Rel,
    family: MappingFamily,
    mode: ExtensionMode,
) -> Optional[Witness]:
    """The per-pair step of Definition 2.9: apply ``query`` to both
    inputs of a related ``pair`` and return a :class:`Witness` when the
    outputs are not related by ``out_rel``, else ``None``.

    Queries and ``holds`` are pure, so the verdict depends only on the
    pair, the query and ``out_rel``; the search relies on this to skip a
    pair it has already checked in the same trial.
    """
    r1, r2 = pair
    out1, out2 = query.fn(r1), query.fn(r2)
    if out_rel.holds(out1, out2):
        return None
    return Witness(
        input_pair=(r1, r2), output_pair=(out1, out2), family=family, mode=mode
    )


def check_invariance(
    query: Query,
    family: MappingFamily,
    mode: ExtensionMode,
    inputs: Sequence[Value],
    input_type: Optional[Type] = None,
    output_type: Optional[Type] = None,
    base: Optional[BaseType] = None,
    rng: Optional[random.Random] = None,
) -> InvarianceReport:
    """Check Definition 2.9 empirically on the supplied inputs.

    For each input in turn a related partner is constructed under
    ``family`` extended at the query's (instantiated) input type
    (:func:`related_pair`, drawing from ``rng``); the outputs are then
    compared under the extension at the output type by
    :func:`check_pair`.  Inputs for which no partner exists are
    *skipped*, mirroring the paper's "for any two legal inputs ... if
    H^x(R1, R2) holds".  The check stops at the first witness.  Every
    pair is checked, repeats included.

    This is the one-family check for direct callers; the counterexample
    search (:func:`repro.genericity.witnesses.find_counterexamples`)
    runs the same pair construction and :func:`check_pair` for many
    queries at once, once per distinct pair of a trial.
    """
    rng = rng or random.Random(0)
    if base is None:
        base = next(
            (BaseType(name) for name in family.mappings), BaseType("int")
        )
    in_type = input_type or instantiate_at(query.input_type, base)
    out_type = output_type or instantiate_at(query.output_type, base)
    in_rel = family.extend(in_type, mode)
    out_rel = family.extend(out_type, mode)
    report = InvarianceReport(query_name=query.name, mode=mode)
    for value in inputs:
        pair = related_pair(in_rel, value, mode, rng)
        if pair is None:
            report.pairs_skipped += 1
            continue
        report.pairs_checked += 1
        report.witness = check_pair(query, pair, out_rel, family, mode)
        if report.witness is not None:
            return report
    return report
