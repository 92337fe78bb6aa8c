"""Transferring parametricity from lists to sets (Section 4.2).

* **Lemma 4.6** relates ``toset`` to the ``rel`` set-extension:
  (1) related lists have rel-related ``toset`` images;
  (2) rel-related sets have related list preimages — proved here
  *constructively* by :func:`lists_witness`.
* **Lemma 4.11 / Theorem 4.13**: for an LtoS type, list-side
  relatedness of analogous values transfers to set-side relatedness.
  E-4.13 (:func:`repro.experiments.section4.thm_4_13`) checks the
  transfer on append/union over random ``H``; :func:`lift_to_lists`
  builds the related list values of Lemma 4.9 that the proof goes
  through.
* **Corollary 4.15** becomes the :func:`transfer_parametricity`
  pipeline: given a list value of LtoS type and an analogous set value,
  certify the set value parametric at the related set type.

The checkers are exact on the supplied instances; the experiments run
them over both the paper's witnesses and randomized instance families.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..mappings.extensions import ListRel, SetRelExt
from ..mappings.mapping import Budget, Rel
from ..lambda2.parametricity import ParametricityReport
from ..types.ast import FuncType, ListType, Type, strip_foralls
from ..types.values import CVList, CVSet, Value
from .analogy import analogous
from .typeclasses import is_ltos, to_set_type

__all__ = [
    "lemma_4_6_part1",
    "lemma_4_6_part2",
    "lists_witness",
    "lift_to_lists",
    "transfer_parametricity",
    "TransferReport",
]


def lemma_4_6_part1(h: Rel, l1: CVList, l2: CVList) -> bool:
    """If ``<H>(l1, l2)`` then ``{H}^rel(toset l1, toset l2)``.

    Returns True when the implication holds on this instance (vacuously
    if the premise fails)."""
    list_rel = ListRel(h)
    if not list_rel.holds(l1, l2):
        return True
    set_rel = SetRelExt(h)
    return set_rel.holds(CVSet(l1), CVSet(l2))


def lists_witness(
    h: Rel, s1: CVSet, s2: CVSet
) -> Optional[tuple[CVList, CVList]]:
    """Construct lists ``l1, l2`` with ``toset(l_i) = s_i`` and
    ``<H>(l1, l2)`` — the constructive content of Lemma 4.6(2).

    The construction walks both sides: every element of ``s1`` is paired
    with some partner in ``s2``, then every yet-uncovered element of
    ``s2`` is paired with some partner in ``s1``.  Returns ``None`` when
    the premise ``{H}^rel(s1, s2)`` fails."""
    if not SetRelExt(h).holds(s1, s2):
        return None
    pairs: list[tuple[Value, Value]] = []
    covered_right: set = set()
    for x in sorted(s1, key=repr):
        partner = next(
            (y for y in sorted(s2, key=repr) if h.holds(x, y)), None
        )
        if partner is None:
            return None
        pairs.append((x, partner))
        covered_right.add(partner)
    for y in sorted(s2, key=repr):
        if y in covered_right:
            continue
        partner = next(
            (x for x in sorted(s1, key=repr) if h.holds(x, y)), None
        )
        if partner is None:
            return None
        pairs.append((partner, y))
    l1 = CVList(x for x, _ in pairs)
    l2 = CVList(y for _, y in pairs)
    return l1, l2


def lift_to_lists(
    h: Rel, t_list: Type, v1: Value, v2: Value
) -> Optional[tuple[Value, Value]]:
    """Lemma 4.9, constructively, for arbitrary s-to-l types.

    Given set-side values ``v1, v2`` of the *set* translation of an
    s-to-l type ``t_list`` that are related by the (rel-mode) extension
    of ``h``, build analogous list-side values related by the list
    extension.  Recurses through products and nested sets; function
    components are returned unchanged (an s-to-l type has no list under
    an arrow, so the set and list types coincide there — the paper's
    key observation in the Lemma 4.9 proof sketch).

    Values at a type variable must be related by ``h``, and values at a
    base type equal: a base type takes identity (Section 4.1).  Returns
    ``None`` when the inputs are not actually related.
    """
    from ..types.ast import BaseType, Product, TypeVar

    if isinstance(t_list, TypeVar):
        return (v1, v2) if h.holds(v1, v2) else None
    if isinstance(t_list, BaseType):
        return (v1, v2) if v1 == v2 else None
    if isinstance(t_list, Product):
        lifted = []
        for component, a, b in zip(t_list.components, v1, v2):
            pair = lift_to_lists(h, component, a, b)
            if pair is None:
                return None
            lifted.append(pair)
        from ..types.values import Tup

        return Tup(x for x, _ in lifted), Tup(y for _, y in lifted)
    if isinstance(t_list, ListType):
        # v1, v2 are sets (the set translation); pair their elements the
        # way lists_witness does, recursing element-wise.
        element = t_list.element
        pairs: list[tuple[Value, Value]] = []
        covered_right: set = set()
        for x in sorted(v1, key=repr):
            partner = None
            for y in sorted(v2, key=repr):
                inner = lift_to_lists(h, element, x, y)
                if inner is not None:
                    partner = inner
                    covered_right.add(y)
                    break
            if partner is None:
                return None
            pairs.append(partner)
        for y in sorted(v2, key=repr):
            if y in covered_right:
                continue
            partner = None
            for x in sorted(v1, key=repr):
                inner = lift_to_lists(h, element, x, y)
                if inner is not None:
                    partner = inner
                    break
            if partner is None:
                return None
            pairs.append(partner)
        return (
            CVList(x for x, _ in pairs),
            CVList(y for _, y in pairs),
        )
    if isinstance(t_list, FuncType):
        # s-to-l: no lists under the arrow, so functions transfer as is.
        return v1, v2
    raise TypeError(f"lift_to_lists undefined at {t_list}")


def lemma_4_6_part2(h: Rel, s1: CVSet, s2: CVSet) -> bool:
    """If ``{H}^rel(s1, s2)`` then related lists with those ``toset``
    images exist (checked constructively)."""
    if not SetRelExt(h).holds(s1, s2):
        return True
    witness = lists_witness(h, s1, s2)
    if witness is None:
        return False
    l1, l2 = witness
    return (
        CVSet(l1) == s1
        and CVSet(l2) == s2
        and ListRel(h).holds(l1, l2)
    )


@dataclass
class TransferReport:
    """Outcome of the Corollary 4.15 pipeline for one function."""

    name: str
    list_type: Type
    ltos: bool
    analogy_validated: bool
    set_parametric: bool

    @property
    def transferred(self) -> bool:
        return self.ltos and self.analogy_validated and self.set_parametric

    def __repr__(self) -> str:
        return (
            f"TransferReport({self.name}: LtoS={self.ltos}, "
            f"analogy={self.analogy_validated}, "
            f"set-parametric={self.set_parametric})"
        )


def transfer_parametricity(
    name: str,
    list_value,
    set_value,
    list_type: Type,
    analogy_samples: Sequence[Value],
    budget: Optional[Budget] = None,
) -> TransferReport:
    """Corollary 4.15 as a pipeline.

    1. verify ``list_type`` is LtoS (Def 4.12);
    2. validate the analogy ``list_value -->^{l to s} set_value`` on the
       supplied sample inputs (instantiated at a base type when the
       values are polymorphic);
    3. check the set value parametric at the related set type
       ``T^set`` via the logical relation.
    """
    from ..lambda2.parametricity import check_parametricity
    from ..mappings.function_maps import PolyValue
    from ..types.ast import INT

    ltos = is_ltos(list_type)
    _binders, body = strip_foralls(list_type)

    list_component = (
        list_value[INT] if isinstance(list_value, PolyValue) else list_value
    )
    set_component = (
        set_value[INT] if isinstance(set_value, PolyValue) else set_value
    )
    # Instantiate the body's variables at int for the analogy check.
    from ..types.ast import free_type_vars, substitute

    mono_body = substitute(
        body, {v: INT for v in free_type_vars(body)}
    )
    try:
        analogy_ok = analogous(
            list_component, set_component, mono_body, analogy_samples
        )
    except Exception:
        analogy_ok = False

    set_type = to_set_type(list_type)
    report: ParametricityReport = check_parametricity(
        set_value, set_type, name=f"{name}^set", budget=budget
    )
    return TransferReport(name, list_type, ltos, analogy_ok, report.parametric)
