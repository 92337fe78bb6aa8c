"""Differential tests: image-based relatedness against the pairwise oracle.

``SetRelExt``, ``SetStrongExt``, ``BagRelExt`` and ``BagStrongExt``
decide Definition 2.5 from the inner relation's images and preimages
when those are cheap to count, and memoize maximal sets per instance.
The oracle below is the plain definition: the pairwise
:func:`~repro.mappings.extensions._rel_condition` plus the Def 2.5(2)
maximality check, recomputed on every call.  Both are built over the
same random leaf relations and compared on ``holds``, ``images`` and
``preimages`` — including whether a call raises :class:`Unenumerable`
under a tight :class:`Budget` — at every listed type shape.
"""

from __future__ import annotations

import random

import pytest

from repro.genericity.invariance import sample_image, strong_repair
from repro.mappings.extensions import (
    REL,
    STRONG,
    BagRelExt,
    BagStrongExt,
    ListRel,
    ProductRel,
    SetRelExt,
    SetStrongExt,
    _rel_condition,
    extend_along,
)
from repro.mappings.generators import (
    random_functional_mapping,
    random_injective_mapping,
    random_mapping,
    random_value,
)
from repro.mappings.mapping import (
    Budget,
    ConstantGraphRel,
    IdentityRel,
    Mapping,
    Unenumerable,
)
from repro.types.ast import (
    INT,
    bag_of,
    list_of,
    product,
    set_of,
    substitute,
    tvar,
)
from repro.types.values import CVBag, CVSet, tup

# -- the pairwise oracle ---------------------------------------------------


class OracleSetRel(SetRelExt):
    def holds(self, x, y):
        if not (isinstance(x, CVSet) and isinstance(y, CVSet)):
            return False
        return _rel_condition(self.inner, x, y)


class OracleSetStrong(SetStrongExt):
    def maximal_image(self, r1, budget=None):
        out: set = set()
        for x in r1:
            out.update(self.inner.images(x, budget))
        return CVSet(out)

    def maximal_preimage(self, r2, budget=None):
        out: set = set()
        for y in r2:
            out.update(self.inner.preimages(y, budget))
        return CVSet(out)

    def holds(self, x, y, budget=None):
        if not (isinstance(x, CVSet) and isinstance(y, CVSet)):
            return False
        if not _rel_condition(self.inner, x, y):
            return False
        return (
            self.maximal_preimage(y, budget) == x
            and self.maximal_image(x, budget) == y
        )

    def images(self, x, budget=None):
        if not isinstance(x, CVSet):
            return
        candidate = self.maximal_image(x, budget)
        if self.holds(x, candidate, budget):
            yield candidate

    def preimages(self, y, budget=None):
        if not isinstance(y, CVSet):
            return
        candidate = self.maximal_preimage(y, budget)
        if self.holds(candidate, y, budget):
            yield candidate


class OracleBagRel(BagRelExt):
    def holds(self, x, y):
        if not (isinstance(x, CVBag) and isinstance(y, CVBag)):
            return False
        return _rel_condition(self.inner, CVSet(x.support()), CVSet(y.support()))


class OracleBagStrong(BagStrongExt):
    def holds(self, x, y, budget=None):
        if not (isinstance(x, CVBag) and isinstance(y, CVBag)):
            return False
        strong = OracleSetStrong(self.inner)
        if not strong.holds(CVSet(x.support()), CVSet(y.support()), budget):
            return False
        return len(x) == len(y)


ORACLES = {
    SetRelExt: OracleSetRel,
    SetStrongExt: OracleSetStrong,
    BagRelExt: OracleBagRel,
    BagStrongExt: OracleBagStrong,
}


def oracle_of(rel):
    """The same extension tree with every set and bag node replaced by
    its pairwise oracle."""
    if isinstance(rel, ProductRel):
        return ProductRel(tuple(oracle_of(c) for c in rel.components))
    if isinstance(rel, ListRel):
        return ListRel(oracle_of(rel.inner))
    if type(rel) in ORACLES:
        return ORACLES[type(rel)](oracle_of(rel.inner))
    return rel


# -- random leaf relations -------------------------------------------------

LEFT = [0, 1, 2]
RIGHT = [10, 11, 12]
A = tvar("a")


def leaf_relations(rng):
    """``(name, relation, source carrier, target carrier)`` for every
    kind of base relation the extensions are built over."""
    many = random_mapping(rng, LEFT, RIGHT, density=0.5)
    graph = ConstantGraphRel(lambda v: 10 + v % 2, INT, INT, LEFT)
    return [
        ("functional", random_functional_mapping(rng, LEFT, RIGHT), LEFT, RIGHT),
        (
            "partial-functional",
            random_functional_mapping(rng, LEFT, RIGHT, total=False),
            LEFT,
            RIGHT,
        ),
        ("injective", random_injective_mapping(rng, LEFT, RIGHT), LEFT, RIGHT),
        ("many-to-many", many, LEFT, RIGHT),
        (
            "partial",
            random_mapping(rng, LEFT + [3, 4], RIGHT + [13], density=0.25),
            LEFT + [3, 4],
            RIGHT + [13],
        ),
        ("inverse-mapping", many.inverse(), RIGHT, LEFT),
        ("identity", IdentityRel(INT), LEFT, LEFT),
        ("identity-carrier", IdentityRel(INT, carrier=[0, 1]), LEFT, LEFT),
        ("graph", graph, LEFT, RIGHT),
        ("inverse-graph", graph.inverse(), RIGHT, LEFT),
    ]


# -- shapes and labelings --------------------------------------------------

SHAPES = {
    "{b}": set_of(A),
    "{bxb}": set_of(product(A, A)),
    "{bxbxbxb}": set_of(product(A, A, A, A)),
    "{(bxb)x(bxb)}": set_of(product(product(A, A), product(A, A))),
    "{<b>}": set_of(list_of(A)),
    "{{b}}": set_of(set_of(A)),
    "{bx{b}}": set_of(product(A, set_of(A))),
    "<|b|>": bag_of(A),
}

MIXED = ({0: STRONG, 1: REL}, {0: REL, 1: STRONG})


def labelings(shape):
    """``(label, mode, node_modes)``: both uniform modes, and both mixed
    labelings on shapes with two set nodes."""
    out = [(REL, REL, None), (STRONG, STRONG, None)]
    if shape in ("{{b}}", "{bx{b}}"):
        for node_modes in MIXED:
            label = "/".join(node_modes[i] for i in (0, 1))
            out.append((label, REL, node_modes))
    return out


TIGHT = Budget(max_list_len=1, max_set_size=1, max_pairs=2)
RAISED = "Unenumerable"


def outcome(call):
    """A call's verdict, its images as a set, or ``RAISED``."""
    try:
        result = call()
        return result if isinstance(result, bool) else frozenset(result)
    except Unenumerable:
        return RAISED


def holds_under(rel, x, y, budget):
    if isinstance(rel, (SetStrongExt, BagStrongExt)):
        return rel.holds(x, y, budget)
    return rel.holds(x, y)


def neighbours(v, rng, element_type, carrier):
    """``v`` with one element dropped and with one random element added."""
    out = []
    items = sorted(v, key=repr)
    domains = {"int": carrier}
    extra = random_value(rng, element_type, domains, max_collection=2)
    if isinstance(v, CVSet):
        if items:
            out.append(CVSet(items[1:]))
        out.append(CVSet(items + [extra]))
    elif isinstance(v, CVBag):
        if items:
            out.append(CVBag(items[1:]))
        out.append(CVBag(items + [extra]))
    return out


#: Pairs with more than this many ``|x|*|y|`` cells are dropped: the
#: oracle makes that many ``holds`` calls per check, and strong closures
#: of 4-tuples saturate at 81 elements a side.
MAX_CELLS = 1600


def candidate_pairs(oracle, template, mode, source, target, rng, trials):
    """Random pairs, pairs related by the oracle, and near misses.

    ``sample_image`` draws partners in set iteration order, which for
    sets of sets and of lists follows the string hash seed, so those
    shapes see different pairs under different ``PYTHONHASHSEED``s.
    Every draw must agree with the oracle all the same.
    """
    t = substitute(template, {"a": INT})
    element = t.element
    pairs = []
    for _ in range(trials):
        x = random_value(rng, t, {"int": source}, max_collection=3)
        pairs.append((x, random_value(rng, t, {"int": target}, max_collection=3)))
        try:
            if mode == STRONG:
                x = strong_repair(oracle, x)
            y = None if x is None else sample_image(oracle, x, rng)
        except Unenumerable:
            y = None
        if y is None:
            continue
        pairs.append((x, y))
        pairs.extend((x, y2) for y2 in neighbours(y, rng, element, target))
        pairs.extend((x2, y) for x2 in neighbours(x, rng, element, source))
    return [(x, y) for x, y in pairs if len(x) * len(y) <= MAX_CELLS]


def affordable(rel, v, forward):
    """False when ``SetRelExt`` would enumerate too many unions of
    element images (it lists every nonempty subset of each) for the
    images of ``v`` to be compared in a unit test."""
    if not (isinstance(rel, SetRelExt) and isinstance(v, CVSet)):
        return True
    total = 1
    for item in v:
        try:
            found = rel.inner.images(item) if forward else rel.inner.preimages(item)
            count = sum(1 for _ in found)
        except Unenumerable:
            return False
        total *= max(2**count - 1, 1)
        if total > 512:
            return False
    return True


def compare(rel, oracle, pairs, verdicts):
    """Every call on which ``rel`` and ``oracle`` differ.

    ``rel`` is called under the default budget, a tight one, then the
    default again, so that maximal sets memoized under one budget are
    looked up under the others; the oracle keeps no memo and is called
    once per budget.  Tallies the oracle's default verdicts.
    """
    found = []
    for x, y in pairs:
        calls = [
            ("holds", lambda r, b: holds_under(r, x, y, b)),
        ]
        if affordable(oracle, x, True):
            calls.append(("images", lambda r, b: r.images(x, b)))
        if affordable(oracle, y, False):
            calls.append(("preimages", lambda r, b: r.preimages(y, b)))
        for name, call in calls:
            want = {b: outcome(lambda: call(oracle, b)) for b in (None, TIGHT)}
            for budget in (None, TIGHT, None):
                got = outcome(lambda: call(rel, budget))
                if got != want[budget]:
                    found.append((name, budget, x, y, got, want[budget]))
            if name == "holds":
                verdicts[want[None]] += 1
    return found


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_extensions_agree_with_pairwise_oracle(shape):
    template = SHAPES[shape]
    rng = random.Random(f"oracle/{shape}")
    trials = 2 if shape in ("{bxbxbxb}", "{(bxb)x(bxb)}") else 4
    verdicts = {True: 0, False: 0}
    for leaf_name, leaf, source, target in leaf_relations(rng):
        for label, mode, node_modes in labelings(shape):
            rel = extend_along(template, {"a": leaf}, mode, node_modes)
            oracle = oracle_of(rel)
            pairs = candidate_pairs(
                oracle, template, mode if node_modes is None else node_modes[0],
                source, target, rng, trials,
            )
            found = compare(rel, oracle, pairs, verdicts)
            assert not found, (leaf_name, label, found[:3])
    # The pairs exercise both verdicts, not just unrelated noise.
    assert verdicts[True] >= 10 and verdicts[False] >= 10, verdicts


def test_oracle_replaces_every_extension_node():
    rel = extend_along(
        set_of(product(A, set_of(A))), {"a": IdentityRel(INT)}, STRONG,
        {1: REL},
    )
    oracle = oracle_of(rel)
    assert type(oracle) is OracleSetStrong
    assert type(oracle.inner.components[1]) is OracleSetRel


# -- base relations: images agree with holds -------------------------------

UNIVERSE = LEFT + RIGHT + [3, 4, 13, 99]


@pytest.mark.parametrize("seed", range(5))
def test_base_images_match_holds_on_finite_carriers(seed):
    """The image path relies on ``images``/``preimages`` enumerating
    exactly the partners ``holds`` accepts."""
    rng = random.Random(seed)
    for name, rel, _, _ in leaf_relations(rng):
        for v in UNIVERSE:
            assert set(rel.images(v)) == {
                y for y in UNIVERSE if rel.holds(v, y)
            }, (name, v)
            assert set(rel.preimages(v)) == {
                x for x in UNIVERSE if rel.holds(x, v)
            }, (name, v)


# -- which path runs -------------------------------------------------------


class CountingMapping(Mapping):
    calls = 0

    def holds(self, x, y):
        CountingMapping.calls += 1
        return super().holds(x, y)


def counting(pairs):
    CountingMapping.calls = 0
    return CountingMapping(pairs, INT, INT)


@pytest.mark.parametrize("cls", [SetRelExt, SetStrongExt])
def test_cheap_images_skip_pairwise_holds(cls):
    rel = cls(counting({(1, 10), (2, 11), (3, 11)}))
    assert rel.holds(CVSet([1, 2, 3]), CVSet([10, 11]))
    assert not rel.holds(CVSet([1, 2]), CVSet([10, 12]))
    assert CountingMapping.calls == 0


@pytest.mark.parametrize("cls", [SetRelExt, SetStrongExt])
def test_multiplying_images_fall_back_to_pairwise(cls):
    # (0, 0, 0, 0) has 2**4 images, each with one preimage: 32 values to
    # enumerate, more than the 16 holds calls of the pairwise check.
    h = counting({(0, 10), (0, 11)})
    rel = cls(ProductRel((h, h, h, h)))
    r1 = CVSet([tup(0, 0, 0, 0)])
    r2 = CVSet(rel.inner.images(tup(0, 0, 0, 0)))
    assert len(r2) == 16
    assert rel.holds(r1, r2)
    assert CountingMapping.calls > 0


def test_strong_memo_is_keyed_on_budget():
    inner = SetRelExt(Mapping({(0, 10), (0, 11), (0, 12), (1, 11)}, INT, INT))
    rel = SetStrongExt(inner)
    x = CVSet([CVSet([0, 1])])
    assert len(rel.maximal_image(x)) > TIGHT.max_pairs
    for _ in range(2):
        with pytest.raises(Unenumerable):
            rel.maximal_image(x, TIGHT)
    assert rel.maximal_image(x) == rel.maximal_image(x, Budget())


def test_strong_images_over_enumerated_inner_check_the_cover_first():
    # {5} has no image, so {{0}, {5}} has no strong image.  The pairwise
    # cover check says so before the maximal preimage of {{10}} is
    # enumerated, which would exceed the tight budget (7 sets map onto
    # {10}); the image path is only taken for cheaply counted inners.
    rel = SetStrongExt(SetRelExt(Mapping({(0, 10), (1, 10), (2, 10)}, INT, INT)))
    x = CVSet([CVSet([0]), CVSet([5])])
    assert rel.maximal_image(x, TIGHT) == CVSet([CVSet([10])])
    with pytest.raises(Unenumerable):
        rel.maximal_preimage(rel.maximal_image(x, TIGHT), TIGHT)
    assert list(rel.images(x, TIGHT)) == []
    assert list(oracle_of(rel).images(x, TIGHT)) == []


def test_bag_strong_reuses_one_set_extension():
    rel = BagStrongExt(Mapping({(1, 10), (2, 10)}, INT, INT))
    memo_owner = rel._supports
    assert rel.holds(CVBag([1, 2]), CVBag([10, 10]))
    assert not rel.holds(CVBag([1]), CVBag([10]))
    assert rel._supports is memo_owner
