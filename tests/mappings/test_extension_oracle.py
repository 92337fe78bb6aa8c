"""Differential tests: leaf-tuple relatedness against the pairwise oracle.

``SetRelExt``, ``SetStrongExt``, ``BagRelExt`` and ``BagStrongExt``
decide Definition 2.5 on tuples of leaf values when the inner relation
is a ``Mapping``, an ``IdentityRel`` or a product nested over these,
and memoize maximal sets per instance.
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
from repro.types.values import CVBag, CVSet, Tup, tup

# -- the pairwise oracle ---------------------------------------------------


class OracleSetRel(SetRelExt):
    def holds(self, x, y, budget=None):
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
    def holds(self, x, y, budget=None):
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
#: A second type variable, always taken by :data:`GRAPH`: a leaf whose
#: images cannot be looked up, so products with it stay pairwise.
C = tvar("c")
GRAPH = ConstantGraphRel(lambda v: 10 + v % 2, INT, INT, LEFT)


def leaf_relations(rng):
    """``(name, relation, source carrier, target carrier)`` for every
    kind of base relation the extensions are built over."""
    many = random_mapping(rng, LEFT, RIGHT, density=0.5)
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
        ("graph", GRAPH, LEFT, RIGHT),
        ("inverse-graph", GRAPH.inverse(), RIGHT, LEFT),
    ]


# -- shapes and modes -------------------------------------------------------

#: E-INEXPR's three-level shape: eight leaves.
EIGHT = "{((bxb)x(bxb))x((bxb)x(bxb))}"

SHAPES = {
    "{b}": set_of(A),
    "{bxb}": set_of(product(A, A)),
    "{bxc}": set_of(product(A, C)),
    "{bxbxbxb}": set_of(product(A, A, A, A)),
    "{(bxb)x(bxb)}": set_of(product(product(A, A), product(A, A))),
    EIGHT: set_of(
        product(
            product(product(A, A), product(A, A)),
            product(product(A, A), product(A, A)),
        )
    ),
    "{<b>}": set_of(list_of(A)),
    "{{b}}": set_of(set_of(A)),
    "{bx{b}}": set_of(product(A, set_of(A))),
    "<|b|>": bag_of(A),
}


def one_to_one(rel, carrier):
    """True when each value of ``carrier`` has at most one image under
    ``rel`` and that image at most one preimage."""
    return all(
        len(images) <= 1 and all(len(list(rel.preimages(y))) <= 1 for y in images)
        for images in (list(rel.images(v)) for v in carrier)
    )


def modes(shape, leaf, carrier):
    """Both extension modes, except that on eight leaves the strong mode
    runs only over one-to-one leaves: the strong repair of a tuple
    multiplies its eight leaf closures, which reach thousands of tuples
    for the many-to-many leaves."""
    if shape != EIGHT or one_to_one(leaf, carrier):
        return [REL, STRONG]
    return [REL]


def along(template, leaf, mode):
    """``template`` extended in ``mode``, with ``leaf`` at type variable
    ``a`` and :data:`GRAPH` at ``c``."""
    return extend_along(template, lambda node: {"a": leaf, "c": GRAPH}[node.name], mode)


TIGHT = Budget(max_list_len=1, max_set_size=1, max_pairs=2)
RAISED = "Unenumerable"


def outcome(call):
    """A call's verdict, its images as a set, or ``RAISED``."""
    try:
        result = call()
        return result if isinstance(result, bool) else frozenset(result)
    except Unenumerable:
        return RAISED


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
    t = substitute(template, {"a": INT, "c": INT})
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
            ("holds", lambda r, b: r.holds(x, y, b)),
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
    trials = 2 if shape in ("{bxbxbxb}", "{(bxb)x(bxb)}", EIGHT) else 4
    verdicts = {True: 0, False: 0}
    for leaf_name, leaf, source, target in leaf_relations(rng):
        for mode in modes(shape, leaf, source):
            rel = along(template, leaf, mode)
            oracle = oracle_of(rel)
            pairs = candidate_pairs(oracle, template, mode, source, target, rng, trials)
            found = compare(rel, oracle, pairs, verdicts)
            assert not found, (leaf_name, mode, found[:3])
    # The pairs exercise both verdicts, not just unrelated noise.
    assert verdicts[True] >= 10 and verdicts[False] >= 10, verdicts


def test_oracle_replaces_every_extension_node():
    template = set_of(product(A, bag_of(A)))
    for mode, outer, inner in (
        (REL, OracleSetRel, OracleBagRel),
        (STRONG, OracleSetStrong, OracleBagStrong),
    ):
        oracle = oracle_of(along(template, IdentityRel(INT), mode))
        assert type(oracle) is outer
        assert type(oracle.inner.components[1]) is inner


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

    def holds(self, x, y, budget=None):
        CountingMapping.calls += 1
        return super().holds(x, y, budget)


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
def test_multiplying_images_need_no_pairwise_holds(cls):
    # (0, 0, 0, 0) has 2**4 images, each with one preimage: more values
    # than the 16 holds calls of the pairwise check, yet the leaf walk
    # reads only the leaves' image and preimage sets.
    h = counting({(0, 10), (0, 11)})
    rel = cls(ProductRel((h, h, h, h)))
    r1 = CVSet([tup(0, 0, 0, 0)])
    r2 = CVSet(rel.inner.images(tup(0, 0, 0, 0)))
    assert len(r2) == 16
    assert rel.holds(r1, r2)
    assert not rel.holds(r1, r2.add(tup(10, 10, 10, 12)))
    assert CountingMapping.calls == 0


@pytest.mark.parametrize("cls", [SetRelExt, SetStrongExt])
def test_product_with_an_unindexed_leaf_stays_pairwise(cls):
    # A ConstantGraphRel leaf has no image sets to look up, so a product
    # with one is decided by the pairwise holds loop.
    rel = cls(ProductRel((counting({(0, 10), (1, 11)}), GRAPH)))
    assert rel.holds(CVSet([tup(0, 0), tup(0, 2)]), CVSet([tup(10, 10)]))
    assert CountingMapping.calls > 0


def ill_shaped(e):
    """Elements one step off the shape of the well-shaped tuple ``e``:
    one component more, one fewer, its first component alone, its first
    leaf alone, and, on nested shapes, leaves where tuples belong."""
    leaf = e[0]
    while isinstance(leaf, Tup):
        leaf = leaf[0]
    out = [Tup(e.items + e.items[-1:]), Tup(e.items[:-1]), e[0], leaf]
    if isinstance(e[0], Tup):
        out.append(Tup([leaf] * len(e)))
    return out


def off_shape_pairs(x, y):
    """``(x, y)`` with each ill-shaped variant of an element of either
    side added to that side."""
    out = []
    if x:
        out += [(x.add(bad), y) for bad in ill_shaped(min(x, key=repr))]
    if y:
        out += [(x, y.add(bad)) for bad in ill_shaped(min(y, key=repr))]
    return out


@pytest.mark.parametrize("shape", ["{bxb}", "{(bxb)x(bxb)}", EIGHT])
def test_ill_shaped_elements_have_no_partner(shape):
    template = SHAPES[shape]
    rng = random.Random(f"ill-shaped/{shape}")
    verdicts = {True: 0, False: 0}
    for leaf_name, leaf, source, target in leaf_relations(rng):
        for mode in modes(shape, leaf, source):
            rel = along(template, leaf, mode)
            oracle = oracle_of(rel)
            pairs = [
                pair
                for x, y in candidate_pairs(
                    oracle, template, mode, source, target, rng, 2
                )
                for pair in off_shape_pairs(x, y)
            ]
            found = compare(rel, oracle, pairs, verdicts)
            assert not found, (leaf_name, mode, found[:3])
    assert verdicts[True] == 0 and verdicts[False] >= 100, verdicts


@pytest.mark.parametrize("cls", [SetRelExt, SetStrongExt, BagRelExt, BagStrongExt])
def test_unit_type_agrees_with_the_oracle(cls):
    # The unit type () has no leaf to index, so it, and a product with
    # a unit component, are decided pairwise.
    unit, h = tup(), Mapping({(0, 10), (1, 11)}, INT, INT)
    cases = [
        (ProductRel(()), [unit, unit, tup(0), 0], [unit, unit, tup(10), 10]),
        (
            ProductRel((h, ProductRel(()))),
            [tup(0, unit), tup(1, unit), tup(0)],
            [tup(10, unit), tup(11, unit), 10],
        ),
    ]
    make = CVSet if cls in (SetRelExt, SetStrongExt) else CVBag
    for inner, left, right in cases:
        rel, oracle = cls(inner), ORACLES[cls](inner)
        verdicts = {
            (x, y): oracle.holds(x, y)
            for x in (make(left[:n]) for n in range(len(left) + 1))
            for y in (make(right[:n]) for n in range(len(right) + 1))
        }
        assert {(x, y): rel.holds(x, y) for x, y in verdicts} == verdicts
        assert sum(verdicts.values()) >= 2 and not all(verdicts.values())


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
