"""Property-based tests (hypothesis) for the core invariants.

These encode the paper's algebraic laws as universally quantified
properties over randomly generated mappings, values and plans.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.algebra.fixpoint import transitive_closure
from repro.algebra.operators import projection
from repro.listset.transfer import lemma_4_6_part1, lemma_4_6_part2
from repro.mappings.extensions import ListRel, SetRelExt, SetStrongExt
from repro.mappings.mapping import Mapping
from repro.types.ast import INT
from repro.types.values import CVList, CVSet, Tup, map_atoms

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

atoms = st.integers(min_value=0, max_value=3)
right_atoms = st.integers(min_value=10, max_value=13)

pairs = st.frozensets(st.tuples(atoms, right_atoms), min_size=1, max_size=8)


@st.composite
def mappings(draw):
    return Mapping(draw(pairs), INT, INT)


@st.composite
def second_stage_mappings(draw):
    pair_set = draw(
        st.frozensets(
            st.tuples(right_atoms, st.integers(min_value=20, max_value=23)),
            min_size=1,
            max_size=8,
        )
    )
    return Mapping(pair_set, INT, INT)


small_sets = st.frozensets(atoms, max_size=4).map(CVSet)
right_sets = st.frozensets(right_atoms, max_size=4).map(CVSet)
small_lists = st.lists(atoms, max_size=4).map(CVList)

nested_values = st.recursive(
    atoms,
    lambda children: st.one_of(
        st.frozensets(children, max_size=3).map(CVSet),
        st.lists(children, max_size=3).map(CVList),
        st.tuples(children, children).map(Tup),
    ),
    max_leaves=6,
)


# ---------------------------------------------------------------------------
# Proposition 2.8 and friends
# ---------------------------------------------------------------------------

class TestExtensionLaws:
    @given(mappings(), small_sets, right_sets)
    @settings(max_examples=80)
    def test_inverse_law(self, h, s1, s2):
        # Prop 2.8(iv): {H^-1}^x = ({H}^x)^-1 for both modes.
        for ext in (SetRelExt, SetStrongExt):
            forward = ext(h)
            backward = ext(h.inverse())
            assert forward.holds(s1, s2) == backward.holds(s2, s1)

    @given(mappings(), small_sets, right_sets)
    @settings(max_examples=80)
    def test_strong_implies_rel(self, h, s1, s2):
        if SetStrongExt(h).holds(s1, s2):
            assert SetRelExt(h).holds(s1, s2)

    @given(mappings(), second_stage_mappings(), small_sets)
    @settings(max_examples=60)
    def test_composition_soundness(self, h1, h2, s1):
        # One direction of Prop 2.8(iii): going through a middle set
        # under the member extensions lands in the composed extension.
        composed = SetRelExt(h1.compose(h2))
        rel1, rel2 = SetRelExt(h1), SetRelExt(h2)
        mid_candidates = [CVSet(c) for c in _subsets(h1.codomain())]
        for mid in mid_candidates:
            for s3 in (CVSet(c) for c in _subsets(h2.codomain())):
                if rel1.holds(s1, mid) and rel2.holds(mid, s3):
                    assert composed.holds(s1, s3)

    @given(mappings(), small_sets)
    @settings(max_examples=80)
    def test_strong_image_unique_and_valid(self, h, s1):
        # Prop 2.8(ii): at most one strong image, and it validates.
        strong = SetStrongExt(h)
        images = list(strong.images(s1))
        assert len(images) <= 1
        for image in images:
            assert strong.holds(s1, image)

    @given(mappings(), small_lists)
    @settings(max_examples=80)
    def test_functional_images_give_related_lists(self, h, l1):
        rng = random.Random(0)
        from repro.genericity.invariance import sample_image

        rel = ListRel(h)
        image = sample_image(rel, l1, rng)
        if image is not None:
            assert rel.holds(l1, image)


def _subsets(universe):
    import itertools

    items = sorted(universe, key=repr)
    for size in range(min(len(items), 3) + 1):
        yield from itertools.combinations(items, size)


# ---------------------------------------------------------------------------
# Lemma 4.6 as properties
# ---------------------------------------------------------------------------

class TestListSetTransferLaws:
    @given(mappings(), st.data())
    @settings(max_examples=80)
    def test_lemma_4_6_part1_holds(self, h, data):
        chosen = data.draw(
            st.lists(st.sampled_from(sorted(h.pairs())), max_size=4)
        )
        l1 = CVList(x for x, _ in chosen)
        l2 = CVList(y for _, y in chosen)
        assert lemma_4_6_part1(h, l1, l2)

    @given(mappings(), st.data())
    @settings(max_examples=80)
    def test_lemma_4_6_part2_holds(self, h, data):
        chosen = data.draw(
            st.lists(st.sampled_from(sorted(h.pairs())), max_size=4)
        )
        s1 = CVSet(x for x, _ in chosen)
        s2 = CVSet(y for _, y in chosen)
        if SetRelExt(h).holds(s1, s2):
            assert lemma_4_6_part2(h, s1, s2)


# ---------------------------------------------------------------------------
# Value-level laws
# ---------------------------------------------------------------------------

class TestValueLaws:
    @given(nested_values)
    @settings(max_examples=100)
    def test_map_atoms_identity(self, v):
        assert map_atoms(v, lambda x: x) == v

    @given(nested_values)
    @settings(max_examples=100)
    def test_map_atoms_composition(self, v):
        f = lambda x: x + 1
        g = lambda x: x * 2
        assert map_atoms(map_atoms(v, f), g) == map_atoms(v, lambda x: g(f(x)))

    @given(st.frozensets(st.tuples(atoms, atoms).map(Tup), max_size=6).map(CVSet))
    @settings(max_examples=60)
    def test_transitive_closure_idempotent(self, r):
        tc = transitive_closure()
        once = tc.fn(r)
        assert tc.fn(once) == once
        assert r.issubset(once)

    @given(st.frozensets(st.tuples(atoms, atoms).map(Tup), max_size=6).map(CVSet))
    @settings(max_examples=60)
    def test_projection_commutes_with_functional_maps(self, r):
        # The map(f) commutation of Section 4.4, as a property: for any
        # f, pi_1(map(fxf)(R)) == map(f)(pi_1(R)).
        f = lambda x: x % 2
        pi = projection((0,), 2)
        mapped = CVSet(Tup((f(t[0]), f(t[1]))) for t in r)
        lhs = pi.fn(mapped)
        rhs = CVSet(Tup((f(t[0]),)) for t in pi.fn(r))
        assert lhs == rhs
