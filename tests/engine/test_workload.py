"""Tests for the synthetic workload generators."""

import random


from repro.engine.workload import (
    deep_chain_plan,
    derive_rng,
    hr_database,
    paper_h_pairs,
    paper_r1,
    paper_r2,
    paper_r3,
    random_atom_database,
    random_database,
    random_nested_database,
)
from repro.mappings.extensions import REL, STRONG
from repro.mappings.families import MappingFamily
from repro.mappings.mapping import Mapping
from repro.optimizer.constraints import check_key_on_instance
from repro.types.ast import STR, set_of
from repro.types.values import Tup, cvset, tup


class TestPaperInstances:
    def test_r1_contents(self):
        assert len(paper_r1()) == 6
        assert tup("e", "f") in paper_r1()

    def test_r3_is_r1_minus_three(self):
        removed = cvset(tup("e", "f"), tup("i", "f"), tup("j", "g"))
        assert paper_r3() == paper_r1().difference(removed)

    def test_h_is_strong_hom_r1_r2_only(self):
        fam = MappingFamily({"str": Mapping(paper_h_pairs(), STR, STR)})
        t = set_of(STR * STR)
        assert fam.extend(t, STRONG).holds(paper_r1(), paper_r2())
        assert fam.extend(t, REL).holds(paper_r3(), paper_r2())
        assert not fam.extend(t, STRONG).holds(paper_r3(), paper_r2())


class TestHRDatabase:
    def test_shared_key_holds_on_union(self):
        db = hr_database(random.Random(0), employees=20, students=15,
                         overlap=7)
        union = db["employees"].union(db["students"])
        assert check_key_on_instance(union, (0,))

    def test_overlap_produces_shared_tuples(self):
        db = hr_database(random.Random(0), employees=10, students=10,
                         overlap=5)
        shared = db["employees"].intersection(db["students"])
        assert len(shared) == 5

    def test_schema_declared(self):
        db = hr_database(random.Random(0), employees=5, students=5)
        assert db.catalog.key_for("employees", (0,))
        assert db.catalog.shared_key_group("students", (0,)) == "ssn"
        assert db.catalog.shared_key_group("contractors", (0,)) is None


class TestRandomDatabase:
    def test_shape(self):
        dbs = random_database(random.Random(0), ("R", "S"), arity=3)
        assert set(dbs) == {"R", "S"}
        for rel in dbs.values():
            assert all(len(t) == 3 for t in rel)

    def test_deterministic_under_seed(self):
        a = random_database(random.Random(5), ("R",))
        b = random_database(random.Random(5), ("R",))
        assert a == b

    def test_rows_stay_inside_the_bounds(self):
        dbs = random_database(random.Random(1), ("R",), domain_size=3, max_rows=4)
        assert len(dbs["R"]) <= 4
        assert all(0 <= v < 3 for t in dbs["R"] for v in t)


class TestDeriveRng:
    def test_reproduces_the_joined_string_seed(self):
        a = derive_rng(0, 3, "deep")
        b = random.Random("0/3/deep")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_distinct_paths_give_distinct_streams(self):
        draws = {derive_rng(0, i).random() for i in range(10)}
        assert len(draws) == 10


class TestDeepChainPlan:
    def test_depth_counts_unary_links_over_one_scan(self):
        from repro.optimizer.plan import Scan

        plan = deep_chain_plan(random.Random(0), "R", 25)
        links = 0
        while not isinstance(plan, Scan):
            plan = plan.child
            links += 1
        assert links == 25
        assert plan.relation == "R"

    def test_every_link_keeps_the_base_arity(self):
        from repro.optimizer.constraints import Catalog, RelationInfo
        from repro.optimizer.schema_infer import infer_arity

        catalog = Catalog([RelationInfo("R", 3)])
        plan = deep_chain_plan(random.Random(2), "R", 40, base_arity=3)
        assert infer_arity(plan, catalog) == 3


class TestAtomAndNestedDatabases:
    def test_atom_relations_hold_bare_atoms(self):
        dbs = random_atom_database(random.Random(0), ("A", "B"), domain_size=6)
        atoms = {0, 1, 2, "a0", "a1", "a2"}
        assert set(dbs) == {"A", "B"}
        for rel in dbs.values():
            assert set(rel) <= atoms

    def test_nested_relations_are_tuples_of_the_arity(self):
        dbs = random_nested_database(random.Random(0), ("N",), arity=3)
        assert all(isinstance(t, Tup) and len(t) == 3 for t in dbs["N"])
        again = random_nested_database(random.Random(0), ("N",), arity=3)
        assert dbs == again
