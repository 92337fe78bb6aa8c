"""Tests for the Church (Boehm-Berarducci) list encodings."""


from repro.lambda2.church import (
    church_list_type,
    church_nil,
    church_prelude_terms,
    decode_list,
    encode_list,
)
from repro.lambda2.eval import evaluate
from repro.lambda2.typecheck import synthesize
from repro.types.ast import INT, ForAll
from repro.types.values import CVList, cvlist


class TestTypes:
    def test_church_list_type_shape(self):
        t = church_list_type(INT)
        assert str(t) == "forall R. (int -> R -> R) -> R -> R"

    def test_terms_typecheck_at_declared_types(self):
        entries = church_prelude_terms()
        assert set(entries) == {"c_nil", "c_cons", "c_append"}

    def test_nil_synthesizes(self):
        t = synthesize(church_nil())
        assert isinstance(t, ForAll)


class TestSemantics:
    def test_roundtrip(self):
        for items in ([], [1], [1, 2, 3], [2, 2, 2]):
            l = CVList(items)
            assert decode_list(encode_list(l, INT), INT) == l

    def test_nil_decodes_empty(self):
        nil_value = evaluate(church_nil())[INT]
        assert decode_list(nil_value, INT) == cvlist()

    def test_cons_prepends(self):
        entries = church_prelude_terms()
        cons = evaluate(entries["c_cons"][0])[INT]
        tail = encode_list(cvlist(2, 3), INT)
        assert decode_list(cons(1)(tail), INT) == cvlist(1, 2, 3)

    def test_append_agrees_with_native(self):
        from repro.lambda2.prelude import build_prelude
        from repro.types.values import Tup

        entries = church_prelude_terms()
        church = evaluate(entries["c_append"][0])[INT]
        native = build_prelude().value("append")[INT]
        for xs, ys in [
            (cvlist(), cvlist()),
            (cvlist(1), cvlist(2, 3)),
            (cvlist(0, 0), cvlist(0)),
        ]:
            church_out = decode_list(
                church(encode_list(xs, INT))(encode_list(ys, INT)), INT
            )
            assert church_out == native(Tup((xs, ys)))

    def test_fold_is_type_application(self):
        # The encoding IS its own eliminator: instantiating at int and
        # supplying plus/0 computes the sum.
        enc = encode_list(cvlist(1, 2, 3), INT)
        component = enc.instantiate(INT)
        total = component(lambda h: lambda acc: h + acc)(0)
        assert total == 6

    def test_append_with_nil_is_the_identity(self):
        entries = church_prelude_terms()
        append = evaluate(entries["c_append"][0])[INT]
        nil = evaluate(church_nil())[INT]
        xs = encode_list(cvlist(1, 2, 2), INT)
        assert decode_list(append(nil)(xs), INT) == cvlist(1, 2, 2)
        assert decode_list(append(xs)(nil), INT) == cvlist(1, 2, 2)

    def test_encoding_works_at_any_element_type(self):
        from repro.types.ast import STR

        l = cvlist("b", "a", "b")
        assert decode_list(encode_list(l, STR), STR) == l
