import hashlib
import random
import sys
from fractions import Fraction as F
from itertools import combinations

import pytest
from echelon_oracle import EchelonReducer, l3_oracle, l4_oracle, straighten

from cassoc import groebner, linalg, pentagon, verify
from cassoc.cbh import ModelElement
from cassoc.exact import clear_denominators
from cassoc.hexagon import AlphaTable, family_I, family_II, family_III
from cassoc.linalg import rref
from cassoc.pentagon import (
    _PENTAGON,
    _in_span,
    L3_MODEL,
    L4_MODEL,
    QuotientReducer,
    _l4_relations,
    _monomials,
    claim_53_span_checks,
    dimension_report,
    identity_suite,
    l3_reducer,
    l4_reducer,
    pentagon_check,
    pentagon_columns,
    pentagon_residual,
    phi_bar_eval,
)
from cassoc.series import QQ, BiSeries


@pytest.fixture(scope="module")
def red():
    return l4_reducer()


def letters():
    return [L4_MODEL.letter(i) for i in range(6)]


def test_defining_relations_reduce_to_zero(red):
    m = L4_MODEL
    a, b, c, d, e, v = letters()
    assert red.is_zero(m.bracket(a, e))
    assert red.is_zero(m.bracket(b, v))
    assert red.is_zero(m.bracket(c, d))
    assert red.is_zero(m.sub(m.bracket(a, b), m.bracket(b, c)))
    assert red.is_zero(m.sub(m.bracket(a, b), m.bracket(c, a)))
    assert not red.is_zero(m.bracket(a, b))


def test_long_commutator_examples(red):
    m = L4_MODEL
    a, b, c, d, e, v = letters()
    x = m.bracket(a, b)
    assert red.is_zero(m.long_commutator([a, e]))
    summed = m.add(m.add(m.bracket(d, x), m.bracket(e, x)), m.bracket(v, x))
    assert red.is_zero(summed)
    with pytest.raises(ValueError):
        m.long_commutator([a])


def test_jacobi_in_free_model():
    # X, Y, Z each a linear form plus commutators, so the sum is nonzero term by
    # term and vanishes only once straightened
    m = L4_MODEL
    rng = random.Random(7)

    def rand_elem(deg):
        el = m.combo({s: rng.randint(-3, 3) for s in range(6)})
        for _ in range(3):
            w = [rng.randrange(6) for _ in range(deg)]
            el = m.add(el, m.scale(m.long_commutator(w), F(rng.randint(-5, 5), rng.randint(1, 4))))
        return el

    for _ in range(10):
        X, Y, Z = rand_elem(2), rand_elem(2), rand_elem(3)
        jac = m.add(
            m.add(m.bracket(X, m.bracket(Y, Z)), m.bracket(Y, m.bracket(Z, X))),
            m.bracket(Z, m.bracket(X, Y)),
        )
        assert not jac[0] and jac[1] and straighten(jac[1]) == {}
        assert QuotientReducer(m, []).reduce(jac) == {}


def _free_elements(m, rng):
    """Seeded right- and left-nested long commutators of letter degree 2..9,
    and the ladder brackets [u^k w^l u w] of letter degree up to 9: the
    substituted pentagon's in L4, random linear forms in L3."""
    elems = [_random_element(rng, degree, m=m) for degree in range(2, 10)]
    for degree in range(2, 10):
        word = [rng.randrange(m.n) for _ in range(degree)]
        left = m.letter(word[0])
        for s in word[1:]:
            left = m.bracket(left, m.letter(s))
        elems.append(left)
    if m is L4_MODEL:
        elems += [br for _, u, w in _PENTAGON for br in pentagon._ladder(u, w, 9).values()]
    else:
        u, w = (m.combo({s: rng.randint(-3, 3) for s in range(m.n)}) for _ in range(2))
        elems += [m.ad(w, l, m.ad(u, k, m.bracket(u, w))) for k in range(8) for l in range(8 - k)]
    return elems


def test_free_reducer_is_the_straightening():
    # the Jacobi vectors alone reduce any element to its straightened keys
    m = L3_MODEL
    a, b, c = (m.letter(i) for i in range(3))
    assert m.bracket(a, m.bracket(c, b)) == ({}, {(2, 1, (1, 0, 0)): 1})
    assert straighten({(2, 1, (1, 0, 0)): 1}) == {(1, 0, (0, 0, 1)): -1, (2, 0, (0, 1, 0)): 1}
    rng = random.Random(29)
    for m in (L3_MODEL, L4_MODEL):
        free = QuotientReducer(m, [])
        for elem in _free_elements(m, rng):
            want: dict = {}
            for key, c in straighten(elem[1]).items():
                want.setdefault(sum(key[2]) + 2, {})[key] = c
            assert free.reduce(elem) == want


def test_reduce_is_linear_and_idempotent(red):
    m = L4_MODEL
    rng = random.Random(13)

    def rand_elem(deg):
        el = m.zero()
        for _ in range(4):
            w = [rng.randrange(6) for _ in range(deg)]
            el = m.add(el, m.scale(m.long_commutator(w), F(rng.randint(-5, 5), rng.randint(1, 4))))
        return el

    e1, e2 = rand_elem(4), rand_elem(4)
    r1 = red.reduce(e1)
    r2 = red.reduce(e2)
    r12 = red.reduce(m.add(e1, e2))
    for d in set(r1) | set(r2) | set(r12):
        total = dict(r1.get(d, {}))
        for key, c in r2.get(d, {}).items():
            total[key] = total.get(key, F(0)) + c
            if not total[key]:
                del total[key]
        assert total == r12.get(d, {})
    # idempotence: a reduced representative reduces to itself
    coords = red.reduce(e1).get(4, {})
    lifted = ({}, dict(coords))
    assert red.reduce(lifted).get(4, {}) == coords


def test_rewrite_identities_sample(red):
    m = L4_MODEL
    a, b, c, d, e, v = letters()
    x = m.bracket(a, b)
    y = m.bracket(a, d)
    adx = m.bracket(a, m.bracket(d, x))
    edx = m.bracket(e, m.bracket(d, x))
    assert red.is_zero(m.sub(adx, edx))
    for k in range(0, 4):
        for l in range(0, 4):
            dk_el_y = m.mono_mult(y, {"d": k, "e": l})
            dk_el_x = m.mono_mult(x, {"d": k, "e": l})
            if l >= 1:
                assert red.is_zero(m.add(dk_el_y, dk_el_x)), (k, l)


def test_bplusd_power_identity(red):
    m = L4_MODEL
    a, b, c, d, e, v = letters()
    x = m.bracket(a, b)
    b_plus_d = m.combo({"b": 1, "d": 1})
    neg_de = m.combo({"d": -1, "e": -1})
    neg_e = m.combo({"e": -1})

    def kpow(el, k, base):
        out = base
        for _ in range(k):
            out = m.bracket(el, out)
        return out

    for k in range(0, 5):
        lhs = kpow(b_plus_d, k, x)
        rhs = m.add(m.sub(kpow(b, k, x), kpow(neg_de, k, x)), kpow(neg_e, k, x))
        assert red.is_zero(m.sub(lhs, rhs)), k


def test_identity_suite_small(red):
    items = identity_suite(2, 2)
    for name, elem in items:
        assert red.is_zero(elem), name


def test_claim_53_spans():
    assert claim_53_span_checks()


def test_claim_53_span_test_can_fail(red):
    # [d, x] is not simple: outside the span of the eight simple generators,
    # inside that of [d, x], [e, x]; the ranks are 8, 9 and 10 = dimension(3)
    m = L4_MODEL
    a, b, c, d, e, _ = (m.letter(i) for i in range(6))
    x, y, z, u = pentagon._xyzu()
    simple = [
        m.bracket(a, x), m.bracket(b, x), m.bracket(a, y), m.bracket(d, y),
        m.bracket(b, z), m.bracket(e, z), m.bracket(c, u), m.bracket(e, u),
    ]
    dx, ex = m.bracket(d, x), m.bracket(e, x)
    assert not _in_span(red, dx, simple)
    assert _in_span(red, dx, [dx, ex]) and _in_span(red, ex, [dx, ex])
    assert _in_span(red, simple[3], simple)

    def rank(elems):
        cols = [red.reduce(g).get(3, {}) for g in elems]
        keys = sorted({k for col in cols for k in col})
        return len(rref([[col.get(k, 0) for col in cols] for k in keys])[1])

    assert [rank(simple), rank(simple + [dx]), rank(simple + [dx, ex])] == [8, 9, 10]
    assert red.dimension(3) == 10


def test_phi_bar_eval_degenerate():
    m = L4_MODEL
    tab = AlphaTable({(0, 0): F(1)}, 4)
    assert phi_bar_eval(tab, {"a": F(1)}, {}, 6) == m.zero()
    got = phi_bar_eval(tab, {"a": F(1)}, {"b": F(1)}, 6)
    assert got[1] == m.bracket(m.letter("a"), m.letter("b"))[1]


def test_pentagon_symmetric_families(red):
    alpha = AlphaTable.from_series(family_I(6))
    norms = pentagon_check(alpha, 8)
    assert set(norms) == set(range(2, 9))
    assert not any(norms.values())
    only00 = AlphaTable({(0, 0): F(3, 7)}, 4)
    assert not any(pentagon_check(only00, 6).values())


def test_pentagon_asymmetric_detected(red):
    bad = AlphaTable({(0, 1): F(1)}, 4)
    norms = pentagon_check(bad, 6)
    assert any(norms.values())
    residual = pentagon_residual(bad, 6)
    assert straighten(residual[1]) and l4_oracle().reduce(residual)


def test_every_single_pair_asymmetry_is_detected(red):
    for k in range(0, 4):
        for l in range(k + 1, 5 - k):
            tab = AlphaTable({(k, l): F(1)}, 4)
            assert any(pentagon_check(tab, 6).values()), (k, l)


def test_l3_dimensions_match_model():
    report = dimension_report(10, "L3bar")
    assert report[1] == {"dimension": 3, "reference": 3}
    assert report[2] == {"dimension": 1, "reference": 1}
    assert report[5] == {"dimension": 4, "reference": 4}
    for d, entry in report.items():
        assert entry["dimension"] == entry["reference"]


def test_l4_dimensions_bound():
    report = dimension_report(10, "L4bar")
    assert report[1]["dimension"] == 6
    assert report[2]["dimension"] == 4
    for d in range(3, 11):
        assert report[d]["dimension"] == 5 * (d - 1)


def test_relation_rows_match_bracket_chains():
    rels = _l4_relations()
    for degree in range(2, 8):
        rows = list(l4_oracle()._relation_rows(degree))
        expected = [
            straighten(L4_MODEL.mono_mult(rel, {s: e for s, e in enumerate(mono) if e})[1])
            for mono in _monomials(6, degree - 2)
            for rel in rels
        ]
        assert rows == expected, degree


def test_pivot_rows_are_integral_and_monic():
    oracle = l4_oracle()
    for d in range(2, 11):
        oracle._build(d)
        for col, row in oracle._rows[d].items():
            assert min(row) == col and row[col] == 1
            assert all(type(v) is int for v in row.values())


def test_reducer_with_non_unit_pivots():
    m = L3_MODEL
    a, b, c = (m.letter(i) for i in range(3))
    rels = [m.sub(m.scale(m.bracket(a, b), 2), m.bracket(b, c)), m.sub(m.bracket(b, c), m.bracket(c, a))]
    red, oracle = QuotientReducer(m, rels), EchelonReducer(m, rels)
    for d in range(2, 7):
        keys = m.basis_keys(d)
        multiples = [
            m.mono_mult(rel, {s: e for s, e in enumerate(mono) if e})
            for mono in _monomials(3, d - 2)
            for rel in rels
        ]
        _, pivots = rref([[straighten(elem[1]).get(k, F(0)) for k in keys] for elem in multiples])
        assert red.dimension(d) == len(keys) - len(pivots) == oracle.echelon_dimension(d) == d - 1
        for elem in multiples:
            assert red.is_zero(elem) and oracle.is_zero(elem)
        assert any(v.denominator > 1 for row in oracle._rows[d].values() for v in row.values())
    coords = red.reduce(m.bracket(a, m.bracket(a, b)))[3]
    assert coords and all(type(v) is F for v in coords.values())


def _non_unit_l3_relations():
    m = L3_MODEL
    a, b, c = (m.letter(i) for i in range(3))
    return [m.sub(m.scale(m.bracket(a, b), 2), m.bracket(b, c)), m.sub(m.bracket(b, c), m.bracket(c, a))]


def test_groebner_dimensions_match_the_echelon():
    for red, oracle in ((l4_reducer(), l4_oracle()), (l3_reducer(), l3_oracle())):
        for d in range(2, 11):
            assert red.dimension(d) == oracle.echelon_dimension(d), (red.model.n, d)
    red, oracle = (cls(L3_MODEL, _non_unit_l3_relations()) for cls in (QuotientReducer, EchelonReducer))
    assert [red.dimension(d) for d in range(2, 11)] == [oracle.echelon_dimension(d) for d in range(2, 11)]


def test_groebner_dimensions_match_the_echelon_with_one_relation_dropped():
    rels = _l4_relations()
    for drop in range(len(rels)):
        kept = rels[:drop] + rels[drop + 1:]
        red, oracle = QuotientReducer(L4_MODEL, kept), EchelonReducer(L4_MODEL, kept)
        dims = [red.dimension(d) for d in range(2, 8)]
        assert dims == ([5, 12, 18, 24, 30, 36] if drop < 3 else [5, 13, 21, 30, 40, 51]), drop
        assert dims == [oracle.echelon_dimension(d) for d in range(2, 8)], drop


def test_groebner_basis_certificate():
    # Buchberger's criterion: every S-vector of two leads in one component reduces to zero
    reducers = [
        QuotientReducer(L4_MODEL, _l4_relations()),
        QuotientReducer(L3_MODEL, pentagon._l3_relations()),
        QuotientReducer(L3_MODEL, _non_unit_l3_relations()),
    ]
    for red in reducers:
        basis, _ = red.relation_module()
        assert all(g[max(g)] == 1 for g in basis)
        normal_form = groebner.NormalForm(basis)
        for f, g in combinations(basis, 2):
            if max(f)[1] == max(g)[1]:
                assert normal_form(groebner.s_vector(f, g)) == {}
        # every generator lies in the module the basis generates
        for vec in pentagon._jacobi_vectors(red.model.n) + red._core_vectors():
            assert normal_form(vec) == {}


def test_jacobi_vectors_alone_count_the_normal_form_keys():
    for n in (3, 4, 6):
        model = pentagon.MetabelianModel(n)
        basis = groebner.groebner_basis(pentagon._jacobi_vectors(n))
        numerator = groebner.hilbert_numerator(n, n * (n - 1) // 2, basis)
        for d in range(2, 12):
            assert groebner.standard_count(n, numerator, d - 2) == len(model.basis_keys(d)), (n, d)


def test_dimensions_follow_the_closed_forms_to_degree_40():
    l4, l3 = QuotientReducer(L4_MODEL, _l4_relations()), QuotientReducer(L3_MODEL, pentagon._l3_relations())
    assert [l4.dimension(d) for d in (-1, 0, 1, 2)] == [0, 0, 6, 4]
    assert [l3.dimension(d) for d in (-1, 0, 1)] == [0, 0, 3]
    for d in range(3, 41):
        assert l4.dimension(d) == 5 * (d - 1), d
    for d in range(2, 41):
        assert l3.dimension(d) == d - 1, d


def test_malformed_relations_are_rejected():
    m = L3_MODEL
    a, b, c = (m.letter(i) for i in range(3))
    # a linear part, a bracket of degree 3, and a relation with a degree-3 term
    for rel in (m.add(m.bracket(a, b), a), m.bracket(a, m.bracket(b, c)), m.add(m.bracket(b, c), m.bracket(c, m.bracket(a, c)))):
        with pytest.raises(ValueError, match="brackets of two letters"):
            QuotientReducer(m, [m.bracket(b, c), rel])
    # a zero relation is accepted and relates nothing
    rels = [m.zero(), m.sub(m.bracket(a, b), m.bracket(a, b))] + pentagon._l3_relations()
    red, oracle = QuotientReducer(m, rels), EchelonReducer(m, rels)
    assert [red.dimension(d) for d in range(2, 6)] == [oracle.echelon_dimension(d) for d in range(2, 6)] == [1, 2, 3, 4]


def test_letters_outside_the_model_are_rejected():
    for bad in ("v", 3, -1, "ab", "z", "", True, False, 1.0):
        with pytest.raises(ValueError, match="not one of the model's 3 letters"):
            L3_MODEL.combo({bad: 1})
    with pytest.raises(ValueError):
        L4_MODEL.letter(6)
    assert L4_MODEL.letter("v") == ({5: 1}, {}) and L3_MODEL.letter("c") == ({2: 1}, {})


def test_reduce_rejects_a_linear_part():
    red = l3_reducer()
    a = L3_MODEL.letter("a")
    with pytest.raises(ValueError, match="linear part"):
        red.reduce(a)
    # a commutator part beside the linear one is no excuse either
    with pytest.raises(ValueError, match="linear part"):
        red.reduce(L3_MODEL.add(a, L3_MODEL.bracket(a, L3_MODEL.letter("b"))))
    assert not red.is_zero(a)
    assert red.is_zero(L3_MODEL.zero()) and red.reduce(L3_MODEL.zero()) == {}


def test_non_rational_coefficients_are_rejected():
    x = L3_MODEL.bracket(L3_MODEL.letter("a"), L3_MODEL.letter("b"))
    for bad in (0.1, 0.5, "1/2", None):
        with pytest.raises(TypeError):
            L3_MODEL.combo({"a": bad})
        with pytest.raises(TypeError):
            L3_MODEL.scale(x, bad)
    assert L3_MODEL.combo({"a": F(1, 2), "b": 2}) == ({0: F(1, 2), 1: 2}, {})
    assert L3_MODEL.scale(x, F(1, 2)) == ({}, {key: F(1, 2) * c for key, c in x[1].items()})


def test_three_letter_model_agrees_with_generic_l3_quotient():
    # cbh.ModelElement (X = a, Y = b, S = a + b + c central) against the generic
    # L3bar reducer: X^k Y^l [X, Y] -> ad(a)^k ad(b)^l [a, b] is a change of basis
    m, red = L3_MODEL, l3_reducer()
    a, b = m.letter(0), m.letter(1)
    s = m.combo({0: 1, 1: 1, 2: 1})
    rng = random.Random(11)

    def evaluate(word, model_letters):
        """A bracketing of word that adds one letter at a time, on a random
        side, in both models."""
        if len(word) == 1:
            return m.letter(word[0]), model_letters[word[0]]
        cut = rng.choice((1, len(word) - 1))
        (g1, e1), (g2, e2) = evaluate(word[:cut], model_letters), evaluate(word[cut:], model_letters)
        return m.bracket(g1, g2), e1.bracket(e2)

    for d in range(2, 9):
        images = {
            (k, d - 2 - k): red.reduce(m.ad(a, k, m.ad(b, d - 2 - k, m.bracket(a, b)))).get(d, {})
            for k in range(d - 1)
        }
        cols = sorted(set().union(*images.values()))
        matrix = [[img.get(key, F(0)) for key in cols] for img in images.values()]
        assert len(cols) == d - 1 == red.dimension(d)
        assert len(rref(matrix)[1]) == d - 1
        empty = BiSeries(QQ, {}, d - 2)
        model_letters = [ModelElement(1, 0, 0, empty), ModelElement(0, 1, 0, empty), ModelElement(-1, -1, 1, empty)]
        for _ in range(6):
            word = [rng.randrange(3) for _ in range(d)]
            generic, model = evaluate(word, model_letters)
            expected: dict = {}
            for kl, coeff in model.comm.coeffs.items():
                for key, v in images[kl].items():
                    expected[key] = expected.get(key, 0) + coeff * v
            assert red.reduce(generic).get(d, {}) == {key: v for key, v in expected.items() if v}
            assert red.reduce(m.bracket(s, evaluate(word[1:], model_letters)[0])) == {}


def test_reducer_degree_bound_error():
    r = l3_reducer()
    assert r.dimension(3) == 2
    with pytest.raises(ValueError):
        dimension_report(4, "L5bar")


def _random_element(rng, degree, terms=4, m=L4_MODEL):
    el = m.zero()
    for _ in range(terms):
        w = [rng.randrange(m.n) for _ in range(degree)]
        el = m.add(el, m.scale(m.long_commutator(w), F(rng.randint(-5, 5), rng.randint(1, 4))))
    return el


def _random_asymmetric_table(rng, order):
    coeffs = {(k, l): F(rng.randint(-9, 9), rng.randint(1, 5)) for k in range(order + 1) for l in range(order + 1 - k)}
    return AlphaTable(coeffs, order)


def _digest_elements():
    """The L4bar elements whose echelon coordinates the digest pins."""
    rng = random.Random(8)
    elems = [elem for _, elem in identity_suite(2, 2)]
    elems.append(pentagon_residual(_random_asymmetric_table(rng, 6), 8))
    elems += [_random_element(rng, degree) for degree in range(3, 9)]
    return elems


def test_reduced_coordinates_digest():
    # the echelon's canonical coordinates do not depend on how the pivot rows were built
    oracle = l4_oracle()
    text = repr([
        sorted((d, sorted((key, str(c)) for key, c in coords.items())) for d, coords in oracle.reduce(e).items())
        for e in _digest_elements()
    ])
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "fd23b7acabab2f6d8549cf220082cc31017d5f9c6904bcf304832a09dcded351"
    )


def _change_of_basis(red, oracle, d):
    """T_d: the echelon coordinates of each standard monomial of ``red`` at
    letter degree d, checked to be a basis of the quotient there."""
    table = {}
    for key in red.model.basis_keys(d):
        unit = ({}, {key: 1})
        if red.reduce(unit) == {d: {key: 1}}:
            table[key] = oracle.reduce(unit).get(d, {})
    keys = sorted({key for coords in table.values() for key in coords})
    assert len(table) == red.dimension(d) == len(keys) == len(rref([[c.get(k, 0) for k in keys] for c in table.values()])[1])
    return table


def _through(table, coords):
    """T_d applied to the coordinates of one degree."""
    out: dict = {}
    for key, c in coords.items():
        for okey, v in table[key].items():
            out[okey] = out.get(okey, 0) + c * v
    return {key: c for key, c in out.items() if c}


def test_reduce_agrees_with_the_echelon_through_a_change_of_basis():
    # oracle(x) = T_d . reduce(x) degree by degree, T_d fixed per degree
    rng = random.Random(19)
    l3_elems = [_random_element(rng, degree, m=L3_MODEL) for degree in range(2, 11)]
    a, b = L3_MODEL.letter(0), L3_MODEL.letter(1)
    l3_elems += [L3_MODEL.ad(a, k, L3_MODEL.ad(b, 6 - k, L3_MODEL.bracket(a, b))) for k in range(7)]
    non_unit = _non_unit_l3_relations()
    cases = [
        (l4_reducer(), l4_oracle(), _digest_elements()),
        (l3_reducer(), l3_oracle(), l3_elems),
        (QuotientReducer(L3_MODEL, non_unit), EchelonReducer(L3_MODEL, non_unit), l3_elems),
    ]
    for red, oracle, elems in cases:
        tables = {d: _change_of_basis(red, oracle, d) for d in range(2, 11)}
        for elem in elems:
            mapped = {d: _through(tables[d], coords) for d, coords in red.reduce(elem).items()}
            assert {d: coords for d, coords in mapped.items() if coords} == oracle.reduce(elem)


def _checked_element(alpha, N):
    """(den, the element ``pentagon_check`` reduces): ``_pentagon_elements`` of
    alpha's coefficients, their denominators cleared."""
    den, q = clear_denominators({kl: c for kl, c in alpha.coeffs.items() if sum(kl) <= N - 2})
    return den, pentagon._pentagon_elements([q])[0]


def _random_symmetric_table(rng, order):
    coeffs = {}
    for k in range(order + 1):
        for l in range(k, order + 1 - k):
            coeffs[k, l] = coeffs[l, k] = F(rng.randint(-9, 9), rng.randint(1, 5))
    return AlphaTable(coeffs, order)


def test_checked_element_has_the_residuals_coordinates(red):
    # alpha(u, w) [u, w] is the reference residual term for term, times den, and so has its coordinates
    rng = random.Random(22)
    for N in range(2, 13):
        order = N - 2
        tables = [AlphaTable.from_series(f(order)) for f in (family_I, family_II, family_III)]
        tables += [_random_symmetric_table(rng, order), _random_asymmetric_table(rng, order)]
        tables.append(AlphaTable({(rng.randint(0, order), 0): F(rng.randint(1, 9), rng.randint(1, 5))}, order))
        for alpha in tables:
            den, element = _checked_element(alpha, N)
            residual = pentagon_residual(alpha, N)
            assert element == ({}, {key: c * den for key, c in residual[1].items()}), N
            want = red.reduce(residual)
            assert red.reduce(element) == {d: {key: c * den for key, c in coords.items()} for d, coords in want.items()}, N
            assert pentagon_check(alpha, N) == {d: len(want.get(d, {})) for d in range(2, N + 1)}, N


def test_degree_16_reduces_under_the_default_recursion_limit():
    _, family = _checked_element(AlphaTable.from_series(family_I(14)), 16)
    _, asymmetric = _checked_element(AlphaTable({(0, 14): F(1)}, 14), 16)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # CPython's default
    try:
        red = QuotientReducer(L4_MODEL, _l4_relations())  # a cold memo
        assert red.reduce(family) == {}
        assert set(red.reduce(asymmetric)) == {16}
    finally:
        sys.setrecursionlimit(limit)


def test_pentagon_columns_give_every_residual(red):
    # the residual is linear in alpha, and alpha[k, l] shows at degree k + l + 2 only
    alpha = _random_asymmetric_table(random.Random(5), 6)
    assert not alpha.is_symmetric()
    reduced = red.reduce(pentagon_residual(alpha, 8))
    columns = pentagon_columns(10)
    for d in range(2, 9):
        want: dict = {}
        for k, col in enumerate(columns[d]):
            for key, c in col.items():
                want[key] = want.get(key, 0) + alpha.coeff(k, d - 2 - k) * c
        assert {key: c for key, c in want.items() if c} == reduced.get(d, {}), d


def test_pentagon_check_takes_the_table_as_the_series_it_is(red):
    rng = random.Random(27)
    for table in (AlphaTable.from_series(family_II(6)), _random_asymmetric_table(rng, 7)):
        plain = BiSeries(QQ, dict(table.coeffs), table.order)
        assert type(plain) is BiSeries
        assert pentagon_check(table, 8) == pentagon_check(plain, 8)
    assert any(pentagon_check(plain, 8).values())


def test_pentagon_check_rejects_short_table():
    with pytest.raises(ValueError, match="order 3"):
        pentagon_check(AlphaTable({(0, 1): F(1)}, 3), 6)


def test_pentagon_columns_digest():
    # the echelon's coordinates of every column's element, and the columns map onto them
    ladders = [(sign, pentagon._ladder(u, w, 10)) for sign, u, w in _PENTAGON]
    oracle, red = l4_oracle(), l4_reducer()
    columns = {
        d: [
            oracle.reduce(pentagon._combination((sign, ladder[k, d - 2 - k]) for sign, ladder in ladders)).get(d, {})
            for k in range(d - 1)
        ]
        for d in range(2, 11)
    }
    text = repr([
        [sorted((key, str(c)) for key, c in col.items()) for col in columns[d]]
        for d in range(2, 11)
    ])
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "7a0ed75c4c69f065f86a5ecd59b1887a4ce74899bd7516970a7a4dfdf8c49ae7"
    )
    for d, cols in pentagon_columns(10).items():
        table = _change_of_basis(red, oracle, d)
        assert [_through(table, col) for col in cols] == columns[d], d


def test_pentagon_columns_are_residuals_of_unit_tables(red):
    # the defining oracle: column k is the reduced residual of E_{k, d-2-k}
    columns = pentagon_columns(10)
    for d in range(2, 9):
        want = [
            red.reduce(pentagon_residual(AlphaTable({(k, d - 2 - k): F(1)}, d - 2), d)).get(d, {})
            for k in range(d - 1)
        ]
        assert columns[d] == want, d


def test_ladders_are_integral():
    assert all(type(c) is int for _, u, w in _PENTAGON for br in pentagon._ladder(u, w, 6).values() for c in br[1].values())
    assert all(type(c) is int for rel in pentagon._l4_relations() for c in rel[1].values())
    q = {(k, l): k - 2 * l + 1 for k in range(5) for l in range(5 - k)}
    assert all(type(c) is int for c in pentagon._pentagon_elements([q])[0][1].values())


def test_mutating_columns_leaves_later_columns_intact():
    columns = pentagon_columns(6)
    columns[4][0].clear()
    assert pentagon_columns(6)[4][0]


def test_pentagon_check_rejects_degree_below_two():
    alpha = AlphaTable({(0, 0): F(1)}, 4)
    for N in (-1, 0, 1):
        with pytest.raises(ValueError, match="below 2"):
            pentagon_check(alpha, N)
    assert pentagon_check(alpha, 2) == {2: 0}


def test_rref_of_int_matrix_gives_fractions():
    rows, pivots = rref([[2, 1], [4, 3]])
    assert rows == [[1, 0], [0, 1]] and pivots == [0, 1]
    assert all(type(x) is F for row in rows for x in row)
    rows, pivots = rref([[3, 6, 1], [1, 2, 5]])
    assert pivots == [0, 2] and all(type(x) is F for row in rows for x in row)


def test_rref_of_float_matrix_raises():
    # a float in a searched column is refused, pivot or not
    for matrix in ([[0.5, 1], [1, 1]], [[1, 1], [1, 0.5]], [[2, 1], [4, 2.0]]):
        with pytest.raises(TypeError):
            rref(matrix)


def test_check_pentagon_rref_sees_no_float(monkeypatch):
    seen = []
    real_rref = linalg.rref

    def recording_rref(matrix, *args):
        rows, pivots = real_rref(matrix, *args)
        seen.append((matrix, rows))
        return rows, pivots

    monkeypatch.setattr(linalg, "rref", recording_rref)
    ok, _ = verify.check_pentagon(8)
    assert ok and seen
    for matrix, rows in seen:
        assert not any(isinstance(x, float) for row in matrix + rows for x in row)
