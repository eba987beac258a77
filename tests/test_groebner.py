from fractions import Fraction as F

from cassoc.groebner import NormalForm, groebner_basis, hilbert_numerator, s_vector, standard_count

# two variables x > y; one component unless a test says otherwise
X2, XY, Y2, Y3 = (2, 0), (1, 1), (0, 2), (0, 3)


def _counts(n, rank, vectors, degrees):
    basis = groebner_basis(vectors)
    numerator = hilbert_numerator(n, rank, basis)
    return basis, [standard_count(n, numerator, d) for d in degrees]


def test_monomial_ideal_counts_by_inclusion_exclusion():
    # no monomial of degree >= 2 but y^D avoids x^2 and xy
    _, counts = _counts(2, 1, [{(X2, 0): 1}, {(XY, 0): 1}], range(6))
    assert counts == [1, 2, 1, 1, 1, 1]


def test_s_vector_adds_the_missing_lead():
    # (x^2 - y^2, xy): y (x^2 - y^2) - x (xy) = -y^3, so Q[x, y]/I has dimensions 1, 2, 1
    for a, b in ((1, 1), (2, F(3, 5))):
        basis, counts = _counts(2, 1, [{(X2, 0): a, (Y2, 0): -1}, {(XY, 0): b}], range(6))
        assert counts == [1, 2, 1, 0, 0, 0]
        assert {(Y3, 0): 1} in basis
        assert all(g[max(g)] == 1 for g in basis)
        normal_form = NormalForm(basis)
        assert normal_form(s_vector(basis[0], basis[1])) == {}
        assert normal_form({((3, 0), 0): 1}) == {}  # x^3 = x y^2 = 0
        assert normal_form({((0, 2), 0): 7}) == {((0, 2), 0): 7}


def test_normal_form_forgets_its_memo_when_a_vector_is_filed():
    normal_form = NormalForm([{(X2, 0): 1, (Y2, 0): -1}])  # x^2 = y^2
    x3 = {((3, 0), 0): 2, (XY, 0): F(1, 2)}
    assert normal_form(x3) == {((1, 2), 0): 2, (XY, 0): F(1, 2)}
    normal_form.file({(XY, 0): 1})  # now x y = 0 too, so x^3 = x y^2 = 0
    assert normal_form(x3) == {}


def test_components_do_not_mix():
    # x e_0 and y e_1 in Q[x, y]^3: leads in different components form no S-pair
    basis, counts = _counts(2, 3, [{((1, 0), 0): 1, ((0, 1), 1): 1}, {((0, 1), 1): 1}], range(4))
    assert len(basis) == 2
    # e_0 keeps the powers of y, e_1 those of x, e_2 everything: 1 + 1 + (D + 1)
    assert counts == [3, 4, 5, 6]
