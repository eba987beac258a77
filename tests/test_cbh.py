import random
from fractions import Fraction as F
from math import factorial

import pytest

from cassoc import cbh, golden, verify
from cassoc.cbh import (
    ModelElement,
    associative_log_oracle,
    classical_cbh_in_model,
    compressed_cbh,
    hausdorff_in_l3,
    word_to_canonical,
)
from cassoc.exact import bernoulli, ext_bernoulli_prime, ext_bernoulli_recursive
from cassoc.series import QQ, BiSeries, standard_series


def empty(N):
    return BiSeries(QQ, {}, N - 2)


def letters(N):
    """X = a = Q, Y = b = P and the central S."""
    return ModelElement(1, 0, 0, empty(N)), ModelElement(0, 1, 0, empty(N)), ModelElement(0, 0, 1, empty(N))


def test_compressed_cbh_low_terms():
    h = compressed_cbh(10)
    assert h.x == 1 and h.y == 1
    # [QP] carries C[1,1] = B_1; the printed [PQ] coefficient +1/2 is its negative
    assert h.comm.coeff(0, 0) == F(-1, 2)
    # [QPQP] (printed -(1/24)[PQPQ])
    assert h.comm.coeff(1, 1) == F(1, 24)
    # [Q^2 P^2 Q P] (printed [P^2Q^2PQ]/360)
    assert h.comm.coeff(2, 2) == F(-1, 360)


def test_compressed_cbh_matches_table():
    h = compressed_cbh(9)
    for (i, j), c in h.comm.coeffs.items():
        n, m = i + 1, j + 1
        assert c == F(ext_bernoulli_recursive(m, n), factorial(m) * factorial(n))


def test_classical_recursion_pieces():
    h = classical_cbh_in_model(6)
    # H_0 + H_1 linear part is P + Q
    assert h.x == 1 and h.y == 1
    h1_comm = {(k - 1, 0): F(bernoulli(k), factorial(k)) for k in range(1, 5) if bernoulli(k)}
    for key, v in h1_comm.items():
        assert compressed_cbh(6).comm.coeff(*key) == v


def test_three_paths_agree():
    assert classical_cbh_in_model(10) == compressed_cbh(10)
    assert associative_log_oracle(8) == compressed_cbh(8)


@pytest.mark.parametrize("N", range(1, 11))
def test_oracle_agrees_with_both_model_paths(N):
    assert associative_log_oracle(N) == compressed_cbh(N) == classical_cbh_in_model(N)


def test_oracle_sees_one_wrong_exponential_coefficient(monkeypatch):
    # P^2 / 2! of exp P, scaled by 6!, made 1/720 too large
    scaled = cbh._scaled_exp_product

    def perturbed(N):
        u = scaled(N)
        u[2]["PP"] += 1
        return u

    monkeypatch.setattr(cbh, "_scaled_exp_product", perturbed)
    h = associative_log_oracle(6)
    assert (h.x, h.y) == (1, 1) and h != compressed_cbh(6)


def test_associative_oracle_low_degrees():
    h = associative_log_oracle(4)
    assert h.x == 1 and h.y == 1
    assert h.comm.coeff(0, 0) == F(-1, 2)


def test_mirrored_expansion_rebuild():
    # sum C'[m,n]/(m! n!) [P^{n-1}Q^{m-1}PQ] is the same element: the mirrored
    # basis word [P^{n-1}Q^{m-1}PQ] equals -[Q^{m-1}P^{n-1}QP], key (m-1, n-1)
    N = 9
    h = compressed_cbh(N)
    rebuilt = {}
    for m in range(1, N):
        for n in range(1, N + 1 - m):
            if (n - 1) + (m - 1) <= N - 2:
                rebuilt[m - 1, n - 1] = F(-ext_bernoulli_prime(m, n), factorial(m) * factorial(n))
    assert BiSeries(QQ, rebuilt, N - 2) == h.comm


def test_antisymmetry():
    N = 8
    a, p, _ = letters(N)
    minus_p = p.scale(F(-1))
    # log(exp P exp -P) = 0: evaluate with the closed form on (P, -P): every
    # bracket [(-P)^j P^i (-P) P] vanishes, so only the linear parts survive
    assert (p + minus_p).is_zero()
    # and in the L3 model with honest Hausdorff multiplication:
    res = hausdorff_in_l3(a, ModelElement(-1, 0, 0, a.comm), N)
    assert res.is_zero()


def test_word_to_canonical():
    assert word_to_canonical("PQ") == ((0, 0), -1)
    assert word_to_canonical("QP") == ((0, 0), 1)
    assert word_to_canonical("PQPQ") == ((1, 1), -1)
    assert word_to_canonical("QQQPQ") == ((3, 0), -1)
    assert word_to_canonical("PPQQ") is None
    with pytest.raises(ValueError):
        word_to_canonical("PXQ")


def test_hausdorff_l3_basics():
    a, b, _ = letters(8)
    zero = ModelElement(0, 0, 0, empty(8))
    assert hausdorff_in_l3(a, zero, 8) == a
    # log(exp b exp a) realizes the generating function on [a, b]
    h = hausdorff_in_l3(b, a, 8)
    assert h.x == 1 and h.y == 1
    assert h.comm == standard_series("c_generating_closed", 6)


def test_hausdorff_l3_with_comm_parts():
    # central part is inert and comm parts add through the product
    g = BiSeries(QQ, {(0, 0): F(1, 6)}, 6)
    x = ModelElement(1, 0, 0, g)
    y = ModelElement(0, 1, 0, g)
    h = hausdorff_in_l3(x, y, 8)
    assert h.x == 1 and h.y == 1 and h.s == 0
    # degree-0 coefficient: g + g + [x,y] correction at (0,0) = 1/6+1/6+C(0,0)*T(0,0)
    # with [y,x] = -(1 + mult terms)[ab] at lowest order
    assert h.comm.coeff(0, 0) == F(1, 6) + F(1, 6) + F(1, 2)


def test_hausdorff_l3_shares_one_bounded_closed_form_per_order():
    a, b, _ = letters(8)
    first = hausdorff_in_l3(b, a, 8)
    comm = cbh._cbh_comm(8)
    assert cbh._cbh_comm.cache_info().maxsize == 8
    assert cbh._cbh_comm(8) is comm and comm == compressed_cbh(8).comm
    # the shared table is the one the product reads, and reading it again changes nothing
    assert hausdorff_in_l3(b, a, 8) == first and first.comm == comm


def test_records_dump():
    h = compressed_cbh(4)
    recs = h.records()
    assert recs[0] == (1, 1, F(-1, 2))
    assert all(n >= 1 and m >= 1 for n, m, _ in recs)


def test_hausdorff_l3_commuting_arguments_keep_commutator_parts():
    # [y, x] = 0 here, so log(exp x exp y) = x + y, commutator parts included
    g = BiSeries(QQ, {(0, 0): F(1, 6), (2, 1): F(-3, 5)}, 6)
    a_plus_g = ModelElement(1, 0, 0, g)
    assert hausdorff_in_l3(a_plus_g, ModelElement(0, 0, 0, empty(8)), 8) == a_plus_g
    c = ModelElement(0, 0, 0, g)
    twice = hausdorff_in_l3(c, c, 8)
    assert twice == c + c and not twice.is_zero()


def random_element(rng, N):
    def q():
        return F(rng.randint(-9, 9), rng.randint(1, 6))

    comm = {(k, d - k): q() for d in range(N - 1) for k in range(d + 1) if rng.random() < 0.5}
    return ModelElement(q(), q(), q(), BiSeries(QQ, comm, N - 2))


@pytest.mark.parametrize("seed", range(6))
def test_bracket_is_a_lie_bracket_with_central_s(seed):
    rng = random.Random(seed)
    N = 8
    u, v, w = (random_element(rng, N) for _ in range(3))
    q = F(rng.randint(-9, 9), rng.randint(1, 6))
    assert (u.bracket(v) + v.bracket(u)).is_zero()
    assert (u + v).bracket(w) == u.bracket(w) + v.bracket(w)
    assert u.scale(q).bracket(w) == u.bracket(w).scale(q)
    jacobi = u.bracket(v.bracket(w)) + v.bracket(w.bracket(u)) + w.bracket(u.bracket(v))
    assert jacobi.is_zero()
    s = letters(N)[2]
    assert s.bracket(u).is_zero()


@pytest.mark.parametrize("seed", range(6))
def test_hausdorff_l3_group_laws(seed):
    rng = random.Random(seed)
    N = 8
    u, v, w = (random_element(rng, N) for _ in range(3))
    assert hausdorff_in_l3(u, u.scale(F(-1)), N).is_zero()
    left = hausdorff_in_l3(hausdorff_in_l3(u, v, N), w, N)
    assert left == hausdorff_in_l3(u, hausdorff_in_l3(v, w, N), N)


@pytest.mark.parametrize("N", [4, 8, 12])
def test_hausdorff_l3_of_p_and_q_is_the_closed_form(N):
    # pins the orientation: Q = X = a and P = Y = b
    q, p, _ = letters(N)
    assert hausdorff_in_l3(p, q, N) == compressed_cbh(N)


def test_model_element_rejects_non_rational_coefficients():
    for bad in (0.1, "1/2", None):
        for args in ((bad, 0, 0), (0, bad, 0), (0, 0, bad)):
            with pytest.raises(TypeError):
                ModelElement(*args, empty(6))
    x = ModelElement(F(1, 3), 2, 0, empty(6))
    assert (x.x, x.y, x.s) == (F(1, 3), F(2), F(0))


def test_check_cbh_holds_the_printed_table_to_its_own_top_degree(monkeypatch):
    # the printed table stops at word degree 10, the path agreement goes on
    assert verify.check_cbh(degree=16, oracle_degree=8)[0]
    printed = golden.CBH_PRINTED
    word, c = printed[-1]
    key = word_to_canonical(word)[0]
    monkeypatch.setattr(golden, "CBH_PRINTED", printed[:-1] + [(word, c + 1)])
    assert verify.check_cbh(degree=16, oracle_degree=8) == (False, f"printed CBH term at {key} mismatch")
    monkeypatch.setattr(golden, "CBH_PRINTED", printed[:-1])
    assert verify.check_cbh(degree=16, oracle_degree=8) == (False, f"engine CBH term at {key} not printed")
