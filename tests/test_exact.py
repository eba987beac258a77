import sys
import threading
from fractions import Fraction as F

import pytest

from cassoc import exact
from cassoc.exact import (
    bernoulli,
    check_bernoulli_identity,
    ext_bernoulli_closed,
    ext_bernoulli_prime,
    ext_bernoulli_recursive,
    format_rational,
    gamma_coefficients,
    parse_rational,
)
from cassoc.pentagon import L4_MODEL, QuotientReducer, _l4_relations


def test_bernoulli_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == F(-1, 2)
    assert bernoulli(2) == F(1, 6)
    assert bernoulli(3) == 0
    assert bernoulli(4) == F(-1, 30)
    assert bernoulli(6) == F(1, 42)
    assert all(bernoulli(n) == 0 for n in range(3, 40, 2))


@pytest.mark.parametrize("m,variant", [(1, "a"), (4, "a"), (50, "c")])
def test_bernoulli_identity_examples(m, variant):
    assert check_bernoulli_identity(m, variant)


@pytest.mark.parametrize("variant", ["a", "b", "c"])
def test_bernoulli_identities_sweep(variant):
    assert all(check_bernoulli_identity(m, variant) for m in range(1, 51))


def test_ext_bernoulli_recursive_values():
    assert ext_bernoulli_recursive(2, 1) == F(-1, 6)
    assert ext_bernoulli_recursive(2, 2) == F(1, 6)
    assert ext_bernoulli_recursive(2, 3) == F(-1, 15)
    assert ext_bernoulli_recursive(3, 1) == 0
    assert ext_bernoulli_recursive(3, 2) == F(1, 15)
    assert ext_bernoulli_recursive(4, 1) == F(1, 30)
    assert ext_bernoulli_recursive(6, 6) == F(305, 462)


def test_ext_bernoulli_closed_values():
    assert ext_bernoulli_closed(2, 2) == bernoulli(2) + 2 * bernoulli(3) == F(1, 6)
    for n in range(1, 10):
        assert ext_bernoulli_closed(1, n) == bernoulli(n)
    assert ext_bernoulli_closed(5, 4) == ext_bernoulli_recursive(5, 4)


def test_recursive_equals_closed_sweep():
    for m in range(1, 13):
        for n in range(1, 14 - m):
            assert ext_bernoulli_recursive(m, n) == ext_bernoulli_closed(m, n)


def test_index_swap_symmetry():
    for m in range(1, 13):
        for n in range(1, 14 - m):
            assert ext_bernoulli_recursive(m, n) == (-1) ** (m + n) * ext_bernoulli_recursive(n, m)


def test_prime_values():
    assert ext_bernoulli_prime(1, 1) == F(1, 2)
    assert ext_bernoulli_prime(1, 4) == F(-1, 30)
    assert ext_bernoulli_prime(3, 2) == F(1, 15)


def test_prime_mirror_relation():
    for m in range(1, 10):
        for n in range(1, 11 - m):
            assert ext_bernoulli_prime(m, n) == (-1) ** (m + n - 1) * ext_bernoulli_recursive(m, n)


def test_gamma_coefficients():
    g = gamma_coefficients(8)
    assert g[0] == 1
    assert g[1] == F(-1, 6)
    assert g[2] == F(7, 360)
    assert g[3] == F(-31, 3 * 5040)
    assert g[4] == F(127, 15 * 40320)
    # defining recursion: sum_k g_{n-k}/(2k+1)! = 0
    fact = [1]
    for k in range(1, len(g)):
        fact.append(fact[-1] * 2 * k * (2 * k + 1))
    for n in range(1, len(g)):
        assert sum(F(g[n - k], fact[k]) for k in range(n + 1)) == 0


def test_rational_serialization():
    assert format_rational(F(-1, 2)) == "-1/2"
    assert format_rational(F(5)) == "5"
    assert parse_rational("7/3") == F(7, 3)
    assert parse_rational("-4") == F(-4)


def test_parse_rational_takes_only_signed_digit_fractions():
    assert [parse_rational(t) for t in ("+6/4", " -0012 ", "0\n")] == [F(3, 2), -12, 0]
    # a decimal point, an exponent (Fraction would build 10**exp), an underscore,
    # a non-ASCII digit, a sign after the slash or spaces inside
    for text in ("1.5", "1e3", "1e999999999", "1_000", "\u0663", "1/-2", "- 1", "3/ 4", "/2", "1/", "", "0x10"):
        with pytest.raises(ValueError, match="p/q"):
            parse_rational(text)
    with pytest.raises(ValueError, match="zero denominator"):
        parse_rational(" +06/00 ")


def test_bad_inputs():
    with pytest.raises(ValueError):
        bernoulli(-1)
    with pytest.raises(ValueError):
        ext_bernoulli_recursive(0, 1)
    with pytest.raises(ValueError):
        check_bernoulli_identity(3, "d")


def _in_three_threads(fn) -> list:
    """fn() in three threads released together, switching as often as the
    interpreter allows; the switch interval is restored afterwards."""
    barrier = threading.Barrier(3)
    results = [None] * 3

    def run(i):
        barrier.wait(timeout=60)
        results[i] = fn()

    threads = [threading.Thread(target=run, args=(i,)) for i in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    return results


def test_caches_fill_safely_from_three_threads(monkeypatch):
    # _BERN is published whole; a reducer publishes its relation module whole,
    # and each memoised normal form of a term is built in locals and stored whole
    want = [bernoulli(n) for n in range(161)]
    for _ in range(3):
        monkeypatch.setattr(exact, "_BERN", [F(1), F(-1, 2)])
        assert _in_three_threads(lambda: bernoulli(160)) == [want[160]] * 3
        assert exact._BERN == want
    elems = [L4_MODEL.long_commutator(w) for w in ([2, 0, 5, 1, 3, 4, 1], [5, 4, 3, 2, 1, 0, 1, 2], [1, 0, 2, 3, 0, 4])]
    single = QuotientReducer(L4_MODEL, _l4_relations())
    fresh = QuotientReducer(L4_MODEL, _l4_relations())

    def fill(red):
        return red.relation_module(), [red.dimension(d) for d in range(2, 8)], [red.reduce(x) for x in elems]

    got = _in_three_threads(lambda: fill(fresh))
    assert got == [fill(single)] * 3
    assert fresh._module[:2] == single.relation_module()
    assert fresh._module[2]._memo == single._module[2]._memo
