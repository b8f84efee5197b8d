from itertools import product

import pytest

from taucat import znsolve
from taucat.fields import PrimeField, field


def test_f5_generator_and_dlog():
    f5 = field(5)
    assert f5.generator == 2
    assert f5.dlog[4] == 2  # 2^2 = 4


def test_f7_smallest_primitive_root():
    # brute force: 2 has order 3 mod 7, 3 has order 6
    assert field(7).generator == 3


def test_f3():
    f3 = field(3)
    assert f3.generator == 2
    assert f3.unit_order == 2


def test_non_prime_rejected():
    with pytest.raises(ValueError):
        field(9)
    with pytest.raises(ValueError):
        field(1)


def test_p2_rejected():
    with pytest.raises(ValueError, match="unit group trivial"):
        field(2)
    # the constructor itself rejects it, so unit_order >= 2 on every field
    with pytest.raises(ValueError, match="unit group trivial"):
        PrimeField(2, 1, (-1, 0))


def test_dlog_is_group_isomorphism():
    for p in (3, 5, 7, 11, 13):
        f = field(p)
        for u in range(1, p):
            for v in range(1, p):
                assert f.dlog[u * v % p] == (f.dlog[u] + f.dlog[v]) % (p - 1)


def test_field_arithmetic():
    f = field(7)
    assert f.mul(3, 5) == 1
    assert f.inv(3) == 5
    assert f.add(6, 6) == 5
    assert f.exp(f.log(4)) == 4


def test_unit_solve_examples():
    m = field(5).unit_order  # Z/4 arithmetic on exponents
    sol = znsolve.solve([[0]], [0], m, ncols=1)
    assert {x for (x,) in sol.enumerate()} == {0, 1, 2, 3}
    assert znsolve.solve([[2]], [1], m) is None
    sol = znsolve.solve([[1, 1], [1, 3]], [3, 1], m)
    assert (2, 1) in set(sol.enumerate())


def test_unit_solve_matches_enumeration():
    f13 = field(13)  # modulus 12
    m = 12
    matrix = [[3, 6, 0], [2, 2, 8]]
    rhs = [9, 6]
    want = {x for x in product(range(m), repeat=3)
            if all(sum(r[j] * x[j] for j in range(3)) % m == b
                   for r, b in zip(matrix, rhs))}
    sol = znsolve.solve(matrix, rhs, f13.unit_order)
    assert set(sol.enumerate()) == want
