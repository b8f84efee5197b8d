"""Solver over Z/m against exhaustive enumeration."""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from taucat import znsolve


def brute_solutions(matrix, rhs, m, ncols):
    out = set()
    for x in product(range(m), repeat=ncols):
        if all(sum(row[j] * x[j] for j in range(ncols)) % m == rhs[i] % m
               for i, row in enumerate(matrix)):
            out.add(x)
    return out


def solver_solutions(matrix, rhs, m, ncols):
    sol = znsolve.solve(matrix, rhs, m, ncols=ncols)
    if sol is None:
        return None
    return set(sol.enumerate())


def test_degenerate_equation_all_solutions():
    # 0*x = 0 over Z/4
    assert solver_solutions([[0]], [0], 4, 1) == {(0,), (1,), (2,), (3,)}


def test_parity_obstruction_infeasible():
    # 2x = 1 over Z/4
    assert znsolve.solve([[2]], [1], 4) is None


def test_two_by_two_over_z4():
    # x + y = 3, x - y = 1 over Z/4; expected set computed by enumeration
    matrix = [[1, 1], [1, 3]]
    rhs = [3, 1]
    got = solver_solutions(matrix, rhs, 4, 2)
    want = brute_solutions(matrix, rhs, 4, 2)
    assert got == want
    assert (2, 1) in got


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_solver_matches_enumeration(data):
    m = data.draw(st.sampled_from([2, 4, 6, 12]))
    ncols = data.draw(st.integers(1, 3))
    nrows = data.draw(st.integers(0, 3))
    matrix = [[data.draw(st.integers(0, m - 1)) for _ in range(ncols)]
              for _ in range(nrows)]
    rhs = [data.draw(st.integers(0, m - 1)) for _ in range(nrows)]
    want = brute_solutions(matrix, rhs, m, ncols)
    got = solver_solutions(matrix, rhs, m, ncols)
    if not want:
        assert got is None
    else:
        assert got == want


def test_enumeration_has_no_duplicates():
    sol = znsolve.solve([[2, 0], [0, 0]], [0, 0], 4, ncols=2)
    listed = list(sol.enumerate())
    assert len(listed) == len(set(listed)) == sol.count()


def test_kernel_generators_span_kernel():
    matrix = [[2, 4], [0, 6]]
    m = 12
    gens = znsolve.kernel_generators(matrix, m)
    spanned = set(znsolve.span_members(gens, m, 2))
    assert spanned == brute_solutions(matrix, [0, 0], m, 2)


def test_lexmin_against_enumeration():
    m = 12
    for gens, x0 in [
        ([(4, 2), (0, 6)], (7, 11)),
        ([(3, 3)], (5, 1)),
        ([], (9, 2)),
        ([(2, 0), (0, 2), (1, 1)], (3, 3)),
    ]:
        coset = {tuple((a + b) % m for a, b in zip(x0, v))
                 for v in znsolve.span_members(list(gens), m, 2)}
        assert znsolve.lexmin_coset(x0, list(gens), m) == min(sorted(coset))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_lexmin_random(data):
    m = data.draw(st.sampled_from([2, 4, 6]))
    n = data.draw(st.integers(1, 3))
    k = data.draw(st.integers(0, 2))
    gens = [tuple(data.draw(st.integers(0, m - 1)) for _ in range(n))
            for _ in range(k)]
    x0 = tuple(data.draw(st.integers(0, m - 1)) for _ in range(n))
    coset = {tuple((a + b) % m for a, b in zip(x0, v))
             for v in znsolve.span_members(list(gens), m, n)}
    assert znsolve.lexmin_coset(x0, [list(g) for g in gens], m) == min(sorted(coset))


def test_mod_one_collapses():
    sol = znsolve.solve([[1, 1]], [0], 1, ncols=2)
    assert sol is not None
    assert set(sol.enumerate()) == {(0, 0)}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_one_factorisation_many_right_hand_sides(data):
    m = data.draw(st.sampled_from([2, 4, 6, 12]))
    ncols = data.draw(st.integers(1, 3))
    nrows = data.draw(st.integers(1, 3))
    rows = [[data.draw(st.integers(0, m - 1)) for _ in range(ncols)]
            for _ in range(nrows)]
    # a zero row and a copy of the first row: their right-hand sides can
    # contradict the equations the factorisation keeps
    matrix = rows + [[0] * ncols, list(rows[0])]
    system = znsolve.System(matrix, m, ncols)
    for _ in range(4):
        x = [data.draw(st.integers(0, m - 1)) for _ in range(ncols)]
        rhs = [sum(a * b for a, b in zip(row, x)) % m for row in matrix]
        for i in range(len(rhs)):
            if data.draw(st.booleans()):
                rhs[i] = data.draw(st.integers(0, m - 1))
        want = brute_solutions(matrix, rhs, m, ncols)
        sol = system.solve(rhs)
        if not want:
            assert sol is None
        else:
            assert set(sol.enumerate()) == want
            assert sol.count() == len(want)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_row_log_replays_u(data):
    # D = U A V, with U applied and undone through the logged row operations
    m = data.draw(st.sampled_from([4, 6, 12]))
    nrows = data.draw(st.integers(1, 5))
    ncols = data.draw(st.integers(1, 3))
    a = [[data.draw(st.integers(0, m - 1)) for _ in range(ncols)]
         for _ in range(nrows)]
    d, ops, v = znsolve.diagonalize(a, m)
    for j in range(ncols):
        av = [sum(row[i] * v[i][j] for i in range(ncols)) % m for row in a]
        assert znsolve.apply_rows(ops, av, m) == [row[j] for row in d]
    b = [data.draw(st.integers(0, m - 1)) for _ in range(nrows)]
    assert znsolve.unapply_rows(ops, znsolve.apply_rows(ops, b, m), m) == b
    assert all(d[i][j] == 0 for i in range(nrows) for j in range(ncols) if i != j)
