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


def brute_span(gens, m, n):
    """Every combination of ``gens`` in (Z/m)^n, from all coefficient vectors."""
    return {tuple(sum(c * g[i] for c, g in zip(cs, gens)) % m for i in range(n))
            for cs in product(range(m), repeat=len(gens))}


def brute_lexmin(x0, gens, m):
    return min(tuple((a + b) % m for a, b in zip(x0, v)) for v in brute_span(gens, m, len(x0)))


def test_lexmin_against_enumeration():
    m = 12
    for gens, x0 in [
        ([(4, 2), (0, 6)], (7, 11)),
        ([(3, 3)], (5, 1)),
        ([], (9, 2)),
        ([(2, 0), (0, 2), (1, 1)], (3, 3)),
    ]:
        assert znsolve.lexmin_coset(x0, znsolve.howell(gens, m), m) == brute_lexmin(x0, gens, m)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_lexmin_random(data):
    m = data.draw(st.sampled_from([2, 4, 6]))
    n = data.draw(st.integers(1, 3))
    k = data.draw(st.integers(0, 2))
    gens = [tuple(data.draw(st.integers(0, m - 1)) for _ in range(n))
            for _ in range(k)]
    x0 = tuple(data.draw(st.integers(0, m - 1)) for _ in range(n))
    assert znsolve.lexmin_coset(x0, znsolve.howell(gens, m), m) == brute_lexmin(x0, gens, m)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_howell_against_enumeration(data):
    m = data.draw(st.sampled_from([2, 4, 6, 8, 12]))
    n = data.draw(st.integers(1, 3))
    k = data.draw(st.integers(0, 3))
    gens = [tuple(data.draw(st.integers(0, m - 1)) for _ in range(n)) for _ in range(k)]
    rows = znsolve.howell(gens, m)
    leads = [next(j for j, v in enumerate(row) if v) for row in rows]
    assert leads == sorted(set(leads))  # echelon
    assert all(m % row[j] == 0 for row, j in zip(rows, leads))
    span = brute_span(gens, m, n)
    assert brute_span(rows, m, n) == span
    for j in range(n):
        # the members vanishing before column j, from the rows with pivot at j or later
        tail = [row for row, lead in zip(rows, leads) if lead >= j]
        assert brute_span(tail, m, n) == {v for v in span if not any(v[:j])}


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
    # D = U A V, with U rebuilt column by column from the logged row operations
    m = data.draw(st.sampled_from([4, 6, 12]))
    nrows = data.draw(st.integers(1, 5))
    ncols = data.draw(st.integers(1, 3))
    a = [[data.draw(st.integers(0, m - 1)) for _ in range(ncols)]
         for _ in range(nrows)]
    d, ops, v = znsolve.diagonalize(a, m)
    u_cols = [znsolve.apply_rows(ops, [int(i == k) for i in range(nrows)], m)
              for k in range(nrows)]
    for i in range(nrows):
        for j in range(ncols):
            uav = sum(u_cols[k][i] * a[k][l] * v[l][j] for k in range(nrows) for l in range(ncols))
            assert uav % m == d[i][j]
    assert all(d[i][j] == 0 for i in range(nrows) for j in range(ncols) if i != j)
