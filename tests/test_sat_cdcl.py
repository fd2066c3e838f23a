"""CDCL solver: cross-checks against brute force, incremental use, limits."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CnfError
from dpll import DpllSolver
from repro.sat import CdclSolver, Cnf
from repro.sat.cdcl import IncrementalSolver, luby, solve_cnf


def brute_force(cnf: Cnf):
    for bits in itertools.product([False, True], repeat=cnf.n_vars):
        model = {i + 1: bits[i] for i in range(cnf.n_vars)}
        if cnf.evaluate(model):
            return model
    return None


def random_cnf(draw, max_vars=8, max_clauses=35):
    n_vars = draw(st.integers(min_value=2, max_value=max_vars))
    n_clauses = draw(st.integers(min_value=1, max_value=max_clauses))
    cnf = Cnf()
    cnf.new_vars(n_vars)
    for _ in range(n_clauses):
        width = draw(st.integers(min_value=1, max_value=3))
        lits = [
            draw(st.integers(min_value=1, max_value=n_vars))
            * (1 if draw(st.booleans()) else -1)
            for _ in range(width)
        ]
        cnf.add_clause(lits)
    return cnf


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_cdcl_agrees_with_brute_force(data):
    cnf = random_cnf(data.draw)
    expected = brute_force(cnf)
    result = CdclSolver(cnf).solve()
    if expected is None:
        assert result.is_unsat
    else:
        assert result.is_sat
        assert cnf.evaluate(result.model)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_cdcl_agrees_with_dpll(data):
    cnf = random_cnf(data.draw)
    assert (DpllSolver(cnf).solve() is None) == CdclSolver(cnf).solve().is_unsat


def test_luby_sequence():
    assert [luby(i) for i in range(1, 16)] == [
        1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
    ]
    with pytest.raises(ValueError):
        luby(0)


def test_assumptions():
    cnf = Cnf()
    a, b, c = cnf.new_vars(3)
    cnf.add_clauses([[a, b], [-a, c]])
    solver = CdclSolver(cnf)
    assert solver.solve([-b]).is_sat  # forces a then c
    assert solver.solve([-b, -c]).is_unsat
    assert solver.solve().is_sat, "solver must recover after assumption UNSAT"
    with pytest.raises(CnfError):
        solver.solve([0])


def test_incremental_clause_addition():
    cnf = Cnf()
    a, b = cnf.new_vars(2)
    cnf.add_clause([a, b])
    solver = CdclSolver(cnf)
    assert solver.solve().is_sat
    solver.add_clause([-a])
    solver.add_clause([-b])
    assert solver.solve().is_unsat
    assert solver.solve().is_unsat, "UNSAT must be sticky"


def test_ensure_vars_extends_search_space():
    cnf = Cnf()
    a = cnf.new_var()
    cnf.add_clause([a])
    solver = CdclSolver(cnf)
    solver.ensure_vars(3)
    solver.add_clause([-2, 3])
    result = solver.solve([2])
    assert result.is_sat and result.model[3]


def test_conflict_budget_returns_unknown():
    # A small pigeonhole-style UNSAT formula with a 1-conflict budget.
    cnf = Cnf()
    v = cnf.new_vars(6)
    # 3 pigeons, 2 holes: p_ij = pigeon i in hole j
    p = lambda i, j: v[i * 2 + j]
    for i in range(3):
        cnf.add_clause([p(i, 0), p(i, 1)])
    for j in range(2):
        for i1 in range(3):
            for i2 in range(i1 + 1, 3):
                cnf.add_clause([-p(i1, j), -p(i2, j)])
    result = CdclSolver(cnf).solve(max_conflicts=1)
    assert result.status in ("unknown", "unsat")
    full = CdclSolver(cnf).solve()
    assert full.is_unsat


def test_solver_stats_populate():
    cnf = Cnf()
    a, b, c = cnf.new_vars(3)
    cnf.add_clauses([[a, b, c], [-a, b], [-b, c], [-c, -a]])
    solver = CdclSolver(cnf)
    result = solver.solve()
    assert result.is_sat
    assert solver.stats.decisions >= 1
    assert solver.stats.propagations >= 1


def test_solve_cnf_helper():
    cnf = Cnf()
    a = cnf.new_var()
    cnf.add_clause([a])
    assert solve_cnf(cnf).is_sat


def test_incremental_solver_wrapper():
    inc = IncrementalSolver()
    a = inc.cnf.new_var()
    b = inc.cnf.new_var()
    inc.cnf.add_clause([a, b])
    assert inc.solve([-a]).is_sat
    # Grow formula between solves: new var + constraints.
    c = inc.cnf.new_var()
    inc.cnf.add_clause([-b, c])
    inc.cnf.add_clause([-c])
    result = inc.solve([-a])
    assert result.is_unsat
    assert inc.solve([a]).is_sat
    assert inc.stats.propagations > 0


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_cdcl_with_assumptions_vs_brute_force(data):
    cnf = random_cnf(data.draw, max_vars=6, max_clauses=20)
    lit = data.draw(st.integers(min_value=1, max_value=cnf.n_vars))
    sign = 1 if data.draw(st.booleans()) else -1
    assumption = sign * lit
    constrained = cnf.copy()
    constrained.add_clause([assumption])
    expected = brute_force(constrained)
    result = CdclSolver(cnf).solve([assumption])
    assert (expected is None) == result.is_unsat
    if result.is_sat:
        assert result.model[lit] == (sign > 0)
        assert cnf.evaluate(result.model)
