from dataclasses import replace

import numpy as np
import pytest

from sclp.basis import BasisFamily
from sclp.discretize import (DiscreteLP, assemble_discounted_lp, assemble_lta_lp,
                             build_grid)
from sclp.problems import finite_fuel_problem, inventory_problem
from sclp.simplex import export_mps, parse_mps, solve


def small_lps():
    p = inventory_problem()
    g = build_grid(p, 11, 3)
    b = BasisFamily.cubic_on_interval(p.state.x_lo, p.state.x_hi, 5)
    yield assemble_lta_lp(p, g, b)
    p = finite_fuel_problem()
    g = build_grid(p, 11, 2)
    b = BasisFamily.cubic_on_interval(p.state.x_lo, p.state.x_hi, 5)
    yield assemble_discounted_lp(p, g, b)


@pytest.mark.parametrize("idx", [0, 1])
def test_roundtrip_exact(idx):
    lp = list(small_lps())[idx]
    back = parse_mps(export_mps(lp))
    assert np.array_equal(back.c, lp.c)
    assert np.array_equal(back.a_eq, lp.a_eq)
    assert np.array_equal(back.b_eq, lp.b_eq)
    assert np.array_equal(back.a_ub, lp.a_ub)
    assert np.array_equal(back.b_ub, lp.b_ub)
    assert back.n0 == lp.n0 and back.n1 == lp.n1
    assert back.eq_labels == lp.eq_labels
    assert back.ub_labels == lp.ub_labels


def test_export_idempotent():
    lp = next(iter(small_lps()))
    text = export_mps(lp)
    assert export_mps(parse_mps(text)) == text


def test_sections_present():
    lp = next(iter(small_lps()))
    text = export_mps(replace(lp, name="CHECK"))
    lines = text.splitlines()
    assert lines[0].startswith("NAME") and "CHECK" in lines[0]
    for section in ("ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA"):
        assert section in lines
    assert " N  COST" in lines


def test_roundtrip_preserves_optimum():
    for lp in small_lps():
        s0 = solve(lp)
        s1 = solve(parse_mps(export_mps(lp)))
        assert s0.status == s1.status == "optimal"
        assert s1.objective == pytest.approx(s0.objective, rel=1e-12)


def test_parse_rejects_unknown_row_type():
    bad = "NAME x\nROWS\n G  R1\nENDATA\n"
    with pytest.raises(ValueError, match="row type"):
        parse_mps(bad)


def test_parse_rejects_unknown_label():
    bad = ("NAME x\nROWS\n N  COST\n E  R1\nCOLUMNS\n"
           "    W0_000000  R2        1.0\nENDATA\n")
    with pytest.raises(ValueError, match="unknown row label"):
        parse_mps(bad)


@pytest.mark.parametrize("idx", [0, 1])
def test_roundtrip_keeps_the_lp_name(idx):
    lp = list(small_lps())[idx]
    assert parse_mps(export_mps(lp)).name == lp.name


def test_name_with_spaces_roundtrips():
    lp = next(iter(small_lps()))
    text = export_mps(replace(lp, name="my inventory:lta"))
    assert parse_mps(text).name == "my inventory:lta"


RHS_TEXT = ("NAME x\nROWS\n N  COST\n E  R1\nCOLUMNS\n"
            "    W0_000000  R1        1.0\nRHS\n    RHS       {label}        2.0\nENDATA\n")


def test_parse_rejects_unknown_rhs_label():
    with pytest.raises(ValueError, match="unknown row label 'R9'"):
        parse_mps(RHS_TEXT.format(label="R9"))


def test_parse_ignores_rhs_on_cost():
    assert parse_mps(RHS_TEXT.format(label="COST")).b_eq.tolist() == [0.0]
    assert parse_mps(RHS_TEXT.format(label="R1")).b_eq.tolist() == [2.0]


def reference_mps_columns(lp):
    """COLUMNS lines written column by column, then row by row."""
    rows = [("COST", lp.c), *zip(lp.eq_labels, lp.a_eq), *zip(lp.ub_labels, lp.a_ub)]
    return [f"    {cname:<10}{lab:<10}{row[j]:.17g}"
            for j, cname in enumerate(lp.column_names())
            for lab, row in rows if row[j] != 0.0]


def test_columns_section_order_across_blocks():
    # 600 columns span three export blocks; zeros (also -0.0) are skipped.
    rng = np.random.default_rng(4)
    n = 600
    sparse = lambda *shape: rng.normal(size=shape) * (rng.random(shape) < 0.3)
    c, a_eq, a_ub = sparse(n), sparse(3, n), sparse(2, n)
    c[:300] = 0.0  # the first block has no cost entries
    c[256:512] = a_eq[:, 256:512] = a_ub[:, 256:512] = 0.0  # the second is empty
    a_eq[0, 5] = -0.0
    lp = DiscreteLP(c=c, a_eq=a_eq, b_eq=np.ones(3), a_ub=a_ub,
                    b_ub=np.ones(2), n0=n - 100, n1=100,
                    eq_labels=("E0", "E1", "E2"), ub_labels=("B0", "B1"))
    lines = export_mps(lp).split("\n")
    body = lines[lines.index("COLUMNS") + 1:lines.index("RHS")]
    assert body == reference_mps_columns(lp)
