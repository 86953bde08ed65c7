import hashlib
import re
from dataclasses import replace

import numpy as np
import pytest

from sclp.basis import BasisFamily
from sclp.discretize import (DiscreteLP, assemble_discounted_lp, assemble_lta_lp,
                             build_grid)
from sclp.problems import finite_fuel_problem, inventory_problem
from sclp import simplex
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


@pytest.mark.parametrize("line", [" E", " N", "\tL\xa0 "])
def test_parse_rejects_a_rows_line_without_a_label(line):
    message = f"ROWS line {line!r} has no row label"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_mps(f"NAME x\nROWS\n N  COST\n{line}\nENDATA\n")
    with pytest.raises(ValueError, match="no row label"):
        parse_mps(f"NAME x\nROWS\n{line}")


ROWS_AFTER_COLUMNS = ("NAME x\nROWS\n N  COST\n E  R1\n L  B1\nCOLUMNS\n"
                      "    W0_000000  B1  1.0\nROWS\n E  R3\nCOLUMNS\n"
                      "    W0_000000  R1  2.0\nENDATA\n")
ROWS_TWICE = ("NAME x\nROWS\n N  COST\n E  R1\n E  R1\nCOLUMNS\n"
              "    W0_000000  R1  1.0\nRHS\n    RHS  R1  5.0\nENDATA\n")


@pytest.mark.parametrize("text, message", [
    # Rows are numbered at the first COLUMNS header: R3 used to take B1's
    # number, and B1's entry went to an equality row.
    (ROWS_AFTER_COLUMNS, "ROWS line ' E  R3' follows a COLUMNS or RHS header"),
    (ROWS_AFTER_COLUMNS.replace("COLUMNS\n    W0_000000  B1", "RHS\n    RHS  B1"),
     "ROWS line ' E  R3' follows a COLUMNS or RHS header"),
    # R1 used to give two equality rows, the first with the RHS but no entries.
    (ROWS_TWICE, "ROWS line ' E  R1' declares row 'R1' twice"),
    (ROWS_TWICE.replace(" E  R1\nCOLUMNS", " L  R1\nCOLUMNS"),
     "ROWS line ' L  R1' declares row 'R1' twice"),
])
def test_parse_rejects_rows_that_the_columns_cannot_mean(text, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_mps(text)


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


@pytest.mark.parametrize("labels", [("ROWLABEL10", "BUDGET"),
                                    ("LABEL_OF_LEN_15", "BOUND_OF_LEN_15")])
def test_roundtrip_with_long_row_labels(labels):
    # A label of 10 or more characters must not run into the value field.
    eq, ub = labels
    lp = DiscreteLP(c=np.array([1.0, 2.0]), a_eq=np.array([[3.0, 4.0]]), b_eq=np.array([5.0]),
                    a_ub=np.array([[0.0, 6.0]]), b_ub=np.array([7.0]), n0=1, n1=1,
                    eq_labels=(eq,), ub_labels=(ub,))
    assert_same_lp(parse_mps(export_mps(lp)), lp)


def test_parse_rejects_unknown_rhs_label():
    with pytest.raises(ValueError, match="unknown row label 'R9'"):
        parse_mps(RHS_TEXT.format(label="R9"))


def test_parse_ignores_rhs_on_cost():
    assert parse_mps(RHS_TEXT.format(label="COST")).b_eq.tolist() == [0.0]
    assert parse_mps(RHS_TEXT.format(label="R1")).b_eq.tolist() == [2.0]


def reference_mps_columns(lp):
    """COLUMNS lines written column by column, then row by row."""
    rows = [("COST", lp.c), *zip(lp.eq_labels, lp.a_eq), *zip(lp.ub_labels, lp.a_ub)]
    return [f"    {cname:<9} {lab:<9} {row[j]:.17g}"
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


def cli_lp(which):
    """The LP the CLI assembles at its default grid for a built-in problem."""
    if which == "inventory":
        p, n_state, n_control, n_basis, assemble = (inventory_problem(), 41, 11, 12,
                                                    assemble_lta_lp)
    else:
        p, n_state, n_control, n_basis, assemble = (finite_fuel_problem(), 41, 2, 16,
                                                    assemble_discounted_lp)
    b = BasisFamily.cubic_on_interval(p.state.x_lo, p.state.x_hi, n_basis)
    return assemble(p, build_grid(p, n_state, n_control), b)


# sha256 of export_mps for the inventory 41x11/12 and finite-fuel 41x2/16 LPs.
EXPORT_SHA256 = {
    "inventory": "4b4fe59a69c43af42ea78ff6f7ddf122437b6e5918cfff476b62e3628291a68f",
    "finite-fuel": "2023200ce1ee362d08c42d986158583e9c2d897562f792394485df298a3cbaca",
}


@pytest.mark.parametrize("which", sorted(EXPORT_SHA256))
def test_export_bytes_pinned(which):
    text = export_mps(cli_lp(which))
    assert hashlib.sha256(text.encode()).hexdigest() == EXPORT_SHA256[which]


def assert_same_lp(a, b):
    for f in ("c", "a_eq", "b_eq", "a_ub", "b_ub"):
        assert np.array_equal(getattr(a, f), getattr(b, f)), f
    assert (a.n0, a.n1, a.eq_labels, a.ub_labels, a.name) == (
        b.n0, b.n1, b.eq_labels, b.ub_labels, b.name)


@pytest.fixture(scope="module")
def inventory_101x51():
    p = inventory_problem()
    b = BasisFamily.cubic_on_interval(p.state.x_lo, p.state.x_hi, 50)
    return assemble_lta_lp(p, build_grid(p, 101, 51), b)


def test_roundtrip_101x51_inventory(inventory_101x51):
    lp = inventory_101x51
    assert_same_lp(parse_mps(export_mps(lp)), lp)


HEAD = "NAME          hand\nROWS\n N  COST\n E  R1\n E  R2\n L  B1\nCOLUMNS\n"
TAIL = "RHS\n    RHS       R1        1.0\nBOUNDS\nENDATA\n"


def parse_columns(body):
    """parse_mps of a COLUMNS section between fixed ROWS and RHS sections."""
    return parse_mps(HEAD + body + TAIL)


def test_two_pairs_on_one_columns_line():
    lp = parse_columns("    W0_000000  COST  1.5   R1  2.0\n"
                       "    W1_000000  R2  3.0  B1  -0.25  R1\n")  # odd token ignored
    assert lp.c.tolist() == [1.5, 0.0]
    assert lp.a_eq.tolist() == [[2.0, 0.0], [0.0, 3.0]]
    assert lp.a_ub.tolist() == [[0.0, -0.25]]
    assert (lp.n0, lp.n1, lp.b_eq.tolist(), lp.name) == (1, 1, [1.0, 0.0], "hand")


def test_comment_and_blank_lines_inside_columns():
    plain = parse_columns("    W0_000000  R1  2.0\n    W0_000001  R2  3.0\n")
    noisy = parse_columns("* first comment\n    W0_000000  R1  2.0\n\n   \n"
                          "*    W0_000009  R1  9.0\n    W0_000001  R2  3.0\n* last\n")
    assert_same_lp(noisy, plain)


def test_tab_indented_entry_lines():
    spaces = parse_columns("    W0_000000  R1  2.0\n    W0_000001  B1  -1e-300\n")
    tabs = parse_columns("\tW0_000000\tR1\t2.0\n \t W0_000001 \tB1\t-1e-300\t\n")
    assert_same_lp(tabs, spaces)


def test_column_name_reappears_after_another_column():
    lp = parse_columns("    W0_000001  R1  2.0\n    W0_000000  R1  5.0\n"
                       "    W0_000001  R2  3.0\n    W1_000000  COST  7.0\n"
                       "    W0_000000  B1  4.0\n")
    # Columns are numbered in order of first appearance.
    assert lp.a_eq.tolist() == [[2.0, 5.0, 0.0], [3.0, 0.0, 0.0]]
    assert lp.a_ub.tolist() == [[0.0, 4.0, 0.0]]
    assert lp.c.tolist() == [0.0, 0.0, 7.0]
    assert (lp.n0, lp.n1) == (2, 1)


def test_mu0_columns_come_first():
    lp = parse_columns("    W1_000000  COST  2.0  R1  3.0\n    X  R2  4.0\n"
                       "    W0_000000  COST  1.0\n")
    assert lp.c.tolist() == [1.0, 2.0, 0.0]
    assert lp.a_eq.tolist() == [[0.0, 3.0, 0.0], [0.0, 0.0, 4.0]]
    assert (lp.n0, lp.n1) == (1, 2)
    assert lp.column_names()[0] == "W0_000000"


def spoil_columns_line(text, back, field, new):
    """text with one field of the COLUMNS line `back` lines before RHS set to new."""
    lines = text.split("\n")
    k = lines.index("RHS") - back
    tokens = lines[k].split()
    tokens[field] = new
    lines[k] = "    " + "  ".join(tokens)
    return "\n".join(lines)


@pytest.mark.parametrize("back", [1, 5_000, 20_000])
def test_unknown_label_deep_in_a_large_columns_section(inventory_101x51, back):
    bad = spoil_columns_line(export_mps(inventory_101x51), back, 1, "NOPE")
    with pytest.raises(ValueError, match=r"^unknown row label 'NOPE'$"):
        parse_mps(bad)


@pytest.mark.parametrize("back", [1, 7_000])
def test_bad_value_deep_in_a_large_columns_section(inventory_101x51, back):
    bad = spoil_columns_line(export_mps(inventory_101x51), back, 2, "1.0x")
    with pytest.raises(ValueError, match=r"^could not convert string to float: '1.0x'$"):
        parse_mps(bad)


@pytest.mark.parametrize("first", ["label", "value"])
def test_first_bad_entry_in_text_order_names_the_error(first):
    bad_label, bad_value = "    W0_000000  R9  1.0\n", "    W0_000001  R1  x1\n"
    body = bad_label + bad_value if first == "label" else bad_value + bad_label
    message = "unknown row label 'R9'" if first == "label" else "'x1'"
    with pytest.raises(ValueError, match=message):
        parse_columns(body)
    # On one line, each pair's label is checked before its value.
    with pytest.raises(ValueError, match="unknown row label 'R9'"):
        parse_columns("    W0_000000  R9  x1\n")
    with pytest.raises(ValueError, match="'x1'"):
        parse_columns("    W0_000000  R1  x1  R9  1.0\n")


def reference_parse_mps(text):
    """A line-by-line MPS reader: the semantics parse_mps keeps, one line at a time."""
    section, name = None, "SCLP"
    eq_labels, ub_labels, row_code, rhs, declared = [], [], {}, {}, set()
    columns, entries = {}, []  # column names in order of first appearance
    for raw in text.split("\n"):
        if not raw.strip() or raw.startswith("*"):
            continue
        if not raw[0].isspace():
            parts = raw.split()
            section = parts[0]
            if section == "NAME" and len(parts) > 1:
                name = raw[4:].strip()
            elif section in ("COLUMNS", "RHS") and not row_code:
                row_code = {lab: len(eq_labels) + i for i, lab in enumerate(ub_labels)}
                row_code.update((lab, i) for i, lab in enumerate(eq_labels))
                row_code["COST"] = -1
            continue
        parts = raw.split()
        if section == "ROWS":
            if len(parts) < 2:
                raise ValueError(f"ROWS line {raw!r} has no row label")
            if parts[0] not in ("E", "L", "N"):
                raise ValueError(f"unsupported row type {parts[0]!r}")
            if row_code:
                raise ValueError(f"ROWS line {raw!r} follows a COLUMNS or RHS header")
            if parts[1] in declared:
                raise ValueError(f"ROWS line {raw!r} declares row {parts[1]!r} twice")
            declared.add(parts[1])
            {"E": eq_labels, "L": ub_labels, "N": []}[parts[0]].append(parts[1])
        elif section == "COLUMNS":
            columns.setdefault(parts[0])
            for k in range(1, len(parts) - 1, 2):
                if parts[k] not in row_code:
                    raise ValueError(f"unknown row label {parts[k]!r}")
                entries.append((parts[0], row_code[parts[k]], float(parts[k + 1])))
        elif section == "RHS":
            for k in range(1, len(parts) - 1, 2):
                if parts[k] not in row_code:
                    raise ValueError(f"unknown row label {parts[k]!r}")
                rhs[parts[k]] = float(parts[k + 1])
    # The mu0 columns come first, each kind in order of first appearance.
    order = sorted(columns, key=lambda cn: not cn.startswith("W0_"))
    col_index = {cn: j for j, cn in enumerate(order)}
    n, me = len(col_index), len(eq_labels)
    dense = np.zeros((1 + me + len(ub_labels), n))
    for cn, code, v in entries:
        dense[code + 1, col_index[cn]] = v
    n0 = sum(1 for cn in col_index if cn.startswith("W0_"))
    return DiscreteLP(c=dense[0], a_eq=dense[1:1 + me], a_ub=dense[1 + me:],
                      b_eq=np.array([rhs.get(lab, 0.0) for lab in eq_labels]),
                      b_ub=np.array([rhs.get(lab, 0.0) for lab in ub_labels]),
                      n0=n0, n1=n - n0, eq_labels=tuple(eq_labels),
                      ub_labels=tuple(ub_labels), name=name)


SPACES = [" ", "  ", "\t", " \t ", "\x0b", "\x1c", "\xa0", "\u3000", "\u2028"]
ROWS_DECLARED = [("N", "COST"), ("E", "R1"), ("E", "R2"), ("L", "B1"), ("L", "B2")]


def random_mps_text(rng, n_lines, bad):
    """MPS text whose ROWS, COLUMNS and RHS lines mix entries of 0-3 pairs, odd
    last tokens, comment and blank lines, assorted whitespace, non-ASCII names
    and stray section headers; with bad, some labels are unknown, missing or
    declared twice, some row types unknown, some values not numbers and some
    ROWS lines inside COLUMNS."""
    pick = lambda seq: seq[rng.integers(len(seq))]
    names = ["W0_000000", "W0_000001", "W1_000000", "W1_000001", "W0_\xe9", "\u4e01", "X"]
    labels = ["COST", "R1", "R2", "B1", "B2"]

    def spaced(fields):
        line = pick(SPACES)
        for f in fields:
            line += f + pick(SPACES)
        return line if rng.random() < 0.7 else line.rstrip()

    def noise(headers):
        """A blank, comment or stray header line, or None for an entry line."""
        kind = rng.random()
        if kind < 0.06:
            return pick(["", " ", "\t\xa0", "\u3000"])
        if kind < 0.12:
            return "*" + pick(SPACES) + pick(names) + " R1 1.0"
        if kind < 0.14:
            return pick(headers)
        return None

    def line(headers, firsts):
        """A noise line, else an entry line that starts with one of firsts."""
        other = noise(headers)
        if other is not None:
            return other
        fields = [pick(firsts)]
        for _ in range(rng.integers(4)):
            label = pick(labels) if rng.random() > 0.01 * bad else "R9"
            value = repr(float(rng.normal())) if rng.random() > 0.01 * bad else "x1"
            fields += [label, value]
        if rng.random() < 0.1:
            fields.append(pick(labels))
        return spaced(fields)

    rows = []
    for kind, label in ROWS_DECLARED:
        while (other := noise(["ROWS", "ROWS x", "NAME two\u3000 w\xf6rds\nROWS"])) is not None:
            rows.append(other)
        r = rng.random() if bad else 1.0
        rows.append(spaced([kind] if r < 0.02 else ["G", label] if r < 0.04
                           else [kind, "R1"] if r < 0.06 else [kind, label]))
    stray = ["COLUMNS", "FOO bar", "COLUMNS x y"]
    lines = [line(stray + ["ROWS", "ROWS\n E  R3\nCOLUMNS"] * bad, names)
             for _ in range(n_lines)]
    rhs = [line(["RHS", "RHS x", "FOO bar", "COLUMNS"], ["RHS", "RHS1"])
           for _ in range(rng.integers(1, 8))]
    text = ("NAME          rand\nROWS\n" + "\n".join(rows) + "\nCOLUMNS\n"
            + "\n".join(lines) + "\nRHS\n" + "\n".join(rhs) + "\nENDATA")
    return text + "\n" if rng.random() < 0.5 else text


def parse_outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("size", [1, 2, 37, 4096])
@pytest.mark.parametrize("bad", [False, True])
def test_parse_matches_the_line_by_line_reference(monkeypatch, size, bad):
    monkeypatch.setattr(simplex, "_MPS_CHUNK", size)
    rng = np.random.default_rng(11 + bad)
    for _ in range(60):
        text = random_mps_text(rng, int(rng.integers(1, 80)), bad)
        got, want = parse_outcome(parse_mps, text), parse_outcome(reference_parse_mps, text)
        if isinstance(want, str):
            assert got == want
        else:
            assert_same_lp(got, want)


@pytest.mark.parametrize("size", [1, 37])
@pytest.mark.parametrize("which", sorted(EXPORT_SHA256))
def test_roundtrip_with_tiny_chunks(monkeypatch, which, size):
    lp = cli_lp(which)
    text = export_mps(lp)
    monkeypatch.setattr(simplex, "_MPS_CHUNK", size)
    assert_same_lp(parse_mps(text), lp)
    bad = spoil_columns_line(text, 200, 1, "NOPE")
    with pytest.raises(ValueError, match=r"^unknown row label 'NOPE'$"):
        parse_mps(bad)


def test_text_is_read_in_one_pass(monkeypatch):
    # Thousands of section headers inside COLUMNS: each is read where it
    # stands, with no part of the text handed to the reader twice.
    n = 5000
    text = HEAD + "".join(f"COLUMNS\n    W0_{j:06d}  R1  {j}\n* note\n"
                          for j in range(n)) + TAIL
    seen = []
    add = simplex._MpsReader.add
    monkeypatch.setattr(simplex._MpsReader, "add",
                        lambda self, chunk: seen.append(len(chunk)) or add(self, chunk))
    lp = parse_mps(text)
    assert sum(seen) <= len(text)
    assert lp.a_eq[0].tolist() == list(range(n)) and lp.b_eq.tolist() == [1.0, 0.0]


def test_every_non_ascii_space_is_a_separator():
    wide = [chr(c) for c in range(128, 0x110000) if chr(c).isspace()]
    assert sorted(simplex._WIDE_SPACES) == [ord(c) for c in wide]
    lp = parse_columns("".join(f"{s}W0_000000{s}R1{s}2.0{s}\n" for s in wide))
    assert lp.a_eq.tolist() == [[2.0], [0.0]]
