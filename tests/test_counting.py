import pytest

from parzeta.counting import (BudgetExceededError, classical_count,
                              count_table, partial_count)
from parzeta.polys import VarietySpec, base_field, parse_poly

F2 = base_field(2, 1)
F3 = base_field(3, 1)


def V(p, s, n, texts, profile, base=None):
    base = base or base_field(p, s)
    names = [f"x{i+1}" for i in range(n)]
    eqs = tuple(parse_poly(t, names, base) for t in texts)
    return VarietySpec(p, s, n, eqs, tuple(profile))


DIAG = V(2, 1, 2, ["x1 + x2"], (1, 1))


def test_diagonal_counts():
    assert [partial_count(DIAG, k) for k in (1, 2, 3)] == [2, 4, 8]


def test_diagonal_mixed_profile():
    # x1 = x2 with x1 in F_{2^k}, x2 in F_{2^{2k}} forces both into F_{2^k}
    X = DIAG.with_profile((1, 2))
    assert [partial_count(X, k) for k in (1, 2, 3)] == [2, 4, 8]


def test_diagonal_profile_23():
    # intersection F_{4^k} with F_{8^k} is F_{2^k}
    X = DIAG.with_profile((2, 3))
    assert [partial_count(X, k) for k in (1, 2)] == [2, 4]


def test_hyperbola_counts():
    X = V(2, 1, 2, ["x1*x2 + 1"], (1, 1))
    for k in (1, 2, 3, 4):
        assert partial_count(X, k) == 2 ** k - 1


def test_free_variety():
    X = V(2, 1, 1, [], (3,))
    assert partial_count(X, 1) == 8
    assert partial_count(X, 2) == 64


def test_empty_variety():
    X = V(2, 1, 2, ["1"], (1, 1))
    assert partial_count(X, 5) == 0


def test_matches_classical_on_trivial_profile():
    X = V(3, 1, 2, ["x2 - x1^2"], (1, 1))
    for k in (1, 2):
        assert partial_count(X, k) == classical_count(X, k)


def test_point_over_f4():
    X = V(2, 2, 1, ["x1 + g"], (1,))
    assert [partial_count(X, k) for k in (1, 2)] == [1, 1]


def test_budget_enforced():
    X = V(2, 1, 2, [], (1, 1))
    with pytest.raises(BudgetExceededError):
        partial_count(X, 4, budget=100)


def test_count_table_truncation():
    X = V(2, 1, 2, [], (1, 1))
    table = count_table(X, 6, budget=300)
    assert table.truncated
    assert table.counts == (4, 16, 64, 256)  # k=5 would cost 1024


def test_count_table_full():
    table = count_table(DIAG, 4)
    assert not table.truncated
    assert table.counts == (2, 4, 8, 16)


def test_invalid_k():
    with pytest.raises(ValueError):
        partial_count(DIAG, 0)


def test_budget_checked_before_subfields(monkeypatch):
    # mu3_profile6_f2 at k = 3 would span a 2^18-element subfield
    from pathlib import Path

    from parzeta.cli import load_instance
    from parzeta.fields import Field

    corpus = Path(__file__).resolve().parent.parent / "corpus"
    X, _, _ = load_instance(str(corpus / "mu3_profile6_f2.json"), "variety")

    def refuse(self, e, method="filter"):
        raise AssertionError("subfield materialised before the budget check")

    monkeypatch.setattr(Field, "subfield", refuse)
    with pytest.raises(BudgetExceededError) as exc:
        partial_count(X, 3, budget=10)
    assert exc.value.cost == 2 ** (3 * sum(X.profile))
