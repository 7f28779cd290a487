import pytest

from fatf import budget


def test_spend_counts_only_inside_a_scope():
    assert budget.spend("letters", 10, 5) is False
    with budget.scope():
        assert budget.spend("letters", 5, 5) is False
        assert budget.spend("digits", 5, 5) is False
        assert budget.spend("letters", 1, 5) is True
    assert budget.spend("letters", 10, 5) is False


def test_a_scope_joins_the_open_count():
    with budget.scope():
        budget.spend("letters", 4, 5)
        with budget.scope():
            assert budget.spend("letters", 2, 5) is True


def test_a_failed_scope_leaves_no_count_open():
    with pytest.raises(ValueError):
        with budget.scope():
            budget.spend("letters", 6, 5)
            raise ValueError
    assert budget.spend("letters", 10, 5) is False
    with budget.scope():
        assert budget.spend("letters", 5, 5) is False
