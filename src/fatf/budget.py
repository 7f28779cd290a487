"""One running count of work by kind, which every running budget spends from:
one count per CLI request (`cli.run`), else one per library call that counts."""

from contextvars import ContextVar
from typing import Optional

# the work spent in the open scope, by kind; None outside any scope
_spent: ContextVar[Optional[dict[str, int]]] = ContextVar("spent", default=None)


class scope:
    """`with scope():` joins the open count, or opens a fresh one for the block."""

    def __enter__(self) -> None:
        self._token = None if _spent.get() is not None else _spent.set({})

    def __exit__(self, *exc: object) -> None:
        if self._token is not None:
            _spent.reset(self._token)


def spend(kind: str, amount: int, cap: int) -> bool:
    """Add amount to the open count of kind and say whether it has passed
    cap; outside any scope nothing is counted and nothing passes."""
    if (spent := _spent.get()) is not None:
        spent[kind] = spent.get(kind, 0) + amount
    return spent is not None and spent[kind] > cap
