"""Atomic operations over shared integer arrays.

These model the three gcc built-ins Algorithm 4 (``KarpSipserMT``) relies
on:

* ``_Add(memory, value)``                → :meth:`AtomicArray.add`
* ``_CompAndSwap(memory, old, new)``     → :meth:`AtomicArray.compare_and_swap`
* ``_AddAndFetch(memory, value)``        → :meth:`AtomicArray.add_and_fetch`

They run inside the :mod:`repro.parallel.simthread` simulator, where each
call is a single simulator step: atomic by construction, and free to be
interleaved arbitrarily with other threads' steps.
"""

from __future__ import annotations

import numpy as np

from repro._typing import IndexArray

__all__ = ["AtomicArray"]


class AtomicArray:
    """An int64 array with atomic read/write/CAS/fetch-add operations.

    Parameters
    ----------
    data:
        Initial contents (copied into a fresh int64 array) or an int size.
    """

    __slots__ = ("values",)

    def __init__(self, data: int | IndexArray | list[int]) -> None:
        if isinstance(data, int):
            self.values = np.zeros(data, dtype=np.int64)
        else:
            self.values = np.array(data, dtype=np.int64)

    def __len__(self) -> int:
        return int(self.values.shape[0])

    # ------------------------------------------------------------------
    def load(self, index: int) -> int:
        """Atomic read."""
        return int(self.values[index])

    def store(self, index: int, value: int) -> None:
        """Atomic write."""
        self.values[index] = value

    def add(self, index: int, value: int) -> None:
        """The paper's ``_Add``: atomic ``memory += value``."""
        self.values[index] += value

    def add_and_fetch(self, index: int, value: int) -> int:
        """The paper's ``_AddAndFetch``: atomic add returning the *new*
        content."""
        self.values[index] += value
        return int(self.values[index])

    def compare_and_swap(self, index: int, expected: int, replace: int) -> int:
        """The paper's ``_CompAndSwap``: if the cell equals *expected*,
        store *replace*.  Returns the **final** content of the cell (so a
        successful swap returns *replace*, matching the paper's use
        ``_CompAndSwap(match[nbr], NIL, curr) = curr`` as success test)."""
        if self.values[index] == expected:
            self.values[index] = replace
        return int(self.values[index])
