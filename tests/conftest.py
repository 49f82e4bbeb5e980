import pytest

from qstuffle import bases
from qstuffle.coeff import QPoly
from qstuffle.ncpoly import word_poly


@pytest.fixture
def corrupt_recursion(monkeypatch):
    """corrupt_recursion(word) adds q·y_3 to the recursive Σ at `word`.  The
    real recursion's cache is cleared before and after the test: while the
    corruption lasts, it stores entries built from the corrupted one."""
    real = bases.dual_pbw_element
    real.cache_clear()

    def corrupt(word):
        def corrupted(w):
            p = real(w)
            return p + word_poly((3,)).scale(QPoly.q()) if w == word else p
        monkeypatch.setattr(bases, "dual_pbw_element", corrupted)
    yield corrupt
    real.cache_clear()
