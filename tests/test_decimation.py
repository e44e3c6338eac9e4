from __future__ import annotations

import importlib
import pkgutil

import numpy as np
import pytest

import rmtdec
from rmtdec.decimation import DecimationResult, decimate, singular_values, superpose


class TestSingularValues:
    def test_mixed_signs(self) -> None:
        sv = singular_values([-2.0, -1.0, 3.0])
        np.testing.assert_array_equal(sv, [1.0, 2.0, 3.0])

    def test_single_zero(self) -> None:
        np.testing.assert_array_equal(singular_values([0.0]), [0.0])

    def test_tie_preserved(self) -> None:
        sv = singular_values([-1.0, 1.0])
        np.testing.assert_array_equal(sv, [1.0, 1.0])


class TestDecimate:
    """Even set = 2nd, 4th, ... largest = ascending indices n-1, n-3, ..."""

    def test_n4(self) -> None:
        r = decimate(np.array([1.0, 2.0, 3.0, 4.0]))
        np.testing.assert_array_equal(r.even, [1.0, 3.0])
        np.testing.assert_array_equal(r.odd, [2.0, 4.0])
        assert r.mu == 0

    def test_n3(self) -> None:
        r = decimate(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(r.even, [2.0])
        np.testing.assert_array_equal(r.odd, [1.0, 3.0])
        assert r.mu == 1

    def test_n2(self) -> None:
        r = decimate([1.0, 2.0])
        np.testing.assert_array_equal(r.even, [1.0])
        np.testing.assert_array_equal(r.odd, [2.0])

    def test_n1(self) -> None:
        r = decimate([5.0])
        assert r.even.size == 0
        np.testing.assert_array_equal(r.odd, [5.0])
        assert r.mu == 1

    def test_counts_and_merge(self) -> None:
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            sv = np.sort(rng.uniform(0.0, 5.0, size=n))
            r = decimate(sv)
            assert r.even.size == n // 2
            assert r.odd.size == (n + 1) // 2
            merged = superpose(r.even, r.odd)
            np.testing.assert_array_equal(merged, sv)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_rows_match_one_dimensional_calls(self, n: int) -> None:
        rows = np.random.default_rng(n).normal(size=(7, n))
        sv = singular_values(rows)
        r = decimate(sv)
        assert r.even.shape == (7, n // 2) and r.odd.shape == (7, (n + 1) // 2)
        assert r.mu == n % 2
        for i, row in enumerate(rows):
            one = decimate(singular_values(row))
            np.testing.assert_array_equal(r.even[i], one.even)
            np.testing.assert_array_equal(r.odd[i], one.odd)
        np.testing.assert_array_equal(superpose(r.even, r.odd), sv)
        # superpose takes any number of runs, row by row
        np.testing.assert_array_equal(superpose(r.even, r.odd[:, :0], r.odd), sv)

    def test_even_is_second_largest_family(self) -> None:
        sv = np.array([0.5, 1.5, 2.5, 3.5, 4.5])
        r = decimate(sv)
        # from the largest 4.5: the 2nd and 4th largest are 3.5 and 1.5
        np.testing.assert_array_equal(r.even, [1.5, 3.5])


class TestSuperpose:
    def test_merge(self) -> None:
        np.testing.assert_array_equal(superpose([1.0, 3.0], [2.0]), [1.0, 2.0, 3.0])

    def test_empty(self) -> None:
        np.testing.assert_array_equal(superpose([], [5.0]), [5.0])

    def test_duplicates(self) -> None:
        np.testing.assert_array_equal(superpose([1.0], [1.0]), [1.0, 1.0])

    def test_commutative_associative(self) -> None:
        rng = np.random.default_rng(4)
        a, b, c = (np.sort(rng.normal(size=k)) for k in (3, 4, 2))
        np.testing.assert_array_equal(superpose(a, b), superpose(b, a))
        np.testing.assert_array_equal(
            superpose(superpose(a, b), c), superpose(a, superpose(b, c))
        )


def test_result_type_fields() -> None:
    r = decimate([1.0, 2.0, 3.0, 4.0])
    assert isinstance(r, DecimationResult)
    assert r.mu in (0, 1)


@pytest.mark.parametrize(
    "module", ["rmtdec"] + [f"rmtdec.{m.name}" for m in pkgutil.iter_modules(rmtdec.__path__)]
)
def test_every_exported_name_resolves(module: str) -> None:
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names undefined: {missing}"
