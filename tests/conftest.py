"""Shared test data and helpers."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from sumprodpower import DioSolution

# Reference solutions for s = 5 and s = 6: (parts, b, n).
TABLE_S5 = [
    ((1, 2, 12, 12), 6, 27),
    ((1, 4, 4, 18), 6, 27),
    ((1, 4, 20, 25), 10, 50),
    ((1, 3, 32, 36), 12, 72),
    ((1, 4, 12, 64), 12, 81),
    ((1, 3, 8, 96), 12, 108),
    ((1, 27, 36, 64), 24, 128),
    ((1, 1, 18, 108), 12, 128),
    ((1, 25, 54, 100), 30, 180),
    ((1, 4, 27, 256), 24, 288),
]

TABLE_S6 = [
    ((1, 1, 2, 2, 2), 2, 8),
    ((1, 6, 6, 6, 8), 6, 27),
    ((1, 1, 9, 9, 16), 6, 36),
    ((1, 2, 3, 12, 18), 6, 36),
    ((1, 9, 12, 18, 24), 12, 64),
    ((1, 4, 16, 24, 27), 12, 72),
    ((1, 6, 9, 24, 32), 12, 72),
    ((1, 4, 8, 32, 36), 12, 81),
    ((1, 4, 12, 16, 48), 12, 81),
    ((1, 2, 9, 36, 48), 12, 96),
]


def table_rows(s: int) -> list[DioSolution]:
    table = TABLE_S5 if s == 5 else TABLE_S6
    rows = [DioSolution(parts, b) for parts, b, _ in table]
    assert [(row.s, row.n) for row in rows] == [(s, n) for _, _, n in table]
    return rows


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260808)


def random_positive_fraction(rng: random.Random, upper: int = 10) -> Fraction:
    """Uniform-ish positive rational in (0, upper]."""
    den = rng.randint(1, 20)
    num = rng.randint(1, upper * den)
    return Fraction(num, den)
