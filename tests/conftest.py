"""Fixtures shared by the test modules."""

import itertools
import random

import pytest

from gtkit.identities import IntFunction


@pytest.fixture
def random_function():
    """random_function(m, seed): a seeded integer function of arity m, with
    values in [-5, 5] on [-5, 5]^m and 0 outside."""

    def build(m, seed):
        rng = random.Random(seed)
        values = {pt: rng.randint(-5, 5) for pt in itertools.product(range(-5, 6), repeat=m)}
        return IntFunction(m, lambda pt: values.get(pt, 0))

    return build
