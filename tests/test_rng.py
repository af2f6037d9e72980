import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qelm_lab.rng import Rng, derive_seed, integers_per_seed


def test_streams_are_deterministic():
    a = Rng(42).uniforms(100)
    b = Rng(42).uniforms(100)
    assert np.array_equal(a, b)


def test_vector_and_scalar_paths_agree():
    vec = Rng(7).uniforms(50)
    rng = Rng(7)
    scalars = np.array([rng.uniform() for _ in range(50)])
    assert np.array_equal(vec, scalars)


def test_uniforms_in_unit_interval():
    u = Rng(1).uniforms(10000)
    assert u.min() >= 0.0
    assert u.max() < 1.0


def test_normals_have_sane_moments():
    z = Rng(3).normals(200000)
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02


def test_derive_seed_is_stable_and_sensitive():
    assert derive_seed(5, "a", 1) == derive_seed(5, "a", 1)
    assert derive_seed(5, "a", 1) != derive_seed(5, "a", 2)
    assert derive_seed(5, "a") != derive_seed(5, "b")
    assert derive_seed(5, "ab") != derive_seed(5, "a", "b")


def test_multinomial_point_mass():
    counts = Rng(0).multinomial(np.array([0.0, 1.0, 0.0]), 250)
    assert counts.tolist() == [0, 250, 0]


def test_multinomial_total_and_determinism():
    probs = np.array([0.2, 0.3, 0.5])
    c1 = Rng(9).multinomial(probs, 4096)
    c2 = Rng(9).multinomial(probs, 4096)
    assert c1.sum() == 4096
    assert np.array_equal(c1, c2)


def test_permutation_is_a_permutation():
    perm = Rng(11).permutation(40)
    assert sorted(perm.tolist()) == list(range(40))


def test_integers_within_range():
    vals = Rng(13).integers(1000, 3, 9)
    assert vals.min() >= 3
    assert vals.max() < 9


@settings(max_examples=200, deadline=None)
@given(
    seeds=st.lists(
        st.one_of(st.sampled_from([0, 1, 2**63, 2**64 - 1]), st.integers(0, 2**64 - 1)),
        min_size=0,
        max_size=8,
    ),
    n=st.integers(1, 500),
    low=st.integers(-(2**31), 2**31),
    span=st.one_of(st.sampled_from([1, 2, 2**31]), st.integers(1, 2**31)),
)
def test_integers_per_seed_draws_each_stream_as_rng_does(seeds, n, low, span):
    """Row k of the one-step draw is Rng(seeds[k]).integers, bit for bit, and
    the first row is also the scalar stream's draws."""
    got = integers_per_seed(seeds, n, low, low + span)
    assert got.shape == (len(seeds), n) and got.dtype == np.int64
    for row, seed in zip(got, seeds):
        assert row.tobytes() == Rng(seed).integers(n, low, low + span).tobytes()
    if seeds:
        rng = Rng(seeds[0])
        assert got[0].tolist() == [low + math.floor(rng.uniform() * span) for _ in range(n)]


def test_integers_per_seed_rejects_an_empty_range():
    with pytest.raises(ValueError, match="empty integer range"):
        integers_per_seed([1, 2], 3, 5, 5)
