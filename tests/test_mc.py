"""Reproducible Monte Carlo plumbing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from robust_rates import mc
from robust_rates.errors import DomainError
from robust_rates.mc import MCConfig, child_seed, mean_and_se, normals, path_blocks


def test_same_seed_same_draws():
    a = normals(123, 1000, 4)
    b = normals(123, 1000, 4)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    assert not np.array_equal(normals(1, 100, 2), normals(2, 100, 2))


def test_antithetic_mirrors_first_half():
    z = normals(7, 1000, 3, antithetic=True)
    assert np.array_equal(z[:, :500], -z[:, 500:1000])


def test_antithetic_odd_path_count():
    z = normals(7, 101, 2, antithetic=True)
    assert z.shape == (2, 101)
    assert np.array_equal(z[:, :50], -z[:, 50:100])


def test_child_seed_is_stable_and_spreads():
    assert child_seed(42, 3) == child_seed(42, 3)
    seeds = {child_seed(42, i) for i in range(100)}
    assert len(seeds) == 100
    assert child_seed(42, 1, 2) != child_seed(42, 2, 1)


def numpy_child_seed(seed, *indices):
    """The earlier SplitMix64 formula, carried between steps as np.uint64."""
    h = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    for idx in indices:
        h = np.uint64((int(h) + 0x9E3779B97F4A7C15 * (idx + 1)) & 0xFFFFFFFFFFFFFFFF)
        z = int(h)
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        h = np.uint64(z ^ (z >> 31))
    return int(h)


def test_child_seed_matches_the_numpy_formula():
    rng = np.random.default_rng(7)
    for _ in range(2_000):
        seed = int.from_bytes(rng.bytes(16), "little") >> int(rng.integers(0, 121))  # 8-128 bits
        indices = tuple(int(i) for i in rng.integers(0, 10_000, size=int(rng.integers(0, 4))))
        got = child_seed(seed, *indices)
        assert type(got) is int
        assert got == numpy_child_seed(seed, *indices)


def test_mean_and_se_matches_numpy():
    rng = np.random.default_rng(0)
    x = rng.normal(3.0, 2.0, size=10_000)
    mean, se = mean_and_se(x)
    assert mean == pytest.approx(np.mean(x), rel=1e-12)
    assert se == pytest.approx(np.std(x, ddof=1) / np.sqrt(len(x)), rel=1e-12)


@pytest.mark.parametrize("n_paths, width, bounds", [
    (2, 2, [(0, 2)]),
    (63, 63, [(0, 63)]),
    (64, 64, [(0, 64)]),
    (65, 65, [(0, 65)]),  # a last block of one path joins the one before
    (66, 64, [(0, 64), (64, 66)]),
    (129, 65, [(0, 64), (64, 129)]),
    (130, 64, [(0, 64), (64, 128), (128, 130)]),
])
def test_path_blocks_cover_the_paths_from_block_multiples(monkeypatch, n_paths, width, bounds):
    monkeypatch.setattr(mc, "_PATH_BLOCK", 64)
    got_width, blocks = path_blocks(n_paths)
    assert got_width == width
    assert [(b.start, b.stop) for b in blocks] == bounds


def test_config_validation():
    with pytest.raises(DomainError):
        MCConfig(paths=1)


@pytest.mark.parametrize("field, value", [
    ("paths", 2.5), ("paths", 1000.0), ("paths", float("nan")), ("paths", True), ("paths", "1000"),
    ("seed", 1.5), ("seed", 1.0), ("seed", True), ("seed", None),
    ("antithetic", "no"), ("antithetic", 0), ("antithetic", None), ("antithetic", np.True_),
])
def test_config_fields_must_have_their_types(field, value):
    # A float or bool seed keyed int(seed)'s stream, a float path count failed
    # only when pricing, and any truthy antithetic sampled antithetically.
    with pytest.raises(DomainError, match=field):
        MCConfig(**{field: value})


def test_config_accepts_numpy_integers_as_their_python_values():
    got = MCConfig(paths=np.int64(1000), seed=np.uint64(7))
    assert got == MCConfig(paths=1000, seed=7)
    assert (type(got.paths), type(got.seed)) == (int, int)


U = 2.0**-52


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_block_moments_match_a_two_pass_fsum(data):
    """The sampler's streamed (mean, M2) of 2 to 3 path blocks of prices, an
    offset up to 1e8 times their spread, against math.fsum's two passes.
    e = 64 ulp of max|x| bounds each computed mean's error (a block's
    pairwise sum and Chan's update of at most 3 blocks).  M2 then moves by
    (n + 8) ulp of itself from rounding the deviations, their squares and
    their sums, and by 4 e sqrt(n M2) + 4 n e^2 from the means' errors
    (Cauchy-Schwarz)."""
    block = data.draw(st.integers(2, 16), label="block")
    n = data.draw(st.integers(2 * block, 3 * block), label="paths")
    spread = data.draw(st.floats(1e-6, 1e6), label="spread")
    offset = data.draw(st.floats(-1e8, 1e8), label="offset") * spread
    x = offset + spread * np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n),
                                             label="u"))
    taken = []

    def payoff(buffer):  # the next path block of x, in a fresh vector
        start = sum(taken)
        taken.append(buffer.shape[1])
        return x[start:start + buffer.shape[1]].copy()

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mc, "_PATH_BLOCK", block)
        ((mean, m2),) = mc._block_moments(3, n, True, [(np.zeros((1, 1)), np.zeros((1, 1)))],
                                           np.ones((1, 1)), payoff)
    assert sum(taken) == n and len(taken) in (2, 3)
    want_mean = math.fsum(x) / n
    want_m2 = math.fsum((x - want_mean) ** 2)
    e = 64 * U * float(np.max(np.abs(x)))
    assert abs(mean - want_mean) <= e
    assert abs(m2 - want_m2) <= (n + 8) * U * want_m2 + 4 * e * math.sqrt(n * want_m2) + 4 * n * e * e
