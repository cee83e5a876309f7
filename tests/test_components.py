"""The gathered 28-component evaluation against the literal equations.

``oracle_components`` is the identity written out product by product on
Python complex scalars; the term table of ``cybe.weights`` must reproduce
it bit for bit, signed zeros included, for every block size.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cybe import WeightVector, component_residuals, ybe_residuals
from cybe.weights import _components


def oracle_components(u, w, v) -> list:
    """The 28 equations in COMPONENT_IDS order on three sequences of eight
    complex numbers: wu at (u,xi,eta), ww at (u+v,xi,lam), wv at
    (v,eta,lam)."""
    u1, u2, u3, u4, u5, u6, u7, u8 = u
    w1, w2, w3, w4, w5, w6, w7, w8 = w
    v1, v2, v3, v4, v5, v6, v7, v8 = v
    return [
        u7*w3*v8 - u8*w2*v7,
        u7*w8*v3 - u8*w7*v2,
        u2*w3*v2 - u3*w2*v3,
        u2*w8*v7 - u3*w7*v8,

        u1*w5*v2 + u7*w8*v6 - v2*w1*u5 - v5*w2*u3,
        u1*w1*v7 + u7*w3*v4 - v7*w5*u5 - v1*w7*u3,
        u2*w6*v1 + u5*w7*v8 - v6*w1*u2 - v3*w2*u6,
        u1*w2*v1 + u7*w4*v8 - v2*w1*u2 - v5*w2*u6,
        u1*w7*v5 + u7*w6*v3 - v7*w5*u2 - v1*w7*u6,
        u1*w7*v2 + u7*w6*v6 - v1*w1*u7 - v7*w2*u4,

        u4*w6*v2 + u7*w8*v5 - v2*w4*u6 - v6*w2*u3,
        u4*w4*v7 + u7*w3*v1 - v7*w6*u6 - v4*w7*u3,
        u2*w5*v4 + u6*w7*v8 - v5*w4*u2 - v3*w2*u5,
        u4*w2*v4 + u7*w1*v8 - v2*w4*u2 - v6*w2*u5,
        u4*w7*v6 + u7*w5*v3 - v7*w6*u2 - v4*w7*u5,
        u4*w7*v2 + u7*w5*v5 - v4*w4*u7 - v7*w2*u1,

        u1*w5*v3 + u8*w7*v6 - v3*w1*u5 - v5*w3*u2,
        u1*w1*v8 + u8*w2*v4 - v8*w5*u5 - v1*w8*u2,
        u3*w6*v1 + u5*w8*v7 - v6*w1*u3 - v2*w3*u6,
        u1*w3*v1 + u8*w4*v7 - v3*w1*u3 - v5*w3*u6,
        u1*w8*v5 + u8*w6*v2 - v8*w5*u3 - v1*w8*u6,
        u1*w8*v3 + u8*w6*v6 - v1*w1*u8 - v8*w3*u4,

        u4*w6*v3 + u8*w7*v5 - v3*w4*u6 - v6*w3*u2,
        u4*w4*v8 + u8*w2*v1 - v8*w6*u6 - v4*w8*u2,
        u3*w5*v4 + u6*w8*v7 - v5*w4*u3 - v2*w3*u5,
        u4*w3*v4 + u8*w1*v7 - v3*w4*u3 - v6*w3*u5,
        u4*w8*v6 + u8*w5*v2 - v8*w6*u3 - v4*w8*u5,
        u4*w8*v3 + u8*w5*v5 - v4*w4*u8 - v8*w3*u1,
    ]


def bits(z) -> np.ndarray:
    """The IEEE bit patterns of a complex array: equal bits, equal values,
    signed zeros told apart."""
    return np.ascontiguousarray(z, dtype=complex).view(np.int64)


def assert_gathered_is_oracle(U, W, V):
    got = _components(U, W, V)
    want = np.array([oracle_components(*([complex(x) for x in A[b]]
                                          for A in (U, W, V)))
                     for b in range(len(U))])
    assert got.shape == (len(U), 28)
    assert np.array_equal(bits(got), bits(want))
    for b in range(len(U)):
        row = component_residuals(*(WeightVector(A[b]) for A in (U, W, V)))
        assert np.array_equal(bits(row), bits(got[b]))
    comp, _ = ybe_residuals(U, W, V)
    assert np.array_equal(comp, np.abs(want))


#: a part of a weight: an exact or signed zero, or any finite value up to
#: 1e100 in magnitude, so that no sum of four triple products overflows
parts = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                  st.floats(-1e100, 1e100))


@settings(max_examples=150, deadline=None)
@given(st.lists(parts, min_size=48, max_size=48),
       st.lists(parts, min_size=48, max_size=48))
def test_two_rows_from_drawn_parts(p, q):
    """Two triples whose 96 real and imaginary parts are drawn one by one."""
    rows = np.array(p + q).view(complex).reshape(2, 24)
    assert_gathered_is_oracle(rows[:, :8], rows[:, 8:16], rows[:, 16:])


@settings(max_examples=25, deadline=None)
@given(size=st.sampled_from([1, 2, 255, 256]),
       seed=st.integers(0, 2**32 - 1),
       top=st.integers(0, 100),
       zeros=st.floats(0.0, 0.9))
def test_blocks_of_random_magnitudes(size, seed, top, zeros):
    """Blocks of 1, 2, 255 and 256 triples with parts of magnitude up to
    10**top, a share ``zeros`` of them exact zeros of either sign."""
    rng = np.random.default_rng(seed)
    vals = (rng.choice([-1.0, 1.0], (size, 48))
            * 10.0 ** rng.uniform(-top, top, (size, 48)))
    zero = rng.random((size, 48)) < zeros
    vals[zero] = np.copysign(0.0, rng.choice([-1.0, 1.0], zero.sum()))
    rows = vals.view(complex)
    assert_gathered_is_oracle(rows[:, :8], rows[:, 8:16], rows[:, 16:])


def test_quartet_padding_keeps_signed_zeros():
    """eq01 = u7*w3*v8 - u8*w2*v7 with both products -0.0 - (+0.0): the
    term steps of a quartet must give -0.0, as the oracle does."""
    U = np.zeros((1, 8), dtype=complex)
    W, V = U.copy(), U.copy()
    U[0, 6], W[0, 2], V[0, 7] = -0.0, 1.0, 1.0
    got = _components(U, W, V)[0, 0]
    want = oracle_components(*([complex(x) for x in A[0]] for A in (U, W, V)))
    assert bits(got).tolist() == bits(want[0]).tolist()
    assert np.signbit(got.real)
