"""Platform facts the output bytes rest on, at the benchmark's shapes.

numpy's matrix products give the same bits at one and at two OpenBLAS
threads, so a serial sweep, a --jobs worker and a multimodal loss call
(which holds OpenBLAS at one thread) write the same bytes. Splitting the
select shape's products in two, by rows or by classes, gives the bits of
the whole product, and so do near-equal row blocks and a scattered row
subset of a pool's shift, which select_round scores block by block. An
upgrade of numpy or its BLAS that breaks one of these
fails here by name instead of silently moving an output's hash.
"""

import numpy as np
import pytest

# name: (shape of a, shape of b, product), each product written as the
# program writes it, since a transposed operand takes another BLAS path.
PRODUCTS = {
    # fullscale (C=100, d=512, 128-row batches): a route's shift of a batch
    # and of the base prototypes by the effective map, and its backward dE.
    "fullscale Z @ E.T": ((128, 512), (512, 512), lambda a, b: a @ b.T),
    "fullscale B @ E.T": ((100, 512), (512, 512), lambda a, b: a @ b.T),
    "fullscale dA.T @ Z": ((128, 512), (128, 512), lambda a, b: a.T @ b),
    # The shift of the SSL pool (about 5k rows) by the visual route's map.
    "fullscale pool Z @ E.T": ((5000, 512), (512, 512), lambda a, b: a @ b.T),
    # select (C=1000, d=64, 4096-row batches, a 50k-row pool): a batch's
    # logits, the prototype gradient, and one 64-class block of pool scores.
    "select Z @ W.T": ((4096, 64), (1000, 64), lambda a, b: a @ b.T),
    "select G.T @ Z": ((4096, 1000), (4096, 64), lambda a, b: a.T @ b),
    "select pool block": ((64, 64), (50000, 64), lambda a, b: (a @ b.T).T),
}


def _operands(*shapes):
    rng = np.random.default_rng(0)
    return [rng.standard_normal(shape) / np.sqrt(shape[1]) for shape in shapes]


@pytest.mark.parametrize("name", PRODUCTS)
def test_same_bits_at_one_and_two_blas_threads(name, blas_threads):
    _, set_threads = blas_threads
    a_shape, b_shape, product = PRODUCTS[name]
    a, b = _operands(a_shape, b_shape)
    set_threads(1)
    one = product(a, b)
    set_threads(2)
    two = product(a, b)
    assert one.tobytes() == two.tobytes()


def test_row_split_of_select_logits_equals_the_whole():
    # A split at 4095 rows does not hold: a one-row tail takes another path.
    Z, W = _operands((4096, 64), (1000, 64))
    halves = np.concatenate([Z[:2048] @ W.T, Z[2048:] @ W.T])
    assert halves.tobytes() == (Z @ W.T).tobytes()


def test_class_split_of_select_prototype_gradient_equals_the_whole():
    # A split at 999 classes does not hold: a one-class tail takes another path.
    G, Z = _operands((4096, 1000), (4096, 64))
    halves = np.concatenate([G[:, :500].T @ Z, G[:, 500:].T @ Z])
    assert halves.tobytes() == (G.T @ Z).tobytes()


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("n, d", [(5000, 512), (50000, 64)])
def test_row_blocks_and_subsets_of_a_pool_shift_equal_the_whole(blas_threads, threads, n, d):
    # select_round gathers and shifts a pool in near-equal blocks of at most
    # 1024 rows, none a one-row tail; a pool itself is a scattered subset of
    # the train set's rows.
    _, set_threads = blas_threads
    set_threads(threads)
    Z, E = _operands((n, d), (d, d))
    whole = Z @ E.T
    for most in (128, 1000, 1024):
        for block in np.array_split(np.arange(n), -(-n // most)):
            assert (Z[block] @ E.T).tobytes() == whole[block].tobytes()
    subset = np.sort(np.random.default_rng(1).choice(n, n // 26, replace=False))
    assert (Z[subset] @ E.T).tobytes() == whole[subset].tobytes()
