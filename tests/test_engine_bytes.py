"""The exp-free path engines, pinned bit for bit.

One chunk of ``N`` paths at ``RngPolicy(11)`` through each engine whose
records pass through no ``np.exp``, so their bytes do not depend on the
CPU's SIMD exp.  Each digest hashes the record arrays in field order, the
dtype, shape and bytes of each, so any change to a draw, a float operation
or its order moves one.  The digests are those of the boolean-mask engines
that position selection replaced.  The engines whose values pass through
``np.exp`` are covered by the byte comparison of the workload CSVs.
"""

import hashlib

import numpy as np
import pytest

from levyladder import passage as pg
from levyladder import renewal as rn
from levyladder.fixtures import B1, P1, P3
from levyladder.rng import RngPolicy

N = 3000
FLUCT_BOXES = np.array([
    [0.0, 1.0, -1.0, 0.5],
    [0.0, 2.0, -1.0, 1.0],
    [0.5, 1.5, 0.25, 1.0],
    [1.0, np.inf, 0.5, 2.0],
])

ENGINES = {
    "passage-P1-below": lambda rng: pg._passage_chunk(P1, 1.5, 3.0, N, rng, below=(0.5, 1.0)),
    "passage-P3-cap2000": lambda rng: pg._passage_chunk(P3, 2.0, 2000.0, N, rng),
    "biv-B1": lambda rng: pg._biv_chunk(B1, 1.5, N, rng, np.inf),
    "ladder-P1": lambda rng: pg._ladder_chunk(P1, N, rng, 200.0),
    "ladder-P3": lambda rng: pg._ladder_chunk(P3, N, rng, 200.0),
    "fluct-occ-P1": lambda rng: rn._fluct_occ_chunk(P1, FLUCT_BOXES, N, rng),
}

DIGESTS = {
    "passage-P1-below":
        "c36ea2df7b5a4629c0bb98f05ffa0f82f4970b90610847b30c46425f6d008970",
    "passage-P3-cap2000":
        "fe6eba7cf33fa0fab92728c9efcd31f15f66ef30041d7375aa9a69e8e5824654",
    "biv-B1":
        "354c44771c3fffc8e43cdbdb2415f2e992ac085c74030906c4cffc5c5a0a4032",
    "ladder-P1":
        "8ef87e4764f2cec9d5a5bec598f959f75b9327a490bb5afe178dfaeeb566dbdd",
    "ladder-P3":
        "d0b13ebc7f8464b32363dc7f481a5c66ad70ef8eaddf035068df9b717dc762f0",
    "fluct-occ-P1":
        "f3a48d94c947de195cd74a9d705d680a12e4c668a54d11ada3cffb0bb150f203",
}


def record_digest(batch) -> str:
    """sha256 over the batch's array fields in declaration order, and its
    monitors, if it has any."""
    h = hashlib.sha256()
    for name, value in vars(batch).items():
        if isinstance(value, np.ndarray):
            h.update(f"{name}:{value.dtype.str}:{value.shape}".encode())
            h.update(np.ascontiguousarray(value).tobytes())
    h.update(repr(sorted(getattr(batch, "monitors", {}).items())).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_engine_records_are_pinned_bit_for_bit(name):
    batch = ENGINES[name](RngPolicy(11).stream(0))
    assert record_digest(batch) == DIGESTS[name]
