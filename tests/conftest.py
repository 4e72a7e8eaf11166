"""Fixtures shared by the test modules."""

import hashlib

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

# The last bits of numpy's float64 power, exp and log depend on the SIMD loop
# it dispatches to (its AVX-512 loops round some otherwise than its AVX2 and
# baseline loops), and so do the outputs that take them.  Output digests are
# frozen per value of this key: a hash of the transcendental loops capra
# calls, on a fixed vector.  It names a dispatch by the bits it computes, so
# it is the same under any numpy build's target names, and two dispatches
# that compute the same bits share their digests.
_X = np.linspace(0.01, 10.0, 4096)
SIMD_MATH = hashlib.sha256(b"".join(
    f(_X).tobytes() for f in (lambda x: np.power(x, 1.5), np.exp, np.log, np.sin, np.cos)
)).hexdigest()[:16]


@pytest.fixture
def frozen_for_dispatch():
    """The entry of a table keyed by :data:`SIMD_MATH` for this process's
    dispatch; a dispatch with no entry fails the test, naming its key and
    targets, so a digest is only ever compared under the loops it was taken
    under."""
    def pick(table: dict):
        if SIMD_MATH not in table:
            targets = " ".join(t for t in __cpu_dispatch__ if __cpu_features__.get(t))
            pytest.fail(f"no digest frozen for SIMD_MATH {SIMD_MATH!r} "
                        f"(numpy {np.__version__}, dispatch targets {targets!r})")
        return table[SIMD_MATH]
    return pick
