"""Suite-wide setup: BLAS runs on one thread.

OpenBLAS reads its thread count once, when numpy loads it, so the counts
are set here, before any test module imports numpy; a count already set in
the environment is kept.  On a host whose other CPU was busy, the suite's
large eigendecompositions took 160 s instead of 35 s with OpenBLAS's
default of one thread per CPU.  Subprocesses started by the tests inherit
the setting.

The self-check corpora that two criteria share are cached per seed, so each
test starts and ends with empty caches: a defect planted in a test reaches
a corpus built inside it, and leaves no poisoned corpus behind.
"""

import os
import sys

import pytest

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

assert "numpy" not in sys.modules, "numpy was imported before the BLAS thread count was set"


@pytest.fixture(autouse=True)
def _fresh_selfcheck_corpora():
    from kboundary import selfcheck

    caches = (selfcheck._random_kernel_corpus, selfcheck._herglotz_corpus)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()
