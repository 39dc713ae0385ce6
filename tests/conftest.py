import os

import pytest

# deterministic single-threaded BLAS; must be set before numpy loads
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")


@pytest.fixture()
def idx_dir(tmp_path):
    """A directory holding the four MNIST IDX files, 70 random 28×28
    images and 70 digit labels each for train and test."""
    # imported here, after the thread settings above
    import numpy as np

    from convrelax import mnistreg

    rng = np.random.default_rng(0)
    count = 70
    for name, fname in mnistreg.IDX_FILES.items():
        if "images" in name:
            data = rng.integers(0, 256, size=count * 28 * 28).astype(">u1")
            t = mnistreg.IdxTensor("unsigned-byte", (count, 28, 28), data)
        else:
            t = mnistreg.IdxTensor("unsigned-byte", (count,), rng.integers(0, 10, size=count).astype(">u1"))
        (tmp_path / fname).write_bytes(mnistreg.write_idx(t))
    return tmp_path
