import os

import numpy as np


def atomic_write(path: str, data):
    """Write text (str) or bytes to a temp file beside path, then rename it
    over path, so a failed write leaves any previous file intact. The temp
    file gets mode 0o666 less the umask, the mode open(path, "w") gives."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       f".{os.path.basename(path)}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb" if isinstance(data, bytes) else "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def derive_seed(*parts: int) -> int:
    """Mix integer parts into one reproducible 64-bit seed.

    Stable across runs and platforms (SeedSequence hashing only).
    """
    seq = np.random.SeedSequence([int(p) & 0xFFFFFFFFFFFFFFFF for p in parts])
    return int(seq.generate_state(1, np.uint64)[0])
