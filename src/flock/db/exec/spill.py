"""Disk spill for blocking operators under a memory budget.

When ``SET flock.memory_budget`` / ``FLOCK_MEMORY_BUDGET`` is set and a
hash aggregate or hash join input exceeds it, the executor partitions the
input by key code (``Executor._map_partitions``) and writes each partition
— with the columns still in their compressed encodings — to files under
the database's spill directory, then processes partitions one at a time.

Every spilled batch carries the global row positions of its rows, so a
partition can map its local results back into the serial output order.
"""

from __future__ import annotations

import os
import pickle
import numpy as np

from flock.db.encoding import batch_nbytes  # re-exported for the executor
from flock.db.vector import Batch
from flock.errors import ExecutionError
from flock.observability import metrics

__all__ = ["batch_nbytes", "partition_count", "SpillManager"]

#: Partition-count bounds: at least 2 (or there is nothing to gain), at
#: most 64 (beyond that the per-partition overhead dominates).
MIN_PARTITIONS = 2
MAX_PARTITIONS = 64


def partition_count(total_bytes: int, budget: int) -> int:
    """How many partitions bring ``total_bytes`` under ``budget`` each."""
    needed = -(-total_bytes // max(1, budget))
    return max(MIN_PARTITIONS, min(MAX_PARTITIONS, needed))


class SpillManager:
    """Writes and reads spill files for one operator execution.

    Files live under the database's spill directory and are deleted as
    soon as they are read back (and unconditionally on ``close``), so a
    crash leaves at most one operator's worth of spill garbage, cleaned
    up by the next ``spill_directory()`` user or directory removal.
    """

    def __init__(self, directory: str):
        self.directory = directory
        self._seq = 0
        self._files: list[str] = []

    def spill(self, batch: Batch, rows: np.ndarray) -> str:
        """Write one partition (batch + global row positions); path token."""
        self._seq += 1
        path = os.path.join(
            self.directory, f"part-{os.getpid()}-{id(self)}-{self._seq}.bin"
        )
        payload = pickle.dumps(
            (batch.names, batch.columns, rows), protocol=pickle.HIGHEST_PROTOCOL
        )
        self._files.append(path)  # first, so close() removes a partial file
        try:
            with open(path, "wb") as f:
                f.write(payload)
        except OSError as error:
            self._discard(path)
            raise ExecutionError(
                f"cannot write spill file {path}: {error}"
            ) from error
        registry = metrics()
        registry.counter("spill.partitions").inc()
        registry.counter("spill.bytes_written").inc(len(payload))
        return path

    def load(self, path: str) -> tuple[Batch, np.ndarray]:
        """Read a partition back and delete its file."""
        try:
            with open(path, "rb") as f:
                names, columns, rows = pickle.loads(f.read())
        except (OSError, pickle.UnpicklingError, EOFError) as error:
            raise ExecutionError(
                f"cannot read spill file {path}: {error}"
            ) from error
        finally:
            self._discard(path)
        return Batch(names, columns), rows

    def _discard(self, path: str) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass
        if path in self._files:
            self._files.remove(path)

    def close(self) -> None:
        for path in list(self._files):
            self._discard(path)

    def __enter__(self) -> "SpillManager":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
