"""Writer and reader engines: the ADIOS2-style step-based put/get API.

The writer side::

    writer = SSTWriterEngine(broker, n_ranks=4)
    writer.begin_step()
    writer.put("particles/position", block_data, rank=2)
    writer.end_step()        # metadata gathered, step presented to readers
    writer.close()           # end of stream

The reader side::

    reader = SSTReaderEngine(broker)
    while reader.begin_step() is StepStatus.OK:
        names = reader.available_variables()
        data = reader.get("particles/position")          # all blocks gathered
        mine = reader.get("particles/position", rank=2)  # one block only
        reader.end_step()    # tells the writer the data can be dropped

The classical file-based workflow the paper compares against is
:class:`repro.openpmd.backends.JSONBackend`.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.streaming.broker import SSTBroker
from repro.streaming.step import Step, StepStatus
from repro.streaming.variable import Block, Variable


class EndOfStreamError(RuntimeError):
    """Raised when an operation requires an open step after the stream ended."""


class SSTWriterEngine:
    """Producer side of the SST-style stream."""

    def __init__(self, broker: SSTBroker, n_ranks: int = 1,
                 put_timeout: Optional[float] = 30.0) -> None:
        if n_ranks < 1:
            raise ValueError("n_ranks must be >= 1")
        self.broker = broker
        self.n_ranks = int(n_ranks)
        self.put_timeout = put_timeout
        self._current: Optional[Step] = None
        self._step_index = 0
        self.total_bytes_put = 0

    def begin_step(self) -> int:
        if self._current is not None:
            raise RuntimeError("previous step has not been ended")
        self._current = Step(index=self._step_index)
        return self._step_index

    def put(self, name: str, data: np.ndarray, rank: int = 0,
            offset: Optional[Tuple[int, ...]] = None) -> None:
        """Add one rank's block of variable ``name`` to the open step."""
        if self._current is None:
            raise RuntimeError("put() requires an open step (call begin_step first)")
        if not 0 <= rank < self.n_ranks:
            raise ValueError(f"rank {rank} outside [0, {self.n_ranks})")
        data = np.asarray(data)
        variable = self._current.variables.setdefault(name, Variable(name))
        variable.add_block(Block(rank=rank, offset=offset or (0,) * data.ndim, data=data))
        self.total_bytes_put += int(data.nbytes)

    def put_attributes(self, attributes: Dict[str, object]) -> None:
        if self._current is None:
            raise RuntimeError("put_attributes() requires an open step")
        self._current.attributes.update(attributes)

    def end_step(self) -> Step:
        """Gather the step's metadata and present it to the readers."""
        if self._current is None:
            raise RuntimeError("end_step() without begin_step()")
        step, self._current = self._current, None
        self._step_index += 1
        self.broker.put_step(step, timeout=self.put_timeout)
        return step

    def close(self) -> None:
        self.broker.close()


class SSTReaderEngine:
    """Consumer side of the SST-style stream.

    In openPMD/ADIOS2 "each reader application decides on its own which
    remote datasets to load" — :meth:`get` with a ``rank`` argument selects
    a single producer block (the intra-node pattern of Fig. 3c); without it
    all blocks are gathered.
    """

    def __init__(self, broker: SSTBroker,
                 get_timeout: Optional[float] = 30.0) -> None:
        self.broker = broker
        self.get_timeout = get_timeout
        self._current: Optional[Step] = None
        self._ended = False
        self.total_bytes_read = 0
        self.steps_read = 0

    # -- step protocol ------------------------------------------------------ #
    def begin_step(self) -> StepStatus:
        if self._current is not None:
            raise RuntimeError("previous step has not been ended")
        if self._ended:
            return StepStatus.END_OF_STREAM
        step = self.broker.get_step(timeout=self.get_timeout)
        if step is None:
            self._ended = True
            return StepStatus.END_OF_STREAM
        self._current = step
        return StepStatus.OK

    def current_step(self) -> Step:
        if self._current is None:
            raise EndOfStreamError("no step is currently open")
        return self._current

    def available_variables(self) -> Tuple[str, ...]:
        return self.current_step().available_variables()

    def attributes(self) -> Dict[str, object]:
        return dict(self.current_step().attributes)

    def get(self, name: str, rank: Optional[int] = None) -> np.ndarray:
        """Read a variable from the open step (one block or all gathered)."""
        variable = self.current_step().get(name)
        if rank is None:
            data = variable.gather()
        else:
            data = variable.block(rank).data
        self.total_bytes_read += int(np.asarray(data).nbytes)
        return data

    def end_step(self) -> None:
        """Release the step (the writer may now drop the data)."""
        if self._current is None:
            raise RuntimeError("end_step() without begin_step()")
        self._current = None
        self.steps_read += 1

    def close(self) -> None:
        self._current = None
        self._ended = True
