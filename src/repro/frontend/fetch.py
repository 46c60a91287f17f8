"""Trace-driven front end: fetch timing plus branch prediction.

The front end walks the committed trace in order and computes, for each
instruction, the cycle at which it becomes available to the dispatch
stage. It models:

* 8-wide fetch with at most one taken branch per fetch block (Table 1),
* instruction-cache misses stalling fetch,
* branch prediction (YAGS direction, perfect BTB for direct targets, RAS
  for returns, cascading indirect predictor) — a misprediction stops
  fetch until the pipeline reports the branch resolved, modelling the
  full misprediction loop,
* the front-end pipeline depth (fetch + decode + rename + dispatch
  stages) between fetch and dispatch availability.

Wrong-path instructions are not injected; their cost is the fetch gap
plus the refill depth, matching the paper's minimum 15-cycle
misprediction loop when the register read takes one cycle.
"""

from __future__ import annotations

from collections import deque

from repro.frontend.branch import YagsPredictor
from repro.frontend.btb import IndirectPredictor, ReturnAddressStack
from repro.isa.instruction import LINK_REG
from repro.vm.trace import DynamicInst, Trace


class FetchedInst:
    """A fetched instruction waiting for dispatch.

    Attributes:
        dyn: the dynamic instruction.
        ready_at: earliest cycle the dispatch stage may consume it.
        mispredicted: True when this is a branch the front end predicted
            incorrectly; fetch stops after it until ``resume`` is called.
    """

    __slots__ = ("dyn", "ready_at", "mispredicted")

    def __init__(self, dyn: DynamicInst, ready_at: int, mispredicted: bool):
        self.dyn = dyn
        self.ready_at = ready_at
        self.mispredicted = mispredicted


class FrontEnd:
    """Computes dispatch-availability times for a committed trace.

    Args:
        trace: the committed instruction stream.
        fetch_width: instructions fetched per cycle.
        front_depth: pipeline stages between fetch and dispatch
            availability (fetch 4 + decode 2 + rename 3 + dispatch 2 = 11
            per Table 1; the extra issue stage is modelled in the core).
        queue_capacity: fetch-queue depth providing elasticity between
            fetch and dispatch.
        icache: optional object with ``access(line:int) -> int`` returning
            additional stall cycles for fetching the given line.
        line_insts: instructions per I-cache line (64-byte lines of
            4-byte instructions).
    """

    def __init__(
        self,
        trace: Trace,
        *,
        fetch_width: int = 8,
        front_depth: int = 11,
        queue_capacity: int = 48,
        icache=None,
        line_insts: int = 16,
    ) -> None:
        self.records = trace.records
        self.fetch_width = fetch_width
        self.front_depth = front_depth
        self.queue_capacity = queue_capacity
        self.icache = icache
        self.line_insts = line_insts

        self.direction = YagsPredictor()
        self.indirect = IndirectPredictor()
        self.ras = ReturnAddressStack()

        self._queue: deque[FetchedInst] = deque()
        self._next_index = 0
        self._fetch_cycle = 0
        self._slots_left = fetch_width
        self._stalled_for_branch = False
        self._last_line = -1
        # Cycle of the last fill, and the cycle whose fill stopped on a
        # full queue (see next_ready).
        self._filled_at = -1
        self._full_at = -1

        self.branches_seen = 0
        self.mispredicts = 0

    # ------------------------------------------------------------------

    def exhausted(self) -> bool:
        """True when the whole trace has been fetched and dispatched."""
        return self._next_index >= len(self.records) and not self._queue

    def resume(self, cycle: int) -> None:
        """Restart fetch after a mispredicted branch resolves at *cycle*.

        The next fetch block begins the cycle after resolution (redirect
        takes effect at the start of ``cycle + 1``).
        """
        self._stalled_for_branch = False
        self._filled_at = -1
        self._fetch_cycle = max(self._fetch_cycle, cycle + 1)
        self._slots_left = self.fetch_width
        self._last_line = -1

    def pull(self, now: int, max_count: int) -> list[FetchedInst]:
        """Return up to *max_count* instructions dispatchable at *now*.

        The caller is responsible for further admission control (window,
        ROB, and physical-register availability); instructions not
        consumed remain queued.
        """
        self._fill_queue(now)
        queue = self._queue
        out: list[FetchedInst] = []
        while queue and len(out) < max_count and queue[0].ready_at <= now:
            out.append(queue.popleft())
        return out

    def next_ready(
        self, now: int, refill: bool = False
    ) -> FetchedInst | None:
        """Head of the queue if dispatchable at *now*, without consuming.

        This is the dispatch stage's fast path: fetch runs once, at the
        first probe of each cycle. When it stops on a full queue, the
        slots dispatch frees are refilled, in the same cycle, at the
        probe that passes ``refill=True`` or that finds the queue empty.
        Refilled instructions join the tail, behind every instruction
        dispatch can still take this cycle, so batching the refill
        fetches exactly what a refill before every probe would, in the
        same order and cycle. Consume the returned instruction with
        :meth:`pop_next`.
        """
        queue = self._queue
        if now != self._filled_at or (
            self._full_at == now and (refill or not queue)
        ):
            self._fill_queue(now)
        if queue:
            head = queue[0]
            if head.ready_at <= now:
                return head
        return None

    def pop_next(self) -> FetchedInst:
        """Consume the head instruction (after :meth:`next_ready`)."""
        return self._queue.popleft()

    # ------------------------------------------------------------------

    def _fill_queue(self, now: int) -> None:
        """Fetch ahead until the queue is full or fetch passes *now*.

        The whole fetch loop works on locals and writes the front-end
        state back once.
        """
        self._filled_at = now
        self._full_at = -1
        if self._stalled_for_branch:
            return
        records = self.records
        total = len(records)
        next_index = self._next_index
        fetch_cycle = self._fetch_cycle
        if next_index >= total or fetch_cycle > now:
            return
        queue = self._queue
        capacity = self.queue_capacity
        queue_len = len(queue)
        fetch_width = self.fetch_width
        front_depth = self.front_depth
        line_insts = self.line_insts
        icache = self.icache
        slots_left = self._slots_left
        last_line = self._last_line
        append = queue.append
        predict = self._predict
        while next_index < total and queue_len < capacity \
                and fetch_cycle <= now:
            dyn = records[next_index]
            next_index += 1

            line = dyn.pc // line_insts
            if line != last_line:
                last_line = line
                if icache is not None:
                    stall = icache.access(line)
                    if stall:
                        fetch_cycle += stall
                        slots_left = fetch_width

            ends_block = False
            mispredicted = False
            if dyn.is_branch:
                mispredicted = not predict(dyn)
                if dyn.taken or mispredicted:
                    ends_block = True

            append(FetchedInst(dyn, fetch_cycle + front_depth, mispredicted))
            queue_len += 1

            slots_left -= 1
            if mispredicted:
                # Fetch stops; the pipeline calls resume() at resolution.
                self._stalled_for_branch = True
                break
            if ends_block or slots_left == 0:
                fetch_cycle += 1
                slots_left = fetch_width
                if ends_block:
                    last_line = -1
        if queue_len >= capacity:
            self._full_at = now
        self._next_index = next_index
        self._fetch_cycle = fetch_cycle
        self._slots_left = slots_left
        self._last_line = last_line

    def _predict(self, dyn: DynamicInst) -> bool:
        """Predict *dyn* and train; returns True when fully correct."""
        inst = dyn.inst
        correct = True
        if dyn.is_conditional:
            self.branches_seen += 1
            predicted = self.direction.predict(dyn.pc)
            self.direction.update(dyn.pc, dyn.taken)
            correct = predicted == dyn.taken
        elif dyn.is_indirect:
            if inst.src1 == LINK_REG and inst.dest is None:
                # Return: predict through the RAS.
                predicted_target = self.ras.pop()
            else:
                predicted_target = self.indirect.predict(dyn.pc)
                self.indirect.update(dyn.pc, dyn.target)
            correct = predicted_target == dyn.target
        # Direct jumps/branches have perfect targets (perfect BTB).
        if dyn.is_branch and inst.dest == LINK_REG:
            self.ras.push(dyn.pc + 1)
        if not correct:
            self.mispredicts += 1
        return correct
