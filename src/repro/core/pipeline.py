"""Cycle-level out-of-order timing model.

This is the machine of Table 1: trace-driven, 8-wide, deeply pipelined,
with a 128-entry issue window, 512-entry ROB, and one of three register
storage schemes:

* ``register_cache`` — single-cycle register cache over a multi-cycle
  backing file, with pluggable insertion/replacement/indexing policies
  (the paper's proposal and both caching reference designs),
* ``monolithic`` — multi-cycle monolithic register file with a limited
  two-stage bypass network (the no-cache baselines),
* ``two_level`` — the optimistic two-level register file of §5.5.

Timing rules (derivations in DESIGN.md §4):

* An instruction issued at cycle ``t`` starts executing at
  ``t + 1 + read_latency`` (1 for cache/two-level, R for monolithic).
* A consumer of producer ``p`` may issue from ``p.exec_end - read_latency``
  (bypass stage 1); the bypass network covers ``bypass_stages`` cycles;
  afterwards the operand must come from storage, available from
  ``p.exec_end + 1`` (cache write / L1) or ``p.exec_end + W - R``
  (monolithic file with read-during-write forwarding).
* A register-cache miss blocks the issue stage for the detection cycle
  (replaying the squashed issue group, as on the Alpha 21264) and sends
  the instruction to the backing file through a single arbitrated read
  port, waiting for the producer's backing write if necessary.
* Loads probe the data cache when their address is ready; an L1 miss
  blocks issue for ``read_latency`` cycles, modelling the load-hit
  speculation replay loop whose length grows with the register read
  latency (paper §1).
"""

from __future__ import annotations

from collections import deque

from repro.core.config import MachineConfig
from repro.core.stats import LifetimeRecord, SimStats
from repro.errors import SimulationError
from repro.frontend.fetch import FrontEnd
from repro.isa.opcodes import OpClass
from repro.memory.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.obs.metrics import get_metrics
from repro.obs.tracer import trace_file_for, tracer_from_env
from repro.predict.degree_of_use import DegreeOfUsePredictor
from repro.regfile.backing import BackingFile
from repro.regfile.indexing import make_index_policy
from repro.regfile.insertion import make_insertion_policy
from repro.regfile.physical import PhysicalRegisterFile
from repro.regfile.register_cache import RegisterCache
from repro.regfile.replacement import make_replacement_policy
from repro.regfile.two_level import TwoLevelRegisterFile
from repro.rename.freelist import FreeList
from repro.rename.map_table import MapTable
from repro.rename.renamer import Renamer
from repro.vm.trace import Trace

#: Sentinel for "resolve from the environment" observability arguments.
_FROM_ENV = object()


def _op_seq(op: "_Op") -> int:
    """Sort key for issue-group ordering (oldest first)."""
    return op.seq


class _Op:
    """One in-flight dynamic instruction and the value it produces.

    A writing op is also the producer-side record of its destination
    register: ``Pipeline.pinfo[dest_preg]`` is the op itself from rename
    until the register is freed, so consumers read ``issued``,
    ``exec_end`` and the use counters straight off their producer.
    """

    __slots__ = (
        "seq", "dyn", "sources", "dest_preg", "dest_set", "prev_preg",
        "pred_eff", "pinned", "predicted", "mispredicted", "alloc_time",
        "issued", "issue_time", "exec_start", "exec_end", "unready",
        "src_producer_seqs", "earliest_epoch", "earliest_value",
        "bypass_first", "bypass_total", "uses_renamed", "last_read",
        "waiters",
    )

    def __init__(
        self, seq, dyn, sources, dest_preg, dest_set, prev_preg,
        pred_eff, pinned, predicted, mispredicted, alloc_time,
    ):
        self.seq = seq
        self.dyn = dyn
        #: Per-source ``(preg, cache_set)`` pairs from rename.
        self.sources = sources
        self.dest_preg = dest_preg
        self.dest_set = dest_set
        self.prev_preg = prev_preg
        self.pred_eff = pred_eff
        self.pinned = pinned
        self.predicted = predicted
        self.mispredicted = mispredicted
        self.alloc_time = alloc_time
        self.issued = False
        self.issue_time = -1
        self.exec_start = -1
        self.exec_end = -1
        self.unready = 0
        self.src_producer_seqs: tuple[int, ...] = ()
        # Issue-readiness memo: a sound lower bound on the cycle this op
        # could first issue, and the producer-state epoch it was computed
        # in (epoch equality means the bound is exact, see _earliest).
        self.earliest_epoch = -1
        self.earliest_value = 0
        # Producer-side state of the destination value.
        self.bypass_first = 0
        self.bypass_total = 0
        self.uses_renamed = 0
        self.last_read = -1
        #: Unissued consumers waiting on this value (None when empty).
        self.waiters: list[_Op] | None = None


class Pipeline:
    """Executes one trace under one machine configuration.

    Use :func:`repro.core.simulator.simulate` for the friendly entry
    point; this class exposes the machinery for tests and extensions.
    """

    def __init__(
        self,
        trace: Trace,
        config: MachineConfig,
        *,
        tracer=_FROM_ENV,
        metrics=_FROM_ENV,
    ) -> None:
        config.validate()
        self.trace = trace
        self.config = config
        self.stats = SimStats(benchmark=trace.name, scheme=config.storage)

        # Observability: an event tracer (None unless REPRO_TRACE_EVENTS
        # is set or one is injected) and a metrics registry (the
        # process-wide one unless injected; None disables publishing).
        self._tracer_autowrite = False
        if tracer is _FROM_ENV:
            tracer = tracer_from_env()
            self._tracer_autowrite = tracer is not None
        self.tracer = tracer
        self.metrics = get_metrics() if metrics is _FROM_ENV else metrics

        num_pregs = config.num_pregs
        if config.storage == "two_level":
            # Preg ids are logical value ids for this scheme; the real
            # constraint is L1 slots, tracked by the two-level model.
            num_pregs = max(num_pregs, 1024)
        self.freelist = FreeList(num_pregs)
        self.map_table = MapTable()
        #: preg -> the op producing its current value (None when free).
        self.pinfo: list[_Op | None] = [None] * num_pregs

        self.read_latency = config.read_latency
        self.bypass_stages = config.bypass_stages
        # Configuration the per-instruction paths read, hoisted once.
        self._unknown_default = config.unknown_default
        self._max_use = config.max_use
        self._pin_at_max = bool(config.pin_at_max)
        self._record_timing = config.record_timing
        #: Functional units per class in ``OpClass`` order, so indexed by
        #: ``DynamicInst.op_class_id`` (a class missing from
        #: ``fu_counts`` gets one unit).
        self._fu_limit = [config.fu_counts.get(cls, 1) for cls in OpClass]

        # Storage scheme construction.
        self.cache: RegisterCache | None = None
        self.backing: BackingFile | None = None
        self.rf: PhysicalRegisterFile | None = None
        self.two_level: TwoLevelRegisterFile | None = None
        self.insertion = None
        self.index_policy = None
        assign_set = None
        if config.storage == "register_cache":
            assoc = config.cache_assoc or config.cache_entries
            num_sets = config.cache_entries // assoc
            self.index_policy = make_index_policy(
                config.indexing, num_sets, assoc
            )
            self.cache = RegisterCache(
                config.cache_entries, config.cache_assoc,
                make_replacement_policy(config.replacement),
                self.index_policy,
            )
            self.cache.tracer = self.tracer
            self.insertion = make_insertion_policy(config.insertion)
            self.backing = BackingFile(
                num_pregs,
                config.backing_read_latency,
                config.effective_backing_write_latency,
                config.backing_read_ports,
            )
            if self.index_policy.decoupled:
                assign_set = self.index_policy.assign
        elif config.storage == "monolithic":
            self.rf = PhysicalRegisterFile(
                num_pregs, config.rf_read_latency,
                config.effective_rf_write_latency, config.bypass_stages,
            )
        else:
            self.two_level = TwoLevelRegisterFile(
                config.two_level_l1_size,
                l2_latency=config.two_level_l2_latency,
                move_bandwidth=config.two_level_bandwidth,
                free_threshold=config.two_level_free_threshold,
            )
        # Cycles from producer completion until storage can supply the
        # operand: +1 for cache/L1, W - R for the monolithic file.
        self._storage_delta = (
            self.rf.write_latency - self.rf.read_latency
            if self.rf is not None else 1
        )

        self.renamer = Renamer(self.freelist, self.map_table, assign_set)

        self.predictor: DegreeOfUsePredictor | None = None
        if config.predictor_enabled and config.storage == "register_cache":
            self.predictor = DegreeOfUsePredictor(
                entries=config.predictor_entries,
                assoc=config.predictor_assoc,
                wrongpath_noise=config.wrongpath_use_noise,
            )
        # Trace-invariant precompute, shared (and disk-cached) across
        # every configuration simulating this trace.
        self.fcf = trace.analysis().fcf

        self.memory = (
            MemoryHierarchy(HierarchyConfig(
                l2_latency=config.l2_latency,
                memory_latency=config.memory_latency,
            ))
            if config.model_memory else None
        )
        icache = self.memory if (self.memory and config.model_icache) else None
        self.frontend = FrontEnd(
            trace,
            fetch_width=config.fetch_width,
            front_depth=config.front_depth,
            icache=_ICacheAdapter(icache) if icache else None,
        )

        # Event queues: cycle -> payload list.
        self._lookups: dict[int, list[tuple[_Op, int, int]]] = {}
        self._dcache_events: dict[int, list[_Op]] = {}
        self._writebacks: dict[int, list[_Op]] = {}
        self._resolves: dict[int, list[_Op]] = {}
        self._fills: dict[int, list[tuple[int, int]]] = {}
        self._ready: dict[int, list[_Op]] = {}
        self._blocked: set[int] = set()

        self.rob: deque[_Op] = deque()
        self.window_count = 0
        self.retired = 0
        self._dispatch_blocked_until = 0
        self._wrongpath_reserved = 0
        #: seq -> issued _Op, populated when config.record_timing is set.
        self.issue_log: dict[int, _Op] = {}

        # Producer-state epoch backing the _earliest memo: bumped whenever
        # any producer's exec_end changes, so an unchanged epoch proves a
        # cached readiness bound is still exact.
        self._pepoch = 0
        self.earliest_memo_hits = 0
        self.earliest_memo_misses = 0

    # ------------------------------------------------------------------

    def run(self) -> SimStats:
        """Simulate to completion, one cycle at a time (DESIGN.md §10).

        The loop body is the simulator's hottest code: every dict and
        attribute that is touched each cycle is hoisted into a local,
        and each event queue is drained with a single ``pop`` probe
        instead of a membership test plus lookup.
        """
        total = len(self.trace.records)
        config = self.config
        max_cycles = config.max_cycles
        fills = self._fills
        lookups = self._lookups
        dcache_events = self._dcache_events
        writebacks = self._writebacks
        resolves = self._resolves
        blocked = self._blocked
        ready = self._ready
        two_level = self.two_level
        stats = self.stats
        process_fills = self._process_fills
        process_lookups = self._process_lookups
        process_dcache = self._process_dcache
        process_writebacks = self._process_writebacks
        process_resolves = self._process_resolves
        retire = self._retire
        issue = self._issue
        dispatch = self._dispatch
        cycle = 0
        while self.retired < total:
            if cycle >= max_cycles:
                raise SimulationError(
                    f"{self.trace.name}: exceeded {max_cycles} cycles "
                    f"({self.retired}/{total} retired)"
                )
            events = fills.pop(cycle, None)
            if events is not None:
                process_fills(events, cycle)
            events = lookups.pop(cycle, None)
            if events is not None:
                process_lookups(events, cycle)
            events = dcache_events.pop(cycle, None)
            if events is not None:
                process_dcache(events, cycle)
            events = writebacks.pop(cycle, None)
            if events is not None:
                process_writebacks(events, cycle)
            events = resolves.pop(cycle, None)
            if events is not None:
                process_resolves(events, cycle)
            retire(cycle)
            group = ready.pop(cycle, None)
            if blocked and cycle in blocked:
                blocked.discard(cycle)
                stats.issue_blocked_cycles += 1
                if group:  # defer the whole group one cycle
                    nxt = cycle + 1
                    bucket = ready.get(nxt)
                    if bucket is None:
                        ready[nxt] = group
                    else:
                        bucket.extend(group)
            elif group:
                issue(group, cycle)
            dispatch(cycle)
            if two_level is not None:
                two_level.tick(cycle)
            cycle += 1

        self._finalize(cycle)
        return self.stats

    # ------------------------------------------------------------------
    # Event processing.

    def _process_fills(self, events: list[tuple[int, int]], now: int) -> None:
        pinfo = self.pinfo
        cache = self.cache
        if cache is None:
            return
        fill_default = self.config.fill_default
        cache_write = cache.write
        for preg, assigned_set in events:
            if pinfo[preg] is not None:
                cache_write(
                    preg, assigned_set, fill_default,
                    pinned=False, now=now, is_fill=True,
                )

    def _process_lookups(
        self, events: list[tuple[_Op, int, int]], now: int
    ) -> None:
        cache = self.cache
        backing = self.backing
        assert cache is not None and backing is not None
        pinfo = self.pinfo
        fills = self._fills
        stats = self.stats
        lookup = cache.lookup
        write_latency = backing.write_latency
        for op, preg, assigned_set in events:
            if lookup(preg, assigned_set, now):
                continue
            # Miss: squash this cycle's issue group and fetch the value
            # from the backing file (paper §5.2 replay model).
            stats.rc_miss_events += 1
            self._blocked.add(now)
            producer = pinfo[preg]
            written_at = (
                producer.exec_end + 1 + write_latency
                if producer is not None and producer.issued else now
            )
            available = backing.schedule_read(now + 1, written_at)
            if available > op.exec_start:
                latency = op.exec_end - op.exec_start
                op.exec_start = available
                op.exec_end = available + latency
                if op.dest_preg >= 0:
                    self._pepoch += 1
            bucket = fills.get(available)
            if bucket is None:
                fills[available] = [(preg, assigned_set)]
            else:
                bucket.append((preg, assigned_set))

    def _process_dcache(self, events: list[_Op], now: int) -> None:
        # Probed the cycle after issue: strictly before the earliest
        # dependent can issue (issue + load latency), so dependents never
        # schedule against a stale hit-assumed latency.
        memory = self.memory
        assert memory is not None
        stats = self.stats
        blocked = self._blocked
        load = memory.load
        read_latency = self.read_latency
        for op in events:
            extra = load(op.dyn.mem_addr, op.dyn.pc, now)
            if extra:
                op.exec_end += extra
                if op.dest_preg >= 0:
                    self._pepoch += 1
                # Load-hit speculation replay: the squash loop contains
                # the register read, so its cost scales with read latency.
                stats.load_miss_replays += 1
                detection = now + 3  # tag check, just before would-be data
                for offset in range(read_latency):
                    blocked.add(detection + offset)

    def _process_writebacks(self, events: list[_Op], now: int) -> None:
        pinfo = self.pinfo
        cache = self.cache
        rf = self.rf
        tracer = self.tracer
        writebacks = self._writebacks
        if cache is not None:
            record_write = self.backing.record_write
            should_insert = self.insertion.should_insert
        for op in events:
            requeue_at = op.exec_end + 1
            if requeue_at != now:
                bucket = writebacks.get(requeue_at)
                if bucket is None:
                    writebacks[requeue_at] = [op]
                else:
                    bucket.append(op)
                continue
            preg = op.dest_preg
            if pinfo[preg] is not op:  # pragma: no cover - freed before write
                continue
            if tracer is not None:
                tracer.emit(
                    "writeback", "pipeline", now,
                    args={"seq": op.seq, "preg": preg},
                )
            if cache is not None:
                record_write()
                pred_eff = op.pred_eff
                pinned = op.pinned
                if should_insert(pred_eff, op.bypass_first, pinned):
                    remaining = pred_eff - op.bypass_total
                    cache.write(
                        preg, op.dest_set,
                        remaining if remaining > 0 else 0, pinned, now,
                    )
                else:
                    cache.record_filtered_write(preg, now)
            elif rf is not None:
                rf.record_write()

    def _process_resolves(self, events: list[_Op], now: int) -> None:
        resolves = self._resolves
        for op in events:
            requeue_at = op.exec_end + 1
            if requeue_at != now:
                bucket = resolves.get(requeue_at)
                if bucket is None:
                    resolves[requeue_at] = [op]
                else:
                    bucket.append(op)
                continue
            self.frontend.resume(now)
            self.stats.branch_mispredicts += 1
            self._release_wrongpath()
            if self.two_level is not None:
                extra = self.two_level.on_mispredict(
                    now, self.config.front_depth
                )
                if extra:
                    self._dispatch_blocked_until = max(
                        self._dispatch_blocked_until, now + extra
                    )

    # ------------------------------------------------------------------
    # Retire.

    def _retire(self, now: int) -> None:
        """Retire eligible ROB-head ops, oldest first, up to the width.

        Retiring an op frees the register its rename displaced: the
        value's lifetime is logged, the predictor trains on its actual
        degree of use, and its cache entry and set assignment are
        released.
        """
        rob = self.rob
        if not rob:
            return
        config = self.config
        retire_delay = config.retire_delay
        op = rob[0]
        if not op.issued or now <= op.exec_end + retire_delay:
            return
        retire_width = config.retire_width
        max_store_retire = config.max_store_retire
        memory = self.memory
        pinfo = self.pinfo
        lifetimes_append = self.stats.lifetimes.append
        predictor = self.predictor
        tracer = self.tracer
        cache = self.cache
        two_level = self.two_level
        release = self.freelist.release
        fcf = self.fcf
        retired_this = 0
        stores_this = 0
        while True:
            if op.dyn.is_store:
                if stores_this >= max_store_retire:
                    break
                if memory is not None and not memory.store(
                    op.dyn.mem_addr, now
                ):
                    break
                stores_this += 1
            rob.popleft()
            retired_this += 1
            preg = op.prev_preg
            if preg >= 0:
                info = pinfo[preg]
                if info is None:
                    raise SimulationError(f"freeing preg {preg} with no info")
                write_time = info.exec_end + 1
                last_read = info.last_read
                lifetimes_append(LifetimeRecord(
                    info.alloc_time, write_time,
                    last_read if last_read > write_time else write_time, now,
                ))
                if predictor is not None:
                    uses = info.uses_renamed
                    predictor.train(info.dyn.pc, fcf[info.seq], uses)
                    predictor.record_outcome(info.predicted, uses)
                    if tracer is not None:
                        tracer.emit(
                            "dou_train", "predictor", now,
                            args={"pc": info.dyn.pc, "actual": uses,
                                  "predicted": info.predicted},
                        )
                if cache is not None:
                    cache.invalidate(preg, now)
                    self.index_policy.release(info.dest_set, info.pred_eff)
                if two_level is not None:
                    two_level.free(preg)
                release(preg)
                pinfo[preg] = None
            if not rob or retired_this >= retire_width:
                break
            op = rob[0]
            if not op.issued or now <= op.exec_end + retire_delay:
                break
        self.retired += retired_this

    # ------------------------------------------------------------------
    # Issue.

    def _issue(self, candidates: list[_Op], now: int) -> None:
        """Issue up to ``issue_width`` ready ops from this cycle's group.

        Operand classification (inlined in the source loops below for
        speed): for a producer completing at ``exec_end``, a consumer
        may issue from ``exec_end - read_latency`` (first-stage bypass),
        through the remaining bypass stages, and from storage once the
        value is written back — cache/L1 at ``exec_end + 1``, monolithic
        file at ``exec_end + W - R`` with read-during-write forwarding.
        An unissued (or freed) producer defers the consumer to
        ``now + 1``. Issuing an op books its operand reads, schedules
        its writeback, and wakes the consumers waiting on its value.
        """
        # Groups are usually appended in seq order already; only sort
        # when an out-of-order append actually happened.
        prev_seq = -1
        for op in candidates:
            seq = op.seq
            if seq < prev_seq:
                candidates.sort(key=_op_seq)
                break
            prev_seq = seq
        issue_width = self.config.issue_width
        fu_limit = self._fu_limit
        fu_used = [0] * len(fu_limit)
        pinfo = self.pinfo
        read_latency = self.read_latency
        bypass_stages = self.bypass_stages
        storage_delta = self._storage_delta
        exec_offset = 1 + read_latency
        stats = self.stats
        cache = self.cache
        rf = self.rf
        two_level = self.two_level
        tracer = self.tracer
        issue_log = self.issue_log if self._record_timing else None
        memory = self.memory
        ready = self._ready
        writebacks = self._writebacks
        lookups = self._lookups
        earliest_of = self._earliest
        nxt = now + 1
        issued = 0
        # Operand counts, folded into the stats once per call.
        bypassed = bypassed_first = from_storage = 0
        for position, op in enumerate(candidates):
            if issued >= issue_width:
                bucket = ready.get(nxt)
                leftovers = candidates[position:]
                if bucket is None:
                    ready[nxt] = leftovers
                else:
                    bucket.extend(leftovers)
                break
            # Readiness-memo fast path: earliest_value is a sound lower
            # bound on this op's issue cycle (producer exec_end values
            # only ever grow), so a retry before it cannot succeed and
            # the source scan can be skipped entirely.
            when = op.earliest_value
            if now < when:
                self.earliest_memo_hits += 1
                bucket = ready.get(when)
                if bucket is None:
                    ready[when] = [op]
                else:
                    bucket.append(op)
                continue
            when = nxt
            for preg, _assigned in op.sources:
                if preg < 0:
                    continue
                info = pinfo[preg]
                if info is None or not info.issued:
                    # Producer not yet issued (waiters should prevent
                    # this) or already freed; not ready until next cycle.
                    break
                exec_end = info.exec_end
                earliest = exec_end - read_latency
                if now < earliest:
                    if earliest > when:
                        when = earliest
                    break
                if now < earliest + bypass_stages:
                    continue
                storage_from = exec_end + storage_delta
                if now < storage_from:
                    if storage_from > when:
                        when = storage_from
                    break
            else:
                when = 0  # every operand is available now
            if when:
                self.earliest_memo_misses += 1
                op.earliest_value = when
                op.earliest_epoch = self._pepoch
                bucket = ready.get(when)
                if bucket is None:
                    ready[when] = [op]
                else:
                    bucket.append(op)
                continue
            dyn = op.dyn
            class_id = dyn.op_class_id
            used = fu_used[class_id]
            if used >= fu_limit[class_id]:
                bucket = ready.get(nxt)
                if bucket is None:
                    ready[nxt] = [op]
                else:
                    bucket.append(op)
                continue
            fu_used[class_id] = used + 1
            issued += 1

            op.issued = True
            op.issue_time = now
            exec_start = now + exec_offset
            op.exec_start = exec_start
            exec_end = exec_start + dyn.latency - 1
            op.exec_end = exec_end
            if issue_log is not None:
                issue_log[op.seq] = op
            if tracer is not None:
                tracer.emit(
                    "issue", "pipeline", now,
                    duration=max(1, exec_end - now),
                    args={"pc": dyn.pc, "seq": op.seq},
                )
            for preg, assigned_set in op.sources:
                if preg < 0:
                    continue
                info = pinfo[preg]
                earliest = info.exec_end - read_latency
                if now < earliest + bypass_stages:
                    if now == earliest:
                        info.bypass_first += 1
                        bypassed_first += 1
                    info.bypass_total += 1
                    bypassed += 1
                else:
                    from_storage += 1
                    if cache is not None:
                        bucket = lookups.get(nxt)
                        if bucket is None:
                            lookups[nxt] = [(op, preg, assigned_set)]
                        else:
                            bucket.append((op, preg, assigned_set))
                    elif rf is not None:
                        rf.record_read()
                        stats.rf_reads += 1
                if info.last_read < exec_start:
                    info.last_read = exec_start
                if two_level is not None:
                    two_level.consumer_executed(preg, now)

            if op.dest_preg >= 0:
                self._pepoch += 1
                wb_at = exec_end + 1
                bucket = writebacks.get(wb_at)
                if bucket is None:
                    writebacks[wb_at] = [op]
                else:
                    bucket.append(op)
                waiters = op.waiters
                if waiters is not None:
                    op.waiters = None
                    for waiter in waiters:
                        waiter.unready -= 1
                        if waiter.unready == 0:
                            when = earliest_of(waiter)
                            if when < nxt:
                                when = nxt
                            bucket = ready.get(when)
                            if bucket is None:
                                ready[when] = [waiter]
                            else:
                                bucket.append(waiter)
            if dyn.is_load and memory is not None:
                bucket = self._dcache_events.get(nxt)
                if bucket is None:
                    self._dcache_events[nxt] = [op]
                else:
                    bucket.append(op)
            if op.mispredicted:
                at = exec_end + 1
                bucket = self._resolves.get(at)
                if bucket is None:
                    self._resolves[at] = [op]
                else:
                    bucket.append(op)
        self.window_count -= issued
        stats.operands_bypass += bypassed
        stats.operands_bypass_first += bypassed_first
        stats.operands_storage += from_storage

    def _earliest(self, op: _Op) -> int:
        """Earliest first-stage-bypass cycle over *op*'s issued producers.

        Memoized per (op, producer-state epoch): an unchanged epoch
        means no producer's ``exec_end`` moved since the value was
        computed, so the cached value is exact. A stale value is still
        kept on the op as :attr:`_Op.earliest_value` — producer times
        only grow, so it remains a sound lower bound the issue loop can
        retry against without rescanning sources.
        """
        epoch = self._pepoch
        if op.earliest_epoch == epoch:
            self.earliest_memo_hits += 1
            return op.earliest_value
        self.earliest_memo_misses += 1
        earliest = 0
        pinfo = self.pinfo
        read_latency = self.read_latency
        for preg, _assigned in op.sources:
            if preg < 0:
                continue
            info = pinfo[preg]
            if info is None or not info.issued:
                continue
            candidate = info.exec_end - read_latency
            if candidate > earliest:
                earliest = candidate
        op.earliest_epoch = epoch
        op.earliest_value = earliest
        return earliest

    # ------------------------------------------------------------------
    # Dispatch.

    def _dispatch(self, now: int) -> None:
        """Dispatch up to the width; a blocking resource counts a stall.

        Each dispatched instruction gets its degree-of-use prediction,
        is renamed, becomes the producer record of its destination
        register, and either waits on unissued producers or is bucketed
        at its earliest issue cycle.
        """
        if now < self._dispatch_blocked_until:
            self.stats.rename_stall_cycles += 1
            return
        frontend = self.frontend
        next_ready = frontend.next_ready
        fetched = next_ready(now)
        if fetched is None:
            return
        config = self.config
        budget = config.dispatch_width
        window_size = config.window_size
        rob_size = config.rob_size
        pop_next = frontend.pop_next
        rename = self.renamer.rename
        two_level = self.two_level
        freelist = self.freelist
        predictor = self.predictor
        tracer = self.tracer
        pinfo = self.pinfo
        fcf = self.fcf
        unknown_default = self._unknown_default
        max_use = self._max_use
        pin_at_max = self._pin_at_max
        record_timing = self._record_timing
        earliest_of = self._earliest
        ready = self._ready
        rob = self.rob
        rob_append = rob.append
        window_count = self.window_count
        floor = now + 1
        stalled = False
        while True:
            if window_count >= window_size or len(rob) >= rob_size:
                stalled = True
                break
            dyn = fetched.dyn
            if dyn.dest is not None:
                if two_level is not None:
                    if not two_level.can_allocate():
                        if not rob:
                            # Nothing in flight can ever free a slot:
                            # the program needs more registers than the
                            # L1 file holds.
                            raise SimulationError(
                                "two-level L1 register file too small "
                                f"({two_level.l1_capacity} entries) "
                                "for the program's architectural "
                                "register demand"
                            )
                        two_level.note_rename_stall()
                        stalled = True
                        break
                elif freelist.free_count <= self._wrongpath_reserved:
                    stalled = True
                    break
            pop_next()

            seq = dyn.seq
            mispredicted = fetched.mispredicted
            if mispredicted:
                self._reserve_wrongpath()
            if tracer is not None:
                tracer.emit(
                    "fetch", "pipeline", fetched.ready_at,
                    args={"pc": dyn.pc, "seq": seq},
                )
                tracer.emit(
                    "rename", "pipeline", now,
                    args={"pc": dyn.pc, "seq": seq},
                )
            predicted = None
            pred_eff = 0
            pinned = False
            if dyn.dest is not None:
                if predictor is not None:
                    predicted = predictor.predict(dyn.pc, fcf[seq])
                    if tracer is not None:
                        tracer.emit(
                            "dou_predict", "predictor", now,
                            args={"pc": dyn.pc, "predicted": predicted},
                        )
                if predicted is None:
                    pred_eff = (
                        unknown_default if unknown_default < max_use
                        else max_use
                    )
                else:
                    pred_eff = predicted if predicted < max_use else max_use
                    pinned = pin_at_max and pred_eff == max_use

            sources, dest_preg, dest_set, prev_preg = rename(dyn, pred_eff)
            op = _Op(
                seq, dyn, sources, dest_preg, dest_set, prev_preg,
                pred_eff, pinned, predicted, mispredicted, now,
            )
            if dest_preg >= 0:
                pinfo[dest_preg] = op
                if two_level is not None:
                    two_level.allocate(dest_preg)
            if prev_preg >= 0 and two_level is not None:
                two_level.reassigned(prev_preg, now)

            if record_timing:
                op.src_producer_seqs = tuple(
                    pinfo[preg].seq if preg >= 0 else -1
                    for preg, _assigned in sources
                )
            unready = 0
            for preg, _assigned in sources:
                if preg < 0:
                    continue
                info = pinfo[preg]
                info.uses_renamed += 1
                if two_level is not None:
                    two_level.add_pending_consumer(preg)
                if not info.issued:
                    waiters = info.waiters
                    if waiters is None:
                        info.waiters = [op]
                    else:
                        waiters.append(op)
                    unready += 1
            if unready:
                op.unready = unready
            else:
                when = earliest_of(op)
                if when < floor:
                    when = floor
                bucket = ready.get(when)
                if bucket is None:
                    ready[when] = [op]
                else:
                    bucket.append(op)
            rob_append(op)
            window_count += 1

            budget -= 1
            if not budget:
                break
            # The cycle's last probe lets fetch refill the slots freed so
            # far: the probe for the final budget slot, or the one below
            # when dispatch stops early.
            fetched = next_ready(now, budget == 1)
            if fetched is None:
                break
        if budget and budget < config.dispatch_width:
            next_ready(now, True)
        self.window_count = window_count
        if stalled:
            self.stats.dispatch_stall_cycles += 1

    def _reserve_wrongpath(self) -> None:
        """Hold registers for the wrong-path renames a real front end
        would perform between a misprediction and its resolution."""
        amount = self.config.wrongpath_alloc
        if amount <= 0:
            return
        if self.two_level is not None:
            amount = min(amount, max(0, self.two_level.free_slots - 4))
            self.two_level.free_slots -= amount
            self._wrongpath_reserved = amount
        else:
            self._wrongpath_reserved = amount

    def _release_wrongpath(self) -> None:
        """Return wrong-path reservations at branch resolution."""
        if self._wrongpath_reserved and self.two_level is not None:
            self.two_level.free_slots += self._wrongpath_reserved
        self._wrongpath_reserved = 0

    # ------------------------------------------------------------------

    def _finalize(self, cycles: int) -> None:
        stats = self.stats
        stats.cycles = cycles
        stats.retired = self.retired
        if self.cache is not None:
            self.cache.finalize(cycles)
            stats.cache = self.cache.stats
            stats.rf_reads = self.backing.reads
            stats.rf_writes = self.backing.writes
        elif self.rf is not None:
            stats.rf_writes = self.rf.writes
        if self.two_level is not None:
            stats.tl_moves = self.two_level.moves
            stats.tl_restores = self.two_level.restores
            stats.tl_recovery_stalls = self.two_level.recovery_stall_cycles
            stats.rename_stall_cycles += self.two_level.rename_stall_cycles
        if self.predictor is not None:
            stats.predictor_queries = self.predictor.queries
            stats.predictor_supplied = self.predictor.supplied
            stats.predictor_correct = self.predictor.correct
        # Close lifetime records for values still allocated at the end.
        for info in self.pinfo:
            if info is None or not info.issued:
                continue
            write_time = info.exec_end + 1
            last_read = max(info.last_read, write_time)
            stats.lifetimes.append(LifetimeRecord(
                info.alloc_time, write_time, last_read, cycles
            ))
        self._publish_observability()

    def _publish_observability(self) -> None:
        """End-of-run observability: one bulk metrics fold + trace export.

        Publishing happens once per run, after statistics settle, so the
        metrics registry adds no per-cycle work; a disabled (or None)
        registry skips the fold entirely.
        """
        stats = self.stats
        registry = self.metrics
        if registry is not None and registry.enabled:
            labels = {"bench": stats.benchmark, "scheme": stats.scheme}
            registry.counter("sim.runs", **labels).inc()
            registry.publish(
                "sim", stats.to_dict(include_lifetimes=False), **labels
            )
            registry.gauge("sim.ipc", **labels).set(stats.ipc)
            registry.gauge(
                "sim.bypass_fraction", **labels
            ).set(stats.bypass_fraction)
            if self.cache is not None:
                self.cache.publish_metrics(registry, **labels)
            if self.predictor is not None:
                self.predictor.publish_metrics(registry, **labels)
        if self.tracer is not None and self._tracer_autowrite:
            self.tracer.write(
                trace_file_for(stats.benchmark, stats.scheme)
            )


class _ICacheAdapter:
    """Adapts :class:`MemoryHierarchy` to the FrontEnd icache protocol."""

    __slots__ = ("hierarchy",)

    def __init__(self, hierarchy: MemoryHierarchy) -> None:
        self.hierarchy = hierarchy

    def access(self, line: int) -> int:
        return self.hierarchy.ifetch(line)
