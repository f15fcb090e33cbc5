//! The application thread context — the DSM system-call surface.
//!
//! Every simulated application thread receives a [`ThreadCtx`]. Shared
//! reads and writes funnel through it so the page-protection state machine
//! fires exactly where `mprotect`/`SIGSEGV` would in the real CVM; the
//! synchronization calls (`acquire`, `release`, `barrier`, `local_barrier`)
//! yield to the driver, which runs the protocol and the non-preemptive
//! scheduler.

use cvm_sim::coop::Yielder;
use cvm_sim::sync::{Mutex, MutexGuard};
use cvm_sim::{SimDuration, SimRng};

use crate::node::NodeCell;
use crate::page::{Addr, PageId, PageState};
use crate::shared::Shareable;

pub use crate::barrier::ReduceOp;

/// Why an application thread yielded to the driver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BlockReason {
    /// Access to a page needing remote data.
    Fault {
        /// Faulting page.
        page: PageId,
        /// True for a write access.
        write: bool,
    },
    /// Lock acquire.
    Acquire {
        /// Lock index.
        lock: usize,
    },
    /// Lock release (non-blocking; the driver performs grant/hand-off and
    /// resumes the thread).
    Release {
        /// Lock index.
        lock: usize,
    },
    /// Global barrier arrival.
    Barrier,
    /// Local (intra-node) barrier arrival with an optional reduction
    /// contribution.
    LocalBarrier {
        /// Contribution, if this is a reducing barrier.
        reduce: Option<(ReduceOp, f64)>,
    },
    /// Global reduction arrival (CVM's built-in reduction types).
    GlobalReduce {
        /// Operator and this thread's contribution.
        reduce: (ReduceOp, f64),
    },
    /// End-of-initialization rendezvous.
    Startup,
    /// End-of-measurement rendezvous (statistics snapshot).
    EndMeasure,
    /// Voluntary yield.
    Yield,
    /// Virtual-clock read (the driver writes the node clock into the cell
    /// and resumes the thread immediately; see [`ThreadCtx::now_ns`]).
    Now,
    /// Sleep until the given absolute virtual time (open-loop arrival
    /// pacing; see [`ThreadCtx::sleep_until`]).
    SleepUntil {
        /// Absolute virtual nanoseconds to wake at (clamped to now if in
        /// the past).
        ns: u64,
    },
}

/// Per-thread cost constants copied out of the system configuration.
#[derive(Debug, Clone, Copy)]
pub struct CtxCosts {
    /// log2 of the coherence page size (a power of two), so the page of
    /// an address is one shift.
    pub page_shift: u32,
    /// Base cost of one shared access, ns.
    pub access_base_ns: u64,
    /// SIGSEGV user-level handling cost, ns.
    pub signal_ns: u64,
    /// `mprotect` cost, ns.
    pub mprotect_ns: u64,
    /// Twin page copy cost, ns.
    pub twin_copy_ns: u64,
    /// Instruction pages in the code footprint (I-TLB model).
    pub code_pages: usize,
}

/// Handle through which an application thread touches the DSM.
///
/// Obtained inside the closure passed to
/// [`CvmBuilder::run`](crate::CvmBuilder::run); see the crate-level example.
///
/// The node's cell is locked once per burst, not once per access: the
/// first touch after a resume takes the guard and the next blocking call
/// releases it before the baton goes back to the driver.
#[derive(Debug)]
pub struct ThreadCtx<'a> {
    yielder: &'a Yielder<BlockReason>,
    cell: &'a Mutex<NodeCell>,
    guard: Option<MutexGuard<'a, NodeCell>>,
    costs: CtxCosts,
    global_id: usize,
    node: usize,
    local_id: usize,
    nodes: usize,
    threads_per_node: usize,
    started: bool,
    burst_ns: u64,
    rng: SimRng,
    // Synthetic private-data and instruction streams for the memory-system
    // simulator.
    priv_counter: u64,
    pc: u64,
    access_counter: u64,
}

/// Base virtual address of per-thread private regions (memsim only).
const PRIVATE_BASE: u64 = 0x1000_0000_0000;
/// Per-thread private working-set bytes (memsim only).
const PRIVATE_WS: u64 = 8 * 1024;
/// Base virtual address of the code segment (memsim only).
const CODE_BASE: u64 = 0x2000_0000_0000;

impl<'a> ThreadCtx<'a> {
    /// Assembles a context; called by the system when spawning threads.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        yielder: &'a Yielder<BlockReason>,
        cell: &'a Mutex<NodeCell>,
        costs: CtxCosts,
        global_id: usize,
        node: usize,
        local_id: usize,
        nodes: usize,
        threads_per_node: usize,
        rng: SimRng,
    ) -> Self {
        ThreadCtx {
            yielder,
            cell,
            guard: None,
            costs,
            global_id,
            node,
            local_id,
            nodes,
            threads_per_node,
            started: false,
            burst_ns: 0,
            rng,
            priv_counter: 0,
            // Distinct starting offsets within the thread's code window.
            pc: (global_id as u64 * 7919 * 64) % (costs.code_pages.max(1) as u64 * 4096),
            access_counter: 0,
        }
    }

    /// Global thread id in `0..total_threads()`; threads of one node are
    /// consecutive, so contiguous chunk distributions keep node locality.
    pub fn global_id(&self) -> usize {
        self.global_id
    }

    /// This thread's node.
    pub fn node(&self) -> usize {
        self.node
    }

    /// Thread index within the node, `0..threads_per_node()`.
    pub fn local_id(&self) -> usize {
        self.local_id
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Threads per node.
    pub fn threads_per_node(&self) -> usize {
        self.threads_per_node
    }

    /// Total threads in the system.
    pub fn total_threads(&self) -> usize {
        self.nodes * self.threads_per_node
    }

    /// The contiguous chunk `[lo, hi)` of `len` items owned by this thread
    /// under the paper's block distribution (divide by total threads,
    /// consecutive chunks to co-located threads).
    pub fn partition(&self, len: usize) -> (usize, usize) {
        partition_for(self.global_id, self.total_threads(), len)
    }

    /// Deterministic per-thread random stream.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Charges `d` of pure computation to this thread's virtual time.
    pub fn work(&mut self, d: SimDuration) {
        self.burst_ns += d.as_ns();
    }

    /// Reads a shared value (application-facing sugar lives on
    /// [`SharedVec`](crate::SharedVec)).
    #[inline]
    pub fn read_val<T: Shareable>(&mut self, addr: Addr) -> T {
        let page = self.page_of(addr);
        let cell = self.cell();
        if cell.plain_access() && cell.state[page.0].readable() {
            let off = addr.0 as usize;
            let v = T::from_bytes(&cell.mem[off..off + T::SIZE]);
            self.charge_base();
            return v;
        }
        self.read_slow(addr)
    }

    /// Writes a shared value.
    ///
    /// # Panics
    ///
    /// Panics if called before [`startup_done`](Self::startup_done) by any
    /// thread other than global thread 0 (initialization is single-writer
    /// so that global data is uniform at startup, per the paper's
    /// programming model).
    #[inline]
    pub fn write_val<T: Shareable>(&mut self, addr: Addr, v: T) {
        assert!(
            self.started || self.global_id == 0,
            "pre-startup writes must come from global thread 0"
        );
        let page = self.page_of(addr);
        let cell = self.cell();
        if cell.plain_access() && cell.state[page.0] == PageState::ReadWrite {
            let off = addr.0 as usize;
            cell.mem[off..off + T::SIZE].copy_from_slice(&v.to_bytes());
            self.charge_base();
            return;
        }
        self.write_slow(addr, v);
    }

    /// Every read the fast path declines: faults, the memory-system
    /// simulator and step recording.
    #[cold]
    #[inline(never)]
    fn read_slow<T: Shareable>(&mut self, addr: Addr) -> T {
        let page = self.page_of(addr);
        loop {
            let mut cell = self.take_guard();
            if cell.state[page.0].readable() {
                self.charge_access(&mut cell, addr);
                if cell.track_steps {
                    cell.note_step_read(page.0);
                }
                let off = addr.0 as usize;
                let v = T::from_bytes(&cell.mem[off..off + T::SIZE]);
                self.guard = Some(cell);
                return v;
            }
            drop(cell);
            self.block(BlockReason::Fault { page, write: false });
        }
    }

    /// Every write the fast path declines: faults, the local
    /// `ReadOnly` upgrade, the memory-system simulator and step recording.
    #[cold]
    #[inline(never)]
    fn write_slow<T: Shareable>(&mut self, addr: Addr, v: T) {
        let page = self.page_of(addr);
        loop {
            let mut cell = self.take_guard();
            match cell.state[page.0] {
                PageState::ReadWrite => {
                    self.charge_access(&mut cell, addr);
                    if cell.track_steps {
                        cell.note_step_write(page.0);
                    }
                    let off = addr.0 as usize;
                    cell.mem[off..off + T::SIZE].copy_from_slice(&v.to_bytes());
                    self.guard = Some(cell);
                    return;
                }
                PageState::ReadOnly => {
                    // Local write fault: signal + twin (if first) + upgrade.
                    let fresh = cell.ensure_twin(page.0);
                    cell.state[page.0] = PageState::ReadWrite;
                    self.burst_ns += self.costs.signal_ns + self.costs.mprotect_ns;
                    if fresh {
                        self.burst_ns += self.costs.twin_copy_ns;
                    }
                    self.guard = Some(cell);
                    // Retry takes the ReadWrite arm.
                }
                PageState::Invalid | PageState::Unmapped => {
                    drop(cell);
                    self.block(BlockReason::Fault { page, write: true });
                }
            }
        }
    }

    /// Acquires global lock `lock`, blocking until held.
    pub fn acquire(&mut self, lock: usize) {
        self.block(BlockReason::Acquire { lock });
    }

    /// Releases global lock `lock`.
    ///
    /// The release itself does not block, but control passes through the
    /// driver so grants and local hand-offs happen immediately.
    pub fn release(&mut self, lock: usize) {
        self.block(BlockReason::Release { lock });
    }

    /// Arrives at the global barrier; returns when all threads in the
    /// system have arrived and the release has reached this node.
    pub fn barrier(&mut self) {
        self.block(BlockReason::Barrier);
    }

    /// Arrives at the node-local barrier (no network traffic).
    pub fn local_barrier(&mut self) {
        self.block(BlockReason::LocalBarrier { reduce: None });
    }

    /// Local barrier carrying a reduction: all co-located threads
    /// contribute `value` under `op`; every participant receives the
    /// combined result. Used to aggregate local updates into a single
    /// remote update, the paper's `r` modification.
    pub fn local_reduce(&mut self, op: ReduceOp, value: f64) -> f64 {
        self.block(BlockReason::LocalBarrier {
            reduce: Some((op, value)),
        });
        self.cell().lb_result
    }

    /// Marks the end of single-threaded initialization. All threads must
    /// call it exactly once; global data becomes uniformly visible and all
    /// statistics and clocks reset to zero.
    pub fn startup_done(&mut self) {
        self.block(BlockReason::Startup);
        self.started = true;
    }

    /// Performs a system-wide reduction using CVM's built-in reduction
    /// support: contributions aggregate per node first (one arrival
    /// message per node, like barriers), then across nodes at the master;
    /// every thread receives the combined result. Synchronizes the
    /// *value* only — unlike [`barrier`](Self::barrier) it does not
    /// exchange write notices, so pair it with a barrier when memory
    /// ordering is also required.
    pub fn global_reduce(&mut self, op: ReduceOp, value: f64) -> f64 {
        self.block(BlockReason::GlobalReduce {
            reduce: (op, value),
        });
        self.cell().gr_result
    }

    /// Marks the end of the measured region. All threads must call it
    /// (like a barrier); the run report snapshots statistics, clocks and
    /// traffic at this point, so verification code executed afterwards
    /// (checksums, assertions) does not perturb the measurements. If never
    /// called, the report covers the whole run.
    pub fn end_measured(&mut self) {
        self.block(BlockReason::EndMeasure);
    }

    /// Voluntarily yields the processor (CVM's explicit thread-switch
    /// system call).
    pub fn yield_now(&mut self) {
        self.block(BlockReason::Yield);
    }

    /// Reads this node's virtual clock, in nanoseconds.
    ///
    /// This is a blocking operation (control passes through the driver so
    /// the accumulated burst is charged first and the answer reflects all
    /// work done so far), which keeps reports byte-identical at any
    /// `--workers`/`--shards` count: the clock is never observed
    /// mid-burst.
    pub fn now_ns(&mut self) -> u64 {
        self.block(BlockReason::Now);
        self.cell().now_ns
    }

    /// Sleeps until the absolute virtual time `ns` (no-op if already
    /// past). The open-loop primitive: arrival pacing independent of
    /// completion times, so queueing delay is visible in request latency
    /// instead of silently throttling the generator.
    pub fn sleep_until(&mut self, ns: u64) {
        self.block(BlockReason::SleepUntil { ns });
    }

    /// Records one end-to-end request latency into the run's `request`
    /// histogram (serving workloads; see
    /// [`DsmHistograms::request_ns`](crate::DsmHistograms)).
    pub fn record_request(&mut self, latency_ns: u64) {
        self.cell().req_hist.record(latency_ns);
    }

    /// The node's cell under the burst's guard, taking the lock if this
    /// is the first touch since the thread was resumed. Every cell access
    /// in this file goes through here or [`take_guard`](Self::take_guard):
    /// a second `lock()` while the guard is held would self-deadlock.
    #[inline]
    fn cell(&mut self) -> &mut NodeCell {
        self.guard.get_or_insert_with(|| self.cell.lock())
    }

    /// Moves the burst's guard out (taking the lock if none is held) so
    /// the slow path can borrow `self` alongside it; the caller puts it
    /// back or drops it before blocking.
    fn take_guard(&mut self) -> MutexGuard<'a, NodeCell> {
        self.guard.take().unwrap_or_else(|| self.cell.lock())
    }

    #[inline]
    fn page_of(&self, addr: Addr) -> PageId {
        PageId((addr.0 >> self.costs.page_shift) as usize)
    }

    /// Ends the burst and passes the baton to the driver; the guard is
    /// released first, so the driver never waits on this node's cell.
    fn block(&mut self, reason: BlockReason) {
        self.flush_burst();
        self.yielder.block(reason);
    }

    /// Hands the burst time to the cell and releases the guard; also
    /// called by the runtime when the thread body returns.
    pub(crate) fn flush_burst(&mut self) {
        self.cell().burst_ns += self.burst_ns;
        self.burst_ns = 0;
        self.guard = None;
    }

    /// The access cost every access pays, whichever path it takes.
    #[inline]
    fn charge_base(&mut self) {
        self.burst_ns += self.costs.access_base_ns;
        self.access_counter += 1;
    }

    fn charge_access(&mut self, cell: &mut NodeCell, addr: Addr) {
        self.charge_base();
        if cell.memsim.is_none() {
            return;
        }
        let tid = self.global_id as u64;
        let window = self.costs.code_pages.max(1) as u64 * 4096;
        // Advance the synthetic instruction pointer within this thread's
        // current code window; different threads occupy different windows
        // (they execute different phases of the shared program), so the
        // combined hot instruction footprint grows with interleaving.
        self.pc = (self.pc + 64) % window;
        let window_base = CODE_BASE + (tid % 4) * window;
        let priv_addr = PRIVATE_BASE + tid * PRIVATE_WS * 4 + (self.priv_counter * 64) % PRIVATE_WS;
        let do_private = self.access_counter.is_multiple_of(4);
        if do_private {
            self.priv_counter += 1;
        }
        let pc = window_base + self.pc;
        let mem = cell.memsim.as_mut().expect("memsim enabled");
        let data = mem.data_access(addr.0);
        self.burst_ns += data.cost_ns;
        self.burst_ns += mem.inst_access(pc);
        if do_private {
            let p = mem.data_access(priv_addr);
            self.burst_ns += p.cost_ns;
        }
    }
}

/// Contiguous block partition of `len` items among `parts` owners.
pub fn partition_for(owner: usize, parts: usize, len: usize) -> (usize, usize) {
    let base = len / parts;
    let extra = len % parts;
    let lo = owner * base + owner.min(extra);
    let hi = lo + base + usize::from(owner < extra);
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_everything_once() {
        for parts in 1..10 {
            for len in [0usize, 1, 7, 100, 101] {
                let mut covered = 0;
                let mut prev_hi = 0;
                for owner in 0..parts {
                    let (lo, hi) = partition_for(owner, parts, len);
                    assert_eq!(lo, prev_hi, "chunks are contiguous");
                    assert!(hi >= lo);
                    covered += hi - lo;
                    prev_hi = hi;
                }
                assert_eq!(covered, len);
                assert_eq!(prev_hi, len);
            }
        }
    }

    #[test]
    fn partition_is_balanced() {
        for owner in 0..8 {
            let (lo, hi) = partition_for(owner, 8, 100);
            assert!(hi - lo == 12 || hi - lo == 13, "owner {owner}: {}", hi - lo);
        }
    }
}
