//! FIFO-batched stream execution on the simulated chip —
//! [`ChipBackend`](crate::ChipBackend)'s
//! [`PolyBackend::execute_stream`](crate::PolyBackend::execute_stream),
//! which is [`ChipBackend::price`](crate::ChipBackend::price) and then
//! [`ChipBackend::apply`](crate::ChipBackend::apply) (last section).
//!
//! Triggering one command at a time pays one full round trip per
//! operation: stage operands into the compute banks, trigger, read the
//! result back. This module schedules a whole recorded [`OpStream`]
//! instead, the way the paper's host actually drives the silicon
//! (Section III-I mode 2 + Section III-B):
//!
//! * **Slot allocation with liveness.** Every stream value gets a slot
//!   in the SRAM bank plan (dual-port compute banks preferred for NTT
//!   destinations, single-port storage for host-written operands) and
//!   stays *resident* until its last consumer has been issued —
//!   intermediates never cross the host link. Freed slots are reused in
//!   FIFO order: a queued writer is safe behind its queued readers, so
//!   reuse needs no drain; only fresh host writes must wait for one.
//! * **Depth-sized batches with interrupt-driven drain.** Commands are
//!   pushed through the 32-deep command FIFO; when it fills (or the
//!   stream ends) the host drains it in one go and observes
//!   the drain interrupt — one interrupt per batch instead of one
//!   round trip per command.
//! * **DMA-overlapped transfers.** Each host upload and each marked
//!   output is shadowed by an in-FIFO `MEMCPY` over the same slot: the
//!   DMA transaction that streams the polynomial between the link
//!   interface and the bank. It copies nothing (the backdoor write
//!   already reduced the data into the bank, and the simulator moves no
//!   word for `src == dst`) but it is bounds-checked and occupies the
//!   DMA engine and the bank for the cycles the real transfer takes,
//!   which is exactly what lets the chip model hide transfers behind PE
//!   compute — and what makes the overlapped wall clock come in under
//!   the serial sum.
//!
//! On the host a polynomial is therefore copied once on the way in
//! (reduced from the stream's shared payload, or from a resident
//! mirror, straight into its bank) and once on the way out (the
//! download); everything between runs in place on the simulated SRAM.
//!
//! The returned [`StreamReport`] prices the same command list both
//! ways: `serial_*` as if every command and transfer ran strictly
//! one-after-another (the mode-1 path), `overlapped_*` as the batched
//! schedule actually executed, with the host link additionally
//! pipelined against compute across batches (the link streams batch
//! `b+1` while the chip drains batch `b`; downloads ride after the
//! final drain).
//!
//! # Price, then apply
//!
//! **Price.** The schedule above runs on the die's timing alone: slot
//! allocation, FIFO batches, drains (`Chip::price_fifo`), trace spans and
//! the [`StreamReport`] — every check and every simulated number — with
//! no coefficient computed. A command's cycles depend on `n`, its banks
//! and the configuration, never on data, so nothing is lost. What the
//! schedule issued is recorded as a [`DieProgram`], in the order the die
//! sees the effects: a host write when it is issued, commands when their
//! batch drains, the downloads after the last drain.
//!
//! **Apply.** The program runs straight through — writes, commands
//! (`Chip::apply`), reads into the caller's output buffers — with no
//! scheduling and no timing. A farm prices on its scheduler thread, where
//! placement needs the cost, and applies the programs of all its dies at
//! once on host threads.

use cofhee_arith::ModRing;
use cofhee_obs::{TraceEvent, Track};
use cofhee_sim::{BankId, Command, Slot, COMMAND_WORDS, FIFO_DEPTH};

use crate::backend::ChipBackend;
use crate::error::{CoreError, Result};
use crate::stream::{OpStream, StreamHandle, StreamOp, StreamReport};

/// One thing the host does to the die.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Writes the payload of node `node` — an upload, or the resident
    /// mirror an input names — reduced, into `slot`.
    Write { slot: Slot, node: usize },
    /// Applies a command its drain priced.
    Command(Command),
    /// Reads the next marked output back from `slot`.
    Read(Slot),
}

/// What pricing a stream issued to the die, for
/// [`ChipBackend::apply`](crate::ChipBackend::apply) to run: host writes,
/// commands and reads, in the order the die sees their effects. Opaque;
/// one program buffer can be priced into again and again.
#[derive(Debug, Default)]
pub struct DieProgram {
    steps: Vec<Step>,
}

/// Occupancy of one schedulable polynomial slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    /// No live value, no queued reader: host-writable and allocatable.
    Free,
    /// Dead value whose readers may still sit in the FIFO. Safe as a
    /// command destination (the writer queues behind the readers), not
    /// for an immediate host write; promoted to [`SlotState::Free`] by
    /// the next drain.
    PendingDrain,
    /// Holds a live stream value.
    Live,
}

/// One polynomial-sized slot in the bank plan.
#[derive(Debug, Clone, Copy)]
struct PlanSlot {
    slot: Slot,
    dual: bool,
    state: SlotState,
}

/// One FIFO batch, as the seconds pipeline model consumes it.
#[derive(Debug, Clone, Copy)]
struct Batch {
    /// Host-link seconds spent streaming this batch in (operand uploads
    /// plus packed command words).
    wire_in: f64,
    /// Wall-clock chip cycles of the drain.
    wall_cycles: u64,
}

/// The per-stream scheduler state.
struct Scheduler<'a> {
    be: &'a mut ChipBackend,
    /// What the die has been issued so far.
    program: &'a mut Vec<Step>,
    n: usize,
    slots: Vec<PlanSlot>,
    /// Node index → slot housing its value.
    residence: Vec<Option<usize>>,
    /// Remaining uses per node (consumers + output markings).
    uses: Vec<usize>,
    batches: Vec<Batch>,
    /// Wire seconds accumulated since the last drain.
    wire_in: f64,
    /// Bank of the most recent host upload: the next upload avoids it,
    /// so its DMA transfer never blocks the bank a command is about to
    /// read — the double-buffering that lets transfers hide behind
    /// compute.
    last_upload_bank: Option<BankId>,
    report: StreamReport,
    /// Compute cycles already emitted onto this stream's die track;
    /// batch spans start at `trace.base + trace_off`, so their
    /// durations sum exactly to `overlapped_cycles`.
    trace_off: u64,
}

impl<'a> Scheduler<'a> {
    fn new(be: &'a mut ChipBackend, stream: &OpStream, program: &'a mut Vec<Step>) -> Self {
        let n = stream.n();
        let plan = be.device.chip().bank_plan();
        let per_bank = be.device.chip().config().bank_words / n;
        let banks: Vec<BankId> =
            [plan.d0, plan.d1, plan.d2].into_iter().chain(plan.storage).collect();
        let mut slots = Vec::with_capacity(banks.len() * per_bank);
        for bank in banks {
            let dual =
                be.device.chip().memory().bank(bank).map(|b| b.is_dual_port()).unwrap_or(false);
            for k in 0..per_bank {
                slots.push(PlanSlot { slot: Slot::new(bank, k * n), dual, state: SlotState::Free });
            }
        }
        Self {
            be,
            program,
            n,
            slots,
            residence: vec![None; stream.len()],
            uses: stream.use_counts(),
            batches: Vec::new(),
            wire_in: 0.0,
            last_upload_bank: None,
            report: StreamReport::default(),
            trace_off: 0,
        }
    }

    /// Emits the timeline events of one drained batch: the link-upload
    /// DMA segment that streamed it in, the PE-compute span (batch
    /// drain), and the drain-interrupt instant. Compute spans start at
    /// `trace.base + trace_off`, so per-die compute durations sum
    /// exactly to the stream's `overlapped_cycles` — and therefore to
    /// the farm's per-die busy cycles. DMA segments serialize on the
    /// die's link track (`trace_dma_tail` persists across streams), so
    /// link segments never overlap or regress.
    fn trace_batch(&mut self, wire_in: f64, wall_cycles: u64, commands: u64, irq: bool) {
        if !self.be.trace.enabled() {
            return;
        }
        let die = self.be.trace.die;
        let freq = self.be.device.chip().config().freq_hz as f64;
        let start = self.be.trace.base + self.trace_off;
        let end = start.saturating_add(wall_cycles);
        self.trace_off += wall_cycles;
        let wire_cycles = (wire_in * freq).round() as u64;
        if wire_cycles > 0 {
            let s = start.saturating_sub(wire_cycles).max(self.be.trace_dma_tail);
            let e = s + wire_cycles;
            self.be.trace_dma_tail = e;
            self.be.trace.sink.record(TraceEvent::span(Track::DieDma(die), "dma-upload", s, e));
        }
        self.be.trace.sink.record(
            TraceEvent::span(Track::DieCompute(die), "drain", start, end).arg("commands", commands),
        );
        if irq {
            self.be.trace.sink.record(TraceEvent::instant(Track::DieCompute(die), "irq", end));
        }
    }

    /// Emits the readout DMA segment that streams the marked outputs
    /// back after the final drain.
    fn trace_readout(&mut self) {
        if !self.be.trace.enabled() || self.report.downloaded_bytes == 0 {
            return;
        }
        let freq = self.be.device.chip().config().freq_hz as f64;
        let poly_bytes = self.n as u64 * 16;
        let downloads = self.report.downloaded_bytes / poly_bytes;
        let wire = downloads as f64 * self.be.device.link_transfer_seconds(poly_bytes);
        let wire_cycles = (wire * freq).round() as u64;
        if wire_cycles == 0 {
            return;
        }
        let die = self.be.trace.die;
        let s = (self.be.trace.base + self.trace_off).max(self.be.trace_dma_tail);
        let e = s + wire_cycles;
        self.be.trace_dma_tail = e;
        self.be.trace.sink.record(TraceEvent::span(Track::DieDma(die), "dma-readout", s, e));
    }

    fn live_count(&self) -> usize {
        self.slots.iter().filter(|s| s.state == SlotState::Live).count()
    }

    /// Picks the best allocatable slot: hard-require `Free` for host
    /// writes, soft-prefer banks outside `avoid`, dual-port banks when
    /// `prefer_dual` (NTT destinations want II = 1), and
    /// `PendingDrain` reuse over clean `Free` slots so host-writable
    /// capacity is conserved.
    fn pick(&self, prefer_dual: bool, avoid: &[BankId], host_write: bool) -> Option<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| match s.state {
                SlotState::Free => true,
                SlotState::PendingDrain => !host_write,
                SlotState::Live => false,
            })
            .min_by_key(|(_, s)| {
                let avoided = u32::from(avoid.contains(&s.slot.bank)) * 8;
                let port = u32::from(s.dual != prefer_dual) * 4;
                let same_bank =
                    u32::from(host_write && Some(s.slot.bank) == self.last_upload_bank) * 2;
                let clean = u32::from(!host_write && s.state == SlotState::Free);
                avoided + port + same_bank + clean
            })
            .map(|(i, _)| i)
    }

    /// Allocates a slot, draining the FIFO once to reclaim
    /// pending-drain slots if nothing is available.
    fn alloc(&mut self, prefer_dual: bool, avoid: &[BankId], host_write: bool) -> Result<usize> {
        for attempt in 0..2 {
            if attempt == 1 {
                self.drain()?;
            }
            if let Some(i) = self.pick(prefer_dual, avoid, host_write) {
                self.slots[i].state = SlotState::Live;
                return Ok(i);
            }
        }
        Err(CoreError::SlotsExhausted { live: self.live_count(), slots: self.slots.len() })
    }

    /// Drains the FIFO: one batch, one drain interrupt, pending slots
    /// reclaimed, the batch's commands appended to the program. A drain
    /// with nothing queued only reclaims slots.
    fn drain(&mut self) -> Result<()> {
        if self.be.device.fifo_space() < FIFO_DEPTH {
            let program = &mut *self.program;
            let drained = self.be.device.price_fifo(|cmd| program.push(Step::Command(cmd)))?;
            if drained.executed > 0 {
                self.report.batches += 1;
                self.report.serial_cycles += drained.serial_cycles;
                self.report.overlapped_cycles += drained.report.cycles;
                let irq = self.be.device.take_interrupt();
                self.report.interrupts += u64::from(irq);
                self.be.report.absorb(&drained.report);
                let wire_in = std::mem::take(&mut self.wire_in);
                self.batches.push(Batch { wire_in, wall_cycles: drained.report.cycles });
                self.trace_batch(wire_in, drained.report.cycles, drained.executed, irq);
            }
        }
        for s in &mut self.slots {
            if s.state == SlotState::PendingDrain {
                s.state = SlotState::Free;
            }
        }
        Ok(())
    }

    /// Pushes one command, draining first when the FIFO is at depth.
    fn submit(&mut self, cmd: Command) -> Result<()> {
        if self.be.device.fifo_space() == 0 {
            self.drain()?;
        }
        let cmd_bytes = COMMAND_WORDS as u64 * 4;
        self.wire_in += self.be.device.link_transfer_seconds(cmd_bytes);
        self.report.uploaded_bytes += cmd_bytes;
        self.report.commands += 1;
        self.be.device.submit(cmd)
    }

    /// The link-side DMA transaction over `slot`: it moves no data, but
    /// it occupies the DMA engine and the bank for the cycles the real
    /// transfer takes, so the overlap model sees it.
    fn submit_dma_touch(&mut self, slot: Slot) -> Result<()> {
        self.submit(Command::memcpy(slot, slot, self.n))
    }

    /// Allocates the slot the host write of `node`'s value lands in.
    fn host_slot(&mut self, node: usize) -> Result<Slot> {
        let si = self.alloc(false, &[], true)?;
        let slot = self.slots[si].slot;
        self.last_upload_bank = Some(slot.bank);
        self.residence[node] = Some(si);
        Ok(slot)
    }

    /// Records the backdoor write of `node`'s payload into `slot`,
    /// accounts its wire time and queues the DMA command shadowing it.
    fn host_uploaded(&mut self, node: usize, slot: Slot) -> Result<()> {
        self.program.push(Step::Write { slot, node });
        let poly_bytes = self.n as u64 * 16;
        self.wire_in += self.be.device.link_transfer_seconds(poly_bytes);
        self.report.uploaded_bytes += poly_bytes;
        self.submit_dma_touch(slot)
    }

    /// Slot of an operand node (produced earlier by construction).
    fn operand(&self, h: StreamHandle) -> Slot {
        let si = self.residence[h.index].expect("operands precede their consumers");
        self.slots[si].slot
    }

    /// Releases one use of a node; its slot is reusable in FIFO order
    /// once the count reaches zero.
    fn release(&mut self, h: StreamHandle) {
        let i = h.index;
        self.uses[i] = self.uses[i].saturating_sub(1);
        if self.uses[i] == 0 {
            if let Some(si) = self.residence[i] {
                self.slots[si].state = SlotState::PendingDrain;
            }
        }
    }

    /// Issues the commands for one recorded node.
    fn issue(&mut self, i: usize, op: &StreamOp, is_output: bool) -> Result<()> {
        match op {
            StreamOp::Upload(v) => {
                let slot = self.host_slot(i)?;
                self.be.device.price_transfer(slot, v.len())?;
                self.host_uploaded(i, slot)?;
            }
            StreamOp::Input(h) => {
                // The resident mirror (a cached relin key, say) is
                // reduced into the bank from where it lies.
                let slot = self.host_slot(i)?;
                let be = &mut *self.be;
                let mirror =
                    be.pool.get(&h.id()).ok_or_else(|| CoreError::BadHandle { id: h.id() })?;
                be.device.price_transfer(slot, mirror.len())?;
                self.host_uploaded(i, slot)?;
            }
            StreamOp::Ntt(s) | StreamOp::Intt(s) => {
                let src = self.operand(*s);
                let dst_i = self.alloc(true, &[src.bank], false)?;
                let dst = self.slots[dst_i].slot;
                let cmd = if matches!(op, StreamOp::Ntt(_)) {
                    Command::ntt(src, self.be.device.forward_twiddles(), dst)
                } else {
                    Command::intt(src, self.be.device.inverse_twiddles(), dst)
                };
                self.submit(cmd)?;
                self.release(*s);
                self.residence[i] = Some(dst_i);
            }
            StreamOp::Hadamard(x, y)
            | StreamOp::PointwiseAdd(x, y)
            | StreamOp::PointwiseSub(x, y) => {
                let (sx, sy) = (self.operand(*x), self.operand(*y));
                let dst_i = self.alloc(true, &[], false)?;
                let dst = self.slots[dst_i].slot;
                let cmd = match op {
                    StreamOp::Hadamard(..) => Command::pmodmul(sx, sy, dst),
                    StreamOp::PointwiseAdd(..) => Command::pmodadd(sx, sy, dst),
                    _ => Command::pmodsub(sx, sy, dst),
                };
                self.submit(cmd)?;
                self.release(*x);
                self.release(*y);
                self.residence[i] = Some(dst_i);
            }
            StreamOp::HadamardIntt(x, y) => {
                // The chip has no fused command: PMODMUL then iNTT,
                // with the product slot reclaimed in-queue — the same
                // two commands the unfused recording would issue, so
                // results (and cycle accounting) are bit-identical.
                let (sx, sy) = (self.operand(*x), self.operand(*y));
                let prod_i = self.alloc(true, &[], false)?;
                let prod = self.slots[prod_i].slot;
                self.submit(Command::pmodmul(sx, sy, prod))?;
                self.release(*x);
                self.release(*y);
                let out_i = self.alloc(true, &[prod.bank], false)?;
                let out = self.slots[out_i].slot;
                self.submit(Command::intt(prod, self.be.device.inverse_twiddles(), out))?;
                self.slots[prod_i].state = SlotState::PendingDrain;
                self.residence[i] = Some(out_i);
            }
            StreamOp::HadamardAdd(x, y, acc) => {
                // No fused command on the chip either: PMODMUL into a
                // temporary reclaimed in-queue, then PMODADD — the same
                // two commands a `hadamard` + `pointwise_add` recording
                // issues, so the node is cycle-neutral here and pays off
                // in slot pressure and recorded-node count only.
                let (sx, sy) = (self.operand(*x), self.operand(*y));
                let prod_i = self.alloc(true, &[], false)?;
                let prod = self.slots[prod_i].slot;
                self.submit(Command::pmodmul(sx, sy, prod))?;
                self.release(*x);
                self.release(*y);
                let sacc = self.operand(*acc);
                let out_i = self.alloc(true, &[], false)?;
                let out = self.slots[out_i].slot;
                self.submit(Command::pmodadd(prod, sacc, out))?;
                self.release(*acc);
                self.slots[prod_i].state = SlotState::PendingDrain;
                self.residence[i] = Some(out_i);
            }
            StreamOp::ScalarMul(x, c) => {
                let src = self.operand(*x);
                let dst_i = self.alloc(true, &[], false)?;
                let dst = self.slots[dst_i].slot;
                let c = self.be.device.ring().from_u128(*c);
                self.submit(Command::cmodmul(src, c, dst))?;
                self.release(*x);
                self.residence[i] = Some(dst_i);
            }
        }
        // Marked outputs get their readout DMA queued right behind the
        // producer so it hides behind whatever computes next; uploads
        // already carry their transfer command.
        if is_output && !matches!(op, StreamOp::Upload(_) | StreamOp::Input(_)) {
            let slot = self.slots[self.residence[i].expect("just placed")].slot;
            self.submit_dma_touch(slot)?;
        }
        // A value nobody consumes (and nobody downloads) is dead on
        // arrival: reclaim its slot in queue order.
        if self.uses[i] == 0 {
            if let Some(si) = self.residence[i] {
                self.slots[si].state = SlotState::PendingDrain;
            }
        }
        Ok(())
    }

    fn run(&mut self, stream: &OpStream) -> Result<()> {
        let is_output: Vec<bool> = {
            let mut v = vec![false; stream.len()];
            for out in stream.outputs() {
                v[out.index] = true;
            }
            v
        };
        for (i, op) in stream.nodes().iter().enumerate() {
            self.issue(i, op, is_output[i])?;
        }
        self.drain()?;

        // Everything has drained; read the marked outputs back.
        let poly_bytes = self.n as u64 * 16;
        for out in stream.outputs() {
            let slot = self.slots[self.residence[out.index].expect("outputs were produced")].slot;
            self.be.device.price_transfer(slot, self.n)?;
            self.program.push(Step::Read(slot));
            self.report.downloaded_bytes += poly_bytes;
            self.release(*out);
        }
        self.trace_readout();
        self.finish_timing();
        Ok(())
    }

    /// Seconds totals from the batch records: serial pays every
    /// transfer and cycle in sequence; overlapped pipelines the link
    /// against compute (the host streams batch `b+1` while the chip
    /// drains batch `b`; output downloads ride after the final drain).
    fn finish_timing(&mut self) {
        let freq = self.be.device.chip().config().freq_hz as f64;
        let poly_bytes = self.n as u64 * 16;
        let downloads = self.report.downloaded_bytes / poly_bytes;
        let download_wire = downloads as f64 * self.be.device.link_transfer_seconds(poly_bytes);
        let total_wire_in: f64 = self.batches.iter().map(|b| b.wire_in).sum::<f64>() + self.wire_in;
        let mut wire_t = 0.0f64;
        let mut chip_t = 0.0f64;
        for b in &self.batches {
            wire_t += b.wire_in;
            chip_t = chip_t.max(wire_t) + b.wall_cycles as f64 / freq;
        }
        self.report.serial_seconds =
            total_wire_in + self.report.serial_cycles as f64 / freq + download_wire;
        self.report.overlapped_seconds = wire_t.max(chip_t) + download_wire;
    }
}

impl ChipBackend {
    /// The first half of
    /// [`PolyBackend::execute_stream`](crate::PolyBackend::execute_stream): schedules
    /// `stream` through the command FIFO on the die's timing alone —
    /// every check, the cycle ledger, the trace, the wire accounting and
    /// the returned [`StreamReport`], nothing computed — and records
    /// what it issued into `program` (see the module docs).
    ///
    /// # Errors
    ///
    /// Those of `execute_stream`: a stream that prices
    /// cleanly applies cleanly. A stream that fails to price is not
    /// applied.
    pub fn price(&mut self, stream: &OpStream, program: &mut DieProgram) -> Result<StreamReport> {
        program.steps.clear();
        if stream.n() != self.device.n() {
            return Err(CoreError::DegreeMismatch {
                device: self.device.n(),
                requested: stream.n(),
            });
        }
        if stream.is_empty() {
            return Ok(StreamReport::default());
        }
        let mut sched = Scheduler::new(self, stream, &mut program.steps);
        let result = sched.run(stream);
        let report = sched.report;
        if result.is_err() {
            // Never leave half a batch queued behind for a later,
            // unrelated drain; the flushed commands were issued, so their
            // cycles still belong in the cumulative ledger.
            if let Ok(flushed) = self.device.price_fifo(|_| {}) {
                self.report.absorb(&flushed.report);
            }
        }
        result.map(|()| report)
    }

    /// The second half: runs the `program` [`ChipBackend::price`]
    /// recorded for `stream` on the die — host writes, commands and
    /// reads in the order they were issued, no timing — replacing each
    /// of `outputs`, one buffer per marked output, with its polynomial
    /// (in place when the buffer has room for `n` words). Programs of
    /// one backend apply in the order they were priced; nothing else
    /// may touch the die between.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadOperandLength`] when `outputs` is not one buffer
    /// per marked output; [`CoreError::BadHandle`] for an input freed
    /// since pricing; [`CoreError::UnfilledUpload`] for a deferred upload
    /// still empty (pricing read only its length).
    pub fn apply(
        &mut self,
        stream: &OpStream,
        program: &DieProgram,
        outputs: &mut [Vec<u128>],
    ) -> Result<()> {
        let marked = stream.outputs().len();
        if outputs.len() != marked {
            return Err(CoreError::BadOperandLength { expected: marked, found: outputs.len() });
        }
        let mut reads = outputs.iter_mut();
        for step in &program.steps {
            match *step {
                Step::Write { slot, node } => {
                    let coeffs = match &stream.nodes()[node] {
                        StreamOp::Upload(v) => v.words()?,
                        StreamOp::Input(h) => self
                            .pool
                            .get(&h.id())
                            .ok_or_else(|| CoreError::BadHandle { id: h.id() })?,
                        _ => unreachable!("the host writes only uploads and inputs"),
                    };
                    self.device.write(slot, coeffs)?;
                }
                Step::Command(cmd) => self.device.chip_mut().apply(&cmd)?,
                Step::Read(slot) => {
                    let out = reads.next().expect("one read per marked output");
                    out.clear();
                    out.extend_from_slice(self.device.chip().memory().slice(slot, stream.n())?);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{CpuBackend, PolyBackend};
    use crate::device::Link;
    use cofhee_arith::primes::ntt_prime;
    use cofhee_sim::{ChipConfig, Spi};

    const N: usize = 1 << 6;

    fn q() -> u128 {
        ntt_prime(60, N).unwrap()
    }

    fn poly(seed: u128) -> Vec<u128> {
        let q = q();
        let mut state = seed | 1;
        (0..N)
            .map(|_| {
                state = state.wrapping_mul(0x5851f42d4c957f2d).wrapping_add(3);
                state % q
            })
            .collect()
    }

    /// `rounds` chained ciphertext-tensor-style bodies: enough commands
    /// to overflow a 32-deep FIFO several times over.
    fn deep_stream(rounds: usize) -> OpStream {
        let mut st = OpStream::new(N);
        let a = st.upload(poly(1)).unwrap();
        let b = st.upload(poly(2)).unwrap();
        let mut fa = st.ntt(a).unwrap();
        let fb = st.ntt(b).unwrap();
        let mut acc = st.hadamard(fa, fb).unwrap();
        for _ in 0..rounds {
            fa = st.pointwise_add(acc, fb).unwrap();
            acc = st.hadamard(fa, fb).unwrap();
        }
        let out = st.intt(acc).unwrap();
        st.output(out).unwrap();
        st
    }

    #[test]
    fn deep_streams_batch_through_the_fifo_with_interrupts() {
        let q = q();
        let st = deep_stream(40); // > 80 compute commands
        let mut chip = ChipBackend::connect(ChipConfig::silicon(), q, N).unwrap();
        let outcome = chip.execute_stream(&st).unwrap();
        assert!(
            outcome.report.batches >= 3,
            "85+ commands cannot fit one 32-deep batch: {} batches",
            outcome.report.batches
        );
        assert_eq!(
            outcome.report.interrupts, outcome.report.batches,
            "every drain raises and services exactly one interrupt"
        );
        assert!(outcome.report.commands > cofhee_sim::FIFO_DEPTH as u64);

        // Bit-exact against the CPU replay.
        let mut cpu = CpuBackend::new(q, N).unwrap();
        assert_eq!(outcome.outputs, cpu.execute_stream(&st).unwrap().outputs);
    }

    #[test]
    fn overlapped_totals_come_in_under_serial_totals() {
        let st = deep_stream(6);
        let mut chip = ChipBackend::connect(ChipConfig::silicon(), q(), N).unwrap();
        let r = chip.execute_stream(&st).unwrap().report;
        assert!(
            r.overlapped_cycles < r.serial_cycles,
            "DMA must hide behind compute: {} !< {}",
            r.overlapped_cycles,
            r.serial_cycles
        );
        assert!(r.overlapped_seconds < r.serial_seconds);
        assert!(r.serial_cycles > 0 && r.uploaded_bytes > 0 && r.downloaded_bytes > 0);
    }

    #[test]
    fn timed_links_overlap_wire_time_with_compute() {
        let q = q();
        let st = deep_stream(6);
        let link = Link::Spi(Spi::new(50_000_000));
        let mut chip = ChipBackend::connect_via(ChipConfig::silicon(), q, N, link).unwrap();
        let r = chip.execute_stream(&st).unwrap().report;
        assert!(r.serial_seconds > 0.0 && r.overlapped_seconds > 0.0);
        assert!(
            r.overlapped_seconds < r.serial_seconds,
            "the link must pipeline against compute: {} !< {}",
            r.overlapped_seconds,
            r.serial_seconds
        );
        // Wire accounting flows into the backend's cumulative comm stats.
        assert!(chip.comm_stats().seconds > 0.0);
    }

    #[test]
    fn stream_telemetry_accrues_to_the_cumulative_report() {
        let mut chip = ChipBackend::connect(ChipConfig::silicon(), q(), N).unwrap();
        assert_eq!(chip.report().cycles, 0);
        let _ = chip.execute_stream(&deep_stream(2)).unwrap();
        let after = chip.report();
        assert!(after.cycles > 0, "drained batches land in the OpReport ledger");
        assert!(after.butterflies > 0 && after.mults > 0);
    }

    #[test]
    fn a_die_without_the_bank_plans_banks_is_refused_at_bring_up() {
        // With two dual-port banks the prefetch bank is the second
        // compute bank, so the slot list would hold its slots twice;
        // with four single-port banks the third storage bank is missing.
        for config in [
            ChipConfig { dual_port_banks: 2, ..ChipConfig::silicon() },
            ChipConfig { single_port_banks: 4, ..ChipConfig::silicon() },
        ] {
            assert!(
                matches!(
                    ChipBackend::connect(config.clone(), q(), N),
                    Err(CoreError::Sim(cofhee_sim::SimError::BadConfiguration { .. }))
                ),
                "{config:?}"
            );
        }
    }

    #[test]
    fn resident_values_never_cross_the_wire_mid_stream() {
        // A chain of 8 dependent ops: one command at a time would stage
        // every intermediate over the link; the stream only moves the two
        // operands in and one result out (plus command words).
        let q = q();
        let mut st = OpStream::new(N);
        let a = st.upload(poly(5)).unwrap();
        let b = st.upload(poly(6)).unwrap();
        let mut acc = st.pointwise_add(a, b).unwrap();
        for _ in 0..6 {
            acc = st.pointwise_add(acc, b).unwrap();
        }
        st.output(acc).unwrap();
        let mut chip = ChipBackend::connect(ChipConfig::silicon(), q, N).unwrap();
        let r = chip.execute_stream(&st).unwrap().report;
        let poly_bytes = N as u64 * 16;
        let cmd_bytes = COMMAND_WORDS as u64 * 4;
        // 2 operand uploads + command words for 7 adds + 2 upload DMAs
        // + 1 readout DMA.
        assert_eq!(r.uploaded_bytes, 2 * poly_bytes + 10 * cmd_bytes);
        assert_eq!(r.downloaded_bytes, poly_bytes);
    }

    #[test]
    fn traced_drain_spans_sum_exactly_to_overlapped_cycles() {
        use cofhee_obs::{EventKind, MemorySink, TraceContext, Track};

        let q = q();
        let st = deep_stream(10);
        let mut plain = ChipBackend::connect(ChipConfig::silicon(), q, N).unwrap();
        let untraced = plain.execute_stream(&st).unwrap();

        let sink = MemorySink::shared();
        let link = Link::Spi(Spi::new(50_000_000));
        let mut chip = ChipBackend::connect_via(ChipConfig::silicon(), q, N, link).unwrap();
        chip.set_trace(TraceContext::new(sink.clone(), 3, 1_000));
        let traced = chip.execute_stream(&st).unwrap();
        assert_eq!(traced.outputs, untraced.outputs, "tracing must not perturb results");
        assert_eq!(traced.report.overlapped_cycles, untraced.report.overlapped_cycles);

        let events = sink.events();
        let drains: Vec<_> = events
            .iter()
            .filter(|e| e.track == Track::DieCompute(3) && e.name == "drain")
            .collect();
        assert_eq!(drains.len() as u64, traced.report.batches);
        assert_eq!(drains[0].kind.start(), 1_000, "first batch starts at the trace base");
        let total: u64 = drains.iter().map(|e| e.kind.duration()).sum();
        assert_eq!(
            total, traced.report.overlapped_cycles,
            "drain spans must tile the stream's busy window exactly"
        );
        let irqs = events.iter().filter(|e| e.name == "irq").count() as u64;
        assert_eq!(irqs, traced.report.interrupts);

        // The timed link produces serialized, non-overlapping DMA
        // segments on the die's link track.
        let mut dma_tail = 0u64;
        let mut dma_seen = 0;
        for e in events.iter().filter(|e| e.track == Track::DieDma(3)) {
            let EventKind::Span { start, end } = e.kind else {
                panic!("DMA track must hold spans only")
            };
            assert!(start >= dma_tail, "link segments must not overlap");
            dma_tail = end;
            dma_seen += 1;
        }
        assert!(dma_seen > 0, "a timed link must produce DMA segments");
        assert!(events.iter().any(|e| e.name == "dma-readout"));
    }

    #[test]
    fn slot_exhaustion_is_a_typed_error() {
        // A stream whose live set exceeds the 6 polynomial slots a
        // full-bank-degree chip offers (n == bank_words ⇒ 1 slot/bank).
        let n = 1 << 13;
        let q = ntt_prime(109, n).unwrap();
        let mut st = OpStream::new(n);
        let seed: Vec<u128> = (0..n as u128).collect();
        let mut handles = Vec::new();
        for _ in 0..8 {
            handles.push(st.upload(seed.clone()).unwrap());
        }
        // Keep all eight live at once.
        let mut acc = handles[0];
        for &h in &handles[1..] {
            acc = st.pointwise_add(acc, h).unwrap();
        }
        st.output(acc).unwrap();
        let mut chip = ChipBackend::connect(ChipConfig::silicon(), q, n).unwrap();
        match chip.execute_stream(&st) {
            Err(CoreError::SlotsExhausted { live, slots }) => {
                assert_eq!(slots, 6);
                assert!(live >= 6);
            }
            other => panic!("expected SlotsExhausted, got {other:?}"),
        }
    }
}
