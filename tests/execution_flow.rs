//! The Fig. 2 execution flow and Fig. 1 topology, exercised across
//! crates: command FIFO → MDMC → PE → memory → interrupt, the three
//! execution modes, and the DMA double-buffering of Section III-F.

use cofhee::arith::{primes::ntt_prime, Barrett128};
use cofhee::core::{Device, ExecutionMode, Link};
use cofhee::sim::{BankId, Chip, ChipConfig, Command, Slot, Uart, FIFO_DEPTH};

const Q109: u128 = 324518553658426726783156020805633;

#[test]
fn fig2_flow_fifo_to_mdmc_to_interrupt() {
    // "the command FIFO … decodes the command and triggers the MDMC …
    // Once the computational operation reaches completion, an interrupt
    // is generated, prompting the command FIFO to issue the succeeding
    // instruction."
    let n = 1 << 8;
    let mut chip = Chip::silicon().unwrap();
    let ring = Barrett128::new(Q109).unwrap();
    let (fwd, inv) = chip.load_ring(&ring, n).unwrap();
    let x = Slot::new(BankId(0), 0);
    let y = Slot::new(BankId(1), 0);
    let poly: Vec<u128> = (0..n as u128).collect();
    chip.write_polynomial(x, &poly).unwrap();

    chip.submit(Command::ntt(x, fwd, y)).unwrap();
    chip.submit(Command::intt(y, inv, x)).unwrap();
    assert!(!chip.take_interrupt(), "no interrupt before execution");
    let report = chip.run_until_idle().unwrap();
    assert!(chip.take_interrupt(), "drain interrupt raised");
    assert!(report.cycles > 0);
    assert_eq!(chip.read_polynomial(x, n).unwrap(), poly, "round trip");
}

#[test]
fn fifo_depth_is_enforced_at_32() {
    let mut chip = Chip::silicon().unwrap();
    let ring = Barrett128::new(Q109).unwrap();
    chip.load_ring(&ring, 1 << 6).unwrap();
    let cmd = Command::memcpy(Slot::new(BankId(5), 0), Slot::new(BankId(6), 0), 16);
    for _ in 0..FIFO_DEPTH {
        chip.submit(cmd).unwrap();
    }
    assert_eq!(chip.fifo_space(), 0);
    assert!(chip.submit(cmd).is_err(), "33rd command must be rejected");
    chip.run_until_idle().unwrap();
    assert_eq!(chip.fifo_space(), FIFO_DEPTH, "queue drained");
}

#[test]
fn double_buffering_hides_prefetch_behind_ntt() {
    // Section III-F: while the NTT operates, DMA loads the next
    // polynomial into the spare dual-port bank "transparently in the
    // background without performance degradation".
    let n = 1 << 12;
    let mut chip = Chip::silicon().unwrap();
    let ring = Barrett128::new(Q109).unwrap();
    let (fwd, _) = chip.load_ring(&ring, n).unwrap();
    let poly: Vec<u128> = (0..n as u128).collect();
    chip.write_polynomial(Slot::new(BankId(0), 0), &poly).unwrap();
    chip.write_polynomial(Slot::new(BankId(5), 0), &poly).unwrap();

    // NTT (banks 0→1) + background prefetch (bank 5 → bank 2).
    chip.submit(Command::ntt(Slot::new(BankId(0), 0), fwd, Slot::new(BankId(1), 0))).unwrap();
    chip.submit(Command::memcpy(Slot::new(BankId(5), 0), Slot::new(BankId(2), 0), n)).unwrap();
    let overlapped = chip.run_until_idle().unwrap();
    assert_eq!(overlapped.cycles, 24_841, "prefetch fully hidden (Table V NTT latency)");

    // Second NTT consumes the prefetched polynomial with no reload gap.
    chip.submit(Command::ntt(Slot::new(BankId(2), 0), fwd, Slot::new(BankId(0), 0))).unwrap();
    let second = chip.run_until_idle().unwrap();
    assert_eq!(second.cycles, 24_841);
}

#[test]
fn all_three_execution_modes_agree_and_rank_by_overhead() {
    let n = 1 << 8;
    let q = ntt_prime(109, n).unwrap();
    let link = Link::Uart(Uart::new(115_200));
    let mut results = Vec::new();
    let mut overheads = Vec::new();
    for mode in [ExecutionMode::DirectRegister, ExecutionMode::CommandFifo, ExecutionMode::Cm0] {
        let mut dev = Device::connect_via(ChipConfig::silicon(), q, n, link.clone()).unwrap();
        let a: Vec<u128> = (0..n as u128).map(|i| i + 1).collect();
        let b: Vec<u128> = (0..n as u128).map(|i| 2 * i + 3).collect();
        let out = dev.run(&dev.poly_mul_schedule(), &[&a, &b], mode).unwrap();
        results.push(out.outputs);
        overheads.push((mode, out.command_overhead_s));
    }
    assert_eq!(results[0], results[1], "direct == fifo");
    assert_eq!(results[1], results[2], "fifo == cm0");
    // Mode 1 is "slow [due to] delays imposed by the communication
    // interface" — it must pay the largest command overhead.
    let direct = overheads[0].1;
    let fifo = overheads[1].1;
    assert!(direct > fifo, "direct {direct} vs fifo {fifo}");
}

#[test]
fn fig1_topology_is_reachable() {
    // Every Fig. 1 block exists and responds: SRAMs (8 logical banks),
    // GPCFG at its documented base, PE behind the MDMC, FIFO, and the
    // memory map's dual-port aliases.
    let mut chip = Chip::silicon().unwrap();
    assert_eq!(chip.memory().bank_count(), 8);
    assert_eq!(chip.memory().dual_port_count(), 3);
    assert_eq!(
        chip.read_register(cofhee::sim::Register::SIGNATURE).unwrap(),
        cofhee::sim::SIGNATURE_VALUE
    );
    let bank0 = chip.memory().bank(BankId(0)).unwrap();
    let (via_a, _, port_b_a) = chip.memory().decode(bank0.base_a()).unwrap();
    let (via_b, _, port_b_b) = chip.memory().decode(bank0.base_b().unwrap()).unwrap();
    assert_eq!(via_a, via_b, "dual-port aliases reach the same bank");
    assert!(!port_b_a && port_b_b);
}
