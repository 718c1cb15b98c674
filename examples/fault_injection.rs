//! Fault injection: what happens to a measurement round on a lossy,
//! corrupting network?
//!
//! ```text
//! cargo run --release --example fault_injection -- [--corrupt-chance P] [--drop-chance P]
//! ```
//!
//! In the smoltcp tradition, the transport can drop, duplicate, and
//! corrupt frames. Corruption is caught by the frame checksum (as TLS
//! record MACs would in the real deployment) and surfaces as dropped
//! messages; drops of protocol-critical messages deadlock the round,
//! which the deterministic runner detects and reports rather than
//! hanging — exactly what the paper's operators saw as "server was
//! temporarily unavailable" rounds (§3.1).

use pm_net::transport::FaultConfig;
use privcount::counter::CounterSpec;
use privcount::round::{run_round, NoiseAllocation, RoundConfig};
use std::sync::Arc;
use torsim::events::TorEvent;
use torsim::ids::{IpAddr, RelayId};

fn run_with(faults: FaultConfig) -> Result<i64, String> {
    let cfg = RoundConfig {
        counters: vec![CounterSpec::with_sigma("connections", 0.0)],
        mapper: Arc::new(|ev: &TorEvent, counts: &mut [i64]| {
            if matches!(ev, TorEvent::EntryConnection { .. }) {
                counts[0] += 1;
            }
        }),
        num_sks: 3,
        noise: NoiseAllocation::None,
        seed: 1,
        faults,
        fabric: Default::default(),
        adversary: Default::default(),
        recorder: Default::default(),
    };
    let generators = (0..3)
        .map(|dc| {
            let g: privcount::dc::EventGenerator = Box::new(move |sink| {
                for i in 0..100u32 {
                    sink(TorEvent::EntryConnection {
                        relay: RelayId(dc),
                        client_ip: IpAddr(i),
                    });
                }
            });
            g
        })
        .collect();
    run_round(cfg, generators)
        .map(|r| r.total("connections"))
        .map_err(|e| e.to_string())
}

fn main() {
    let mut corrupt = 0.3f64;
    let mut drop = 0.0f64;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--corrupt-chance" => {
                i += 1;
                corrupt = args[i].parse().expect("probability");
            }
            "--drop-chance" => {
                i += 1;
                drop = args[i].parse().expect("probability");
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    println!("clean network:");
    match run_with(FaultConfig::none()) {
        Ok(total) => println!("  round completed, connections = {total} (truth 300)"),
        Err(e) => println!("  round failed: {e}"),
    }

    println!("corrupt-chance {corrupt}, drop-chance {drop}:");
    for seed in 0..5 {
        let faults = FaultConfig {
            corrupt_chance: corrupt,
            drop_chance: drop,
            duplicate_chance: 0.0,
            seed,
        };
        match run_with(faults) {
            Ok(total) => println!("  seed {seed}: completed, connections = {total}"),
            Err(e) => println!("  seed {seed}: aborted — {e}"),
        }
    }
    println!(
        "\ncorrupted frames are detected by checksum and dropped; a round only \
         completes when every protocol message eventually arrives intact"
    );
}
