//! Empirical bias check: run many noisy PSC rounds and compare the
//! denoised estimates against the true unique count.
use psc::items;
use psc::round::{run_psc_round, PscConfig};
use torsim::events::TorEvent;
use torsim::ids::{IpAddr, RelayId};

fn main() {
    let truth = 400u32;
    let mut errs = Vec::new();
    let mut covered = 0;
    for seed in 0..20u64 {
        let cfg = PscConfig {
            table_size: 4096,
            noise_flips_per_cp: 2000,
            num_cps: 3,
            verify: false,
            seed,
            faults: Default::default(),
            ..Default::default()
        };
        let gens = vec![{
            let g: psc::dc::EventGenerator = Box::new(move |sink| {
                for i in 0..truth {
                    sink(TorEvent::EntryConnection {
                        relay: RelayId(0),
                        client_ip: IpAddr(i),
                    });
                }
            });
            g
        }];
        let r = run_psc_round(cfg, items::unique_client_ips(), gens).unwrap();
        let est = r.estimate(0.95);
        errs.push(est.value - truth as f64);
        if est.ci.contains(truth as f64) {
            covered += 1;
        }
        println!(
            "seed {seed}: est {:.1} CI [{:.0};{:.0}] covered={}",
            est.value,
            est.ci.lo,
            est.ci.hi,
            est.ci.contains(truth as f64)
        );
    }
    let mean: f64 = errs.iter().sum::<f64>() / errs.len() as f64;
    println!(
        "mean error {mean:.2}, covered {covered}/20 (per-run noise sd ~{:.0})",
        (6000f64).sqrt() / 2.0
    );
}
