//! `peering-lg` — a looking glass over the simulated Internet.
//!
//! Builds a small seeded ring of ASes (65001..), runs it to convergence
//! with a route collector attached, and answers one query:
//!
//! ```text
//! peering-lg [--seed N] [--nodes N] show <prefix>
//! peering-lg [--seed N] [--nodes N] trace <prefix>
//! peering-lg [--seed N] [--nodes N] convergence <prefix>
//! ```
//!
//! Node `i` originates `10.60.i.0/24`, so e.g. `trace 10.60.0.0/24`
//! renders the propagation tree of AS65001's announcement. Same seed,
//! same answer, bit for bit.

use peering_bgp::{Asn, Input, Prefix};
use peering_collector::{Collector, LookingGlass};
use peering_emulation::{flat_mesh, Emulation};
use std::process::ExitCode;

const USAGE: &str = "usage: peering-lg [--seed N] [--nodes N] <show|trace|convergence> <prefix>
       (node i originates 10.60.i.0/24; default 5 nodes, seed 42)";

/// Build the demo ring, collector attached, run to convergence.
fn collected_ring(nodes: usize, seed: u64) -> (Emulation, Collector) {
    let edges: Vec<(usize, usize)> = (0..nodes).map(|a| (a, (a + 1) % nodes)).collect();
    let mut emu = flat_mesh("lg-ring", nodes, &edges, seed);
    let mut collector = Collector::new();
    for i in 0..nodes {
        collector.add_vantage(Asn(65001 + i as u32));
    }
    collector.attach(&mut emu);
    emu.start_all();
    for i in 0..nodes {
        emu.control(
            i,
            Input::Originate(Prefix::v4(10, 60, i as u8, 0, 24), vec![]),
        );
    }
    emu.run_until_quiet(usize::MAX);
    (emu, collector)
}

fn run() -> Result<String, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seed = 42u64;
    let mut nodes = 5usize;
    let mut positional = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--seed needs an integer")?;
            }
            "--nodes" => {
                nodes = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--nodes needs an integer")?;
                if !(2..=200).contains(&nodes) {
                    return Err("--nodes must be in 2..=200".to_string());
                }
            }
            "--help" | "-h" => return Ok(USAGE.to_string()),
            _ => positional.push(a),
        }
    }
    let [command, prefix] = positional.as_slice() else {
        return Err(USAGE.to_string());
    };
    let prefix: Prefix = prefix
        .parse()
        .map_err(|e| format!("bad prefix {prefix:?}: {e}"))?;

    let (emu, collector) = collected_ring(nodes, seed);
    let lg = LookingGlass::new(&emu, &collector);
    match command.as_str() {
        "show" => Ok(lg.show_route(prefix)),
        "trace" => Ok(lg.trace(prefix)),
        "convergence" => Ok(lg.convergence(prefix)),
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(out) => {
            print!("{out}");
            if !out.ends_with('\n') {
                println!();
            }
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
