//! The repository benchmark: one command, four workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics, with `--trace 1`
//! the per-layer ledger; each run checks the delivered output, and the
//! last line of stdout is one JSON object (see `BENCHMARK.json`).

mod gauge;
mod host;
mod probe;
mod report;
mod sim;
mod simbench;
mod stats;
mod udp;

use report::Report;

#[global_allocator]
static ALLOC: probe::CountingAlloc = probe::CountingAlloc;

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] =
    ["sim-saturate-small", "sim-netfail-passive", "udp-loopback", "sim-ringpaxos"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload} (one of {})", WORKLOADS.join(", ")));
    }
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    Ok(Args { workload, seed, seconds, trace })
}

fn run(a: &Args) -> Report {
    let Some(sim) = sim::WORKLOADS.iter().find(|w| w.name == a.workload) else {
        return udp::run(a.seed, a.seconds, a.trace);
    };
    if a.trace {
        simbench::layers(sim, a.seed, a.seconds)
    } else {
        simbench::end_to_end(sim, a.seed, a.seconds)
    }
}

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut report = run(&args);
    let table: &[(&str, &str)] = if args.trace { &report::PER_LAYER } else { &report::END_TO_END };
    println!("{}", report.render(&args.workload, table));
}
