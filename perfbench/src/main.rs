//! The repository benchmark: clustering time and quality, open-loop reads
//! on a 2-shard server, an open-loop write mix on a mutable server, and a
//! traced run that splits the work by layer from outside the program.
//!
//! Usage (run from the repository root; `perfbench/run.py` builds first):
//!
//! ```text
//! perfbench --workload noisy|dense --seed N --seconds S --trace 0|1
//! ```
//!
//! Human-readable lines go to stdout first; the last stdout line is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. The process
//! exits non-zero when any answer was wrong.

mod cluster;
mod probes;
mod reference;
mod serve;
mod system;
mod trace;
mod util;

use cluster::{Clusterers, Expected, Rounds, Tally};
use serve::{ReadReference, Reads, Writes};
use std::path::Path;
use std::time::Duration;
use system::{Params, Res, System};
use trace::Tracer;
use util::{median, normalize_labels, rss_mb, Metrics, Rng};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Res<Args> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse()?,
            "--seconds" => args.seconds = value.parse()?,
            "--trace" => args.trace = value == "1",
            _ => return Err(format!("unknown flag {flag}").into()),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Noise fraction of each workload's data; everything else is shared.
fn noise_of(workload: &str) -> Res<f64> {
    match workload {
        "noisy" => Ok(0.30),
        "dense" => Ok(0.05),
        other => Err(format!("unknown workload {other:?} (noisy | dense)").into()),
    }
}

/// The untraced run measures in rounds spread over `--seconds`: each round
/// is one DBSCAN and one LAF-DBSCAN run, a read segment and a write
/// segment, so a slow spell of the host lands on one round and the medians
/// over rounds step over it.
const SECONDS_PER_ROUND: f64 = 6.0;
const MIN_ROUNDS: usize = 3;
const READ_SEGMENT_S: f64 = 1.25;
const WRITE_SEGMENT_S: f64 = 1.0;
const SETUPS: usize = 3;
const TRACE_PAIRS: usize = 2;
/// Length of each rung of the traced capacity ladder and of the traced
/// write load.
const TRACE_RUNG_S: f64 = 1.5;
const TRACE_WRITE_S: f64 = 3.0;

/// LAF labels and counters must also repeat across runs of one seed: the
/// first run records their fingerprint, later runs compare against it.
fn check_across_runs(dir: &Path, args: &Args, fingerprint: u64, tally: &mut Tally) -> Res<()> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}-seed{}.txt", args.workload, args.seed));
    let current = format!("{fingerprint:016x}");
    match std::fs::read_to_string(&path) {
        Ok(previous) => tally.check(
            previous.trim() == current,
            "LAF labels or counters differ from an earlier run of this seed",
        ),
        Err(_) => {
            let tmp = path.with_extension("tmp");
            std::fs::write(&tmp, &current)?;
            std::fs::rename(&tmp, &path)?;
        }
    }
    Ok(())
}

fn run(args: &Args) -> Res<(Tally, Metrics)> {
    let p = Params::new(noise_of(&args.workload)?, args.seed);
    let root = std::env::current_dir()?;
    let scratch = root
        .join(".bench_tmp")
        .join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&scratch)?;

    // Set up several times; the median is `setup_s`, the last one is used.
    let setups = if args.trace { 1 } else { SETUPS };
    let mut setup_s = Vec::new();
    let mut sys: Option<System> = None;
    for attempt in 0..setups {
        if let Some(old) = sys.take() {
            old.teardown();
        }
        let s = System::setup(&p, &scratch, attempt)?;
        setup_s.push(s.setup_s());
        sys = Some(s);
    }
    let sys = sys.expect("at least one setup");
    let setup_rss = rss_mb();
    println!(
        "setup: gen {:.3}s train {:.3}s start {:.3}s (x{setups})",
        sys.gen_s, sys.train_s, sys.start_s
    );

    // Untimed inputs and references.
    let queries = p.mixture(p.queries, 1)?;
    let inserts = p.mixture(p.insert_rows, 2)?;
    let ((reference, read_ref), t) = util::timed(|| {
        (
            normalize_labels(&reference::dbscan(&sys.data, p.eps, p.min_pts)),
            ReadReference::new(&sys, &queries, p.eps),
        )
    });
    println!("references: {:.3}s", t.as_secs_f64());

    let mut rng = Rng::new(args.seed);
    let mut tally = Tally::default();
    let mut expected = Expected::default();
    let mut e2e = Metrics::default();
    let mut layers = Metrics::default();
    let secs = Duration::from_secs_f64;
    let clusterers = Clusterers::new(&p, &sys, &reference);
    let mut reads = Reads::new(&p, &sys, &queries, &read_ref);
    let mut writes = Writes::new(&p, &sys, &queries, &inserts);

    if !args.trace {
        e2e.put("setup_s", median(&setup_s), "s");
        e2e.put("setup_rss_mb", setup_rss, "MB");
        let rounds = MIN_ROUNDS.max((args.seconds / SECONDS_PER_ROUND).round() as usize);
        let mut clustering = Rounds::new(&clusterers, &sys);
        for _ in 0..rounds {
            clustering.round(&mut expected, &mut tally);
            reads.segment(secs(READ_SEGMENT_S), &mut rng, &mut tally);
            writes.segment(secs(WRITE_SEGMENT_S), &mut rng);
        }
        clustering.finish(&mut expected, &mut tally, &mut e2e);
        reads.finish(&mut e2e);
        writes.finish(&mut tally, &mut e2e, None);
    } else {
        layers.put("setup.gen_s", sys.gen_s, "s");
        layers.put("setup.train_s", sys.train_s, "s");
        layers.put("setup.start_s", sys.start_s, "s");
        layers.put("setup.rss_mb", setup_rss, "MB");
        let tracer = Tracer::new();
        cluster::trace(
            &clusterers,
            &sys,
            TRACE_PAIRS,
            &tracer,
            &mut expected,
            &mut tally,
            &mut layers,
        );
        let occupancy = reads.ladder(secs(TRACE_RUNG_S), &mut rng, &mut tally, &mut layers);
        writes.segment(secs(TRACE_WRITE_S), &mut rng);
        writes.finish(&mut tally, &mut e2e, Some(&mut layers));
        probes::run(
            &p,
            &sys,
            &queries,
            &inserts,
            occupancy,
            &scratch,
            &mut layers,
        )?;
        layers.put("trace.spans", tracer.len() as f64, "count");
        let spans = root
            .join(".bench_trace")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        tracer.write(&spans)?;
        println!("spans written to {}", spans.display());
    }

    check_across_runs(
        &root.join(".bench_state"),
        args,
        expected.fingerprint(),
        &mut tally,
    )?;
    drop((clusterers, reads));
    sys.teardown();
    std::fs::remove_dir_all(&scratch).ok();

    let failed_ratio = tally.failed as f64 / tally.attempted.max(1) as f64;
    e2e.put("ok_ratio", 1.0 - failed_ratio, "ratio");
    if args.trace {
        println!("end-to-end (traced run, for reference only):");
        e2e.print_table();
        println!("per-layer:");
        layers.print_table();
        Ok((tally, layers))
    } else {
        println!("end-to-end:");
        e2e.print_table();
        Ok((tally, e2e))
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok((tally, metrics)) => {
            let correct = tally.incorrect == 0;
            println!(
                "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                tally.attempted.max(1),
                tally.failed,
                metrics.to_json()
            );
            std::process::exit(if correct { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
