//! # benchmark — the repository benchmark
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <cg|md|p2p|fuzz> [--seed N] [--seconds N] [--trace 0|1]
//! benchmark --compare A.jsonl B.jsonl
//! ```
//!
//! Run from the repository root. An untraced run (`--trace 0`) times
//! whole passes of one workload in a closed loop on the 2-thread sweep
//! pool and prints the end-to-end metrics; a traced run (`--trace 1`)
//! also runs one serial, instrumented pass and prints the per-layer
//! metrics. The last stdout line is the result object
//! (`correct`, `attempted`, `failed`, `metrics`); the line before it is
//! the same run with its workload, seed and sample spreads, which is
//! what `--compare` reads. See README.md for the protocol.

mod cli;
mod compare;
mod inputs;
mod json;
mod layers;
mod metrics;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::fs::File;
use std::io::BufWriter;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

use elanib_core::simcache;
use elanib_core::SweepStats;
use elanib_simcore::profile::ProfTotals;
use elanib_simcore::trace::TraceConfig;

use cli::{Command, InputError, RunArgs, THREADS};
use inputs::Inputs;
use layers::{count_allocs, Counters, Recorder, Spans};
use metrics::{Value, END_TO_END, PER_LAYER};
use stats::{median, peak_rss_mib, percentile, process_cpu_s, rss_mib};
use workload::{
    build_world, cg_matrix, cg_verify_pass, exhibit_pass, load_references, panic_message, points,
    run_point, serial_zeta, Checker, FuzzOutcome, Pass, Point, PointOut, ZETA_TOLERANCE,
};

#[global_allocator]
static ALLOC: layers::CountingAlloc = layers::CountingAlloc;

/// Cold starts per run at the least (this process's own and fresh
/// processes'); `setup_s` is their median.
const MIN_COLD: usize = 3;
/// Cold starts per run at the most.
const MAX_COLD: usize = 7;
/// Past [`MIN_COLD`], one more cold start after every this many warm
/// passes, so cold starts meet the same host conditions as the passes.
const COLD_EVERY: usize = 4;
/// Warm passes per run at the least, however short `--seconds` is.
const MIN_WARM_PASSES: usize = 3;
/// Messages at or below this size take both stacks' eager paths.
const EAGER_MAX: u64 = 4 * 1024;
/// Messages at or above this size take both stacks' rendezvous paths.
const RDV_MIN: u64 = 256 * 1024;

fn main() -> ExitCode {
    // Process start: `setup_s` runs from here to the end of pass 1.
    let start = Instant::now();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let args = std::env::args_os()
        .skip(1)
        .map(|a| a.to_string_lossy().into_owned());
    let env_keys = || std::env::vars_os().map(|(k, _)| k.to_string_lossy().into_owned());
    let result = cli::parse(args, nproc).and_then(|cmd| match cmd {
        Command::Compare(..) => Ok(cmd),
        _ => cli::check_env(env_keys()).map(|()| cmd),
    });
    match result {
        Err(e) => input_error(e),
        Ok(Command::Compare(a, b)) => compare::run(&a, &b),
        Ok(Command::ColdProbe(args)) => cold_probe(&args, start),
        Ok(Command::Run(args)) => {
            let out = if args.trace {
                match open_span_file(&args.out) {
                    Ok(f) => Some(f),
                    Err(e) => return input_error(e),
                }
            } else {
                None
            };
            run(&args, nproc, out, start)
        }
    }
}

fn input_error(e: InputError) -> ExitCode {
    eprintln!("benchmark: {e}");
    ExitCode::from(2)
}

fn open_span_file(path: &std::path::Path) -> Result<File, InputError> {
    let err = |e: std::io::Error| InputError::UnwritableOut {
        path: path.to_path_buf(),
        err: e.to_string(),
    };
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(err)?;
    }
    File::create(path).map_err(err)
}

/// Everything a run needs before its first pass.
struct Setup {
    inputs: Inputs,
    points: Vec<Point>,
    references: BTreeMap<&'static str, Result<String, String>>,
}

/// Generate the inputs and load the seed-0 references.
fn setup(args: &RunArgs) -> Setup {
    let inputs = Inputs::generate(args.workload, args.seed);
    let points = points(&inputs);
    let references = if args.seed == 0 {
        load_references(args.workload)
    } else {
        BTreeMap::new()
    };
    Setup {
        inputs,
        points,
        references,
    }
}

/// Busy-time balance (max/mean over workers) and efficiency
/// (Σ busy / (threads × wall)) of one pass's sweeps.
fn sweep_balance(stats: &SweepStats) -> (f64, f64) {
    let busy: Vec<f64> = stats
        .per_worker
        .iter()
        .map(|w| w.busy.as_secs_f64())
        .collect();
    let sum: f64 = busy.iter().sum();
    let max = busy.iter().copied().fold(0.0, f64::max);
    let mean = sum / busy.len().max(1) as f64;
    let wall = stats.wall.as_secs_f64() * stats.threads as f64;
    (
        if mean > 0.0 { max / mean } else { 1.0 },
        if wall > 0.0 { sum / wall } else { 0.0 },
    )
}

/// One timed warm pass.
struct Warm {
    wall_s: f64,
    cpu_s: f64,
    events: u64,
    balance: f64,
    efficiency: f64,
    /// Resident set after the pass, in MiB.
    rss_mib: f64,
}

/// Observers the fuzzer forces on (its replay checks) leave finished
/// traces and profiles in process-global collectors; drop them between
/// passes so they do not pile up.
fn discard_observer_output() {
    drop(elanib_simcore::trace::drain());
    let _ = elanib_simcore::profile::take();
}

fn run_pass(label: &str, checker: &mut Checker, f: impl FnOnce() -> Pass) -> Option<Pass> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(pass) => Some(pass),
        Err(p) => {
            let msg = panic_message(p.as_ref());
            checker.check(false, || format!("{label} panicked: {msg}"));
            None
        }
    }
}

/// A cold start: set-up and pass 1 in a process that has run nothing
/// else.
struct Cold {
    setup: Setup,
    checker: Checker,
    /// Whether pass 1 ran to the end (it did not panic).
    completed: bool,
    /// Process start to the end of pass 1, in seconds.
    cold_s: f64,
    /// `VmHWM` at the end of pass 1, in MiB.
    peak_rss_mib: f64,
}

/// Set up and run pass 1 under the run protocol: the 2-thread sweep
/// pool, the point cache off, one-line panics. For CG, pass 1 also
/// checks every point's ζ against the serial solver.
fn cold_start(args: &RunArgs, start: Instant) -> Cold {
    // The fuzz workload panics on purpose (IB QP-ERR, caught as a
    // specified outcome). One line per panic, never a backtrace, so a
    // RUST_BACKTRACE setting cannot change what a pass costs.
    std::panic::set_hook(Box::new(|info| eprintln!("benchmark: panic: {info}")));
    // The load: closed-loop batch simulation on the sweep pool, each
    // worker starting its next point when the last one completes.
    std::env::set_var("ELANIB_SWEEP_THREADS", THREADS.to_string());
    // The point cache is off so every pass simulates.
    simcache::set_override(Some(simcache::Mode::Off));

    let setup = setup(args);
    let mut checker = Checker::new(setup.references.clone());
    let first = run_pass("pass 1", &mut checker, || match &setup.inputs {
        Inputs::Cg(_) => cg_verify_pass(&setup.inputs),
        other => exhibit_pass(other),
    });
    let cold_s = start.elapsed().as_secs_f64();
    if let Some(p) = &first {
        checker.pass("pass 1", p);
    }
    discard_observer_output();
    Cold {
        setup,
        checker,
        completed: first.is_some(),
        cold_s,
        peak_rss_mib: peak_rss_mib(),
    }
}

/// `--cold-probe`: one cold start, reported on stdout as
/// `cold_s peak_rss_mib attempted failed` for the run that started it.
fn cold_probe(args: &RunArgs, start: Instant) -> ExitCode {
    let cold = cold_start(args, start);
    for p in cold.checker.problems.iter().take(20) {
        eprintln!("benchmark: cold probe: check failed: {p}");
    }
    println!(
        "{} {} {} {}",
        cold.cold_s, cold.peak_rss_mib, cold.checker.attempted, cold.checker.failed
    );
    ExitCode::SUCCESS
}

/// What a fresh process's cold start measured.
struct Probe {
    cold_s: f64,
    peak_rss_mib: f64,
    attempted: u64,
    failed: u64,
    /// Wall seconds from spawning the process to its exit.
    spawn_to_exit_s: f64,
}

/// Run one cold start in a fresh process of this binary, started with
/// the environment this process was started with.
fn probe_cold(args: &RunArgs) -> Result<Probe, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let t0 = Instant::now();
    let out = std::process::Command::new(exe)
        .args(["--cold-probe", "--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .env_remove("ELANIB_SWEEP_THREADS")
        .stdin(std::process::Stdio::null())
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start cold probe: {e}"))?;
    let spawn_to_exit_s = t0.elapsed().as_secs_f64();
    let text = String::from_utf8_lossy(&out.stdout);
    let fields: Vec<&str> = text.split_whitespace().collect();
    let bad = || format!("cold probe exited with {} and printed {text:?}", out.status);
    match (out.status.success(), fields.as_slice()) {
        (true, [c, r, a, f]) => Ok(Probe {
            cold_s: c.parse().map_err(|_| bad())?,
            peak_rss_mib: r.parse().map_err(|_| bad())?,
            attempted: a.parse().map_err(|_| bad())?,
            failed: f.parse().map_err(|_| bad())?,
            spawn_to_exit_s,
        }),
        _ => Err(bad()),
    }
}

fn run(args: &RunArgs, nproc: usize, span_file: Option<File>, start: Instant) -> ExitCode {
    let Cold {
        setup,
        mut checker,
        completed,
        cold_s,
        peak_rss_mib,
    } = cold_start(args, start);
    let mut colds = vec![cold_s];
    let mut peaks = vec![peak_rss_mib];

    // Warm passes and cold starts in fresh processes share the time
    // budget with set-up and pass 1: the next one starts only if, at the
    // length of the last of its kind, it ends within `--seconds` of
    // process start, or if the minimum counts are not reached yet.
    let budget = args.seconds as f64;
    let fits = |est: f64| start.elapsed().as_secs_f64() + est <= budget;
    let mut warm: Vec<Warm> = Vec::new();
    let mut probe_error = None;
    let (mut warm_est, mut probe_est) = (cold_s, cold_s);
    while completed && (warm.len() < MIN_WARM_PASSES || fits(warm_est)) {
        let label = format!("pass {}", warm.len() + 2);
        let cpu0 = process_cpu_s();
        let t0 = Instant::now();
        let pass = run_pass(&label, &mut checker, || exhibit_pass(&setup.inputs));
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_s = process_cpu_s() - cpu0;
        let Some(pass) = pass else { break };
        checker.pass(&label, &pass);
        discard_observer_output();
        let (balance, efficiency) = sweep_balance(&pass.stats);
        warm.push(Warm {
            wall_s,
            cpu_s,
            events: pass.stats.events,
            balance,
            efficiency,
            rss_mib: rss_mib(),
        });
        warm_est = wall_s;

        let want_cold = colds.len() < MIN_COLD
            || (colds.len() < MAX_COLD && warm.len().is_multiple_of(COLD_EVERY) && fits(probe_est));
        if want_cold && probe_error.is_none() {
            match probe_cold(args) {
                Ok(p) => {
                    colds.push(p.cold_s);
                    peaks.push(p.peak_rss_mib);
                    checker.attempted += p.attempted;
                    checker.failed += p.failed;
                    if p.failed > 0 {
                        checker
                            .problems
                            .push(format!("cold probe: {} failed checks", p.failed));
                    }
                    probe_est = p.spawn_to_exit_s;
                }
                Err(e) => probe_error = Some(e),
            }
        }
    }
    if let Some(e) = probe_error {
        eprintln!("benchmark: {e}");
        return ExitCode::from(1);
    }

    let col = |f: fn(&Warm) -> f64| warm.iter().map(f).collect::<Vec<f64>>();
    let sample = |xs: &[f64]| -> Option<Value> {
        Some(Value {
            value: median(xs)?,
            spread: Some((
                xs.iter().copied().fold(f64::INFINITY, f64::min),
                xs.iter().copied().fold(0.0, f64::max),
                xs.len(),
            )),
        })
    };
    let complete = !warm.is_empty();
    let mut values: BTreeMap<&'static str, Value> = BTreeMap::new();
    if complete {
        let (walls, cpus) = (col(|w| w.wall_s), col(|w| w.cpu_s));
        let rates = col(|w| w.events as f64 / w.wall_s);
        let cpu_median = median(&cpus).unwrap_or(0.0);
        eprintln!(
            "[benchmark {} seed {}: {} warm passes and {} cold starts in {:.1} s on {} threads ({} CPUs), wall median {:.3} s, cpu median {:.3} s, cold median {:.3} s, {} events/pass]",
            args.workload.name(),
            args.seed,
            warm.len(),
            colds.len(),
            start.elapsed().as_secs_f64(),
            THREADS,
            nproc,
            median(&walls).unwrap_or(0.0),
            cpu_median,
            median(&colds).unwrap_or(0.0),
            warm[0].events,
        );
        if let Some(file) = span_file {
            values = traced(args, &setup, &mut checker, file, &warm, cpu_median);
        } else {
            values.insert("wall_s", sample(&walls).expect("warm passes ran"));
            values.insert("cpu_s", sample(&cpus).expect("warm passes ran"));
            values.insert("events_per_s", sample(&rates).expect("warm passes ran"));
            values.insert("peak_rss_mb", sample(&peaks).expect("cold starts ran"));
            values.insert("setup_s", sample(&colds).expect("cold starts ran"));
        }
    }

    for p in checker.problems.iter().take(20) {
        eprintln!("benchmark: check failed: {p}");
    }
    let correct = checker.failed == 0 && complete;
    let catalogue: &[metrics::Metric] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let (detail, result) = if complete {
        (
            metrics::render(catalogue, &values, true),
            metrics::render(catalogue, &values, false),
        )
    } else {
        ("{}".to_string(), "{}".to_string())
    };
    println!(
        "{{\"workload\":{},\"seed\":{},\"trace\":{},\"threads\":{THREADS},\"nproc\":{nproc},\"warm_passes\":{},\"cold_starts\":{},\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{detail}}}",
        json::quote(args.workload.name()),
        args.seed,
        u8::from(args.trace),
        warm.len(),
        colds.len(),
        checker.attempted,
        checker.failed,
    );
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{result}}}",
        checker.attempted, checker.failed,
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// What the traced pass measured.
struct TracedPass {
    wall_s: f64,
    events: u64,
    allocs: u64,
    alloc_bytes: u64,
    counters: Counters,
    prof: ProfTotals,
    point_s: Vec<f64>,
    /// (host seconds, MPI sends) of Figure 1 points in the eager and
    /// rendezvous size ranges.
    eager: (f64, u64),
    rdv: (f64, u64),
    skipped: u64,
}

/// One serial pass, point by point on this thread, with the kernel
/// profiler and tracer counters forced on and allocations counted.
fn traced_pass(
    setup: &Setup,
    spans: &mut Spans,
    checker: &mut Checker,
    zeta: Option<f64>,
) -> TracedPass {
    discard_observer_output();
    elanib_simcore::profile::set_override(Some(true));
    elanib_simcore::trace::set_override(Some(TraceConfig {
        metrics: true,
        ..TraceConfig::default()
    }));
    let mut t = TracedPass {
        wall_s: 0.0,
        events: 0,
        allocs: 0,
        alloc_bytes: 0,
        counters: Counters::default(),
        prof: ProfTotals::default(),
        point_s: Vec::with_capacity(setup.points.len()),
        eager: (0.0, 0),
        rdv: (0.0, 0),
        skipped: 0,
    };
    let t0 = Instant::now();
    let ev0 = elanib_simcore::thread_events();
    let pass = spans.open("pass", "traced".into());
    for &p in &setup.points {
        let id = spans.open("point", format!("{p:?}"));
        let (out, allocs, bytes) = count_allocs(|| run_point(&setup.inputs, p, spans));
        spans.close(id);
        t.allocs += allocs;
        t.alloc_bytes += bytes;
        let secs = spans.list()[id].secs();
        t.point_s.push(secs);
        let c = Counters::drain();
        match p.msg_bytes() {
            Some(b) if b <= EAGER_MAX => t.eager = (t.eager.0 + secs, t.eager.1 + c.mpi_sends()),
            Some(b) if b >= RDV_MIN => t.rdv = (t.rdv.0 + secs, t.rdv.1 + c.mpi_sends()),
            _ => {}
        }
        t.counters.absorb(c);
        match out {
            PointOut::Zeta(z) => {
                let want = zeta.expect("CG points come with a serial ζ");
                checker.check((z - want).abs() <= ZETA_TOLERANCE, || {
                    format!("traced {p:?}: distributed ζ {z} vs serial {want}")
                });
            }
            PointOut::Fuzz(o) => {
                t.skipped += matches!(o, FuzzOutcome::Skipped) as u64;
                checker.check(
                    matches!(o, FuzzOutcome::Green | FuzzOutcome::Skipped),
                    || format!("traced {p:?}: {o:?}"),
                );
            }
            PointOut::Done => checker.check(true, String::new),
        }
    }
    spans.close(pass);
    t.wall_s = t0.elapsed().as_secs_f64();
    t.events = elanib_simcore::thread_events() - ev0;
    elanib_simcore::profile::set_override(Some(false));
    elanib_simcore::trace::set_override(Some(TraceConfig::default()));
    t.prof = elanib_simcore::profile::take();
    t.counters.absorb(Counters::drain());
    t
}

/// The traced part of a `--trace 1` run; returns the per-layer metrics.
fn traced(
    args: &RunArgs,
    setup: &Setup,
    checker: &mut Checker,
    file: File,
    warm: &[Warm],
    cpu_s: f64,
) -> BTreeMap<&'static str, Value> {
    let mut spans = Spans::new(setup.points.len() * 8 + 16);

    // World construction per point, outside any run.
    let worlds = spans.open("worlds", "per point shape".into());
    for p in &setup.points {
        for (net, nodes, ppn) in p.shapes(&setup.inputs) {
            spans.call("mpisim.world_build", || build_world(net, nodes, ppn));
        }
    }
    spans.close(worlds);

    // CG numerics replayed outside the simulator: the matrix once, the
    // serial solver once per point (each point solves the system once,
    // spread over its ranks).
    let zeta = match &setup.inputs {
        Inputs::Cg(problem) => {
            let root = spans.open("numerics", "serial CG replay".into());
            let a = spans.call("apps.sparse_generate", || cg_matrix(problem));
            let mut z = 0.0;
            for _ in &setup.points {
                z = spans.call("apps.serial_cg", || serial_zeta(problem, &a));
            }
            spans.close(root);
            Some(z)
        }
        _ => None,
    };
    let t = traced_pass(setup, &mut spans, checker, zeta);
    checker.traced_events(t.events);
    if let Err(e) = spans.write_jsonl(&mut BufWriter::new(file)) {
        checker.check(false, || format!("writing {}: {e}", args.out.display()));
    }

    let c = &t.counters;
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let count = |k: &str| c.get(k) as f64;
    let (stall_n, stall_sum) = c.hist.get("fabric.stall_ps").copied().unwrap_or((0, 0));
    let reg = (count("regcache.hits"), count("regcache.misses"));
    let prof = &t.prof;
    let tag = |i: usize| per(prof.wall_ns[i] as f64, prof.det.count[i] as f64);
    let fuzz_n = match &setup.inputs {
        Inputs::Fuzz(scs) => scs.len() as f64,
        _ => 0.0,
    };
    let balances: Vec<f64> = warm.iter().map(|w| w.balance).collect();
    let efficiencies: Vec<f64> = warm.iter().map(|w| w.efficiency).collect();
    let points_s: f64 = t.point_s.iter().sum();
    // Resident memory a warm pass leaves behind: 0 when passes return
    // what they allocate.
    let rss_growth = match (warm.first(), warm.last()) {
        (Some(a), Some(b)) if warm.len() > 1 => (b.rss_mib - a.rss_mib) / (warm.len() - 1) as f64,
        _ => 0.0,
    };
    let values: [(&'static str, f64); 52] = [
        ("sweep.balance", median(&balances).unwrap_or(0.0)),
        ("sweep.efficiency", median(&efficiencies).unwrap_or(0.0)),
        ("point.count", t.point_s.len() as f64),
        ("point.s_p50", percentile(&t.point_s, 50.0)),
        ("point.s_p90", percentile(&t.point_s, 90.0)),
        ("point.s_max", percentile(&t.point_s, 100.0)),
        ("p2p.pingpong_s", spans.total_s("microbench.pingpong")),
        ("p2p.streaming_s", spans.total_s("microbench.streaming")),
        ("p2p.beff_s", spans.total_s("microbench.beff")),
        (
            "p2p.us_per_msg_eager",
            per(t.eager.0 * 1e6, t.eager.1 as f64),
        ),
        ("p2p.us_per_msg_rdv", per(t.rdv.0 * 1e6, t.rdv.1 as f64)),
        (
            "fuzz.us_per_scenario",
            per(spans.total_s("fuzz.check_scenario") * 1e6, fuzz_n),
        ),
        ("fuzz.skipped", t.skipped as f64),
        ("apps.cg_numerics_s", spans.total_s("apps.serial_cg")),
        (
            "apps.cg_numerics_share",
            per(spans.total_s("apps.serial_cg"), cpu_s),
        ),
        ("apps.cg_matgen_s", spans.total_s("apps.sparse_generate")),
        ("simcore.events", count("sim.events")),
        ("simcore.timers", count("sim.timers")),
        ("simcore.wakes", count("sim.wakes")),
        ("simcore.tasks_spawned", count("sim.tasks_spawned")),
        ("simcore.wheel_cascades", count("wheel.cascades")),
        (
            "simcore.ns_per_event",
            per(prof.run_wall_ns as f64, prof.events() as f64),
        ),
        ("simcore.poll_ns", tag(0)),
        ("simcore.timer_ns", tag(1)),
        ("simcore.call_ns", tag(2)),
        ("simcore.wake_ns", tag(3)),
        (
            "simcore.dispatch_share",
            per(prof.run_wall_ns as f64 / 1e9, points_s),
        ),
        ("simcore.attribution_pct", prof.attribution_pct()),
        ("mpisim.eager_sends", count("mpi.eager_sends")),
        ("mpisim.rdv_sends", count("mpi.rdv_sends")),
        ("mpisim.unexpected", count("mpi.unexpected")),
        ("mpisim.collectives", count("coll.count")),
        ("mpisim.world_build_s", spans.total_s("mpisim.world_build")),
        ("nic.hca_posts", count("hca.posts")),
        ("nic.regcache_hit_rate", per(reg.0, reg.0 + reg.1)),
        ("nic.regcache_misses", reg.1),
        ("nic.regcache_evictions", count("regcache.evictions")),
        ("nic.elan_rdv_sends", count("elan.rdv_sends")),
        ("nic.elan_unexpected", count("elan.unexpected")),
        ("nic.ib_retransmits", count("ib.retransmits")),
        ("nic.elan_link_retries", count("elan.link_retries")),
        ("nic.qp_errors", c.qp_errors() as f64),
        ("fabric.messages", count("fabric.messages")),
        ("fabric.wire_bytes", count("fabric.wire_bytes")),
        (
            "fabric.contention_stalls",
            count("fabric.contention_stalls"),
        ),
        (
            "fabric.stall_ps_mean",
            per(stall_sum as f64, stall_n as f64),
        ),
        (
            "fabric.busiest_link_bytes",
            c.gauge_max
                .get("fabric.busiest_link_bytes")
                .copied()
                .unwrap_or(0) as f64,
        ),
        ("fabric.reroutes", count("fault.reroutes")),
        (
            "host.allocs_per_event",
            per(t.allocs as f64, t.events as f64),
        ),
        (
            "host.alloc_bytes_per_event",
            per(t.alloc_bytes as f64, t.events as f64),
        ),
        (
            "host.trace_overhead_pct",
            per(t.wall_s, cpu_s) * 100.0 - 100.0,
        ),
        ("host.rss_growth_mb_per_pass", rss_growth),
    ];
    values
        .into_iter()
        .map(|(k, v)| (k, Value::from(v)))
        .collect()
}
