//! Host-time benchmark of the SHIFT reproduction.
//!
//! ```text
//! cargo run --release --manifest-path hostbench/Cargo.toml -- \
//!     --workload <spec_matrix|fleet_open_loop|fleet_chaos> --seed N --seconds S --trace <0|1>
//! ```
//!
//! A run repeats passes over the same inputs for `--seconds`, setting the
//! workload up again between passes. With `--trace 0` it prints the
//! end-to-end metrics: host times rescaled to a reference host speed
//! measured around each pass (see `calib`), the median pass's rates, the
//! fastest set-up and the smallest per-pass peak memory. With `--trace 1`
//! it interleaves untraced passes with traced ones, which time each
//! layer's calls from here, and prints the per-layer split. Either way it
//! checks every pass's modelled output and counts the operations that
//! failed. The last line of standard output is the result as one JSON
//! object. See `hostbench/README.md`.

mod calib;
mod fleet;
mod layers;
mod pool;
mod session;
mod spec;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

use shift_core::{Granularity, Mode, Registry, ShiftOptions};
use shift_isa::Provenance;

use crate::calib::{calibrate, REFERENCE_NS};
use crate::fleet::{ChaosFleet, OpenLoop};
use crate::layers::{ns_since, Clock, Layer, Part};
use crate::spec::SpecMatrix;

/// Set-up repetitions per run, at least and at most. Between passes a run
/// sets up again while its set-ups have taken less than [`SETUP_SHARE`] of
/// the run so far, and it reports the fastest set-up: spread over the whole
/// run, set-ups see the same host as the passes do.
const SETUP_REPS: (usize, usize) = (10, 2000);
const SETUP_SHARE: f64 = 0.15;
/// Untraced passes a run makes at least, however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// The share of traced thread time the layers must account for.
const MIN_COVERAGE: f64 = 0.9;

/// Simulated work one pass did.
pub struct Work {
    /// Simulated instructions retired.
    pub instructions: u64,
    /// Requests delivered (fleets) or kernel runs (`spec_matrix`).
    pub requests: u64,
}

/// What one set-up cost and produced.
#[derive(Clone, Copy, Default)]
pub struct Setup {
    pub total_ns: u64,
    pub compile_ns: u64,
    pub freeze_ns: u64,
    pub compiles: u64,
    pub insns_out: u64,
}

/// The frozen images a workload spawns from, probed after the timed phase.
pub struct ImageProbe {
    /// Pages the images keep resident, summed over the images.
    pub resident_pages: u64,
    /// Standalone `ProgramImage::spawn` timings, in nanoseconds.
    pub spawn_ns: Vec<u64>,
}

/// The scheduler counters of a traced open-loop pass.
pub struct Des {
    pub events: u64,
    pub peak_queue_depth: u64,
    pub shed: u64,
}

/// One traced pass: the merged clock, the thread time it is a share of,
/// and the pass's exact work counters.
#[derive(Default)]
pub struct Traced {
    pub wall_ns: u64,
    /// Busy time of the pool threads plus the serial tail's wall time.
    pub thread_ns: u64,
    pool_wall_ns: u64,
    pub clock: Clock,
    pub registry: Registry,
    /// Connections or kernel runs in the pass.
    pub instances: u64,
    pub des: Option<Des>,
    pub export_bytes: u64,
}

impl Traced {
    /// Starts a traced pass from its pool phase: the per-thread clocks and
    /// busy times, and the pool's wall time.
    pub fn from_pool(threads: Vec<(Clock, u64)>, pool_wall_ns: u64) -> Traced {
        let mut traced = Traced { pool_wall_ns, ..Traced::default() };
        for (clock, busy) in threads {
            traced.clock.merge(&clock);
            traced.thread_ns += busy;
        }
        traced
    }

    /// Ends the pass that began at `start`: whatever ran after the pool ran
    /// on this thread alone.
    pub fn finish(&mut self, start: Instant) {
        self.wall_ns = ns_since(start);
        self.thread_ns += self.wall_ns.saturating_sub(self.pool_wall_ns);
    }
}

/// Operations attempted and failed, with the first few failures described.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Checks {
    /// Records one checked operation.
    pub fn op(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(1, why());
        }
    }

    fn fail(&mut self, n: u64, why: String) {
        self.failed += n;
        if self.notes.len() < 20 {
            self.notes.push(why);
        }
    }
}

/// A benchmark workload: prepared inputs plus the passes over them.
pub trait Workload: Sync {
    /// The untraced pipeline's output of one pass.
    type Pass;
    /// One untraced pass through the program's own entry points.
    fn pass(&self) -> Self::Pass;
    fn work(&self, pass: &Self::Pass) -> Work;
    /// Checked operations in one pass.
    fn ops_per_pass(&self) -> u64;
    /// Checks one pass's modelled output, one operation at a time.
    fn check(&self, pass: &Self::Pass, checks: &mut Checks);
    /// Whether two passes over the same inputs produced the same output.
    fn same_output(&self, a: &Self::Pass, b: &Self::Pass) -> bool;
    /// One traced pass, and how its exact counters differ from
    /// `reference`, an untraced pass over the same inputs.
    fn traced_pass(&self, reference: &Self::Pass) -> (Traced, Vec<String>);
    /// Freezes (or takes) the workload's images and times spawns from them.
    fn image_probe(&self) -> ImageProbe;
    /// Checks run once, after the timed phase, on the first pass.
    fn final_checks(&self, _first: &Self::Pass, _checks: &mut Checks) {}
}

/// Command-line arguments.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    print_fingerprint: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        print_fingerprint: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--print-fingerprint" {
            args.print_fingerprint = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} `{value}`: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {}", args.seconds));
    }
    Ok(args)
}

/// The commit of the checkout, when it is a git work tree.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(name) => std::fs::read_to_string(format!(".git/{name}")).ok().or_else(|| {
            let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
            packed.lines().find(|l| l.ends_with(name)).map(|l| l[..40.min(l.len())].to_string())
        }),
        None if head.len() == 40 => Some(head.to_string()),
        None => None,
    }
    .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Restarts `VmHWM` from the current resident set, so the next reading is
/// the peak of what ran since. Returns `false` where the kernel refuses.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of `xs` (`p` in 0–100).
fn percentile(xs: &[u64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_unstable();
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1] as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The result's metrics, in print order.
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }
}

/// The per-layer metrics of a traced run: medians over its traced passes
/// of each pass's value (exact counters are the same in every pass).
fn per_layer(
    m: &mut Metrics,
    setups: &[Setup],
    traced: &[Traced],
    untraced_wall: &[f64],
    images: &ImageProbe,
) {
    let over = |f: &dyn Fn(&Traced) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let ms = |part: Part| over(&|t| t.clock.part(part).ns as f64 / 1e6);
    let us_per_call = |part: Part| {
        over(&|t| {
            let tally = t.clock.part(part);
            ratio(tally.ns as f64 / 1e3, tally.calls as f64)
        })
    };
    let last = traced.last().expect("a traced run makes at least one traced pass");
    let counter = |name: &str| last.registry.counter(name) as f64;
    let s0 = setups[0];

    m.put(
        "compiler.compile_ms",
        median(&setups.iter().map(|s| s.compile_ns as f64 / 1e6).collect::<Vec<_>>()),
        "ms",
    );
    m.put("compiler.compiles", s0.compiles as f64, "count");
    m.put("compiler.insns_out", s0.insns_out as f64, "count");
    m.put(
        "image.freeze_ms",
        median(&setups.iter().map(|s| s.freeze_ns as f64 / 1e6).collect::<Vec<_>>()),
        "ms",
    );
    m.put("image.resident_pages", images.resident_pages as f64, "count");
    m.put("image.load_ms", ms(Part::Load), "ms");

    m.put("seed.spawn_ns.p50", percentile(&images.spawn_ns, 50.0), "ns");
    m.put("seed.spawn_ns.p99", percentile(&images.spawn_ns, 99.0), "ns");
    m.put("seed.spawn_ms", ms(Part::Spawn), "ms");

    let insns = counter("stats.instructions");
    let original = counter(&format!("stats.by_provenance.{}.insns", Provenance::Original.name()));
    m.put("exec.host_ms", ms(Part::Exec), "ms");
    m.put("exec.ns_per_insn", over(&|t| ratio(t.clock.part(Part::Exec).ns as f64, insns)), "ns");
    m.put("exec.instr_insn_frac", ratio(insns - original, insns), "fraction");
    m.put(
        "exec.blocks.decoded_per_conn",
        ratio(counter("machine.blocks.decoded"), last.instances as f64),
        "count",
    );
    let (hits, misses) = (counter("machine.blocks.hits"), counter("machine.blocks.misses"));
    m.put("exec.blocks.hit_ratio", ratio(hits, hits + misses), "fraction");
    let (hits, misses) = (counter("mem.tlb.hits"), counter("mem.tlb.misses"));
    m.put("exec.tlb.hit_ratio", ratio(hits, hits + misses), "fraction");
    m.put("exec.cow.faults", counter("mem.cow.faults"), "count");

    m.put("runtime.syscall_ms", ms(Part::Syscall), "ms");
    m.put("runtime.setup_ms", ms(Part::RuntimeSetup), "ms");
    m.put("runtime.syscalls", counter("stats.syscalls"), "count");
    for (name, part) in [
        ("file_read", Part::FileRead),
        ("net_read", Part::NetRead),
        ("net_write", Part::NetWrite),
        ("file_open", Part::FileOpen),
    ] {
        m.put(&format!("runtime.{name}.us_per_call"), us_per_call(part), "us");
        m.put(&format!("runtime.{name}.calls"), last.clock.part(part).calls as f64, "count");
    }
    m.put("runtime.bytes_in", last.clock.bytes_in as f64, "bytes");

    m.put("tagmap.marks", counter("tagmap.shadow.marks"), "count");
    m.put("tagmap.clears", counter("tagmap.shadow.clears"), "count");
    m.put("tagmap.tainted_bytes", counter("tagmap.shadow.tainted_bytes"), "bytes");

    m.put("snapshot.recoveries", counter("runtime.recoveries"), "count");
    m.put("snapshot.recover_us", us_per_call(Part::Rollback), "us");
    m.put("snapshot.recovery_cycles", counter("runtime.recovery_cycles"), "cycles");

    let events = last.des.as_ref().map_or(0, |d| d.events) as f64;
    m.put("event.simulate_ms", ms(Part::Simulate), "ms");
    m.put("event.events", events, "count");
    m.put(
        "event.ns_per_event",
        over(&|t| ratio(t.clock.part(Part::Simulate).ns as f64, events)),
        "ns",
    );
    m.put(
        "event.peak_queue_depth",
        last.des.as_ref().map_or(0, |d| d.peak_queue_depth) as f64,
        "count",
    );
    m.put("event.shed", last.des.as_ref().map_or(0, |d| d.shed) as f64, "count");

    let conn_ns: Vec<u64> = traced.iter().flat_map(|t| t.clock.conn_ns.iter().copied()).collect();
    m.put("fleet.conn_us.p50", percentile(&conn_ns, 50.0) / 1e3, "us");
    m.put("fleet.conn_us.p99", percentile(&conn_ns, 99.0) / 1e3, "us");
    m.put("fleet.conn_us.samples", last.clock.conn_ns.len() as f64, "count");
    m.put("fleet.serve_metrics_us", us_per_call(Part::ServeMetrics), "us");
    m.put("fleet.digest_us", us_per_call(Part::Digest), "us");
    m.put("fleet.merge_ms", ms(Part::Merge), "ms");

    m.put("obs.trace.events", counter("obs.trace.events"), "count");
    m.put("obs.trace.dropped", counter("obs.trace.dropped"), "count");
    m.put("obs.merge_events_ms", ms(Part::MergeEvents), "ms");
    m.put("obs.export.json_ms", ms(Part::ExportJson), "ms");
    m.put("obs.export.prom_ms", ms(Part::ExportProm), "ms");
    m.put("obs.export.perfetto_ms", ms(Part::ExportPerfetto), "ms");
    m.put(
        "obs.export.bytes",
        median(&traced.iter().map(|t| t.export_bytes as f64).collect::<Vec<_>>()),
        "bytes",
    );

    // The rest of the split: the self time of each layer made of several
    // parts, and the thread time the layers are a share of.
    for (layer, name) in Layer::MULTI_PART {
        m.put(&format!("{name}.self_ms"), over(&|t| t.clock.layer_ns(layer) as f64 / 1e6), "ms");
    }
    m.put("traced.thread_ms", over(&|t| t.thread_ns as f64 / 1e6), "ms");
    m.put("traced.coverage", coverage(traced), "fraction");
    let traced_wall = median(&traced.iter().map(|t| t.wall_ns as f64).collect::<Vec<_>>());
    m.put("traced.overhead_frac", ratio(traced_wall, median(untraced_wall)) - 1.0, "fraction");
}

/// Median share of the traced passes' thread time the layers account for.
fn coverage(traced: &[Traced]) -> f64 {
    median(
        &traced
            .iter()
            .map(|t| ratio(t.clock.total_ns() as f64, t.thread_ns as f64))
            .collect::<Vec<_>>(),
    )
}

/// Runs one workload end to end and returns `(correct, checks, metrics)`.
fn drive<W: Workload>(
    setup: impl Fn() -> (W, Setup),
    args: &Args,
    threads: usize,
) -> (bool, Checks, Metrics) {
    let mut checks = Checks::default();
    let start = Instant::now();
    // Host time at reference speed: `ns * speed` (see `calib`).
    let mut speed = REFERENCE_NS / calibrate(threads);
    let (w, cost) = setup();
    let mut setups = vec![cost];
    let mut setup_ns = cost.total_ns;
    let mut setup_s = vec![cost.total_ns as f64 * speed / 1e9];
    let mut first: Option<W::Pass> = None;
    let mut walls = Vec::new();
    let mut calibrations = Vec::new();
    let mut rates = Vec::new();
    let mut per_req = Vec::new();
    let mut rss = Vec::new();
    let mut traced = Vec::new();
    let mut reconciled = true;
    loop {
        let before = calibrate(threads);
        // Each pass's own peak.
        let per_pass_rss = reset_peak_rss();
        let t = Instant::now();
        let pass = catch_unwind(AssertUnwindSafe(|| w.pass()));
        let wall_ns = ns_since(t);
        if per_pass_rss {
            rss.extend(peak_rss_mb());
        }
        let after = calibrate(threads);
        calibrations.extend([before, after]);
        speed = REFERENCE_NS / ((before + after) / 2.0);
        let Ok(pass) = pass else {
            checks.attempted += w.ops_per_pass();
            checks.fail(w.ops_per_pass(), "a pass panicked".to_string());
            break;
        };
        let work = w.work(&pass);
        walls.push(wall_ns as f64);
        let at_reference_s = wall_ns as f64 * speed / 1e9;
        rates.push(work.instructions as f64 / at_reference_s / 1e6);
        per_req.push(at_reference_s * 1e6 / work.requests.max(1) as f64);
        w.check(&pass, &mut checks);
        if let Some(first) = &first {
            checks.op(w.same_output(first, &pass), || "a repeated pass changed its output".into());
        }
        if args.trace {
            match catch_unwind(AssertUnwindSafe(|| w.traced_pass(&pass))) {
                Ok((t, mismatches)) => {
                    checks.attempted += 1;
                    if !mismatches.is_empty() {
                        reconciled = false;
                        checks.fail(1, mismatches.join("; "));
                    }
                    traced.push(t);
                }
                Err(_) => {
                    reconciled = false;
                    checks.attempted += 1;
                    checks.fail(1, "a traced pass panicked".to_string());
                }
            }
        }
        first.get_or_insert(pass);
        while setups.len() < SETUP_REPS.1
            && (setup_ns as f64) < SETUP_SHARE * ns_since(start) as f64
        {
            let cost = setup().1;
            setups.push(cost);
            setup_ns += cost.total_ns;
            setup_s.push(cost.total_ns as f64 * speed / 1e9);
        }
        if start.elapsed().as_secs_f64() >= args.seconds && walls.len() >= MIN_PASSES {
            break;
        }
    }
    while setups.len() < SETUP_REPS.0 {
        let cost = setup().1;
        setups.push(cost);
        setup_s.push(cost.total_ns as f64 * speed / 1e9);
    }
    if let Some(first) = &first {
        if catch_unwind(AssertUnwindSafe(|| w.final_checks(first, &mut checks))).is_err() {
            checks.attempted += 1;
            checks.fail(1, "a post-run check panicked".to_string());
        }
    }

    let mut m = Metrics(Vec::new());
    let mut correct = checks.failed == 0;
    if args.trace {
        if traced.is_empty() {
            correct = false;
        } else {
            per_layer(&mut m, &setups, &traced, &walls, &w.image_probe());
            let cov = coverage(&traced);
            if cov < MIN_COVERAGE {
                correct = false;
                checks.notes.push(format!("traced.coverage {cov:.3} is below {MIN_COVERAGE}"));
            }
        }
        correct &= reconciled;
    } else {
        // Every set-up does the same work, so a set-up can only read slow
        // (from interference that the calibration missed), never fast.
        m.put("setup_s", setup_s.iter().copied().fold(f64::INFINITY, f64::min), "s");
        // Passes read slow or fast around the true figure, as the
        // calibration over- or under-states the host's slowdown.
        m.put("sim_minsn_per_s", median(&rates), "Minsn/s");
        m.put("host_us_per_req", median(&per_req), "us");
        // The smallest per-pass peak where the kernel lets the peak be
        // reset, else the whole run's. Every pass holds the same data, so
        // what the allocator kept from earlier passes can only raise a
        // pass's peak: on fleet_chaos the median pass's peak moved by 15 %
        // between runs, the smallest by 0.6 %.
        let smallest = rss.iter().copied().reduce(f64::min);
        match smallest.or_else(peak_rss_mb) {
            Some(mb) => m.put("peak_rss_mb", mb, "MiB"),
            None => {
                correct = false;
                checks.notes.push("cannot read VmHWM from /proc/self/status".to_string());
            }
        }
    }
    println!(
        "host speed: calibration {:.0} ns median, {:.0} ns fastest ({:.0} ns at reference speed)",
        median(&calibrations),
        calibrations.iter().copied().fold(f64::INFINITY, f64::min),
        REFERENCE_NS
    );
    let pass_ms: Vec<f64> = walls.iter().map(|w| w / 1e6).collect();
    println!(
        "passes: {} untraced ({:.1} / {:.1} / {:.1} ms min / median / max) and {} traced in \
         {:.1} s; {} set-ups",
        pass_ms.len(),
        pass_ms.iter().copied().fold(f64::INFINITY, f64::min),
        median(&pass_ms),
        pass_ms.iter().copied().fold(0.0, f64::max),
        traced.len(),
        start.elapsed().as_secs_f64(),
        setups.len()
    );
    if !rss.is_empty() {
        println!(
            "pass peaks: {:.2} / {:.2} / {:.2} MiB min / median / max",
            rss.iter().copied().fold(f64::INFINITY, f64::min),
            median(&rss),
            rss.iter().copied().fold(0.0, f64::max),
        );
    }
    (correct, checks, m)
}

/// `s` as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            eprintln!(
                "usage: hostbench --workload <spec_matrix|fleet_open_loop|fleet_chaos> \
                 --seed N --seconds S --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mode = Mode::Shift(ShiftOptions::baseline(Granularity::Byte));
    if args.print_fingerprint {
        print!("{}", SpecMatrix::setup(nproc).0.fingerprint());
        return ExitCode::SUCCESS;
    }
    // Host threads this run starts: every pool is `nproc` wide, and the
    // chaos fleet's modelled width doubles as its host thread count.
    let host_threads = nproc;
    let (correct, checks, metrics) = match args.workload.as_str() {
        "spec_matrix" => drive(|| SpecMatrix::setup(nproc), &args, nproc),
        "fleet_open_loop" => {
            let template = OpenLoop::template(mode);
            drive(|| OpenLoop::setup(&template, args.seed, nproc), &args, nproc)
        }
        "fleet_chaos" => {
            let template = ChaosFleet::template(mode);
            drive(|| ChaosFleet::setup(&template, args.seed, nproc), &args, nproc)
        }
        other => {
            eprintln!("hostbench: unknown workload `{other}`");
            return ExitCode::from(2);
        }
    };

    println!(
        "{{\"env\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"host_threads\": {host_threads}, \"commit\": {}}}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_str(&git_commit()),
    );
    for note in &checks.notes {
        println!("check failed: {note}");
    }
    let error_rate = ratio(checks.failed as f64, checks.attempted as f64);
    println!("error_rate: {error_rate} ({} of {} operations)", checks.failed, checks.attempted);
    for (name, value, unit) in &metrics.0 {
        println!("{name:<32} {value:>16.4} {unit}");
    }
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("{}: {{\"value\": {value}, \"unit\": {}}}", json_str(name), json_str(unit))
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.attempted.max(1),
        checks.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
