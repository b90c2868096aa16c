//! `shift` — the command-line front end for the SHIFT reproduction.
//!
//! ```text
//! shift attacks [--mode M] [--trace-taint] [--metrics <path>]
//! shift attack <program> [--mode M] [--benign] [--trace] [--trace-depth N]
//!              [--trace-taint] [--metrics <path>] [--profile <path>]
//! shift spec <bench|all> [--mode M] [--reference] [--safe]
//! shift apache <size-kb> <requests> [--mode M]
//! shift serve [--mode M] [--workers N] [--connections N] [--requests N]
//!             [--size-kb N] [--json <path>] [--seed N] [--inject]
//!             [--record <path>] [--trace-out <path>] [--prom-out <path>]
//!             [--sample-cycles N] [--arrivals SPEC] [--accept-cap N]
//!             [--max-resident N] [--quantum N] [--host-workers N]
//! shift trace <file>                   summarize a recorded trace file
//! shift replay <log> [--connection N] [--debug] [--shrink <path>]
//! shift bench [--json] [--reference] [--workers N] [--seed N]
//! shift disasm [--mode M]              show the instrumentation templates
//! shift modes                          list compilation modes
//! shift help                           usage plus the exit-code table
//! ```
//!
//! Each command takes exactly the arguments shown for it. `--mode` belongs
//! to `attacks`, `attack`, `spec`, `apache`, `serve` and `disasm` only. An
//! unknown flag, a flag without its value, a value that does not parse, or
//! any argument left over is a usage error (exit 1) that names the
//! argument, and the command does not run.
//!
//! `serve` runs the fleet engine: the Apache guest is compiled once, then
//! `--connections` connections of `--requests` requests each are served
//! across a `--workers`-wide modelled fleet (default: one instance per host
//! core; zero is a usage error). Without `--size-kb` the connections carry
//! the mixed production-traffic stream; with it, every request fetches one
//! file of that size. `--workers` on `bench` instead caps the *host* thread
//! pool the experiment sweeps run on (`--workers 1` for fully serial,
//! deterministic-latency CI runs, `0` for one thread per host core — the
//! modelled numbers are identical either way).
//!
//! Open-loop serving (`--arrivals`, DESIGN.md §16): instead of the
//! closed-loop round-robin fleet, connections *arrive* on a modelled clock
//! drawn from an arrival process — `poisson:RATE`, `bursty:RATE[:BURST]`,
//! or `diurnal:RATE[:AMPLITUDE]` (RATE in connections per modelled
//! second) — and are multiplexed over `--workers` modelled workers by the
//! discrete-event scheduler. Guests park at I/O points, so thousands of
//! in-flight connections share a handful of workers. Admission control is
//! explicit: `--accept-cap` bounds the accept queue (beyond it, arrivals
//! are shed and counted), `--max-resident` caps simultaneously-live
//! guests, `--quantum` sets the round-robin slice in cycles (0 = run each
//! CPU burst to its park point). The report adds sojourn latency
//! (completion − arrival) at p50/p99/p999, saturation throughput, queue
//! depth, and peak resident pages. `--host-workers` sizes the host
//! simulation pool only — every modelled number is bit-identical at any
//! setting.
//!
//! Record/replay: `serve --record <path>` writes a replay log of the run —
//! every connection's request stream, the session options, the injection
//! schedule (`--inject` arms a randomized chaos schedule derived from
//! `--seed`), and the per-connection outcome digests. `shift replay <log>`
//! reconstructs and re-runs every recorded connection (or one, with
//! `--connection N`) and verifies bit-identical digests, cycles, and
//! violations — open-loop logs carry their materialized arrival schedule,
//! and connections recorded as shed are skipped (they never ran);
//! `--debug` opens the postmortem debugger on the connection instead. On a
//! terminal the debugger is an interactive REPL (`step`, `run`, `regs`,
//! `mem`, `taint`, `bt`, `dis`, `report`, `quit`); with stdin closed or
//! piped it runs straight to the recorded stop and prints the postmortem
//! report (registers, NaT bits, tag-bitmap slices, provenance chain at
//! the fault). `--shrink <path>` writes a minimized single-connection
//! reproducer preserving the connection's outcome. One `--seed` integer
//! reproduces every randomized harness — it flows from the CLI through the
//! bench summary and the fault-injection schedules, and defaults to the
//! `SHIFT_SEED` environment variable.
//!
//! Observability flags: `--trace-taint` records taint births, propagations,
//! and sink hits, and prints the provenance chain behind a detection
//! (`net_read msg#0 bytes 4..12 → r9 → store @0x6000f8 → file_open arg`);
//! `--metrics <path>` writes a schema-stable JSON metrics snapshot;
//! `--profile <path>` writes per-guest-function folded stacks; `--trace-depth
//! N` sizes the last-instructions ring shown by `--trace` (default 16).
//!
//! Flight recording (`serve` only, see DESIGN.md §14): `--trace-out <path>`
//! writes the merged fleet timeline as Chrome `trace_event` JSON — load it
//! in Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`;
//! `--prom-out <path>` writes the merged metrics registry in the Prometheus
//! text exposition format; `--sample-cycles N` snapshots the serving
//! counters every N modelled cycles into the trace file's `timeseries`
//! section. `shift trace <file>` summarizes a written trace: a
//! per-connection span table, the longest spans, and the recovery timeline.
//! Recording is zero-perturbation: the modelled results are bit-identical
//! with and without these flags.
//!
//! Modes: `plain`, `byte` (default), `word`, `byte-enhanced`,
//! `word-enhanced`, `shadow-byte`, `shadow-word`.
//!
//! Process exit codes distinguish how the guest ended, so scripts can tell
//! a detection from a crash from a wedged guest:
//!
//! | code | meaning |
//! |------|---------|
//! | 0    | clean `Halted(0)` exit (or a successful report command) |
//! | 1    | usage error, or a corpus scan found a missed detection |
//! | 2    | guest program failed to compile |
//! | 3    | guest halted with a nonzero status |
//! | 10   | policy violation detected (H1–H5 sink policies) |
//! | 11   | architectural fault (incl. NaT consumption = L1–L3) |
//! | 12   | per-transaction watchdog fuel exhausted |
//! | 13   | whole-run instruction limit reached |
//! | 14   | replay diverged from the recorded outcome (or wrong image) |
//! | 15   | a shrunk reproducer was produced and written |

use std::fmt::Display;
use std::process::ExitCode as ProcessExit;
use std::str::FromStr;

use shift_core::replay::{mode_from_key, mode_key};
use shift_core::{CompileError, Exit, Granularity, Mode, Shift, ShiftOptions};
use shift_workloads::{run_spec, ArrivalProcess, Scale};

/// Every process exit code `shift` can return, in one place.
///
/// The discriminants ARE the process exit codes (the module-level table and
/// the `shift help` output are generated from [`ExitCode::ALL`], so neither
/// can drift from this enum). Codes 4–9 are reserved; scripts can key on
/// the rest unambiguously.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
enum ExitCode {
    /// Clean `Halted(0)` guest exit, or a successful report command.
    Success = 0,
    /// Usage error, a missed-detection corpus scan, or an unreadable input.
    Usage = 1,
    /// The guest program failed to compile.
    Compile = 2,
    /// The guest halted with a nonzero status.
    GuestStatus = 3,
    /// The run ended in a policy violation (H1–H5 sink policies).
    Violation = 10,
    /// The run ended in an architectural fault (incl. NaT consumption =
    /// L1–L3).
    Fault = 11,
    /// The per-transaction watchdog fuel ran dry.
    Fuel = 12,
    /// The whole-run instruction budget ran out.
    InsnLimit = 13,
    /// A replay did not reproduce the recorded outcome bit-identically (or
    /// the compiled image is not the recorded one).
    ReplayDiverged = 14,
    /// A shrunk reproducer was produced and written (`replay --shrink`).
    Shrunk = 15,
}

impl ExitCode {
    /// Every code, in numeric order — the source of the `shift help` table.
    const ALL: [ExitCode; 10] = [
        ExitCode::Success,
        ExitCode::Usage,
        ExitCode::Compile,
        ExitCode::GuestStatus,
        ExitCode::Violation,
        ExitCode::Fault,
        ExitCode::Fuel,
        ExitCode::InsnLimit,
        ExitCode::ReplayDiverged,
        ExitCode::Shrunk,
    ];

    /// The numeric process exit code.
    fn code(self) -> u8 {
        self as u8
    }

    /// One-line meaning, as shown by `shift help`.
    fn describe(self) -> &'static str {
        match self {
            ExitCode::Success => "clean Halted(0) exit (or a successful report command)",
            ExitCode::Usage => "usage error, or a corpus scan found a missed detection",
            ExitCode::Compile => "guest program failed to compile",
            ExitCode::GuestStatus => "guest halted with a nonzero status",
            ExitCode::Violation => "policy violation detected (H1-H5 sink policies)",
            ExitCode::Fault => "architectural fault (incl. NaT consumption = L1-L3)",
            ExitCode::Fuel => "per-transaction watchdog fuel exhausted",
            ExitCode::InsnLimit => "whole-run instruction limit reached",
            ExitCode::ReplayDiverged => "replay diverged from the recorded outcome",
            ExitCode::Shrunk => "a shrunk reproducer was produced and written",
        }
    }

    /// The exit-code table, rendered for `shift help` (and asserted against
    /// this enum by the CLI tests, so the help text cannot drift).
    fn table() -> String {
        let mut out = String::from("exit codes:\n");
        for c in ExitCode::ALL {
            out.push_str(&format!("  {:>4}  {}\n", c.code(), c.describe()));
        }
        out
    }
}

impl From<ExitCode> for ProcessExit {
    fn from(c: ExitCode) -> ProcessExit {
        ProcessExit::from(c.code())
    }
}

/// A command's outcome. `Err` carries the exit code of a failure already
/// reported on stderr, so a command can stop early with `?`.
type CmdResult = Result<ExitCode, ExitCode>;

/// Maps a guest [`Exit`] to its [`ExitCode`].
fn exit_code_for(exit: &Exit) -> ExitCode {
    match exit {
        Exit::Halted(0) => ExitCode::Success,
        Exit::Halted(_) => ExitCode::GuestStatus,
        Exit::Violation(_) => ExitCode::Violation,
        Exit::Fault(_) => ExitCode::Fault,
        Exit::FuelExhausted => ExitCode::Fuel,
        Exit::InsnLimit => ExitCode::InsnLimit,
        // The serve loop resumes every park until the guest reaches a real
        // exit, so a Parked cannot reach the CLI — treat it as a usage
        // error.
        Exit::Parked => ExitCode::Usage,
    }
}

/// Reports `msg` on stderr and yields `code`.
fn fail(code: ExitCode, msg: impl Display) -> ExitCode {
    eprintln!("{msg}");
    code
}

/// Reports a compile failure and yields its dedicated exit code.
fn compile_failed(e: &CompileError) -> ExitCode {
    fail(ExitCode::Compile, format_args!("compile error: {e}"))
}

/// Pulls `--mode <key>` out of the argument list (default: byte-level
/// SHIFT). Keys are [`mode_key`]'s, parsed by [`mode_from_key`].
fn take_mode(args: &mut Vec<String>) -> Result<Mode, String> {
    match take_opt::<String>(args, "--mode")? {
        Some(key) => {
            mode_from_key(&key).ok_or_else(|| format!("unknown mode `{key}` (try `shift modes`)"))
        }
        None => Ok(Mode::Shift(ShiftOptions::baseline(Granularity::Byte))),
    }
}

fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    args.iter().position(|a| a == flag).map(|i| args.remove(i)).is_some()
}

/// Pulls `--flag <value>` out of the argument list and parses the value.
/// `Ok(None)` when the flag is absent; `Err` when it has no value (the end
/// of the line or another `--flag` follows it) or the value does not parse.
fn take_opt<T: FromStr>(args: &mut Vec<String>, flag: &str) -> Result<Option<T>, String>
where
    T::Err: Display,
{
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if args.get(i + 1).is_none_or(|v| v.starts_with("--")) {
        return Err(format!("{flag} needs a value"));
    }
    let value = args.remove(i + 1);
    args.remove(i);
    value.parse().map(Some).map_err(|e| format!("bad {flag} `{value}`: {e}"))
}

/// Pulls the first positional argument (one not starting with `--`) out of
/// the argument list and parses it. Take a command's flags first, so their
/// values are not mistaken for positionals.
fn take_arg<T: FromStr>(args: &mut Vec<String>, what: &str) -> Result<T, String>
where
    T::Err: Display,
{
    let Some(i) = args.iter().position(|a| !a.starts_with("--")) else {
        return Err(format!("missing <{what}>\n{USAGE}"));
    };
    let value = args.remove(i);
    value.parse().map_err(|e| format!("bad <{what}> `{value}`: {e}"))
}

/// Rejects whatever a command left unread: a misspelled flag must not run
/// the command with its defaults.
fn finish(args: &[String]) -> Result<(), String> {
    args.first().map_or(Ok(()), |a| Err(format!("unexpected argument `{a}` (see `shift help`)")))
}

/// Writes an observability artifact, mapping I/O failure to a usage-style
/// error exit.
fn write_artifact(path: &str, what: &str, content: &str) -> Result<(), ExitCode> {
    std::fs::write(path, content)
        .map_err(|e| fail(ExitCode::Usage, format_args!("cannot write {what} to {path}: {e}")))
}

/// A mode's display name (`plain`, `shift/byte-enhanced`, `shadow/word`),
/// derived from its [`mode_key`].
fn mode_name(mode: Mode) -> String {
    let key = mode_key(mode);
    match mode {
        Mode::Uninstrumented => key.into(),
        Mode::Shift(_) => format!("shift/{key}"),
        Mode::Shadow(_) => key.replacen('-', "/", 1),
    }
}

/// Every mode key `shift modes` lists, with what the mode compiles.
const MODES: [(&str, &str); 7] = [
    ("plain", "no taint tracking (the experiments' baseline)"),
    ("byte", "SHIFT, byte-level tags, stock Itanium (default)"),
    ("word", "SHIFT, word-level tags, stock Itanium"),
    ("byte-enhanced", "SHIFT, byte-level, with tset/tclr + cmp.nat"),
    ("word-enhanced", "SHIFT, word-level, with tset/tclr + cmp.nat"),
    ("shadow-byte", "software-only shadow-register tracking (the ablation)"),
    ("shadow-word", "software-only, word-level tags"),
];

fn cmd_modes() -> ExitCode {
    println!("compilation modes:");
    for (key, what) in MODES {
        println!("  {key:<14} {what}");
    }
    ExitCode::Success
}

fn cmd_attacks(mode: Mode, trace_taint: bool, metrics: Option<String>) -> CmdResult {
    println!("{:<22} {:<24} {:>10} {:>8}", "program", "attack", "verdict", "benign");
    let mut all_ok = true;
    let mut merged = shift_core::Registry::new();
    for atk in shift_attacks::all_attacks() {
        let app = (atk.build)();
        let mut shift = Shift::new(mode);
        if trace_taint || metrics.is_some() {
            shift = shift.with_taint_trace();
        }
        let hit = shift.run(&app, (atk.exploit)()).map_err(|e| compile_failed(&e))?;
        let benign = shift.run(&app, (atk.benign)()).map_err(|e| compile_failed(&e))?;
        let verdict = match (mode, hit.exit.is_detection()) {
            (Mode::Uninstrumented, false) => "unseen".to_string(),
            (_, true) => hit
                .detected_policy()
                .map(|p| format!("caught:{p}"))
                .unwrap_or_else(|| "caught".into()),
            (_, false) => {
                all_ok = false;
                "MISSED".into()
            }
        };
        println!(
            "{:<22} {:<24} {:>10} {:>8}",
            atk.program,
            atk.attack_type,
            verdict,
            if benign.exit.is_detection() { "FP!" } else { "clean" }
        );
        if trace_taint {
            match hit.taint_chain() {
                Some(chain) => println!("{:>22}   chain: {chain}", ""),
                None => println!("{:>22}   chain: (none)", ""),
            }
        }
        if metrics.is_some() {
            merged.merge(&shift_core::metrics::run_metrics(&hit));
        }
    }
    if let Some(path) = metrics {
        write_artifact(&path, "metrics", &merged.to_json().render())?;
        println!("metrics written to {path}");
    }
    Ok(if all_ok { ExitCode::Success } else { ExitCode::Usage })
}

/// Observability options for `shift attack`.
struct AttackOpts {
    benign: bool,
    /// `Some(depth)` enables the last-instructions ring (`--trace`,
    /// `--trace-depth N`).
    trace_depth: Option<usize>,
    trace_taint: bool,
    metrics: Option<String>,
    profile: Option<String>,
}

fn cmd_attack(name: &str, mode: Mode, opts: AttackOpts) -> CmdResult {
    let Some(atk) = shift_attacks::all_attacks()
        .into_iter()
        .find(|a| a.program.to_lowercase().contains(&name.to_lowercase()))
    else {
        eprintln!("no attack matching `{name}`; programs are:");
        for a in shift_attacks::all_attacks() {
            eprintln!("  {}", a.program);
        }
        return Err(ExitCode::Usage);
    };
    let app = (atk.build)();
    let world = if opts.benign { (atk.benign)() } else { (atk.exploit)() };
    let mut shift = Shift::new(mode);
    if opts.trace_taint {
        shift = shift.with_taint_trace();
    }
    if opts.profile.is_some() {
        shift = shift.with_profile();
    }
    let report = if let Some(depth) = opts.trace_depth {
        // Drive the machine by hand so the last instructions before the
        // detection are visible; runtime and budget are the session's.
        let compiled = shift.compile(&app).map_err(|e| compile_failed(&e))?;
        let mut machine = shift_machine::Machine::new(&compiled.image);
        machine.enable_trace(depth);
        if opts.trace_taint {
            machine.enable_taint_observer();
        }
        if opts.profile.is_some() {
            machine.enable_profiler(compiled.func_spans());
        }
        let mut rt = shift_core::Runtime::new(shift.config().clone(), world, shift.granularity())
            .with_io(shift.io());
        let exit = machine.run(&mut rt, shift.insn_limit());
        println!("last instructions before the end of the run:");
        print!("{}", machine.trace_listing());
        println!();
        shift_core::RunReport { exit, stats: machine.stats.clone(), runtime: rt, machine }
    } else {
        shift.run(&app, world).map_err(|e| compile_failed(&e))?
    };
    println!("program : {} ({})", atk.program, atk.cve);
    println!("mode    : {}", mode_name(mode));
    println!("input   : {}", if opts.benign { "benign" } else { "exploit" });
    println!("exit    : {}", report.exit);
    if let Some(p) = report.detected_policy() {
        println!("policy  : {p} — {}", p.description());
    }
    if opts.trace_taint {
        match report.taint_chain() {
            Some(chain) => println!("chain   : {chain}"),
            None => println!("chain   : (none)"),
        }
    }
    println!(
        "cycles  : {} ({} instrumentation)",
        report.stats.cycles,
        report.stats.instrumentation_cycles()
    );
    if let Some(path) = &opts.metrics {
        let reg = shift_core::metrics::run_metrics(&report);
        write_artifact(path, "metrics", &reg.to_json().render())?;
        println!("metrics : written to {path}");
    }
    if let Some(path) = &opts.profile {
        let prof = report
            .machine
            .profiler()
            .ok_or_else(|| fail(ExitCode::Usage, "profiler was not armed"))?;
        write_artifact(path, "profile", &prof.folded())?;
        println!("profile : folded stacks written to {path}");
        println!("hottest blocks:");
        for (ip, func, cycles) in prof.hot_blocks(5) {
            println!("  ip {ip:>6}  {func:<20} {cycles:>12} cycles");
        }
    }
    Ok(exit_code_for(&report.exit))
}

/// Runs the headline experiments (Figure-7 SPEC geomeans, Figure-6 Apache
/// geomeans, the fleet-serving sweep) and prints — or with `json`, writes
/// to `BENCH_shift.json` — a machine-readable summary. `workers` caps the
/// host sweep pool (0 = one thread per core); the modelled results are
/// identical at any setting. `seed` is stamped into the summary so a run
/// can be tied back to the randomized schedules it drove.
fn cmd_bench(json: bool, scale: Scale, workers: usize, seed: u64) -> CmdResult {
    let (sizes, requests): (&[usize], usize) = match scale {
        Scale::Test => (&[1 << 10, 8 << 10], 6),
        Scale::Reference => (&[1 << 10, 10 << 10, 100 << 10], 50),
    };
    shift_bench::set_sweep_workers(workers);
    let started = std::time::Instant::now();
    let summary = shift_bench::bench_summary(scale, sizes, requests, seed);
    let host = started.elapsed();
    let text = summary.render();
    if json {
        write_artifact("BENCH_shift.json", "bench summary", &text)?;
        println!(
            "bench summary written to BENCH_shift.json ({:.2}s host time)",
            host.as_secs_f64()
        );
    } else {
        print!("{text}");
    }
    Ok(ExitCode::Success)
}

fn cmd_spec(name: &str, mode: Mode, scale: Scale, tainted: bool) -> CmdResult {
    let benches = shift_workloads::all_benches();
    let selected: Vec<_> = if name == "all" {
        benches
    } else {
        benches.into_iter().filter(|b| b.name == name).collect()
    };
    if selected.is_empty() {
        return Err(fail(
            ExitCode::Usage,
            format_args!(
                "no benchmark `{name}`; try: all, gzip, gcc, crafty, bzip2, vpr, mcf, parser, twolf"
            ),
        ));
    }
    println!("{:<10} {:>14} {:>14} {:>10}", "bench", "cycles", "instructions", "slowdown");
    for bench in selected {
        let run = run_spec(&bench, mode, scale, tainted);
        let base = run_spec(&bench, Mode::Uninstrumented, scale, tainted);
        println!(
            "{:<10} {:>14} {:>14} {:>9.2}x",
            bench.name,
            run.stats.cycles,
            run.stats.instructions,
            run.stats.cycles as f64 / base.stats.cycles as f64
        );
    }
    Ok(ExitCode::Success)
}

fn cmd_apache(size_kb: usize, requests: usize, mode: Mode) -> ExitCode {
    let run = shift_workloads::apache::run_apache(mode, size_kb << 10, requests);
    let base = shift_workloads::apache::run_apache(Mode::Uninstrumented, size_kb << 10, requests);
    println!("mode       : {}", mode_name(mode));
    println!("served     : {} requests of {size_kb} KB", run.served);
    println!("cpu cycles : {} (baseline {})", run.stats.cycles, base.stats.cycles);
    println!("io cycles  : {}", run.stats.io_cycles);
    println!(
        "overhead   : {:+.2}% end-to-end, {:.2}x cpu",
        (run.total_time() as f64 / base.total_time() as f64 - 1.0) * 100.0,
        run.stats.cycles as f64 / base.stats.cycles as f64
    );
    ExitCode::Success
}

/// The host's core count: the default host pool width.
fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// `shift serve` options, after mode extraction.
struct ServeOpts {
    workers: usize,
    connections: usize,
    requests: usize,
    size_kb: Option<usize>,
    json: Option<String>,
    /// Master seed for randomized schedules (default: `SHIFT_SEED` env or
    /// the built-in default).
    seed: u64,
    /// Arm a randomized chaos injection schedule derived from the seed.
    inject: bool,
    /// Write a replay log of the run here.
    record: Option<String>,
    /// Write the merged flight-recorder timeline here as Chrome
    /// `trace_event` JSON (arms the recorder).
    trace_out: Option<String>,
    /// Write the merged metrics registry here in the Prometheus text
    /// exposition format (arms the recorder).
    prom_out: Option<String>,
    /// Snapshot serving counters every N modelled cycles (arms the
    /// recorder; the samples land in the trace file's `timeseries`).
    sample_cycles: Option<u64>,
    /// Open-loop arrival process; `Some` switches serving to the
    /// event-driven scheduler.
    arrivals: Option<ArrivalProcess>,
    /// Accept-queue bound for open-loop admission control.
    accept_cap: usize,
    /// Resident-guest cap for the open-loop scheduler.
    max_resident: usize,
    /// Round-robin quantum in cycles (0 = run each CPU leg to its park).
    quantum: u64,
    /// Host simulation pool for open-loop phase 1 (default: one thread per
    /// core). Modelled results are bit-identical at any setting.
    host_workers: usize,
}

impl ServeOpts {
    /// Whether any flag asked for the flight recorder.
    fn recording(&self) -> bool {
        self.trace_out.is_some() || self.prom_out.is_some() || self.sample_cycles.is_some()
    }
}

/// Parses `shift serve`'s options (after mode extraction).
fn parse_serve_opts(args: &mut Vec<String>) -> Result<ServeOpts, String> {
    let arrivals: Option<ArrivalProcess> = take_opt(args, "--arrivals")?;
    // Closed-loop `--workers` is the modelled fleet width and defaults to
    // one instance per host core; open-loop workers are the event
    // scheduler's modelled cores and default to the paper-scale width of 8.
    let default_workers = if arrivals.is_some() { 8 } else { host_cores() };
    let workers = take_opt(args, "--workers")?.unwrap_or(default_workers);
    if workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    Ok(ServeOpts {
        workers,
        connections: take_opt(args, "--connections")?.unwrap_or(8),
        requests: take_opt(args, "--requests")?.unwrap_or(4),
        size_kb: take_opt(args, "--size-kb")?,
        json: take_opt(args, "--json")?,
        seed: take_opt(args, "--seed")?.unwrap_or_else(shift_workloads::master_seed),
        inject: take_flag(args, "--inject"),
        record: take_opt(args, "--record")?,
        trace_out: take_opt(args, "--trace-out")?,
        prom_out: take_opt(args, "--prom-out")?,
        sample_cycles: take_opt(args, "--sample-cycles")?,
        arrivals,
        accept_cap: take_opt(args, "--accept-cap")?.unwrap_or(1024),
        max_resident: take_opt(args, "--max-resident")?.unwrap_or(256),
        quantum: take_opt(args, "--quantum")?.unwrap_or(100_000),
        host_workers: take_opt(args, "--host-workers")?.unwrap_or_else(host_cores),
    })
}

/// One serve run as the report sees it: the counters both schedulers
/// share, plus the report lines and JSON keys only one of them has.
struct ServeRun {
    /// Scheduler lines before the shared `image` line.
    head: String,
    /// Scheduler lines between the `image` and `requests` lines.
    mid: String,
    /// Scheduler lines after the `requests` line.
    tail: String,
    /// Appended to the `host` line.
    host_note: String,
    /// Appended inside the `record` line's parentheses.
    record_note: String,
    /// JSON keys after `seed`, and between `requests_per_sec` and
    /// `violations`.
    json_head: Vec<(&'static str, shift_obs::Json)>,
    json_tail: Vec<(&'static str, shift_obs::Json)>,
    /// The replay log, when `--record` asked for one.
    log: Option<shift_core::ReplayLog>,
    /// Merged events, samples and ring drops, when `--trace-out` asked.
    trace: Option<(Vec<shift_core::TraceEvent>, Vec<shift_core::Sample>, u64)>,
    /// The first connection that did not halt, in connection order.
    failed: Option<Exit>,
    requests: u64,
    served: u64,
    recovered: u64,
    dropped: u64,
    wall_cycles: u64,
    requests_per_sec: f64,
    violations: usize,
    host_ns: u64,
    registry: shift_core::Registry,
}

/// Serves a deterministic Apache request stream: one compile, then
/// `connections` fresh instances scheduled closed-loop over a
/// `workers`-wide fleet or, with `--arrivals`, open-loop by the
/// event-driven scheduler ([`shift_core::Fleet::serve_open_loop`]), which
/// adds tail latency, saturation and admission-control lines. Succeeds when
/// every connection that ran reached a halt (served responses — 200s and
/// 404s alike — are successes, and shedding is admission control doing its
/// job); otherwise exits with the first non-halt's code.
fn cmd_serve(mode: Mode, opts: ServeOpts) -> CmdResult {
    use shift_core::{Injection, OpenLoopConfig, ReplayLog};
    use shift_obs::Json;
    use shift_workloads::apache::{apache_fleet, fleet_connections, fleet_world, ApacheStream};
    use shift_workloads::chaos;
    let stream = opts.size_kb.map_or(ApacheStream::Mixed, |kb| ApacheStream::Uniform(kb << 10));
    let mut fleet = apache_fleet(mode);
    if opts.recording() {
        // Zero-perturbation by construction (DESIGN.md §14): arming changes
        // only host-side buffers, never the modelled outcome.
        fleet = fleet.with_flight_recorder(shift_core::FlightConfig {
            cap: shift_core::DEFAULT_TRACE_CAP,
            sample_cycles: opts.sample_cycles.unwrap_or(0),
        });
    }
    let conns = fleet_connections(stream, opts.connections, opts.requests);
    let seed = opts.seed;
    let faults: Vec<Vec<(u64, Injection)>> = if opts.inject {
        let mut rng = chaos::Rng::new(chaos::derive(seed, "serve-inject"));
        (0..conns.len())
            .map(|_| (0..rng.below(3)).map(|_| chaos::random_fleet_injection(&mut rng)).collect())
            .collect()
    } else {
        Vec::new()
    };
    let world = fleet_world(stream);
    let not_halted = |e: &&Exit| !matches!(e, Exit::Halted(_));
    // Recording is assembled *after* the run from its inputs and report, so
    // the serving path is identical with and without --record.
    let run = match &opts.arrivals {
        None => {
            let r = fleet.serve_chaos(&world, &conns, &faults, opts.workers);
            ServeRun {
                head: format!(
                    "fleet      : {} instances, {} connections x {} requests\n",
                    r.workers,
                    conns.len(),
                    opts.requests
                ),
                mid: String::new(),
                tail: format!(
                    "throughput : {:.0} req/s modelled ({} wall cycles)\n\
                     latency    : p50 {} / p99 {} cycles\n",
                    r.requests_per_sec(),
                    r.wall_cycles,
                    r.latency_percentile(50.0).unwrap_or(0),
                    r.latency_percentile(99.0).unwrap_or(0)
                ),
                host_note: String::new(),
                record_note: String::new(),
                json_head: vec![
                    ("workers", Json::U64(r.workers as u64)),
                    ("connections", Json::U64(conns.len() as u64)),
                ],
                json_tail: Vec::new(),
                log: opts.record.as_ref().map(|_| {
                    ReplayLog::capture("apache", &fleet, &world, &conns, &faults, seed, &r)
                }),
                trace: opts
                    .trace_out
                    .as_ref()
                    .map(|_| (r.merged_trace_events(), r.merged_samples(), r.trace_dropped())),
                failed: r.connections.iter().map(|c| &c.exit).find(not_halted).cloned(),
                requests: r.requests,
                served: r.served,
                recovered: r.recovered,
                dropped: r.dropped,
                wall_cycles: r.wall_cycles,
                requests_per_sec: r.requests_per_sec(),
                violations: r.violations.len(),
                host_ns: r.host_ns,
                registry: r.registry,
            }
        }
        Some(process) => {
            let arrivals = process.schedule(conns.len(), chaos::derive(seed, "arrivals"));
            let cfg = OpenLoopConfig {
                workers: opts.workers,
                accept_cap: opts.accept_cap,
                max_resident: opts.max_resident,
                quantum: opts.quantum,
            };
            let r =
                fleet.serve_open_loop(&world, &conns, &faults, &arrivals, &cfg, opts.host_workers);
            let spec = process.spec();
            let sojourn = |p: f64| r.sojourn_percentile(p).unwrap_or(0);
            ServeRun {
                head: format!(
                    "arrivals   : {spec} ({} connections offered)\n\
                     fleet      : {} modelled workers, accept-cap {}, max-resident {}, quantum {}\n",
                    r.offered, cfg.workers, cfg.accept_cap, cfg.max_resident, cfg.quantum
                ),
                mid: format!(
                    "admission  : {} completed / {} shed of {} offered{}\n",
                    r.completed,
                    r.shed,
                    r.offered,
                    if r.saturated() { " — SATURATED" } else { "" }
                ),
                tail: format!(
                    "sojourn    : p50 {} / p99 {} / p999 {} cycles (max {})\n\
                     throughput : {:.0} req/s modelled, {:.1} conn/s \
                     ({} wall cycles, {:.1}% utilization)\n\
                     queue      : peak depth {} / peak resident {} guests\n\
                     memory     : peak {} owned pages in any resident guest \
                     ({} total over the run)\n",
                    sojourn(50.0),
                    sojourn(99.0),
                    sojourn(99.9),
                    r.sojourn_max().unwrap_or(0),
                    r.requests_per_sec(),
                    r.completions_per_sec(),
                    r.wall_cycles,
                    r.utilization() * 100.0,
                    r.peak_queue_depth,
                    r.peak_resident,
                    r.peak_owned_pages,
                    r.owned_pages_total
                ),
                host_note: format!(" ({} host workers)", opts.host_workers),
                record_note: format!(", {} shed", r.shed),
                json_head: vec![
                    ("arrivals", Json::Str(spec.clone())),
                    ("workers", Json::U64(cfg.workers as u64)),
                    ("accept_cap", Json::U64(cfg.accept_cap as u64)),
                    ("max_resident", Json::U64(cfg.max_resident as u64)),
                    ("quantum", Json::U64(cfg.quantum)),
                    ("offered", Json::U64(r.offered)),
                    ("completed", Json::U64(r.completed)),
                    ("shed", Json::U64(r.shed)),
                    ("saturated", Json::Bool(r.saturated())),
                ],
                json_tail: vec![
                    ("sojourn_p50", Json::U64(sojourn(50.0))),
                    ("sojourn_p99", Json::U64(sojourn(99.0))),
                    ("sojourn_p999", Json::U64(sojourn(99.9))),
                    ("sojourn_max", Json::U64(r.sojourn_max().unwrap_or(0))),
                    ("utilization", Json::F64(r.utilization())),
                    ("peak_queue_depth", Json::U64(r.peak_queue_depth)),
                    ("peak_resident", Json::U64(r.peak_resident)),
                    ("peak_owned_pages", Json::U64(r.peak_owned_pages)),
                ],
                log: opts.record.as_ref().map(|_| {
                    ReplayLog::capture_open_loop(
                        "apache", &fleet, &world, &conns, &faults, seed, &spec, &arrivals, &r,
                    )
                }),
                trace: opts
                    .trace_out
                    .as_ref()
                    .map(|_| (r.merged_trace_events(), r.merged_samples(), r.trace_dropped())),
                failed: r
                    .connections
                    .iter()
                    .filter_map(|c| c.exit.as_ref())
                    .find(not_halted)
                    .cloned(),
                requests: r.requests,
                served: r.served,
                recovered: r.recovered,
                dropped: r.dropped,
                wall_cycles: r.wall_cycles,
                requests_per_sec: r.requests_per_sec(),
                violations: r.violations.len(),
                host_ns: r.host_ns,
                registry: r.registry,
            }
        }
    };
    println!("mode       : {}", mode_name(mode));
    print!("{}", run.head);
    println!(
        "image      : {} insns compiled once, {} pristine pages per spawn",
        fleet.image().insn_count(),
        fleet.image().resident_pages()
    );
    print!("{}", run.mid);
    println!(
        "requests   : {} served / {} recovered / {} dropped of {} delivered",
        run.served, run.recovered, run.dropped, run.requests
    );
    print!("{}", run.tail);
    if run.violations > 0 {
        println!("violations : {}", run.violations);
    }
    if opts.inject {
        let armed: usize = faults.iter().map(Vec::len).sum();
        println!("chaos      : {armed} injections armed (seed {seed})");
    }
    println!("host       : {:.2} ms{}", run.host_ns as f64 / 1e6, run.host_note);
    if let (Some(path), Some((events, samples, dropped))) = (&opts.trace_out, &run.trace) {
        let doc = shift_core::chrome_trace_json(events, samples);
        write_artifact(path, "trace", &doc.render())?;
        println!(
            "trace      : {} events / {} samples written to {path}{}",
            events.len(),
            samples.len(),
            if *dropped > 0 { format!(" ({dropped} dropped to ring caps)") } else { String::new() }
        );
    }
    if let Some(path) = &opts.prom_out {
        write_artifact(path, "prometheus metrics", &run.registry.to_prometheus())?;
        println!("metrics    : prometheus text written to {path}");
    }
    if let (Some(path), Some(log)) = (&opts.record, &run.log) {
        write_artifact(path, "replay log", &log.render())?;
        println!(
            "record     : replay log written to {path} ({} connections{})",
            conns.len(),
            run.record_note
        );
    }
    if let Some(path) = &opts.json {
        let mut pairs = vec![
            ("schema_version", Json::U64(shift_obs::SCHEMA_VERSION)),
            ("mode", Json::Str(mode_name(mode))),
            ("seed", Json::U64(seed)),
        ];
        pairs.extend(run.json_head);
        pairs.extend([
            ("requests", Json::U64(run.requests)),
            ("served", Json::U64(run.served)),
            ("recovered", Json::U64(run.recovered)),
            ("dropped", Json::U64(run.dropped)),
            ("wall_cycles", Json::U64(run.wall_cycles)),
            ("requests_per_sec", Json::F64(run.requests_per_sec)),
        ]);
        pairs.extend(run.json_tail);
        pairs.extend([
            ("violations", Json::U64(run.violations as u64)),
            ("host_ns", Json::U64(run.host_ns)),
            ("metrics", run.registry.to_json()),
        ]);
        if let Some(record) = &opts.record {
            pairs.push(("record_log", Json::Str(record.clone())));
        }
        write_artifact(path, "serve report", &Json::obj(pairs).render())?;
        println!("report     : written to {path}");
    }
    Ok(run.failed.as_ref().map_or(ExitCode::Success, exit_code_for))
}

/// Parses a REPL address operand: `0x`-prefixed hex or plain decimal.
fn parse_addr(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

/// One-line position summary for the debugger prompt.
fn repl_position(pm: &shift_core::Postmortem) -> String {
    match pm.exit() {
        Some(exit) => format!(
            "stopped: {exit} (ip {}, {} insns, {} cycles)",
            pm.ip(),
            pm.instructions(),
            pm.cycles()
        ),
        None => format!("ip {} ({} insns, {} cycles)", pm.ip(), pm.instructions(), pm.cycles()),
    }
}

const REPL_HELP: &str = "commands:\n  \
     step [n] (s)     single-step n instructions (default 1)\n  \
     run [n]          run up to n more instructions (default: the log's budget)\n  \
     regs (r)         general registers (nonzero or NaT'd) and unat\n  \
     mem <addr> [len] hex dump of guest memory (default 64 bytes)\n  \
     taint <addr> [len] tainted byte ranges in [addr, addr+len)\n  \
     bt               recent-instruction trace and provenance chain\n  \
     dis [radius]     disassembly around the current ip (default 4)\n  \
     report           the full postmortem report\n  \
     quit (q)         leave — prints the final postmortem on the way out";

/// The interactive postmortem debugger behind `shift replay --debug`.
///
/// Reads commands from stdin (prompting only when stdin is a terminal) and
/// drives the [`shift_core::Postmortem`] single-step API. On `quit` or EOF
/// the session runs to its recorded stop (if it has not already) and prints
/// the full postmortem report — so a non-interactive `--debug` (stdin
/// closed or piped empty, as in CI) behaves exactly like the batch
/// debugger did.
fn debug_repl(pm: &mut shift_core::Postmortem, log: &shift_core::ReplayLog, c: usize) -> ExitCode {
    use std::io::{BufRead, IsTerminal, Write};
    let stdin = std::io::stdin();
    let interactive = stdin.is_terminal();
    if interactive {
        println!("--- interactive postmortem: connection {c} (`help` lists commands) ---");
        println!("{}", repl_position(pm));
    }
    let mut lines = stdin.lock().lines();
    loop {
        if interactive {
            print!("(pm) ");
            std::io::stdout().flush().ok();
        }
        let Some(Ok(line)) = lines.next() else { break };
        let mut parts = line.split_whitespace();
        let Some(cmd) = parts.next() else { continue };
        match cmd {
            "q" | "quit" => break,
            "h" | "help" | "?" => println!("{REPL_HELP}"),
            "s" | "step" => {
                let n = parts.next().and_then(|v| v.parse().ok()).unwrap_or(1);
                pm.step(n);
                println!("{}", repl_position(pm));
            }
            "run" => {
                let n = parts.next().and_then(|v| v.parse().ok()).unwrap_or(log.insn_limit);
                pm.run_to_violation(n);
                println!("{}", repl_position(pm));
            }
            "r" | "regs" => {
                for (reg, val) in pm.registers() {
                    if val.value != 0 || val.nat {
                        println!(
                            "  {reg:<4} {:#018x}{}",
                            val.value,
                            if val.nat { "  NaT" } else { "" }
                        );
                    }
                }
                println!("  unat {:#018x}", pm.unat());
            }
            "mem" => {
                let Some(addr) = parts.next().and_then(parse_addr) else {
                    println!("usage: mem <addr> [len]");
                    continue;
                };
                let len = parts.next().and_then(parse_addr).unwrap_or(64);
                for row in pm.mem_slice(addr, len).chunks(16) {
                    let bytes: Vec<String> = row
                        .iter()
                        .map(|(_, b)| b.map_or("--".into(), |v| format!("{v:02x}")))
                        .collect();
                    let ascii: String = row
                        .iter()
                        .map(|(_, b)| match b {
                            Some(v) if v.is_ascii_graphic() || *v == b' ' => *v as char,
                            Some(_) => '.',
                            None => ' ',
                        })
                        .collect();
                    println!("  {:#010x}  {:<47}  |{ascii}|", row[0].0, bytes.join(" "));
                }
            }
            "taint" => {
                let Some(addr) = parts.next().and_then(parse_addr) else {
                    println!("usage: taint <addr> [len]");
                    continue;
                };
                let len = parts.next().and_then(parse_addr).unwrap_or(64);
                let runs = pm.tainted_ranges(addr, len);
                if runs.is_empty() {
                    println!("  no tainted bytes in [{addr:#x}, {:#x})", addr.saturating_add(len));
                } else {
                    for (start, n) in runs {
                        println!("  {start:#x} +{n} tainted");
                    }
                }
            }
            "bt" => {
                print!("{}", pm.trace_listing());
                match pm.provenance() {
                    Some(chain) => println!("provenance: {chain}"),
                    None => println!("provenance: (none)"),
                }
            }
            "dis" => {
                let radius = parts.next().and_then(|v| v.parse().ok()).unwrap_or(4);
                print!("{}", pm.disasm_window(radius));
            }
            "report" => print!("{}", pm.report()),
            _ => println!("unknown command `{cmd}` — `help` lists commands"),
        }
    }
    if pm.exit().is_none() {
        pm.run_to_violation(log.insn_limit);
    }
    println!("--- postmortem: connection {c} ---");
    print!("{}", pm.report());
    match pm.exit() {
        Some(exit) => exit_code_for(exit),
        None => ExitCode::Success,
    }
}

/// Replays a recorded fleet run from `path` and verifies bit-identical
/// outcomes. `--connection N` restricts to one connection; `--debug` runs
/// that connection under the postmortem debugger instead of verifying;
/// `--shrink <out>` writes a minimized single-connection reproducer.
fn cmd_replay(
    path: &str,
    connection: Option<usize>,
    debug: bool,
    shrink_out: Option<String>,
) -> CmdResult {
    let usage = |msg: String| fail(ExitCode::Usage, msg);
    let text = std::fs::read_to_string(path)
        .map_err(|e| usage(format!("cannot read replay log `{path}`: {e}")))?;
    let log = shift_core::ReplayLog::parse(&text)
        .map_err(|e| usage(format!("bad replay log `{path}`: {e}")))?;
    let program = shift_workloads::chaos::chaos_program(&log.program)
        .ok_or_else(|| usage(format!("replay log names unknown program `{}`", log.program)))?;
    // A digest mismatch means the rebuilt image differs from the recorded
    // one — the log can no longer reproduce that run.
    let fleet = log
        .build_fleet(&program)
        .map_err(|e| fail(ExitCode::ReplayDiverged, format_args!("replay diverged: {e}")))?;
    if let Some(c) = connection.filter(|&c| c >= log.connections.len()) {
        return Err(usage(format!(
            "log has {} connections; no connection {c}",
            log.connections.len()
        )));
    }
    println!("log        : {path}");
    println!("program    : {} ({})", log.program, mode_name(log.mode));
    println!("connections: {} recorded, seed {}", log.connections.len(), log.seed);
    if let Some(ol) = &log.open_loop {
        println!(
            "open-loop  : {} over {} workers (accept-cap {}, max-resident {}, quantum {}); \
             {} completed / {} shed",
            ol.spec, ol.workers, ol.accept_cap, ol.max_resident, ol.quantum, ol.completed, ol.shed
        );
    }
    let shed = |c: usize| log.expected.get(c).is_some_and(shift_core::replay::Expected::is_shed);
    if debug {
        let c = connection.unwrap_or(0);
        if shed(c) {
            return Err(usage(format!(
                "connection {c} was shed by admission control — it never ran"
            )));
        }
        let mut pm = shift_core::Postmortem::from_log(&log, &fleet, c);
        return Ok(debug_repl(&mut pm, &log, c));
    }
    if let Some(out) = shrink_out {
        let c = connection.unwrap_or(0);
        let shrunk = log.shrink(&fleet, c);
        write_artifact(&out, "shrunk reproducer", &shrunk.log.render())?;
        println!(
            "shrunk     : connection {c} -> {} requests / {} injections \
             (-{} requests, -{} injections, {} probes)",
            shrunk.log.connections[0].requests.len(),
            shrunk.log.connections[0].injections.len(),
            shrunk.removed_requests,
            shrunk.removed_injections,
            shrunk.probes,
        );
        println!("reproduce  : shift replay {out}");
        return Ok(ExitCode::Shrunk);
    }
    let targets: Vec<usize> = match connection {
        Some(c) => vec![c],
        None => (0..log.connections.len()).collect(),
    };
    let mut diverged = false;
    for c in targets {
        if shed(c) {
            println!("connection {c:>2}: shed by admission control (not replayed)");
            continue;
        }
        let outcome = log.replay_connection(&fleet, c);
        if outcome.matches() {
            println!(
                "connection {c:>2}: ok ({}, digest {:016x})",
                shift_core::replay::exit_signature(&outcome.live.exit),
                outcome.live.state_digest
            );
        } else {
            diverged = true;
            println!("connection {c:>2}: DIVERGED");
            for m in &outcome.mismatches {
                println!("    {m}");
            }
        }
    }
    if diverged {
        return Err(fail(ExitCode::ReplayDiverged, "replay diverged from the recorded run"));
    }
    println!("replay     : bit-identical");
    Ok(ExitCode::Success)
}

fn cmd_disasm(mode: Mode) -> CmdResult {
    use shift_ir::ProgramBuilder;
    let mut pb = ProgramBuilder::new();
    let g = pb.global_zeroed("cell", 16);
    pb.func("main", 0, move |f| {
        let p = f.global_addr(g);
        let v = f.load8(p, 0);
        let b = f.andi(v, 0xff);
        f.store1(b, p, 8);
        f.ret(Some(b));
    });
    let program = pb.build().unwrap();
    let compiled =
        shift_compiler::Compiler::new(mode).compile(&program).map_err(|e| compile_failed(&e))?;
    let (start, end) = compiled.func_ranges["main"];
    println!("mode: {} — one ld8 + one st1, instrumented:", mode_name(mode));
    println!("{}", shift_isa::disasm_listing(&compiled.image.code[start..end], start));
    Ok(ExitCode::Success)
}

/// Summarizes a Chrome `trace_event` JSON file written by
/// `shift serve --trace-out`: a per-connection span table, the longest
/// spans, and the recovery timeline (recoveries, violations, injections).
fn cmd_trace(path: &str) -> CmdResult {
    use shift_core::Json;
    use std::collections::BTreeMap;
    let usage = |msg: String| fail(ExitCode::Usage, msg);
    let text = std::fs::read_to_string(path)
        .map_err(|e| usage(format!("cannot read trace `{path}`: {e}")))?;
    let doc = Json::parse(&text).map_err(|e| usage(format!("bad trace `{path}`: {e}")))?;
    let Some(Json::Arr(raw)) = doc.get("traceEvents") else {
        return Err(usage(format!("`{path}` has no traceEvents array — not a shift trace")));
    };
    // One decoded row per non-metadata event. `dur == 0` means an instant.
    struct Ev<'a> {
        name: &'a str,
        tid: u64,
        cycle: u64,
        dur: u64,
        args: &'a Json,
    }
    let events: Vec<Ev> = raw
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) != Some("M"))
        .map(|e| {
            Some(Ev {
                name: e.get("name")?.as_str()?,
                tid: e.get("tid")?.as_u64()?,
                cycle: e.get("args")?.get("cycle")?.as_u64()?,
                dur: e.get("args")?.get("dur_cycles")?.as_u64()?,
                args: e.get("args")?,
            })
        })
        .collect::<Option<_>>()
        .ok_or_else(|| usage(format!("`{path}` has malformed trace events")))?;

    #[derive(Default)]
    struct Row {
        events: usize,
        requests: usize,
        recoveries: usize,
        violations: usize,
        span_cycles: u64,
    }
    let mut rows: BTreeMap<u64, Row> = BTreeMap::new();
    for e in &events {
        let row = rows.entry(e.tid).or_default();
        row.events += 1;
        match e.name {
            "request" => row.requests += 1,
            "recovery" => row.recoveries += 1,
            "violation" => row.violations += 1,
            "connection" => row.span_cycles = row.span_cycles.max(e.dur),
            _ => {}
        }
    }
    println!("trace      : {path} ({} events)", events.len());
    println!(
        "{:>10} {:>8} {:>9} {:>11} {:>11} {:>14}",
        "connection", "events", "requests", "recoveries", "violations", "span cycles"
    );
    for (tid, r) in &rows {
        println!(
            "{:>10} {:>8} {:>9} {:>11} {:>11} {:>14}",
            tid, r.events, r.requests, r.recoveries, r.violations, r.span_cycles
        );
    }

    let mut spans: Vec<&Ev> = events.iter().filter(|e| e.dur > 0).collect();
    spans.sort_by(|a, b| b.dur.cmp(&a.dur).then(a.cycle.cmp(&b.cycle)).then(a.tid.cmp(&b.tid)));
    if !spans.is_empty() {
        println!("longest spans:");
        for e in spans.iter().take(5) {
            println!(
                "  {:>12} cycles  {} (connection {}, start {})",
                e.dur, e.name, e.tid, e.cycle
            );
        }
    }

    let mut incidents: Vec<&Ev> = events
        .iter()
        .filter(|e| matches!(e.name, "recovery" | "violation" | "injection"))
        .collect();
    incidents.sort_by_key(|e| (e.cycle, e.tid));
    if incidents.is_empty() {
        println!("recovery timeline: clean run, no incidents");
    } else {
        println!("recovery timeline:");
        for e in &incidents {
            let detail = match e.name {
                "violation" => format!(
                    "{} -> {}",
                    e.args.get("policy").and_then(Json::as_str).unwrap_or("?"),
                    e.args.get("action").and_then(Json::as_str).unwrap_or("?")
                ),
                "recovery" => format!(
                    "{} cycles thrown away",
                    e.args.get("recovered_cycles").and_then(Json::as_u64).unwrap_or(0)
                ),
                _ => e.args.get("what").and_then(Json::as_str).unwrap_or("?").to_string(),
            };
            println!("  cycle {:>12}  connection {:>2}  {:<10} {}", e.cycle, e.tid, e.name, detail);
        }
    }
    if let Some(Json::Arr(series)) = doc.get("timeseries") {
        if !series.is_empty() {
            println!("timeseries : {} samples", series.len());
        }
    }
    Ok(ExitCode::Success)
}

const USAGE: &str = "usage:\n  \
     shift attacks [--mode M] [--trace-taint] [--metrics <path>]\n  \
     shift attack <program> [--mode M] [--benign] [--trace] [--trace-depth N]\n  \
     \x20                  [--trace-taint] [--metrics <path>] [--profile <path>]\n  \
     shift spec <bench|all> [--mode M] [--reference] [--safe]\n  \
     shift apache <size-kb> <requests> [--mode M]\n  \
     shift serve [--mode M] [--workers N] [--connections N] [--requests N]\n  \
     \x20           [--size-kb N] [--json <path>] [--seed N] [--inject] [--record <path>]\n  \
     \x20           [--trace-out <path>] [--prom-out <path>] [--sample-cycles N]\n  \
     \x20           [--arrivals poisson:R|bursty:R[:B]|diurnal:R[:A]] [--accept-cap N]\n  \
     \x20           [--max-resident N] [--quantum N] [--host-workers N]\n  \
     shift trace <file>\n  \
     shift replay <log> [--connection N] [--debug] [--shrink <path>]\n  \
     shift bench [--json] [--reference] [--workers N] [--seed N]\n  \
     shift disasm [--mode M]\n  \
     shift modes\n  \
     shift help";

/// `shift help`: the usage text plus the exit-code table, on stdout.
fn cmd_help() -> ExitCode {
    println!("{USAGE}");
    println!();
    print!("{}", ExitCode::table());
    ExitCode::Success
}

fn main() -> ProcessExit {
    run(std::env::args().skip(1).collect()).unwrap_or_else(|e| fail(ExitCode::Usage, e)).into()
}

/// Reads the command line (without the program name) into one command and
/// runs it. Every argument is read before the command starts: a usage
/// error is returned as `Err` and nothing runs.
fn run(mut args: Vec<String>) -> Result<ExitCode, String> {
    if args.is_empty() {
        return Err(USAGE.into());
    }
    let cmd = args.remove(0);
    let a = &mut args;
    let take_scale = |a: &mut Vec<String>| {
        if take_flag(a, "--reference") {
            Scale::Reference
        } else {
            Scale::Test
        }
    };
    let job: Box<dyn FnOnce() -> CmdResult> = match cmd.as_str() {
        "modes" => Box::new(|| Ok(cmd_modes())),
        "attacks" => {
            let mode = take_mode(a)?;
            let trace_taint = take_flag(a, "--trace-taint");
            let metrics = take_opt(a, "--metrics")?;
            Box::new(move || cmd_attacks(mode, trace_taint, metrics))
        }
        "attack" => {
            let mode = take_mode(a)?;
            let trace = take_flag(a, "--trace");
            let opts = AttackOpts {
                benign: take_flag(a, "--benign"),
                // `--trace` alone keeps the historical 16-deep ring.
                trace_depth: take_opt(a, "--trace-depth")?.or(trace.then_some(16)),
                trace_taint: take_flag(a, "--trace-taint"),
                metrics: take_opt(a, "--metrics")?,
                profile: take_opt(a, "--profile")?,
            };
            let name: String = take_arg(a, "program")?;
            Box::new(move || cmd_attack(&name, mode, opts))
        }
        "spec" => {
            let mode = take_mode(a)?;
            let (scale, tainted) = (take_scale(a), !take_flag(a, "--safe"));
            let name: String = take_arg(a, "bench|all")?;
            Box::new(move || cmd_spec(&name, mode, scale, tainted))
        }
        "apache" => {
            let mode = take_mode(a)?;
            let (size_kb, requests) = (take_arg(a, "size-kb")?, take_arg(a, "requests")?);
            Box::new(move || Ok(cmd_apache(size_kb, requests, mode)))
        }
        "serve" => {
            let mode = take_mode(a)?;
            let opts = parse_serve_opts(a)?;
            Box::new(move || cmd_serve(mode, opts))
        }
        "trace" => {
            let path: String = take_arg(a, "file")?;
            Box::new(move || cmd_trace(&path))
        }
        "replay" => {
            let debug = take_flag(a, "--debug");
            let shrink = take_opt(a, "--shrink")?;
            let connection = take_opt(a, "--connection")?;
            let path: String = take_arg(a, "log")?;
            Box::new(move || cmd_replay(&path, connection, debug, shrink))
        }
        "bench" => {
            let (json, scale) = (take_flag(a, "--json"), take_scale(a));
            let workers = take_opt(a, "--workers")?.unwrap_or(0);
            let seed = take_opt(a, "--seed")?.unwrap_or_else(shift_workloads::master_seed);
            Box::new(move || cmd_bench(json, scale, workers, seed))
        }
        "disasm" => {
            let mode = take_mode(a)?;
            Box::new(move || cmd_disasm(mode))
        }
        "help" | "--help" | "-h" => Box::new(|| Ok(cmd_help())),
        _ => return Err(format!("unknown command `{cmd}`\n{USAGE}")),
    };
    finish(a)?;
    Ok(job().unwrap_or_else(|code| code))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// Asserts that each command line is a usage error whose message names
    /// the given argument. A line that parsed would run its command, so
    /// every line here must be one that never gets that far.
    fn rejects(cases: &[(&[&str], &str)]) {
        for (argv, culprit) in cases {
            let err = run(args(argv)).expect_err(&format!("{argv:?} must be a usage error"));
            assert!(err.contains(culprit), "{argv:?}: `{err}` does not name `{culprit}`");
        }
    }

    #[test]
    fn all_documented_modes_parse() {
        for (key, _) in MODES {
            let mode = mode_from_key(key).unwrap_or_else(|| panic!("{key} does not parse"));
            assert_eq!(mode_key(mode), key, "{key} does not round-trip");
        }
        assert!(mode_from_key("turbo").is_none());
    }

    #[test]
    fn take_mode_extracts_and_defaults() {
        let mut a = args(&["spec", "--mode", "word", "gzip"]);
        let mode = take_mode(&mut a).unwrap();
        assert_eq!(mode, Mode::Shift(ShiftOptions::baseline(Granularity::Word)));
        assert_eq!(a, args(&["spec", "gzip"]));

        let mut b = args(&["attacks"]);
        let mode = take_mode(&mut b).unwrap();
        assert_eq!(mode, Mode::Shift(ShiftOptions::baseline(Granularity::Byte)));

        let mut c = args(&["spec", "--mode"]);
        assert!(take_mode(&mut c).is_err());

        let mut d = args(&["spec", "--mode", "bogus"]);
        assert!(take_mode(&mut d).is_err());
    }

    #[test]
    fn take_flag_removes_only_the_flag() {
        let mut a = args(&["attack", "tar", "--benign"]);
        assert!(take_flag(&mut a, "--benign"));
        assert!(!take_flag(&mut a, "--benign"));
        assert_eq!(a, args(&["attack", "tar"]));
    }

    #[test]
    fn take_opt_parses_typed_values() {
        let mut a = args(&["--seed", "7", "--json", "out.json"]);
        assert_eq!(take_opt::<u64>(&mut a, "--seed"), Ok(Some(7)));
        assert_eq!(take_opt::<u64>(&mut a, "--workers"), Ok(None));
        assert_eq!(take_opt::<String>(&mut a, "--json"), Ok(Some("out.json".into())));
        assert!(a.is_empty());
        let err = take_opt::<u64>(&mut args(&["--seed", "x"]), "--seed").unwrap_err();
        assert!(err.starts_with("bad --seed `x`"), "{err}");
    }

    #[test]
    fn unknown_commands_are_usage_errors() {
        rejects(&[(&[], "usage:"), (&["atacks"], "atacks")]);
    }

    #[test]
    fn attacks_rejects_stray_arguments() {
        rejects(&[
            (&["attacks", "--trace-tiant"], "--trace-tiant"),
            (&["attacks", "--metrics"], "--metrics"),
            (&["attacks", "qwikiwiki"], "qwikiwiki"),
        ]);
    }

    #[test]
    fn attack_rejects_stray_arguments() {
        rejects(&[
            (&["attack", "tar", "--bengin"], "--bengin"),
            (&["attack", "tar", "--trace-depth"], "--trace-depth"),
            (&["attack", "tar", "--trace-depth", "deep"], "--trace-depth"),
            (&["attack", "tar", "bftpd"], "bftpd"),
            (&["attack", "--benign"], "<program>"),
        ]);
    }

    #[test]
    fn spec_rejects_stray_arguments() {
        rejects(&[
            (&["spec", "gzip", "--refrence"], "--refrence"),
            (&["spec", "gzip", "--mode"], "--mode"),
            (&["spec", "gzip", "mcf"], "mcf"),
        ]);
    }

    #[test]
    fn apache_rejects_stray_arguments() {
        rejects(&[
            (&["apache", "16", "5", "--safe"], "--safe"),
            (&["apache", "16", "5", "--mode"], "--mode"),
            (&["apache", "16", "5", "7"], "`7`"),
            (&["apache", "16k", "5"], "16k"),
        ]);
    }

    #[test]
    fn serve_rejects_stray_arguments() {
        rejects(&[
            (&["serve", "--wrokers", "3"], "--wrokers"),
            (&["serve", "--connections", "2", "--wrokers", "3", "--jsno", "o.json"], "--wrokers"),
            (&["serve", "--json"], "--json"),
            (&["serve", "--seed", "--inject"], "--seed"),
            (&["serve", "--arrivals", "poisson"], "--arrivals"),
            (&["serve", "fleet"], "fleet"),
        ]);
    }

    #[test]
    fn trace_rejects_stray_arguments() {
        rejects(&[
            (&["trace", "t.json", "--summary"], "--summary"),
            (&["trace", "t.json", "u.json"], "u.json"),
            (&["trace", "t.json", "--mode", "byte"], "--mode"),
        ]);
    }

    #[test]
    fn replay_rejects_stray_arguments() {
        rejects(&[
            (&["replay", "tests/data/replay_fixture.json", "--debgu"], "--debgu"),
            (&["replay", "log.json", "--shrink"], "--shrink"),
            (&["replay", "log.json", "--connection", "one"], "--connection"),
            (&["replay", "log.json", "other.json"], "other.json"),
            (&["replay", "log.json", "--mode", "byte"], "--mode"),
        ]);
    }

    #[test]
    fn bench_rejects_stray_arguments() {
        rejects(&[
            (&["bench", "--jsn"], "--jsn"),
            (&["bench", "--workers"], "--workers"),
            (&["bench", "reference"], "reference"),
            (&["bench", "--mode", "word"], "--mode"),
        ]);
    }

    #[test]
    fn disasm_rejects_stray_arguments() {
        rejects(&[
            (&["disasm", "--listing"], "--listing"),
            (&["disasm", "--mode"], "--mode"),
            (&["disasm", "word"], "word"),
        ]);
    }

    #[test]
    fn modes_and_help_reject_stray_arguments() {
        rejects(&[
            (&["modes", "--all"], "--all"),
            (&["modes", "byte"], "byte"),
            (&["modes", "--mode", "byte"], "--mode"),
            (&["help", "--verbose"], "--verbose"),
            (&["help", "serve"], "serve"),
            (&["help", "--mode", "byte"], "--mode"),
        ]);
    }

    #[test]
    fn exit_codes_are_distinct_per_outcome() {
        use shift_core::{Fault, Violation};
        let codes = [
            exit_code_for(&Exit::Halted(0)),
            exit_code_for(&Exit::Halted(4)),
            exit_code_for(&Exit::Violation(Violation {
                policy: "H3".into(),
                message: "test".into(),
                ip: 0,
                provenance: None,
            })),
            exit_code_for(&Exit::Fault(Fault::Unmapped { addr: 0, ip: 0 })),
            exit_code_for(&Exit::FuelExhausted),
            exit_code_for(&Exit::InsnLimit),
            ExitCode::ReplayDiverged,
            ExitCode::Shrunk,
        ];
        let mut uniq: Vec<String> = codes.iter().map(|c| format!("{c:?}")).collect();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), codes.len(), "{codes:?}");
    }

    #[test]
    fn serve_rejects_zero_workers_in_both_modes() {
        // Zero modelled workers would be recorded into replay logs that
        // replay cannot serve; both serving modes refuse it up front.
        for argv in [
            &["--workers", "0"][..],
            &["--arrivals", "poisson:30000", "--workers", "0", "--connections", "8"][..],
        ] {
            let err = parse_serve_opts(&mut args(argv)).err();
            assert_eq!(err.as_deref(), Some("--workers must be at least 1"), "{argv:?}");
        }
        assert_eq!(parse_serve_opts(&mut args(&["--workers", "1"])).unwrap().workers, 1);
    }

    /// The replay-specific exit codes must not collide with the usage code
    /// or with any run-outcome code (guarded above), so scripts can key on
    /// them unambiguously.
    #[test]
    fn replay_exit_codes_are_reserved() {
        assert_eq!(ExitCode::ReplayDiverged.code(), 14);
        assert_eq!(ExitCode::Shrunk.code(), 15);
        assert_ne!(ExitCode::ReplayDiverged.code(), ExitCode::Usage.code());
        assert_ne!(ExitCode::Shrunk.code(), ExitCode::Usage.code());
    }

    /// `shift help` renders its exit-code table from [`ExitCode::ALL`]; this
    /// pins the documented numeric codes and checks that every code and its
    /// description actually appear in the rendered table, so the help text
    /// and the enum cannot drift apart.
    #[test]
    fn help_table_agrees_with_exit_code_enum() {
        let codes: Vec<u8> = ExitCode::ALL.iter().map(|c| c.code()).collect();
        assert_eq!(codes, vec![0, 1, 2, 3, 10, 11, 12, 13, 14, 15]);
        let mut uniq = codes.clone();
        uniq.dedup();
        assert_eq!(uniq, codes, "exit codes must be distinct and sorted");
        let table = ExitCode::table();
        for c in ExitCode::ALL {
            let row = format!("{:>4}  {}", c.code(), c.describe());
            assert!(table.contains(&row), "help table missing row {row:?}:\n{table}");
        }
    }

    #[test]
    fn mode_names_are_distinct() {
        let names: Vec<String> =
            MODES.iter().map(|(key, _)| mode_name(mode_from_key(key).unwrap())).collect();
        assert_eq!(names[..3], ["plain", "shift/byte", "shift/word"]);
        assert_eq!(names[5], "shadow/byte");
        let mut uniq = names.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), names.len(), "{names:?}");
    }
}
