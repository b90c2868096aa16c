//! `spec_matrix`: the union of Figures 7 and 8 — eight SPEC-like kernels
//! under the seven compilation modes, tainted and untainted where Figure 7
//! has both — at `Scale::Reference`.

use std::collections::HashMap;
use std::time::Instant;

use shift_core::metrics::run_metrics;
use shift_core::{
    CompiledProgram, Exit, Granularity, Mode, ProgramImage, RunReport, Runtime, Shift,
    ShiftOptions, Source, TaintConfig, World,
};
use shift_machine::Machine;
use shift_workloads::{all_benches, compile_spec, run_spec_precompiled, Scale, SpecBench};
use shift_workloads::{SpecRun, INPUT_FILE};

use crate::layers::{ns_since, spawn_samples, Clock, Part};
use crate::pool::pool_map;
use crate::{Checks, ImageProbe, Setup, Traced, Work, Workload};

/// The modelled cycles, instructions and checksum of every run, committed
/// so that a change to the simulator's modelled output fails the check.
const FINGERPRINT: &str = include_str!("../spec_fingerprint.tsv");

/// The Figure 7 and 8 mode groups, in `shift-bench`'s order: each mode
/// with the taint conditions it runs under.
fn groups() -> [(Mode, &'static [bool]); 7] {
    let set_clr = |g| ShiftOptions { set_clr: true, nat_cmp: false, ..ShiftOptions::baseline(g) };
    [
        (Mode::Uninstrumented, &[true]),
        (Mode::Shift(ShiftOptions::baseline(Granularity::Byte)), &[true, false]),
        (Mode::Shift(ShiftOptions::baseline(Granularity::Word)), &[true, false]),
        (Mode::Shift(set_clr(Granularity::Byte)), &[true]),
        (Mode::Shift(ShiftOptions::enhanced(Granularity::Byte)), &[true]),
        (Mode::Shift(set_clr(Granularity::Word)), &[true]),
        (Mode::Shift(ShiftOptions::enhanced(Granularity::Word)), &[true]),
    ]
}

/// One kernel run of the matrix.
#[derive(Clone, Copy)]
struct Job {
    bench: usize,
    group: usize,
    tainted: bool,
}

/// What the fingerprint pins for one run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Pin {
    cycles: u64,
    instructions: u64,
    checksum: i64,
}

/// The prepared matrix: one compile per (kernel, mode), and the run list.
/// It holds no frozen image: `run_spec_precompiled` loads each run's
/// machine straight from the compiled program.
pub struct SpecMatrix {
    benches: Vec<SpecBench>,
    modes: Vec<Mode>,
    /// Indexed `bench * modes + group`.
    compiled: Vec<CompiledProgram>,
    jobs: Vec<Job>,
    pins: HashMap<(String, usize, bool), Pin>,
    threads: usize,
}

fn parse_fingerprint() -> HashMap<(String, usize, bool), Pin> {
    FINGERPRINT
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|line| {
            let f: Vec<&str> = line.split('\t').collect();
            let key = (f.first()?.to_string(), f.get(1)?.parse().ok()?, *f.get(2)? == "1");
            let pin = Pin {
                cycles: f.get(3)?.parse().ok()?,
                instructions: f.get(4)?.parse().ok()?,
                checksum: f.get(5)?.parse().ok()?,
            };
            Some((key, pin))
        })
        .collect()
}

impl SpecMatrix {
    /// Compiles every (kernel, mode) program.
    pub fn setup(threads: usize) -> (SpecMatrix, Setup) {
        let start = Instant::now();
        let benches = all_benches();
        let groups = groups();
        let mut setup = Setup::default();
        let mut compiled = Vec::new();
        for bench in &benches {
            for &(mode, _) in &groups {
                let t = Instant::now();
                let program = compile_spec(bench, mode);
                setup.compile_ns += ns_since(t);
                setup.compiles += 1;
                setup.insns_out += program.image.code.len() as u64;
                compiled.push(program);
            }
        }
        let pins = parse_fingerprint();
        let mut jobs: Vec<Job> = (0..benches.len())
            .flat_map(|bench| {
                groups.iter().enumerate().flat_map(move |(group, &(_, conds))| {
                    conds.iter().map(move |&tainted| Job { bench, group, tainted })
                })
            })
            .collect();
        // Longest runs first, so the pool's tail is short and the same on
        // every pass.
        let insns = |j: &Job| {
            pins.get(&(benches[j.bench].name.to_string(), j.group, j.tainted))
                .map_or(0, |p| p.instructions)
        };
        jobs.sort_by_key(|j| std::cmp::Reverse(insns(j)));
        setup.total_ns = ns_since(start);
        let modes = groups.iter().map(|g| g.0).collect();
        (SpecMatrix { benches, modes, compiled, jobs, pins, threads }, setup)
    }

    fn compiled(&self, job: &Job) -> &CompiledProgram {
        &self.compiled[job.bench * self.modes.len() + job.group]
    }

    /// The fingerprint file's lines for the current program: one run of
    /// the matrix, in kernel and mode order.
    pub fn fingerprint(&self) -> String {
        let runs = self.pass();
        let mut rows: Vec<(usize, usize, bool, &SpecRun)> =
            self.jobs.iter().zip(&runs).map(|(j, r)| (j.bench, j.group, !j.tainted, r)).collect();
        rows.sort_by_key(|r| (r.0, r.1, r.2));
        let mut out = String::from(
            "# kernel\tgroup\ttainted\tcycles\tinstructions\tchecksum\n\
             # Regenerate with: cargo run --release --manifest-path hostbench/Cargo.toml -- \
             --print-fingerprint > hostbench/spec_fingerprint.tsv\n",
        );
        for (bench, group, untainted, run) in rows {
            let checksum = match run.exit {
                Exit::Halted(v) => v,
                _ => i64::MIN,
            };
            out.push_str(&format!(
                "{}\t{group}\t{}\t{}\t{}\t{checksum}\n",
                self.benches[bench].name,
                u8::from(!untainted),
                run.stats.cycles,
                run.stats.instructions,
            ));
        }
        out
    }
}

/// Figure 7's taint condition as a runtime configuration.
fn session(mode: Mode, tainted: bool) -> Shift {
    let mut cfg = TaintConfig::default_secure();
    cfg.set_source(Source::Disk, tainted);
    Shift::new(mode).with_config(cfg).with_insn_limit(4_000_000_000)
}

impl Workload for SpecMatrix {
    type Pass = Vec<SpecRun>;

    fn pass(&self) -> Vec<SpecRun> {
        pool_map(&self.jobs, self.threads, |_, job, _: &mut ()| {
            let mode = self.modes[job.group];
            let bench = &self.benches[job.bench];
            run_spec_precompiled(bench, self.compiled(job), mode, Scale::Reference, job.tainted)
        })
        .0
    }

    fn work(&self, pass: &Vec<SpecRun>) -> Work {
        Work {
            instructions: pass.iter().map(|r| r.stats.instructions).sum(),
            requests: pass.len() as u64,
        }
    }

    fn ops_per_pass(&self) -> u64 {
        self.jobs.len() as u64
    }

    fn check(&self, pass: &Vec<SpecRun>, checks: &mut Checks) {
        // Every mode must compute the uninstrumented checksum.
        let mut reference: HashMap<usize, i64> = HashMap::new();
        for (job, run) in self.jobs.iter().zip(pass) {
            if let (0, Exit::Halted(v)) = (job.group, &run.exit) {
                reference.insert(job.bench, *v);
            }
        }
        for (job, run) in self.jobs.iter().zip(pass) {
            let name = self.benches[job.bench].name;
            let got = Pin {
                cycles: run.stats.cycles,
                instructions: run.stats.instructions,
                checksum: match run.exit {
                    Exit::Halted(v) => v,
                    _ => i64::MIN,
                },
            };
            let pinned = self.pins.get(&(name.to_string(), job.group, job.tainted));
            let same_checksum = reference.get(&job.bench) == Some(&got.checksum);
            checks.op(same_checksum && pinned == Some(&got), || {
                format!(
                    "{name} group {} tainted {}: {:?} vs fingerprint {pinned:?} (uninstrumented \
                     checksum {:?})",
                    job.group,
                    job.tainted,
                    got,
                    reference.get(&job.bench)
                )
            });
        }
    }

    fn same_output(&self, a: &Vec<SpecRun>, b: &Vec<SpecRun>) -> bool {
        a.iter().zip(b).all(|(x, y)| x.exit == y.exit && x.stats == y.stats)
    }

    fn traced_pass(&self, reference: &Vec<SpecRun>) -> (Traced, Vec<String>) {
        let start = Instant::now();
        let (runs, threads) = pool_map(&self.jobs, self.threads, |_, job, clock: &mut Clock| {
            let bench = &self.benches[job.bench];
            let shift = session(self.modes[job.group], job.tainted);
            let t = Instant::now();
            let world = World::new().file(INPUT_FILE, (bench.input)(Scale::Reference));
            let mut runtime = Runtime::new(shift.config().clone(), world, shift.granularity())
                .with_io(shift.io());
            clock.charge(Part::RuntimeSetup, t);
            let compiled = self.compiled(job);
            let mut machine = clock.time(Part::Load, || Machine::new(&compiled.image));
            let exit = clock.run(&mut machine, &mut runtime, shift.insn_limit());
            let report = RunReport { exit, stats: machine.stats.clone(), runtime, machine };
            let registry = run_metrics(&report);
            (report.exit, report.stats, registry)
        });
        let mut traced = Traced::from_pool(threads, ns_since(start));
        traced.finish(start);
        traced.instances = runs.len() as u64;
        let mut mismatches = Vec::new();
        for ((job, (exit, stats, registry)), want) in self.jobs.iter().zip(&runs).zip(reference) {
            traced.registry.merge(registry);
            if *exit != want.exit || *stats != want.stats {
                mismatches.push(format!(
                    "{} group {}: traced run retired {} insns / {exit:?}, untraced {} / {:?}",
                    self.benches[job.bench].name,
                    job.group,
                    stats.instructions,
                    want.stats.instructions,
                    want.exit
                ));
            }
        }
        (traced, mismatches)
    }

    fn image_probe(&self) -> ImageProbe {
        // The timed runs never freeze an image; these exist for the probe
        // alone and are dropped with it.
        let images: Vec<ProgramImage> = self.compiled.iter().map(ProgramImage::new).collect();
        ImageProbe {
            resident_pages: images.iter().map(|i| i.resident_pages() as u64).sum(),
            spawn_ns: images.iter().flat_map(|image| spawn_samples(image, 16)).collect(),
        }
    }
}
