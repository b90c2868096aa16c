//! Host-time attribution for the traced run.
//!
//! Every timer here sits in the benchmark, around a call into one of the
//! program's public functions; nothing inside the program is instrumented.
//! A [`Clock`] belongs to one host thread; the per-thread clocks of a pass
//! are merged by exact sums, so the split does not depend on which thread
//! ran which connection.

use std::time::Instant;

use shift_core::{ProgramImage, Runtime};
use shift_isa::{sys, Gpr};
use shift_machine::{Machine, Os, SysResult};

/// The program modules a pass's host time is attributed to (the compiler
/// and image freezes run in set-up, which `crate::Setup` times). A layer's
/// self time is the time spent inside the calls charged to it, minus what
/// its children took (only [`Layer::Exec`] has children: the syscalls a run
/// makes).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    /// `Machine::new`: load, freeze and pre-decode per SPEC run.
    Image,
    /// `ProgramImage::spawn_injected`: a copy-on-write instance.
    Seed,
    /// `Machine::run`, minus the syscalls it makes.
    Exec,
    /// `World` and `Runtime` set-up plus every syscall that does not roll
    /// a transaction back.
    Runtime,
    /// `Runtime::recover` and the syscalls that end in a rollback.
    Snapshot,
    /// `event::simulate`, the open-loop discrete-event scheduler.
    Event,
    /// Per-connection bookkeeping (`serve_metrics`, `state_digest`) and the
    /// fleet-wide merge.
    Fleet,
    /// Flight-recorder spans and the JSON, Prometheus and Perfetto exports.
    Obs,
}

impl Layer {
    /// The in-pass layers whose self time spans several parts, with their
    /// metric-name prefixes. Each other in-pass layer's self time is its
    /// one part: `image.load_ms`, `seed.spawn_ms`, `exec.host_ms` and
    /// `event.simulate_ms`.
    pub const MULTI_PART: [(Layer, &'static str); 4] = [
        (Layer::Runtime, "runtime"),
        (Layer::Snapshot, "snapshot"),
        (Layer::Fleet, "fleet"),
        (Layer::Obs, "obs"),
    ];
}

/// A named slice of one layer's time, with its call count.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Part {
    Load,
    Spawn,
    Exec,
    RuntimeSetup,
    Syscall,
    FileRead,
    NetRead,
    NetWrite,
    FileOpen,
    Rollback,
    Simulate,
    ServeMetrics,
    Digest,
    Merge,
    RecorderSpans,
    MergeEvents,
    ExportJson,
    ExportProm,
    ExportPerfetto,
}

/// Number of [`Part`] variants.
const PARTS: usize = Part::ALL.len();

impl Part {
    /// Every part.
    const ALL: [Part; 19] = [
        Part::Load,
        Part::Spawn,
        Part::Exec,
        Part::RuntimeSetup,
        Part::Syscall,
        Part::FileRead,
        Part::NetRead,
        Part::NetWrite,
        Part::FileOpen,
        Part::Rollback,
        Part::Simulate,
        Part::ServeMetrics,
        Part::Digest,
        Part::Merge,
        Part::RecorderSpans,
        Part::MergeEvents,
        Part::ExportJson,
        Part::ExportProm,
        Part::ExportPerfetto,
    ];

    /// The layer this part's time belongs to, or `None` for the per-kind
    /// syscall tallies, which split [`Part::Syscall`] rather than add to it.
    fn layer(self) -> Option<Layer> {
        Some(match self {
            Part::Load => Layer::Image,
            Part::Spawn => Layer::Seed,
            Part::Exec => Layer::Exec,
            Part::RuntimeSetup | Part::Syscall => Layer::Runtime,
            Part::FileRead | Part::NetRead | Part::NetWrite | Part::FileOpen => return None,
            Part::Rollback => Layer::Snapshot,
            Part::Simulate => Layer::Event,
            Part::ServeMetrics | Part::Digest | Part::Merge => Layer::Fleet,
            Part::RecorderSpans
            | Part::MergeEvents
            | Part::ExportJson
            | Part::ExportProm
            | Part::ExportPerfetto => Layer::Obs,
        })
    }

    /// The per-kind tally a syscall number feeds, if it is one of the four
    /// the benchmark reports separately.
    fn of_syscall(num: u32) -> Option<Part> {
        match num {
            sys::FILE_READ => Some(Part::FileRead),
            sys::NET_READ => Some(Part::NetRead),
            sys::NET_WRITE => Some(Part::NetWrite),
            sys::FILE_OPEN => Some(Part::FileOpen),
            _ => None,
        }
    }
}

/// Host nanoseconds and calls charged to one [`Part`].
#[derive(Clone, Copy, Default, Debug)]
pub struct Tally {
    pub ns: u64,
    pub calls: u64,
}

/// One thread's (or one pass's merged) host-time attribution.
#[derive(Clone, Default, Debug)]
pub struct Clock {
    parts: [Tally; PARTS],
    /// Bytes the runtime copied into guest memory (`net_read`, `file_read`
    /// and `kbd_read` results).
    pub bytes_in: u64,
    /// Host nanoseconds of each connection's whole pipeline, one sample
    /// per connection.
    pub conn_ns: Vec<u64>,
}

/// Nanoseconds elapsed since `t`.
pub fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// `n` standalone `ProgramImage::spawn` timings, in nanoseconds.
pub fn spawn_samples(image: &ProgramImage, n: usize) -> Vec<u64> {
    (0..n)
        .map(|_| {
            let t = Instant::now();
            let machine = image.spawn();
            let ns = ns_since(t);
            drop(std::hint::black_box(machine));
            ns
        })
        .collect()
}

impl Clock {
    /// Charges `ns` to `part` (one call).
    pub fn add(&mut self, part: Part, ns: u64) {
        let tally = &mut self.parts[part as usize];
        tally.ns += ns;
        tally.calls += 1;
    }

    /// Charges the time since `t` to `part`.
    pub fn charge(&mut self, part: Part, t: Instant) {
        self.add(part, ns_since(t));
    }

    /// Runs `f` and charges its time to `part`.
    pub fn time<T>(&mut self, part: Part, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.charge(part, t);
        out
    }

    /// The tally of one part.
    pub fn part(&self, part: Part) -> Tally {
        self.parts[part as usize]
    }

    /// The tallies that add to a layer's time, with their layers.
    fn layered(&self) -> impl Iterator<Item = (Layer, Tally)> + '_ {
        Part::ALL.iter().filter_map(|&p| Some((p.layer()?, self.part(p))))
    }

    /// Self time of one layer, in nanoseconds.
    pub fn layer_ns(&self, layer: Layer) -> u64 {
        self.layered().filter(|(l, _)| *l == layer).map(|(_, t)| t.ns).sum()
    }

    /// Self time of every layer together.
    pub fn total_ns(&self) -> u64 {
        self.layered().map(|(_, t)| t.ns).sum()
    }

    /// Folds another clock in (exact sums; samples appended).
    pub fn merge(&mut self, other: &Clock) {
        for (a, b) in self.parts.iter_mut().zip(other.parts) {
            a.ns += b.ns;
            a.calls += b.calls;
        }
        self.bytes_in += other.bytes_in;
        self.conn_ns.extend_from_slice(&other.conn_ns);
    }

    /// `Machine::run` with every syscall timed: the syscalls' time goes to
    /// the runtime (or, when the call rolled a transaction back, to the
    /// snapshot layer) and the rest of the run to [`Layer::Exec`].
    pub fn run(
        &mut self,
        machine: &mut Machine,
        runtime: &mut Runtime,
        max_insns: u64,
    ) -> shift_machine::Exit {
        let inside = |c: &Clock| c.part(Part::Syscall).ns + c.part(Part::Rollback).ns;
        let t = Instant::now();
        let before = inside(self);
        let exit = machine.run(&mut TimedOs { runtime, clock: self }, max_insns);
        let inside = inside(self) - before;
        self.add(Part::Exec, ns_since(t).saturating_sub(inside));
        exit
    }
}

/// An [`Os`] that forwards to the real [`Runtime`] and times each call.
struct TimedOs<'a> {
    runtime: &'a mut Runtime,
    clock: &'a mut Clock,
}

impl Os for TimedOs<'_> {
    fn syscall(&mut self, machine: &mut Machine, num: u32) -> SysResult {
        let recoveries = self.runtime.recoveries;
        let t = Instant::now();
        let out = self.runtime.syscall(machine, num);
        let ns = ns_since(t);
        if self.runtime.recoveries != recoveries {
            // An `AbortTransaction` disposal restored the checkpoint inside
            // the call: that is rollback work, not syscall service.
            self.clock.add(Part::Rollback, ns);
            return out;
        }
        self.clock.add(Part::Syscall, ns);
        if let Some(kind) = Part::of_syscall(num) {
            self.clock.add(kind, ns);
        }
        if matches!(num, sys::NET_READ | sys::FILE_READ | sys::KBD_READ) {
            let n = machine.cpu.gpr(Gpr::RET).value as i64;
            self.clock.bytes_in += u64::try_from(n).unwrap_or(0);
        }
        out
    }
}
