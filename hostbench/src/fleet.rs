//! The two fleet workloads: `fleet_open_loop` (many short connections
//! through the event-driven scheduler) and `fleet_chaos` (few long
//! connections, exploits and fault injections, flight recorder armed).

use std::time::Instant;

use shift_core::event::{self, DesReport, Disposition, OpenLoopConfig, Segment};
use shift_core::replay::Expected;
use shift_core::{
    chrome_trace_json, timeline_digest, ConnectionReport, Exit, Fleet, FleetReport, FlightConfig,
    Injection, Json, Mode, OpenLoopReport, ProgramImage, Registry, Shift, Stats, World,
};
use shift_workloads::apache::{apache_fleet, apache_program, fleet_world, ApacheStream};
use shift_workloads::chaos::{self, derive, random_fleet_injection, Rng};
use shift_workloads::{escape_audit, ArrivalProcess, EscapeVerdict};

use crate::layers::{ns_since, spawn_samples, Clock, Part};
use crate::pool::pool_map;
use crate::session::serve_traced;
use crate::{Checks, Des, ImageProbe, Setup, Traced, Work, Workload};

/// Connections offered per open-loop pass.
const OPEN_CONNECTIONS: usize = 1024;
/// Poisson arrivals at a rate the 8 modelled workers absorb without
/// shedding.
const OPEN_ARRIVALS: &str = "poisson:30000";
/// Connections per chaos pass, and requests per connection.
const CHAOS_CONNECTIONS: usize = 96;
const CHAOS_REQUESTS: usize = 40;
/// Connections re-served by the determinism spot-check.
const SPOT_CHECKS: usize = 8;

/// Compiles the Apache guest for `shift` and freezes its image, timing
/// both halves (what `Shift::fleet` does in one call).
fn build_fleet(shift: &Shift, setup: &mut Setup) -> Fleet {
    let t = Instant::now();
    let compiled = shift.compile(&apache_program()).expect("the apache guest compiles");
    setup.compile_ns += ns_since(t);
    let t = Instant::now();
    let image = ProgramImage::new(&compiled);
    setup.freeze_ns += ns_since(t);
    setup.compiles += 1;
    setup.insns_out += compiled.image.code.len() as u64;
    Fleet::from_image(shift.clone(), image)
}

/// The fleet's one image, with 1024 standalone spawns from it.
fn probe(fleet: &Fleet) -> ImageProbe {
    let image = fleet.image();
    ImageProbe {
        resident_pages: image.resident_pages() as u64,
        spawn_ns: spawn_samples(image, 1024),
    }
}

/// A GET for one of the mixed file set's paths.
fn get(path: &[u8]) -> Vec<u8> {
    [b"GET /".as_slice(), path, b" HTTP/1.0\r\n\r\n"].concat()
}

/// The requests a connection was offered, as the accounting check counts
/// them: served + recovered + dropped must add up to this.
fn accounting_ok(conn: &ConnectionReport, offered: usize) -> bool {
    conn.served + conn.recovered + conn.dropped == offered as u64
        && conn.requests_delivered <= offered as u64
}

/// The seeded sample of connections the determinism spot-check re-serves.
fn spot_sample(seed: u64, n: usize) -> Vec<usize> {
    let mut rng = Rng::new(derive(seed, "hostbench/spot-check"));
    (0..SPOT_CHECKS.min(n)).map(|_| rng.below(n as u64) as usize).collect()
}

/// Every counter of a registry, for exact comparison.
fn counters(reg: &Registry) -> Vec<(String, u64)> {
    reg.counters().map(|(k, v)| (k.to_string(), v)).collect()
}

// ---- fleet_open_loop -------------------------------------------------------

/// The prepared open-loop workload.
pub struct OpenLoop {
    fleet: Fleet,
    world: World,
    conns: Vec<Vec<Vec<u8>>>,
    arrivals: Vec<u64>,
    cfg: OpenLoopConfig,
    threads: usize,
    seed: u64,
}

impl OpenLoop {
    /// Compiles the guest and draws the connections and arrivals from the
    /// seed.
    pub fn setup(template: &Shift, seed: u64, threads: usize) -> (OpenLoop, Setup) {
        let start = Instant::now();
        let mut setup = Setup::default();
        let fleet = build_fleet(template, &mut setup);
        let world = fleet_world(ApacheStream::Mixed);
        let paths: [&[u8]; 4] = [b"index", b"logo", b"data", b"missing"];
        let mut rng = Rng::new(derive(seed, "hostbench/open-loop/connections"));
        let conns = (0..OPEN_CONNECTIONS)
            .map(|_| (0..1 + rng.below(2)).map(|_| get(paths[rng.below(4) as usize])).collect())
            .collect();
        let arrivals = ArrivalProcess::parse(OPEN_ARRIVALS)
            .expect("valid arrival spec")
            .schedule(OPEN_CONNECTIONS, derive(seed, "hostbench/open-loop/arrivals"));
        let cfg =
            OpenLoopConfig { workers: 8, accept_cap: 1024, max_resident: 256, quantum: 100_000 };
        setup.total_ns = ns_since(start);
        (OpenLoop { fleet, world, conns, arrivals, cfg, threads, seed }, setup)
    }

    /// The shape of the fleet the template session comes from.
    pub fn template(mode: Mode) -> Shift {
        apache_fleet(mode).shift().clone()
    }
}

/// Exact count of the events the DES pops: one arrival per connection,
/// and per admitted connection one slice end per quantum slice of each cpu
/// leg plus one wake per leg.
fn des_events(des: &DesReport, traces: &[Vec<Segment>], quantum: u64) -> u64 {
    let slices = |cpu: u64| if quantum == 0 || cpu == 0 { 1 } else { cpu.div_ceil(quantum) };
    let admitted: u64 = traces
        .iter()
        .zip(&des.dispositions)
        .filter(|(_, d)| matches!(d, Disposition::Done { .. }))
        .map(|(legs, _)| legs.iter().map(|s| slices(s.cpu) + 1).sum::<u64>())
        .sum();
    traces.len() as u64 + admitted
}

impl Workload for OpenLoop {
    type Pass = OpenLoopReport;

    fn pass(&self) -> OpenLoopReport {
        self.fleet.serve_open_loop(
            &self.world,
            &self.conns,
            &[],
            &self.arrivals,
            &self.cfg,
            self.threads,
        )
    }

    fn work(&self, pass: &OpenLoopReport) -> Work {
        Work { instructions: pass.stats.instructions, requests: pass.requests }
    }

    fn ops_per_pass(&self) -> u64 {
        self.conns.len() as u64
    }

    fn check(&self, pass: &OpenLoopReport, checks: &mut Checks) {
        for (row, offered) in pass.connections.iter().zip(&self.conns) {
            // Every connection is benign: it must be admitted and fully
            // served, and its requests must partition exactly.
            let ok = row.outcome.as_ref().is_some_and(|o| {
                o.served == offered.len() as u64
                    && o.served + o.recovered + o.dropped == offered.len() as u64
                    && o.exit.starts_with("halted")
            });
            checks.op(ok, || {
                format!("connection {}: {:?} {:?}", row.connection, row.disposition, row.outcome)
            });
        }
    }

    fn same_output(&self, a: &OpenLoopReport, b: &OpenLoopReport) -> bool {
        a.stats == b.stats
            && a.sojourns == b.sojourns
            && a.state_digests() == b.state_digests()
            && counters(&a.registry) == counters(&b.registry)
    }

    fn traced_pass(&self, reference: &OpenLoopReport) -> (Traced, Vec<String>) {
        let start = Instant::now();
        let shift = self.fleet.shift();
        let image = self.fleet.image();
        let width = self.cfg.workers;
        let (runs, threads) = pool_map(&self.conns, self.threads, |c, reqs, clock: &mut Clock| {
            serve_traced(shift, image, &self.world, reqs, &[], c, width, true, clock)
        });
        let mut traced = Traced::from_pool(threads, ns_since(start));
        let (reports, traces): (Vec<ConnectionReport>, Vec<Vec<Segment>>) =
            runs.into_iter().unzip();

        let t = Instant::now();
        let des = event::simulate(&self.arrivals, &traces, &self.cfg, false);
        traced.clock.charge(Part::Simulate, t);

        // The fleet's join of dispositions with serve results.
        let t = Instant::now();
        let mut stats = Stats::new();
        let mut registry = Registry::new();
        let mut sojourns = Vec::new();
        let mut outcomes = Vec::with_capacity(reports.len());
        for (c, (report, disposition)) in reports.into_iter().zip(&des.dispositions).enumerate() {
            if let Disposition::Done { finished, .. } = disposition {
                outcomes.push(Some(Expected::of(&report)));
                sojourns.push(finished - self.arrivals[c]);
                stats.merge(&report.stats);
                registry.merge(&report.registry);
            } else {
                outcomes.push(None);
            }
        }
        sojourns.sort_unstable();
        for &s in &sojourns {
            registry.record("openloop.sojourn_cycles", s);
        }
        registry.counter_add("openloop.offered", self.conns.len() as u64);
        registry.counter_add("openloop.completed", sojourns.len() as u64);
        registry.counter_add("openloop.shed", des.shed);
        registry.counter_add("openloop.peak_queue_depth", des.peak_queue_depth);
        registry.counter_add("openloop.peak_resident", des.peak_resident);
        traced.clock.charge(Part::Merge, t);
        traced.finish(start);

        let mut mismatches = Vec::new();
        let mut expect = |what: &str, same: bool| {
            if !same {
                mismatches.push(format!("traced open-loop pass differs in {what}"));
            }
        };
        expect("merged stats", stats == reference.stats);
        expect("registry counters", counters(&registry) == counters(&reference.registry));
        expect("sojourns", sojourns == reference.sojourns);
        expect(
            "scheduler outcome",
            (des.shed, des.wall_cycles, des.busy_cycles, des.peak_queue_depth, des.peak_resident)
                == (
                    reference.shed,
                    reference.wall_cycles,
                    reference.busy_cycles,
                    reference.peak_queue_depth,
                    reference.peak_resident,
                ),
        );
        let rows: Vec<Option<Expected>> =
            reference.connections.iter().map(|r| r.outcome.clone()).collect();
        expect("per-connection outcomes", outcomes == rows);

        traced.instances = self.conns.len() as u64;
        traced.des = Some(Des {
            events: des_events(&des, &traces, self.cfg.quantum),
            peak_queue_depth: des.peak_queue_depth,
            shed: des.shed,
        });
        traced.registry = registry;
        (traced, mismatches)
    }

    fn image_probe(&self) -> ImageProbe {
        probe(&self.fleet)
    }

    fn final_checks(&self, first: &OpenLoopReport, checks: &mut Checks) {
        // Re-serve a seeded sample straight through and parked: both must
        // reproduce the pipeline's outcome, and the parked legs must
        // partition the connection's cycles.
        let width = self.cfg.workers;
        for c in spot_sample(self.seed, self.conns.len()) {
            let plain = self.fleet.serve_one(&self.world, &self.conns[c], &[], c, width);
            let (parked, legs) =
                self.fleet.serve_one_traced(&self.world, &self.conns[c], &[], c, width);
            let cpu: u64 = legs.iter().map(|s| s.cpu).sum();
            let io: u64 = legs.iter().map(|s| s.io).sum();
            let ok = first.connections[c].outcome.as_ref() == Some(&Expected::of(&plain))
                && plain.exit == parked.exit
                && plain.state_digest == parked.state_digest
                && plain.stats == parked.stats
                && cpu == plain.stats.cycles
                && io == plain.stats.io_cycles;
            checks.op(ok, || format!("spot-check of connection {c} does not reproduce"));
        }
    }
}

// ---- fleet_chaos -----------------------------------------------------------

/// The prepared chaos workload.
pub struct ChaosFleet {
    fleet: Fleet,
    base: World,
    conns: Vec<Vec<Vec<u8>>>,
    faults: Vec<Vec<(u64, Injection)>>,
    exploit: Vec<u8>,
    width: usize,
    seed: u64,
}

/// One chaos pass: the fleet report and the digest of its merged trace
/// timeline.
pub struct ChaosPass {
    report: FleetReport,
    timeline: u64,
}

/// Merges the fleet's trace rings and renders the report's three exports,
/// timing each step into `clock` when one is given.
fn export(report: &FleetReport, mut clock: Option<&mut Clock>) -> (u64, u64) {
    let mut timed = |part: Part, t: Instant| {
        if let Some(c) = clock.as_deref_mut() {
            c.charge(part, t);
        }
    };
    let t = Instant::now();
    let events = report.merged_trace_events();
    let samples = report.merged_samples();
    timed(Part::MergeEvents, t);
    let t = Instant::now();
    let perfetto = chrome_trace_json(&events, &samples).render();
    timed(Part::ExportPerfetto, t);
    let t = Instant::now();
    let prom = report.registry.to_prometheus();
    timed(Part::ExportProm, t);
    let t = Instant::now();
    let json = Json::obj(vec![
        ("workers", Json::U64(report.workers as u64)),
        ("requests", Json::U64(report.requests)),
        ("served", Json::U64(report.served)),
        ("recovered", Json::U64(report.recovered)),
        ("dropped", Json::U64(report.dropped)),
        ("wall_cycles", Json::U64(report.wall_cycles)),
        ("violations", Json::U64(report.violations.len() as u64)),
        ("metrics", report.registry.to_json()),
    ])
    .render();
    timed(Part::ExportJson, t);
    (timeline_digest(&events), (perfetto.len() + prom.len() + json.len()) as u64)
}

impl ChaosFleet {
    /// Compiles the guest and draws the traffic and injections from the
    /// seed.
    pub fn setup(template: &Shift, seed: u64, width: usize) -> (ChaosFleet, Setup) {
        let start = Instant::now();
        let mut setup = Setup::default();
        let fleet = build_fleet(template, &mut setup).with_flight_recorder(FlightConfig::default());
        let base = chaos::chaos_base_world("apache");
        let benign = chaos::chaos_benign_request("apache");
        let exploit = chaos::chaos_exploit_request("apache");
        let mut rng = Rng::new(derive(seed, "hostbench/chaos/traffic"));
        let conns = (0..CHAOS_CONNECTIONS)
            .map(|_| {
                (0..CHAOS_REQUESTS)
                    .map(|_| if rng.chance(25) { exploit.clone() } else { benign.clone() })
                    .collect()
            })
            .collect();
        let mut rng = Rng::new(derive(seed, "hostbench/chaos/injections"));
        let faults = (0..CHAOS_CONNECTIONS)
            .map(|_| (0..rng.below(3)).map(|_| random_fleet_injection(&mut rng)).collect())
            .collect();
        setup.total_ns = ns_since(start);
        (ChaosFleet { fleet, base, conns, faults, exploit, width, seed }, setup)
    }

    /// The session the chaos harness serves the Apache guest with.
    pub fn template(mode: Mode) -> Shift {
        chaos::chaos_fleet("apache", mode).shift().clone()
    }
}

impl Workload for ChaosFleet {
    type Pass = ChaosPass;

    fn pass(&self) -> ChaosPass {
        let report = self.fleet.serve_chaos(&self.base, &self.conns, &self.faults, self.width);
        let (timeline, _) = export(&report, None);
        ChaosPass { report, timeline }
    }

    fn work(&self, pass: &ChaosPass) -> Work {
        Work { instructions: pass.report.stats.instructions, requests: pass.report.requests }
    }

    fn ops_per_pass(&self) -> u64 {
        self.conns.len() as u64
    }

    fn check(&self, pass: &ChaosPass, checks: &mut Checks) {
        for (c, conn) in pass.report.connections.iter().enumerate() {
            let offered = self.conns[c].len();
            // Without injections, every benign request is served and every
            // exploit is detected and rolled back; nothing is dropped.
            let exploits = self.conns[c].iter().filter(|r| **r == self.exploit).count() as u64;
            let clean = !self.faults[c].is_empty()
                || (conn.served == offered as u64 - exploits
                    && conn.recovered == exploits
                    && conn.dropped == 0
                    && matches!(conn.exit, Exit::Halted(_)));
            checks.op(accounting_ok(conn, offered) && clean, || {
                format!(
                    "connection {c} ({exploits} exploits, {} injections): served {} + recovered \
                     {} + dropped {} of {offered} ({})",
                    self.faults[c].len(),
                    conn.served,
                    conn.recovered,
                    conn.dropped,
                    conn.exit
                )
            });
        }
    }

    fn same_output(&self, a: &ChaosPass, b: &ChaosPass) -> bool {
        a.timeline == b.timeline
            && a.report.stats == b.report.stats
            && counters(&a.report.registry) == counters(&b.report.registry)
            && a.report
                .connections
                .iter()
                .zip(&b.report.connections)
                .all(|(x, y)| x.exit == y.exit && x.state_digest == y.state_digest)
    }

    fn traced_pass(&self, reference: &ChaosPass) -> (Traced, Vec<String>) {
        let start = Instant::now();
        let shift = self.fleet.shift();
        let image = self.fleet.image();
        let width = self.width;
        let (reports, threads) = pool_map(&self.conns, width, |c, reqs, clock: &mut Clock| {
            serve_traced(shift, image, &self.base, reqs, &self.faults[c], c, width, false, clock).0
        });
        let mut traced = Traced::from_pool(threads, ns_since(start));

        // The fleet's connection-order merge.
        let t = Instant::now();
        let mut report = FleetReport {
            workers: width,
            connections: Vec::new(),
            stats: Stats::new(),
            registry: Registry::new(),
            violations: Vec::new(),
            requests: 0,
            served: 0,
            recovered: 0,
            dropped: 0,
            recovery_cycles: 0,
            wall_cycles: 0,
            owned_pages_total: 0,
            peak_owned_pages: 0,
            host_ns: 0,
        };
        let mut busy = vec![0u64; width];
        for r in &reports {
            report.stats.merge(&r.stats);
            report.registry.merge(&r.registry);
            report.violations.extend(r.violations.iter().cloned());
            report.requests += r.requests_delivered;
            report.served += r.served;
            report.recovered += r.recovered;
            report.dropped += r.dropped;
            report.recovery_cycles += r.recovery_cycles;
            busy[r.instance] += r.time;
            report.owned_pages_total += r.owned_pages as u64;
            report.peak_owned_pages = report.peak_owned_pages.max(r.owned_pages as u64);
        }
        report.wall_cycles = busy.into_iter().max().unwrap_or(0);
        report.connections = reports;
        traced.clock.charge(Part::Merge, t);

        let (timeline, export_bytes) = export(&report, Some(&mut traced.clock));
        traced.finish(start);
        traced.export_bytes = export_bytes;

        let want = &reference.report;
        let mut mismatches = Vec::new();
        let mut expect = |what: &str, same: bool| {
            if !same {
                mismatches.push(format!("traced chaos pass differs in {what}"));
            }
        };
        expect("merged stats", report.stats == want.stats);
        expect("registry counters", counters(&report.registry) == counters(&want.registry));
        expect("trace timeline", timeline == reference.timeline);
        expect(
            "fleet totals",
            (report.requests, report.served, report.recovered, report.wall_cycles)
                == (want.requests, want.served, want.recovered, want.wall_cycles),
        );
        expect(
            "per-connection outcomes",
            report.connections.iter().zip(&want.connections).all(|(x, y)| {
                x.exit == y.exit && x.state_digest == y.state_digest && x.stats == y.stats
            }),
        );
        traced.instances = report.connections.len() as u64;
        traced.registry = report.registry;
        (traced, mismatches)
    }

    fn image_probe(&self) -> ImageProbe {
        probe(&self.fleet)
    }

    fn final_checks(&self, first: &ChaosPass, checks: &mut Checks) {
        let report = &first.report;
        // The escape audit: an exploit-carrying connection that finished
        // clean with no violation must not have leaked the secret unnoticed.
        for (c, conn) in report.connections.iter().enumerate() {
            if self.conns[c].contains(&self.exploit)
                && conn.violations.is_empty()
                && matches!(conn.exit, Exit::Halted(_))
            {
                let verdict = escape_audit(
                    "apache",
                    &self.fleet,
                    &self.base,
                    &self.conns[c],
                    &self.faults[c],
                    conn.state_digest,
                );
                let ok = !matches!(
                    verdict,
                    EscapeVerdict::UndetectedEscape | EscapeVerdict::DigestDiverged
                );
                checks.op(ok, || format!("escape audit of connection {c}: {verdict:?}"));
            }
        }
        // The determinism spot-check.
        for c in spot_sample(self.seed, self.conns.len()) {
            let again =
                self.fleet.serve_one(&self.base, &self.conns[c], &self.faults[c], c, self.width);
            let want = &report.connections[c];
            let ok = again.exit == want.exit
                && again.state_digest == want.state_digest
                && again.stats == want.stats;
            checks.op(ok, || format!("spot-check of connection {c} does not reproduce"));
        }
    }
}
