//! The traced serve path: the fleet's per-connection pipeline rebuilt from
//! public calls, so each call can be timed from outside the program.
//!
//! [`serve_traced`] follows `Fleet::serve_one` / `Fleet::serve_one_traced`
//! step for step: spawn, open the transactional runtime, run the resilient
//! session loop (rollback and redelivery on faults and recoverable
//! detections, parking at I/O points when asked), close the session, and
//! extract the connection report. The traced run checks its results
//! against the untraced pipeline's, so any drift from the program's own
//! loop shows up as a failed reconciliation, not as a silently different
//! measurement.

use std::time::Instant;

use shift_core::metrics::serve_metrics;
use shift_core::policy::Policy;
use shift_core::{
    ConnectionReport, Exit, Fault, Injection, ProgramImage, Runtime, Segment, ServeReport, Shift,
    TraceKind, Violation, ViolationAction, World,
};

use crate::layers::{ns_since, Clock, Part};

/// The flight-recorder name of a violation action (the runtime's own
/// labels, which it does not export).
fn action_name(action: ViolationAction) -> &'static str {
    match action {
        ViolationAction::Terminate => "terminate",
        ViolationAction::LogAndContinue => "log_and_continue",
        ViolationAction::AbortTransaction => "abort_transaction",
    }
}

/// Serves one connection with every layer call timed into `clock`, and
/// returns its report plus its `(cpu, io)` leg trace (a single leg unless
/// `park` is set).
#[allow(clippy::too_many_arguments)]
pub fn serve_traced(
    shift: &Shift,
    image: &ProgramImage,
    base: &World,
    requests: &[Vec<u8>],
    injections: &[(u64, Injection)],
    c: usize,
    width: usize,
    park: bool,
    clock: &mut Clock,
) -> (ConnectionReport, Vec<Segment>) {
    let start = Instant::now();
    let world = requests.iter().fold(base.clone(), |w, msg| w.net(msg.clone()));
    clock.charge(Part::RuntimeSetup, start);

    let mut machine = clock.time(Part::Spawn, || image.spawn_injected(injections));
    if let Some(cfg) = shift.flight() {
        clock.time(Part::RecorderSpans, || {
            machine.enable_flight_recorder(cfg.cap, cfg.sample_cycles)
        });
    }
    machine.arm_watchdog(shift.fuel());
    let t = Instant::now();
    let mut runtime = Runtime::new(shift.config().clone(), world, shift.granularity())
        .with_io(shift.io())
        .with_transactions();
    if park {
        runtime = runtime.with_io_yield();
    }
    clock.charge(Part::RuntimeSetup, t);

    // The resilient session loop.
    let insn_limit = shift.insn_limit();
    let mut leg_base = machine.stats.instructions;
    let mut empty_recovery_at: Option<u64> = None;
    let mut segments = Vec::new();
    let (mut cpu_seen, mut io_seen) = (0u64, 0u64);
    let exit = loop {
        let used = machine.stats.instructions - leg_base;
        let exit = clock.run(&mut machine, &mut runtime, insn_limit.saturating_sub(used));
        let recoverable = match &exit {
            Exit::Parked => {
                let cpu = machine.stats.cycles - cpu_seen;
                let io = machine.stats.io_cycles - io_seen;
                segments.push(Segment { cpu, io });
                cpu_seen += cpu;
                io_seen += io;
                continue;
            }
            Exit::Halted(_) | Exit::InsnLimit | Exit::Violation(_) => false,
            Exit::FuelExhausted => true,
            Exit::Fault(f @ Fault::NatConsumption { kind, .. }) => {
                let p = Policy::from_fault(*kind);
                let provenance =
                    machine.taint_observer().and_then(|o| o.fault_chain()).map(str::to_string);
                runtime.record_violation(Violation {
                    policy: p.name().to_string(),
                    message: format!("detected by hardware: {f}"),
                    ip: machine.cpu.ip,
                    provenance,
                });
                let action = runtime.config().action_for(p);
                let now = machine.stats.total_time();
                if let Some(fr) = machine.flight_recorder_mut() {
                    fr.instant(
                        now,
                        TraceKind::Violation {
                            policy: p.name().to_string(),
                            action: action_name(action).to_string(),
                        },
                    );
                }
                action != ViolationAction::Terminate
            }
            Exit::Fault(_) => true,
        };
        if recoverable && empty_recovery_at != Some(runtime.requests_delivered) {
            let delivered_before = runtime.requests_delivered;
            let t = Instant::now();
            let recovered = runtime.recover(&mut machine);
            clock.charge(Part::Rollback, t);
            if recovered {
                if runtime.requests_delivered == delivered_before {
                    empty_recovery_at = Some(delivered_before);
                }
                leg_base = machine.stats.instructions;
                continue;
            }
        }
        break exit;
    };
    segments.push(Segment {
        cpu: machine.stats.cycles - cpu_seen,
        io: machine.stats.io_cycles - io_seen,
    });

    // Close the session: the final request window, then the partition of
    // delivered requests into served, recovered and dropped.
    let session_end = machine.stats.total_time();
    if let Some((start, latency)) = runtime.finish_request_window(session_end) {
        let index = runtime.request_latencies.len() as u64 - 1;
        if let Some(fr) = machine.flight_recorder_mut() {
            fr.span(start, start + latency, TraceKind::Request { index });
        }
    }
    let halted = matches!(exit, Exit::Halted(_));
    let served = runtime.completed_requests + u64::from(halted && runtime.open_request());
    let in_flight = u64::from(!halted && runtime.open_request());
    let mut report = ServeReport {
        exit,
        served,
        recovered: runtime.aborted_requests,
        dropped: in_flight + runtime.pending_requests() as u64,
        recovery_cycles: runtime.recovery_cycles,
        violations: runtime.violations.clone(),
        stats: machine.stats.clone(),
        runtime,
        machine,
    };

    // The connection report, as the fleet extracts it.
    let session = report.stats.total_time();
    if let Some(ring) = report.machine.flight_recorder_mut() {
        let t = Instant::now();
        ring.set_worker(c as u64);
        ring.span(0, session, TraceKind::Connection { connection: c as u64 });
        clock.charge(Part::RecorderSpans, t);
    }
    let registry = clock.time(Part::ServeMetrics, || serve_metrics(&report));
    let ServeReport {
        exit,
        served,
        recovered,
        dropped,
        recovery_cycles,
        violations,
        stats,
        runtime,
        mut machine,
    } = report;
    let trace = machine.take_flight_recorder();
    let owned_pages = machine.mem.owned_pages();
    let state_digest = clock.time(Part::Digest, || machine.state_digest());
    let conn = ConnectionReport {
        connection: c,
        instance: c % width,
        exit,
        requests_delivered: runtime.requests_delivered,
        served,
        recovered,
        dropped,
        recovery_cycles,
        time: stats.total_time(),
        violations,
        latencies: runtime.request_latencies.clone(),
        registry,
        state_digest,
        stats,
        trace,
        owned_pages,
    };
    clock.conn_ns.push(ns_since(start));
    (conn, segments)
}
