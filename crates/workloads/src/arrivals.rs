//! Open-loop arrival processes for the event-driven fleet.
//!
//! Closed-loop benchmarks (a fixed request list, the next request sent when
//! the previous answer lands) hide queueing: the load adapts to the server.
//! Real traffic does not — users arrive on their own clock, and the
//! interesting numbers (tail latency, shedding, saturation) only exist
//! under *open-loop* load, where arrivals keep coming whether or not the
//! server keeps up. This module synthesizes deterministic arrival
//! schedules, in modelled cycles, from the same splitmix64 streams the
//! chaos harness uses — so an open-loop run is replayable bit-for-bit at
//! any host worker count, and the recorded schedule round-trips through
//! the replay log.
//!
//! Host-float caveat: interarrival sampling uses `f64` (`ln`, `sin`).
//! Rust's float semantics make a schedule deterministic for a given build,
//! and the replay log stores the *materialized* cycles, so recorded runs
//! replay exactly even across hosts that round transcendentals differently.

use shift_core::CLOCK_HZ;

use crate::chaos::Rng;

/// Arrivals per burst for [`ArrivalProcess::Bursty`] when the spec omits it.
pub const DEFAULT_BURST: u64 = 16;

/// Rate-swing amplitude for [`ArrivalProcess::Diurnal`] when the spec
/// omits it.
pub const DEFAULT_AMPLITUDE: f64 = 0.8;

/// Period of the diurnal rate swing, in modelled seconds. Runs are short
/// (seconds of modelled time), so the "day" is compressed to one second —
/// enough to sweep the fleet through trough and peak several times in a
/// 16k-connection session.
pub const DIURNAL_PERIOD_S: f64 = 1.0;

/// A deterministic open-loop arrival process. All rates are mean arrivals
/// per modelled second at [`CLOCK_HZ`].
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum ArrivalProcess {
    /// Memoryless arrivals: exponential interarrival times at `rate_rps`.
    Poisson {
        /// Mean arrival rate, connections per modelled second.
        rate_rps: f64,
    },
    /// On/off traffic: bursts of `burst` back-to-back arrivals, separated
    /// by exponential gaps sized so the long-run mean is still `rate_rps`.
    Bursty {
        /// Mean arrival rate, connections per modelled second.
        rate_rps: f64,
        /// Arrivals per burst.
        burst: u64,
    },
    /// Sinusoidally modulated Poisson (a compressed day/night cycle):
    /// instantaneous rate `rate_rps × (1 + amplitude·sin(2πt/period))`,
    /// sampled by Lewis–Shedler thinning.
    Diurnal {
        /// Mean arrival rate, connections per modelled second.
        rate_rps: f64,
        /// Rate-swing amplitude in `[0, 1]`.
        amplitude: f64,
    },
}

/// [`ArrivalProcess::parse`], so `--arrivals` reads like any typed flag.
impl std::str::FromStr for ArrivalProcess {
    type Err = String;
    fn from_str(spec: &str) -> Result<ArrivalProcess, String> {
        ArrivalProcess::parse(spec)
    }
}

impl ArrivalProcess {
    /// Parses a CLI-style spec: `poisson:RATE`, `bursty:RATE[:BURST]`, or
    /// `diurnal:RATE[:AMPLITUDE]`.
    ///
    /// # Errors
    ///
    /// A human-readable message when the shape or numbers don't parse, the
    /// rate is not positive, or the amplitude leaves `[0, 1]`.
    pub fn parse(spec: &str) -> Result<ArrivalProcess, String> {
        let mut parts = spec.split(':');
        let shape = parts.next().unwrap_or_default();
        let rate_rps: f64 = parts
            .next()
            .ok_or_else(|| format!("arrival spec '{spec}' is missing a rate (e.g. poisson:500)"))?
            .parse()
            .map_err(|_| format!("arrival spec '{spec}' has a malformed rate"))?;
        if !rate_rps.is_finite() || rate_rps <= 0.0 {
            return Err(format!("arrival rate must be positive, got {rate_rps}"));
        }
        let extra = parts.next();
        if parts.next().is_some() {
            return Err(format!("arrival spec '{spec}' has too many fields"));
        }
        match shape {
            "poisson" => match extra {
                None => Ok(ArrivalProcess::Poisson { rate_rps }),
                Some(_) => Err(format!("poisson takes only a rate, got '{spec}'")),
            },
            "bursty" => {
                let burst = match extra {
                    None => DEFAULT_BURST,
                    Some(b) => b
                        .parse::<u64>()
                        .ok()
                        .filter(|&b| b > 0)
                        .ok_or_else(|| format!("bad burst size in '{spec}'"))?,
                };
                Ok(ArrivalProcess::Bursty { rate_rps, burst })
            }
            "diurnal" => {
                let amplitude = match extra {
                    None => DEFAULT_AMPLITUDE,
                    Some(a) => a
                        .parse::<f64>()
                        .ok()
                        .filter(|a| (0.0..=1.0).contains(a))
                        .ok_or_else(|| format!("bad amplitude in '{spec}' (want 0..=1)"))?,
                };
                Ok(ArrivalProcess::Diurnal { rate_rps, amplitude })
            }
            other => {
                Err(format!("unknown arrival process '{other}' (want poisson | bursty | diurnal)"))
            }
        }
    }

    /// The canonical spec string (`parse(p.spec()) == p`).
    pub fn spec(&self) -> String {
        match self {
            ArrivalProcess::Poisson { rate_rps } => format!("poisson:{rate_rps}"),
            ArrivalProcess::Bursty { rate_rps, burst } => format!("bursty:{rate_rps}:{burst}"),
            ArrivalProcess::Diurnal { rate_rps, amplitude } => {
                format!("diurnal:{rate_rps}:{amplitude}")
            }
        }
    }

    /// The mean offered rate in connections per modelled second.
    pub fn rate_rps(&self) -> f64 {
        match self {
            ArrivalProcess::Poisson { rate_rps }
            | ArrivalProcess::Bursty { rate_rps, .. }
            | ArrivalProcess::Diurnal { rate_rps, .. } => *rate_rps,
        }
    }

    /// Materializes the first `n` arrival cycles of the process, seeded
    /// from `seed` (one splitmix64 stream per schedule). Sorted ascending
    /// by construction.
    pub fn schedule(&self, n: usize, seed: u64) -> Vec<u64> {
        let mut rng = Rng::new(seed);
        let mut out = Vec::with_capacity(n);
        let mut t = 0.0f64; // modelled seconds
        match *self {
            ArrivalProcess::Poisson { rate_rps } => {
                for _ in 0..n {
                    t += exponential(&mut rng, rate_rps);
                    out.push(to_cycles(t));
                }
            }
            ArrivalProcess::Bursty { rate_rps, burst } => {
                // Bursts of `burst` arrive together; gaps are exponential
                // with mean `burst / rate`, preserving the long-run rate.
                let gap_rate = rate_rps / burst as f64;
                while out.len() < n {
                    t += exponential(&mut rng, gap_rate);
                    let take = ((n - out.len()) as u64).min(burst) as usize;
                    out.extend(std::iter::repeat_n(to_cycles(t), take));
                }
            }
            ArrivalProcess::Diurnal { rate_rps, amplitude } => {
                // Lewis–Shedler thinning against the peak rate.
                let peak = rate_rps * (1.0 + amplitude);
                while out.len() < n {
                    t += exponential(&mut rng, peak);
                    let phase = (t / DIURNAL_PERIOD_S) * std::f64::consts::TAU;
                    let lambda = rate_rps * (1.0 + amplitude * phase.sin());
                    // Past the edge of `f64` (`t` or the peak rate infinite)
                    // the thinning ratio is NaN or 0: take every candidate,
                    // so the schedule still ends.
                    if !(t.is_finite() && peak.is_finite()) || uniform(&mut rng) < lambda / peak {
                        out.push(to_cycles(t));
                    }
                }
            }
        }
        out
    }
}

/// Uniform in `(0, 1]` from the top 53 bits of a splitmix64 draw.
fn uniform(rng: &mut Rng) -> f64 {
    (((rng.next_u64() >> 11) + 1) as f64) / ((1u64 << 53) as f64)
}

/// Exponential interarrival with mean `1/rate` seconds.
fn exponential(rng: &mut Rng, rate: f64) -> f64 {
    -uniform(rng).ln() / rate
}

fn to_cycles(seconds: f64) -> u64 {
    (seconds * CLOCK_HZ as f64) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parse_round_trips_every_shape() {
        for spec in ["poisson:500", "bursty:250:32", "diurnal:100:0.5"] {
            let p = ArrivalProcess::parse(spec).unwrap();
            assert_eq!(ArrivalProcess::parse(&p.spec()).unwrap(), p);
        }
        assert_eq!(
            ArrivalProcess::parse("bursty:100").unwrap(),
            ArrivalProcess::Bursty { rate_rps: 100.0, burst: DEFAULT_BURST }
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "",
            "poisson",
            "poisson:0",
            "poisson:-5",
            "poisson:x",
            "weibull:3",
            "poisson:5:9",
            "diurnal:10:2",
            "bursty:10:0",
            "poisson:1:2:3",
        ] {
            assert!(ArrivalProcess::parse(bad).is_err(), "{bad} should not parse");
        }
    }

    #[test]
    fn schedules_are_deterministic_sorted_and_seed_sensitive() {
        for spec in ["poisson:1000", "bursty:1000:8", "diurnal:1000:0.8"] {
            let p = ArrivalProcess::parse(spec).unwrap();
            let a = p.schedule(512, 42);
            let b = p.schedule(512, 42);
            let c = p.schedule(512, 43);
            assert_eq!(a, b, "{spec} must be deterministic");
            assert_ne!(a, c, "{spec} must vary with the seed");
            assert!(a.windows(2).all(|w| w[0] <= w[1]), "{spec} must be sorted");
            assert_eq!(a.len(), 512);
        }
    }

    #[test]
    fn poisson_mean_rate_is_roughly_honoured() {
        let p = ArrivalProcess::Poisson { rate_rps: 1000.0 };
        let sched = p.schedule(4000, 7);
        let span_s = *sched.last().unwrap() as f64 / CLOCK_HZ as f64;
        let rate = 4000.0 / span_s;
        assert!((700.0..1300.0).contains(&rate), "empirical rate {rate} too far from 1000");
    }

    #[test]
    fn every_shape_yields_exactly_n_sorted_arrivals() {
        const BURST: usize = 8;
        for spec in ["poisson:1000", "bursty:1000:8", "diurnal:1000:0.8"] {
            let p = ArrivalProcess::parse(spec).unwrap();
            for n in [0, 1, BURST, BURST + 1] {
                let sched = p.schedule(n, 42);
                assert_eq!(sched.len(), n, "{spec} with n = {n}");
                assert!(sched.windows(2).all(|w| w[0] <= w[1]), "{spec} with n = {n}");
            }
        }
    }

    #[test]
    fn bursty_schedules_arrive_in_bursts() {
        let p = ArrivalProcess::Bursty { rate_rps: 1000.0, burst: 8 };
        let sched = p.schedule(64, 9);
        // Every burst shares one cycle stamp: 64 arrivals, 8 distinct stamps.
        let mut stamps = sched.clone();
        stamps.dedup();
        assert_eq!(stamps.len(), 8);
    }

    /// Spec-shaped strings: a shape (or junk), a rate drawn across the whole
    /// `f64` exponent range, and an optional third field.
    fn spec_strategy() -> impl Strategy<Value = String> {
        const SHAPES: [&str; 5] = ["poisson", "bursty", "diurnal", "", "weibull"];
        const EXTRAS: [&str; 9] =
            ["", ":8", ":1", ":0", ":0.5", ":1.5", ":x", ":1:2", ":18446744073709551615"];
        (0usize..SHAPES.len(), any::<u64>(), -330i32..320, 0usize..EXTRAS.len(), any::<bool>())
            .prop_map(|(shape, mantissa, exp, extra, sep)| {
                let sep = if sep { ":" } else { "," };
                format!("{}{sep}{}e{exp}{}", SHAPES[shape], mantissa % 100_000, EXTRAS[extra])
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// Arbitrary text returns `Ok` or `Err` from the parser, never a panic.
        #[test]
        fn parse_never_panics_on_junk(junk in prop::collection::vec(any::<u8>(), 0..40)) {
            let _ = ArrivalProcess::parse(&String::from_utf8_lossy(&junk));
        }

        /// Every spec that parses yields exactly `n` sorted arrivals, even at
        /// rates at the edges of `f64`.
        #[test]
        fn parsed_specs_schedule_exactly_n_sorted_arrivals(
            spec in spec_strategy(),
            n in 0usize..=64,
            seed in any::<u64>(),
        ) {
            if let Ok(p) = ArrivalProcess::parse(&spec) {
                let sched = p.schedule(n, seed);
                prop_assert_eq!(sched.len(), n);
                prop_assert!(sched.windows(2).all(|w| w[0] <= w[1]), "{spec}: {sched:?}");
            }
        }
    }
}
