//! Seeded chaos schedules: deterministic multi-fault injection.
//!
//! §2 of the paper: *"An important characteristic of the AMPC model is
//! that it is amenable to fault tolerant implementation … A fault
//! tolerant implementation of AMPC can be derived by observing that each
//! DHT can be made fault-tolerant."* The simplest fault is one machine
//! preempted during one stage — `ChaosSpec::new(seed).with_kill(stage,
//! machine)`. Production conditions — the low-priority batch tier of
//! the paper's §5.1 serving environment — are messier: several machines
//! die in the same round, the same machine dies repeatedly, a whole
//! rack stripe fails together, and DHT request batches time out and are
//! re-sent. A [`ChaosSpec`] describes any such schedule, either as
//! explicit kill lists or as seeded random generation, and a
//! [`FaultSchedule`] materializes it for one job. Everything is a pure function of the
//! spec: no wall clock, no ambient randomness (DESIGN.md §3), so the
//! same spec replays the same faults in the same order on every run.
//!
//! Recovery is the §2 argument made executable: rounds read only
//! *sealed* (immutable) DHT generations, so a killed machine's
//! partition is replayed against the same inputs and produces the same
//! outputs; replayed writes re-resolve duplicate keys by lowest machine
//! id, so the sealed result is byte-identical too. For the
//! batch-dynamic `dyn-cc` pipeline, epoch kills ([`ChaosSpec::with_epoch_kill`])
//! fire at the first KV round of their epoch — mid-epoch, after the
//! previous batch's generation sealed — and recovery replays the
//! affected partition against that last sealed generation. The full
//! grammar, charging rules and determinism argument are in DESIGN.md
//! §10.

use ampc_dht::fault::DropPlan;

/// Maximum number of explicit kill events per list (`kill=` and
/// `ekill=` each): the spec stays `Copy` (it rides inside
/// [`crate::AmpcConfig`], which jobs take by value), so the lists are
/// fixed-capacity arrays. Eight planned kills per list is far beyond
/// any test schedule; seeded generation covers unbounded schedules.
pub const MAX_EXPLICIT_KILLS: usize = 8;

/// Default retry cap for dropped DHT batches: after this many
/// consecutive drops of one batch, the next attempt always succeeds.
pub const DEFAULT_RETRY_CAP: u8 = 4;

/// Upper bound accepted for `retries=` in the spec grammar: the
/// exponential backoff of a batch that dropped `k` times contributes
/// `2^k − 1` backoff units, so the cap keeps charged time bounded.
pub const MAX_RETRY_CAP: u8 = 16;

/// SplitMix64 finalizer — the seeded mixer behind every chaos decision.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One seeded roll in `0..1000` (per-mille), keyed by a salt and two
/// coordinates (stage/machine, stage/group, …).
#[inline]
fn roll_pm(seed: u64, salt: u64, a: u64, b: u64) -> u64 {
    mix64(seed ^ salt ^ mix64(a ^ mix64(b))) % 1000
}

const KILL_SALT: u64 = 0x4B49_4C4C; // "KILL"
const PROGRESS_SALT: u64 = 0x5052_4F47; // "PROG"
const DROP_SALT: u64 = 0x4452_4F50; // "DROP"

/// A chaos schedule: which machines die when, and how lossy the DHT is.
///
/// Constructed from the `AMPC_CHAOS` / `--chaos` spec grammar
/// ([`ChaosSpec::parse`], DESIGN.md §10) or programmatically via the
/// builders. `parse ∘ describe = id`: [`ChaosSpec::describe`] renders
/// the canonical spec string (defaults omitted, segments in canonical
/// order) and parsing it back yields an equal spec.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaosSpec {
    /// Seed for every seeded decision (kills, wasted-progress
    /// fractions, batch drops).
    pub seed: u64,
    /// Seeded preemption probability per `(stage, machine)` — or per
    /// `(stage, stripe group)` when [`Self::stripe`] is set — in
    /// per-mille (`0..=1000`). `0` disables seeded kills.
    pub rate_pm: u16,
    /// Per-attempt DHT batch drop probability in per-mille
    /// (`0..=1000`). `0` disables the DHT fault mode.
    pub drop_pm: u16,
    /// Retry cap for dropped batches (`0..=`[`MAX_RETRY_CAP`]).
    pub retries: u8,
    /// Correlated-failure stripe width: when `> 1`, seeded kill
    /// decisions are made per group `g = machine % stripe`, and a
    /// firing group kills **every** machine in that stripe together
    /// (the rack-failure pattern). `0` or `1` means independent
    /// per-machine decisions.
    pub stripe: u16,
    kills: [(u32, u32); MAX_EXPLICIT_KILLS],
    n_kills: u8,
    ekills: [(u32, u32); MAX_EXPLICIT_KILLS],
    n_ekills: u8,
}

impl ChaosSpec {
    /// An empty schedule seeded with `seed`: no kills, no drops, until
    /// builders add them. Useful as the programmatic starting point.
    pub fn new(seed: u64) -> Self {
        ChaosSpec {
            seed,
            rate_pm: 0,
            drop_pm: 0,
            retries: DEFAULT_RETRY_CAP,
            stripe: 0,
            kills: [(0, 0); MAX_EXPLICIT_KILLS],
            n_kills: 0,
            ekills: [(0, 0); MAX_EXPLICIT_KILLS],
            n_ekills: 0,
        }
    }

    /// The default *seeded random* schedule for a bare-integer
    /// `AMPC_CHAOS=<seed>`: a 6% per-(stage, machine) preemption rate
    /// and a 4% per-attempt batch drop rate — enough to exercise every
    /// kernel family without drowning the run in replays.
    pub fn seeded(seed: u64) -> Self {
        ChaosSpec {
            rate_pm: 60,
            drop_pm: 40,
            ..ChaosSpec::new(seed)
        }
    }

    /// Sets the seeded per-(stage, machine) kill rate in per-mille.
    ///
    /// # Panics
    /// Panics if `rate_pm > 1000`.
    pub fn with_rate(mut self, rate_pm: u16) -> Self {
        assert!(rate_pm <= 1000, "rate is per-mille (0..=1000)");
        self.rate_pm = rate_pm;
        self
    }

    /// Sets the per-attempt DHT batch drop rate in per-mille.
    ///
    /// # Panics
    /// Panics if `drop_pm > 1000`.
    pub fn with_drop(mut self, drop_pm: u16) -> Self {
        assert!(drop_pm <= 1000, "drop is per-mille (0..=1000)");
        self.drop_pm = drop_pm;
        self
    }

    /// Sets the retry cap for dropped batches.
    ///
    /// # Panics
    /// Panics if `retries > `[`MAX_RETRY_CAP`].
    pub fn with_retries(mut self, retries: u8) -> Self {
        assert!(retries <= MAX_RETRY_CAP, "retry cap is 0..={MAX_RETRY_CAP}");
        self.retries = retries;
        self
    }

    /// Sets the correlated-failure stripe width.
    pub fn with_stripe(mut self, stripe: u16) -> Self {
        self.stripe = stripe;
        self
    }

    /// Adds an explicit kill: preempt `machine` (modulo the machine
    /// count at execution time) during global stage `stage`. The same
    /// `(stage, machine)` pair may be added repeatedly — each
    /// occurrence is a separate preemption and a separate replay.
    ///
    /// # Panics
    /// Panics past [`MAX_EXPLICIT_KILLS`] events.
    pub fn with_kill(mut self, stage: u32, machine: u32) -> Self {
        let n = self.n_kills as usize;
        assert!(
            n < MAX_EXPLICIT_KILLS,
            "at most {MAX_EXPLICIT_KILLS} kill events"
        );
        self.kills[n] = (stage, machine);
        self.n_kills += 1;
        self
    }

    /// Adds an explicit epoch kill: preempt `machine` at the **first KV
    /// round** of epoch `epoch` (0-based, in [`crate::Job::epoch`]
    /// order) — a mid-epoch crash for the batch-dynamic kernels, recovered
    /// by replaying against the last sealed generation.
    ///
    /// # Panics
    /// Panics past [`MAX_EXPLICIT_KILLS`] events.
    pub fn with_epoch_kill(mut self, epoch: u32, machine: u32) -> Self {
        let n = self.n_ekills as usize;
        assert!(
            n < MAX_EXPLICIT_KILLS,
            "at most {MAX_EXPLICIT_KILLS} ekill events"
        );
        self.ekills[n] = (epoch, machine);
        self.n_ekills += 1;
        self
    }

    /// The explicit `(stage, machine)` kill events, in insertion order.
    pub fn kills(&self) -> &[(u32, u32)] {
        &self.kills[..self.n_kills as usize]
    }

    /// The explicit `(epoch, machine)` kill events, in insertion order.
    pub fn epoch_kills(&self) -> &[(u32, u32)] {
        &self.ekills[..self.n_ekills as usize]
    }

    /// Parses a chaos spec (the `AMPC_CHAOS` / `--chaos` grammar,
    /// DESIGN.md §10):
    ///
    /// ```text
    /// chaos:seed=S[:rate=R][:drop=D][:retries=C][:stripe=K]
    ///      [:kill=a.b+c.d+…][:ekill=e.m+…]
    /// ```
    ///
    /// or a bare unsigned integer, shorthand for the default seeded
    /// random schedule [`ChaosSpec::seeded`]. Segment order is free on
    /// input; duplicate keys, unknown keys, out-of-range values and
    /// overlong kill lists are errors. [`Self::describe`] renders the
    /// canonical form and `parse(describe(s)) == s` for every spec.
    pub fn parse(spec: &str) -> Result<ChaosSpec, String> {
        if let Ok(seed) = spec.trim().parse::<u64>() {
            return Ok(ChaosSpec::seeded(seed));
        }
        let rest = spec.strip_prefix("chaos:").ok_or_else(|| {
            format!("chaos spec must start with `chaos:` or be a bare seed: {spec:?}")
        })?;
        let mut out = ChaosSpec::new(0);
        let mut seen: Vec<&str> = Vec::new();
        for seg in rest.split(':') {
            let (key, value) = seg
                .split_once('=')
                .ok_or_else(|| format!("chaos spec segment {seg:?} is not key=value"))?;
            if seen.contains(&key) {
                return Err(format!("duplicate chaos spec key {key:?}"));
            }
            seen.push(key);
            let num = |what: &str, v: &str| -> Result<u64, String> {
                v.parse::<u64>()
                    .map_err(|_| format!("chaos spec {what}={v:?} is not an unsigned integer"))
            };
            let pm = |what: &str, v: &str| -> Result<u16, String> {
                let n = num(what, v)?;
                if n > 1000 {
                    return Err(format!("chaos spec {what}={n} exceeds 1000 (per-mille)"));
                }
                Ok(n as u16)
            };
            match key {
                "seed" => out.seed = num("seed", value)?,
                "rate" => out.rate_pm = pm("rate", value)?,
                "drop" => out.drop_pm = pm("drop", value)?,
                "retries" => {
                    let n = num("retries", value)?;
                    if n > u64::from(MAX_RETRY_CAP) {
                        return Err(format!("chaos spec retries={n} exceeds {MAX_RETRY_CAP}"));
                    }
                    out.retries = n as u8;
                }
                "stripe" => {
                    let n = num("stripe", value)?;
                    if n > u64::from(u16::MAX) {
                        return Err(format!("chaos spec stripe={n} is out of range"));
                    }
                    out.stripe = n as u16;
                }
                "kill" | "ekill" => {
                    for pair in value.split('+') {
                        let (a, b) = pair.split_once('.').ok_or_else(|| {
                            format!("chaos spec {key} pair {pair:?} is not <at>.<machine>")
                        })?;
                        let at = num(key, a)?;
                        let machine = num(key, b)?;
                        if at > u64::from(u32::MAX) || machine > u64::from(u32::MAX) {
                            return Err(format!("chaos spec {key} pair {pair:?} is out of range"));
                        }
                        out = if key == "kill" {
                            if out.n_kills as usize == MAX_EXPLICIT_KILLS {
                                return Err(format!(
                                    "chaos spec kill list exceeds {MAX_EXPLICIT_KILLS} events"
                                ));
                            }
                            out.with_kill(at as u32, machine as u32)
                        } else {
                            if out.n_ekills as usize == MAX_EXPLICIT_KILLS {
                                return Err(format!(
                                    "chaos spec ekill list exceeds {MAX_EXPLICIT_KILLS} events"
                                ));
                            }
                            out.with_epoch_kill(at as u32, machine as u32)
                        };
                    }
                }
                _ => return Err(format!("unknown chaos spec key {key:?}")),
            }
        }
        Ok(out)
    }

    /// Renders the canonical spec string: `seed=` always, every other
    /// segment only when it differs from its default, in the fixed
    /// order `rate`, `drop`, `retries`, `stripe`, `kill`, `ekill`.
    /// Inverse of [`Self::parse`] (`parse ∘ describe = id`).
    pub fn describe(&self) -> String {
        use std::fmt::Write;
        let mut out = format!("chaos:seed={}", self.seed);
        if self.rate_pm != 0 {
            let _ = write!(out, ":rate={}", self.rate_pm);
        }
        if self.drop_pm != 0 {
            let _ = write!(out, ":drop={}", self.drop_pm);
        }
        if self.retries != DEFAULT_RETRY_CAP {
            let _ = write!(out, ":retries={}", self.retries);
        }
        if self.stripe != 0 {
            let _ = write!(out, ":stripe={}", self.stripe);
        }
        for (label, events) in [("kill", self.kills()), ("ekill", self.epoch_kills())] {
            if events.is_empty() {
                continue;
            }
            let pairs: Vec<String> = events.iter().map(|(a, m)| format!("{a}.{m}")).collect();
            let _ = write!(out, ":{label}={}", pairs.join("+"));
        }
        out
    }
}

/// A [`ChaosSpec`] materialized for one job: answers, per stage, who
/// dies, how much wasted progress each death charges, and how lossy the
/// DHT is. Stateless and `Copy` — every answer is a pure function of
/// the spec and the stage coordinates, which is what makes replay
/// deterministic.
#[derive(Clone, Copy, Debug)]
pub struct FaultSchedule {
    spec: ChaosSpec,
}

impl FaultSchedule {
    /// Materializes `spec`.
    pub fn new(spec: ChaosSpec) -> Self {
        FaultSchedule { spec }
    }

    /// The underlying spec.
    pub fn spec(&self) -> &ChaosSpec {
        &self.spec
    }

    /// The machines preempted during KV stage `stage`, **sorted
    /// ascending** (the documented deterministic replay order), with
    /// duplicates preserved (a machine listed twice is killed and
    /// replayed twice). `epoch_first_kv` is `Some(e)` when this stage
    /// is the first KV round of epoch `e` — the point where `ekill=`
    /// events fire. Machine indices wrap modulo `machines`.
    ///
    /// Per stage the victim count is bounded by the explicit events
    /// plus one seeded kill per machine, so replays can never loop
    /// unboundedly (the preemption analogue of the DHT retry cap).
    pub fn victims(
        &self,
        stage: usize,
        epoch_first_kv: Option<usize>,
        machines: usize,
    ) -> Vec<usize> {
        let mut v = Vec::new();
        if machines == 0 {
            return v;
        }
        for &(s, m) in self.spec.kills() {
            if s as usize == stage {
                v.push(m as usize % machines);
            }
        }
        if let Some(epoch) = epoch_first_kv {
            for &(e, m) in self.spec.epoch_kills() {
                if e as usize == epoch {
                    v.push(m as usize % machines);
                }
            }
        }
        let rate = u64::from(self.spec.rate_pm);
        if rate > 0 {
            if self.spec.stripe > 1 {
                // Correlated mode: one roll per stripe group; a firing
                // group takes its whole stripe down together.
                let groups = (self.spec.stripe as usize).min(machines);
                for g in 0..groups {
                    if roll_pm(self.spec.seed, KILL_SALT, stage as u64, g as u64) < rate {
                        v.extend((g..machines).step_by(groups));
                    }
                }
            } else {
                for m in 0..machines {
                    if roll_pm(self.spec.seed, KILL_SALT, stage as u64, m as u64) < rate {
                        v.push(m);
                    }
                }
            }
        }
        v.sort_unstable();
        v
    }

    /// The fraction of `machine`'s work completed before its preemption
    /// in `stage` — the wasted-attempt charge, in `[0, 1]`. Seeded, so
    /// the charge (and hence the simulated time) is deterministic.
    pub fn progress(&self, stage: usize, machine: usize) -> f64 {
        (roll_pm(self.spec.seed, PROGRESS_SALT, stage as u64, machine as u64) + 1) as f64 / 1000.0
    }

    /// The DHT drop plan for `stage`, or `None` when the DHT fault mode
    /// is off. The plan's seed is mixed with the stage index so each
    /// stage rolls fresh drops, while a replay of the same stage rolls
    /// the same ones.
    pub fn drop_plan(&self, stage: usize) -> Option<DropPlan> {
        if self.spec.drop_pm == 0 {
            return None;
        }
        Some(DropPlan {
            seed: mix64(self.spec.seed ^ DROP_SALT ^ stage as u64),
            drop_pm: self.spec.drop_pm,
            retry_cap: self.spec.retries,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_describe_round_trips() {
        let specs = [
            "chaos:seed=0",
            "chaos:seed=42",
            "chaos:seed=7:rate=150",
            "chaos:seed=7:drop=80",
            "chaos:seed=7:rate=60:drop=40",
            "chaos:seed=9:rate=100:drop=50:retries=2:stripe=4",
            "chaos:seed=1:kill=0.2",
            "chaos:seed=1:kill=0.2+0.2+3.1:ekill=1.0+2.3",
            "chaos:seed=1:retries=0",
        ];
        for s in specs {
            let parsed = ChaosSpec::parse(s).unwrap();
            assert_eq!(parsed.describe(), s, "describe must be canonical");
            assert_eq!(ChaosSpec::parse(&parsed.describe()).unwrap(), parsed);
        }
    }

    #[test]
    fn bare_seed_is_the_seeded_default() {
        let spec = ChaosSpec::parse("1234").unwrap();
        assert_eq!(spec, ChaosSpec::seeded(1234));
        assert!(spec.rate_pm > 0 && spec.drop_pm > 0);
        // The canonical form of the shorthand round-trips too.
        assert_eq!(ChaosSpec::parse(&spec.describe()).unwrap(), spec);
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "",
            "chaos",
            "chaos:",
            "chaos:seed",
            "chaos:seed=x",
            "chaos:seed=1:seed=2",
            "chaos:rate=1001",
            "chaos:drop=2000",
            "chaos:retries=17",
            "chaos:stripe=70000",
            "chaos:kill=1",
            "chaos:kill=1.x",
            "chaos:frobnicate=1",
            "mayhem:seed=1",
            "-5",
            "chaos:kill=0.0+0.0+0.0+0.0+0.0+0.0+0.0+0.0+0.0",
        ] {
            assert!(ChaosSpec::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn builders_match_grammar() {
        let built = ChaosSpec::new(9)
            .with_rate(100)
            .with_drop(50)
            .with_retries(2)
            .with_stripe(4)
            .with_kill(0, 2)
            .with_epoch_kill(1, 0);
        let parsed =
            ChaosSpec::parse("chaos:seed=9:rate=100:drop=50:retries=2:stripe=4:kill=0.2:ekill=1.0")
                .unwrap();
        assert_eq!(built, parsed);
    }

    #[test]
    fn victims_sorted_with_repeats_and_wraparound() {
        let spec = ChaosSpec::new(1)
            .with_kill(2, 3)
            .with_kill(2, 3)
            .with_kill(2, 5);
        let sched = FaultSchedule::new(spec);
        // machine 5 % 4 = 1; sorted ascending with the repeat preserved.
        assert_eq!(sched.victims(2, None, 4), vec![1, 3, 3]);
        assert!(sched.victims(0, None, 4).is_empty());
        assert!(sched.victims(2, None, 0).is_empty());
    }

    #[test]
    fn epoch_kills_fire_only_at_their_epochs_first_kv_round() {
        let spec = ChaosSpec::new(1).with_epoch_kill(1, 2);
        let sched = FaultSchedule::new(spec);
        assert!(sched.victims(5, None, 4).is_empty());
        assert!(sched.victims(5, Some(0), 4).is_empty());
        assert_eq!(sched.victims(5, Some(1), 4), vec![2]);
    }

    #[test]
    fn seeded_kills_are_deterministic_and_rate_sensitive() {
        let sched = FaultSchedule::new(ChaosSpec::new(77).with_rate(300));
        let all: Vec<Vec<usize>> = (0..32).map(|s| sched.victims(s, None, 8)).collect();
        assert_eq!(
            all,
            (0..32)
                .map(|s| sched.victims(s, None, 8))
                .collect::<Vec<_>>()
        );
        let total: usize = all.iter().map(Vec::len).sum();
        assert!(total > 0, "a 30% rate over 256 cells must kill someone");
        let none = FaultSchedule::new(ChaosSpec::new(77));
        assert!((0..32).all(|s| none.victims(s, None, 8).is_empty()));
    }

    #[test]
    fn stripe_kills_whole_groups() {
        let sched = FaultSchedule::new(ChaosSpec::new(5).with_rate(400).with_stripe(2));
        for stage in 0..16 {
            let v = sched.victims(stage, None, 8);
            // Victims arrive in whole stripes: all even or all odd
            // machines (or both, or none).
            for group in [0usize, 1] {
                let members: Vec<usize> = (group..8).step_by(2).collect();
                let hit = members.iter().filter(|m| v.contains(m)).count();
                assert!(
                    hit == 0 || hit == members.len(),
                    "stage {stage}: partial stripe {group} in {v:?}"
                );
            }
        }
    }

    #[test]
    fn progress_is_in_unit_interval() {
        let sched = FaultSchedule::new(ChaosSpec::new(3).with_rate(1000));
        for stage in 0..8 {
            for m in 0..8 {
                let p = sched.progress(stage, m);
                assert!((0.0..=1.0).contains(&p), "{p}");
            }
        }
    }

    #[test]
    fn drop_plan_varies_by_stage_but_not_by_run() {
        let sched = FaultSchedule::new(ChaosSpec::new(11).with_drop(200));
        let a = sched.drop_plan(0).unwrap();
        let b = sched.drop_plan(1).unwrap();
        assert_ne!(a.seed, b.seed, "stages roll independent drops");
        assert_eq!(sched.drop_plan(0).unwrap(), a);
        assert_eq!(a.retry_cap, DEFAULT_RETRY_CAP);
        assert!(FaultSchedule::new(ChaosSpec::new(11))
            .drop_plan(0)
            .is_none());
    }
}
