//! Seeded generation of diverse fault schedules for chaos suites.

use crate::plan::{splitmix64, FaultKind, FaultPlan, Trigger};
use crate::sites;

/// A tiny deterministic stream over SplitMix64.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }

    /// Uniform in `[0, n)`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Bursts in a flapping journal's train (see [`randomized_plan`]).
const FLAP_BURSTS: u64 = 64;

/// Generates a randomized — but fully seed-determined — fault plan
/// over the standard injection sites ([`sites::ALL`]).
///
/// Each site is included with probability ~0.7 and receives one rule
/// with a trigger drawn from `EveryNth`, `Window`, or `Prob`, and a
/// fault kind appropriate to the site (arrival faults draw from
/// drop/duplicate/reorder; journal I/O from io/torn; the index and
/// mix-zone from unavailability). Calling this for seeds `0..n` yields
/// `n` diverse schedules whose firing patterns replay identically on
/// every run.
///
/// About half the plans also give the journal a **flapping** sink: a
/// train of [`FLAP_BURSTS`] failure windows of 2–7 hits, 1–4 hits
/// apart. A burst that short fails at most three writes in a row under
/// the default retry policy (two attempts each, read-only at the
/// fourth), so the server climbs into Degraded, backs off, and recovers
/// again and again instead of going read-only: the Degraded gate then
/// judges the at-risk clamps and exact forwards that a single window
/// or probability never holds it there long enough to meet. The train
/// is drawn from a stream of its own, so every other rule is the one
/// older releases drew for the seed.
pub fn randomized_plan(seed: u64) -> FaultPlan {
    let mut s = Stream(splitmix64(seed ^ 0xC0FF_EE00_DEAD_BEEF));
    let mut plan = FaultPlan::new(seed);
    for site in sites::ALL {
        if s.unit() > 0.7 {
            continue;
        }
        let kind = match site {
            sites::PHL_WRITE => [FaultKind::Drop, FaultKind::Io][s.below(2) as usize],
            sites::JOURNAL_IO | sites::SNAPSHOT_WRITE | sites::JOURNAL_TRUNCATE => {
                [FaultKind::Io, FaultKind::Torn][s.below(2) as usize]
            }
            sites::SNAPSHOT_RENAME | sites::CHECKPOINT_APPEND => FaultKind::Io,
            sites::ARRIVAL => {
                [FaultKind::Drop, FaultKind::Duplicate, FaultKind::Reorder][s.below(3) as usize]
            }
            sites::GATEWAY_ACCEPT => [FaultKind::Drop, FaultKind::Io][s.below(2) as usize],
            sites::CONN_READ => [FaultKind::Io, FaultKind::Drop][s.below(2) as usize],
            sites::CONN_FRAME => [FaultKind::Torn, FaultKind::Drop][s.below(2) as usize],
            sites::CONN_WRITE => {
                [FaultKind::Io, FaultKind::Torn, FaultKind::Drop][s.below(3) as usize]
            }
            _ => FaultKind::Unavailable,
        };
        let trigger = match s.below(3) {
            0 => Trigger::EveryNth(2 + s.below(40)),
            1 => {
                let from = s.below(200);
                Trigger::Window {
                    from,
                    to: from + 1 + s.below(30),
                }
            }
            _ => Trigger::Prob(0.02 + 0.2 * s.unit()),
        };
        plan.push_rule(site, trigger, kind);
    }
    for (trigger, kind) in flapping_journal(seed) {
        plan.push_rule(sites::JOURNAL_IO, trigger, kind);
    }
    plan
}

/// The journal-I/O bursts [`randomized_plan`] appends for `seed`: none
/// for about half the seeds, else [`FLAP_BURSTS`] windows of 2–7 hits
/// with 1–4 clean hits between them.
fn flapping_journal(seed: u64) -> Vec<(Trigger, FaultKind)> {
    let mut s = Stream(splitmix64(seed ^ 0x0F1A_9B0A_7D15_C0DE));
    if s.unit() >= 0.5 {
        return Vec::new();
    }
    let mut from = s.below(50);
    (0..FLAP_BURSTS)
        .map(|_| {
            let to = from + 2 + s.below(6);
            let kind = [FaultKind::Io, FaultKind::Torn][s.below(2) as usize];
            let burst = (Trigger::Window { from, to }, kind);
            from = to + 1 + s.below(4);
            burst
        })
        .collect()
}

/// Like [`randomized_plan`], but restricted to **request-path** sites —
/// [`sites::JOURNAL_IO`] is excluded — for chaos-under-tail suites that
/// assert a live audit tail reports *zero* violations.
///
/// The exclusion is deliberate, not a coverage gap: journal I/O faults
/// can drop a `ts.mode_changed` record during a backoff window, after
/// which a later journaled transition's `from` genuinely disagrees with
/// the mode the journal last established — a real `ModeLadderGap` that
/// the offline audit reports too. Under these plans the journal write
/// path is fault-free, so any violation the tail reports is a false
/// positive by construction. Journal-fault schedules are still covered
/// by the tail suites, but with the weaker (and correct) assertion that
/// the tail's final report is byte-identical to the offline audit.
pub fn tail_chaos_plan(seed: u64) -> FaultPlan {
    let mut plan = randomized_plan(seed);
    plan.retain_sites(|site| site != sites::JOURNAL_IO && !sites::CHECKPOINT_PATH.contains(&site));
    plan
}

/// A seeded plan restricted to the **checkpoint-path** sites
/// ([`sites::CHECKPOINT_PATH`]): snapshot write, snapshot rename,
/// anchor append, and prefix truncation.
///
/// Checkpoint attempts are rare (one per cadence of journal growth),
/// so unlike [`randomized_plan`] the triggers here are aggressive —
/// every hit or every other hit, or a coin-flip probability — and the
/// plan always contains at least one rule. Crash/recover drills sweep
/// seeds over this generator to hit every stage of the write protocol.
pub fn checkpoint_chaos_plan(seed: u64) -> FaultPlan {
    let mut s = Stream(splitmix64(seed ^ 0x5EED_CAFE_F00D_D00D));
    let mut plan = FaultPlan::new(seed);
    let forced = s.below(sites::CHECKPOINT_PATH.len() as u64) as usize;
    for (i, site) in sites::CHECKPOINT_PATH.into_iter().enumerate() {
        if i != forced && s.unit() > 0.5 {
            continue;
        }
        let kind = match site {
            sites::SNAPSHOT_WRITE | sites::JOURNAL_TRUNCATE => {
                [FaultKind::Io, FaultKind::Torn][s.below(2) as usize]
            }
            _ => FaultKind::Io,
        };
        let trigger = match s.below(3) {
            0 => Trigger::EveryNth(1 + s.below(2)),
            1 => Trigger::Window {
                from: 0,
                to: 1 + s.below(3),
            },
            _ => Trigger::Prob(0.5 + 0.4 * s.unit()),
        };
        plan.push_rule(site, trigger, kind);
    }
    plan
}

/// A seeded plan restricted to the **network-frontend** sites
/// ([`sites::GATEWAY`]): listener accepts, connection reads, frame
/// decode, and response writes.
///
/// Like [`checkpoint_chaos_plan`] the triggers are aggressive — every
/// connection handles only a handful of frames, so a timid schedule
/// would never fire — and the plan always contains at least one rule.
/// Gateway chaos drills sweep seeds over this generator and assert the
/// fail-closed contract: whatever the network loses or tears, the
/// journal never records a forward the intact traffic didn't earn.
pub fn gateway_chaos_plan(seed: u64) -> FaultPlan {
    let mut s = Stream(splitmix64(seed ^ 0x006A_7EBA_D0CA_B1E5));
    let mut plan = FaultPlan::new(seed);
    let forced = s.below(sites::GATEWAY.len() as u64) as usize;
    for (i, site) in sites::GATEWAY.into_iter().enumerate() {
        if i != forced && s.unit() > 0.6 {
            continue;
        }
        let kind = match site {
            sites::GATEWAY_ACCEPT => [FaultKind::Drop, FaultKind::Io][s.below(2) as usize],
            sites::CONN_READ => [FaultKind::Io, FaultKind::Drop][s.below(2) as usize],
            sites::CONN_FRAME => [FaultKind::Torn, FaultKind::Drop][s.below(2) as usize],
            _ => [FaultKind::Io, FaultKind::Torn, FaultKind::Drop][s.below(3) as usize],
        };
        let trigger = match s.below(3) {
            0 => Trigger::EveryNth(2 + s.below(6)),
            1 => {
                let from = s.below(8);
                Trigger::Window {
                    from,
                    to: from + 2 + s.below(10),
                }
            }
            _ => Trigger::Prob(0.1 + 0.4 * s.unit()),
        };
        plan.push_rule(site, trigger, kind);
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_per_seed() {
        for seed in 0..16 {
            assert_eq!(randomized_plan(seed), randomized_plan(seed));
        }
        assert_ne!(randomized_plan(1).rules(), randomized_plan(2).rules());
    }

    /// The rules `randomized_plan` drew per site, without the flapping
    /// journal's bursts that follow them.
    fn drawn_rules(seed: u64) -> Vec<crate::plan::FaultRule> {
        let mut rules = randomized_plan(seed).rules().to_vec();
        rules.truncate(rules.len() - flapping_journal(seed).len());
        rules
    }

    #[test]
    fn seed_sweep_covers_every_site_and_stays_bounded() {
        let mut sites_seen = std::collections::BTreeSet::new();
        for seed in 0..64 {
            let drawn = drawn_rules(seed);
            assert!(drawn.len() <= sites::ALL.len());
            for rule in &drawn {
                assert!(sites::ALL.contains(&rule.site.as_str()));
                sites_seen.insert(rule.site.clone());
                if let Trigger::Prob(p) = rule.trigger {
                    assert!((0.0..=0.25).contains(&p));
                }
            }
        }
        assert_eq!(
            sites_seen.len(),
            sites::ALL.len(),
            "64 seeds must exercise every site"
        );
    }

    /// A flapping journal's bursts follow the drawn rules and are 2–7
    /// hits each, in order, with at least one clean hit between two of
    /// them, so no burst fails a fourth write in a row. About half the
    /// seeds flap.
    #[test]
    fn a_flapping_journal_recovers_between_bursts() {
        let mut flapping = 0;
        for seed in 0..64 {
            let rules = randomized_plan(seed).rules().to_vec();
            let drawn = drawn_rules(seed);
            assert_eq!(rules[..drawn.len()], drawn[..]);
            let train = &rules[drawn.len()..];
            assert!(train.is_empty() || train.len() == FLAP_BURSTS as usize);
            flapping += usize::from(!train.is_empty());
            let mut clean_from = 0;
            for rule in train {
                assert_eq!(rule.site, sites::JOURNAL_IO);
                let Trigger::Window { from, to } = rule.trigger else {
                    panic!("seed {seed}: a burst is a window, not {:?}", rule.trigger);
                };
                assert!((2..=7).contains(&(to - from)), "seed {seed}: {from}..{to}");
                assert!(from >= clean_from, "seed {seed}: bursts overlap at {from}");
                clean_from = to + 1;
            }
        }
        assert!((16..=48).contains(&flapping), "{flapping} of 64 seeds flap");
    }

    #[test]
    fn tail_plans_never_touch_journal_io() {
        let mut request_sites = std::collections::BTreeSet::new();
        for seed in 0..64 {
            let plan = tail_chaos_plan(seed);
            for rule in plan.rules() {
                assert_ne!(rule.site.as_str(), sites::JOURNAL_IO);
                request_sites.insert(rule.site.clone());
            }
            // Deterministic, and a strict restriction of the full plan.
            assert_eq!(plan, tail_chaos_plan(seed));
            let full = randomized_plan(seed);
            assert!(plan.rules().len() <= full.rules().len());
        }
        assert_eq!(
            request_sites.len(),
            sites::ALL.len() - 1 - sites::CHECKPOINT_PATH.len(),
            "64 seeds must exercise every request-path site"
        );
    }

    #[test]
    fn checkpoint_plans_are_aggressive_and_cover_the_whole_path() {
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..64 {
            let plan = checkpoint_chaos_plan(seed);
            assert_eq!(plan, checkpoint_chaos_plan(seed));
            assert!(
                !plan.rules().is_empty(),
                "drill plans always fault something"
            );
            for rule in plan.rules() {
                assert!(sites::CHECKPOINT_PATH.contains(&rule.site.as_str()));
                seen.insert(rule.site.clone());
                match rule.site.as_str() {
                    sites::SNAPSHOT_WRITE | sites::JOURNAL_TRUNCATE => {
                        assert!(matches!(rule.kind, FaultKind::Io | FaultKind::Torn))
                    }
                    _ => assert_eq!(rule.kind, FaultKind::Io),
                }
                match rule.trigger {
                    Trigger::EveryNth(n) => assert!((1..=2).contains(&n)),
                    Trigger::Window { from, to } => {
                        assert_eq!(from, 0);
                        assert!(to >= 1);
                    }
                    Trigger::Prob(p) => assert!((0.5..=0.9).contains(&p)),
                    other => panic!("unexpected drill trigger {other:?}"),
                }
            }
        }
        assert_eq!(
            seen.len(),
            sites::CHECKPOINT_PATH.len(),
            "64 seeds must exercise every checkpoint-path site"
        );
    }

    #[test]
    fn kinds_match_their_sites() {
        for seed in 0..64 {
            for rule in randomized_plan(seed).rules().iter() {
                match rule.site.as_str() {
                    sites::PHL_WRITE => {
                        assert!(matches!(rule.kind, FaultKind::Drop | FaultKind::Io))
                    }
                    sites::JOURNAL_IO | sites::SNAPSHOT_WRITE | sites::JOURNAL_TRUNCATE => {
                        assert!(matches!(rule.kind, FaultKind::Io | FaultKind::Torn))
                    }
                    sites::SNAPSHOT_RENAME | sites::CHECKPOINT_APPEND => {
                        assert_eq!(rule.kind, FaultKind::Io)
                    }
                    sites::ARRIVAL => assert!(matches!(
                        rule.kind,
                        FaultKind::Drop | FaultKind::Duplicate | FaultKind::Reorder
                    )),
                    sites::GATEWAY_ACCEPT | sites::CONN_READ => {
                        assert!(matches!(rule.kind, FaultKind::Drop | FaultKind::Io))
                    }
                    sites::CONN_FRAME => {
                        assert!(matches!(rule.kind, FaultKind::Torn | FaultKind::Drop))
                    }
                    sites::CONN_WRITE => assert!(matches!(
                        rule.kind,
                        FaultKind::Io | FaultKind::Torn | FaultKind::Drop
                    )),
                    _ => assert_eq!(rule.kind, FaultKind::Unavailable),
                }
            }
        }
    }

    #[test]
    fn gateway_plans_are_aggressive_and_cover_the_frontend() {
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..64 {
            let plan = gateway_chaos_plan(seed);
            assert_eq!(plan, gateway_chaos_plan(seed), "seed-determined");
            assert!(
                !plan.rules().is_empty(),
                "drill plans always fault something"
            );
            for rule in plan.rules() {
                assert!(sites::GATEWAY.contains(&rule.site.as_str()));
                seen.insert(rule.site.clone());
                match rule.trigger {
                    Trigger::EveryNth(n) => assert!((2..=7).contains(&n)),
                    Trigger::Window { from, to } => assert!(to > from),
                    Trigger::Prob(p) => assert!((0.1..=0.5).contains(&p)),
                    other => panic!("unexpected drill trigger {other:?}"),
                }
            }
        }
        assert_eq!(
            seen.len(),
            sites::GATEWAY.len(),
            "64 seeds must exercise every gateway site"
        );
    }
}
