//! Call-site handle caches: `counter!` / `span!` resolve their metric in
//! the global registry once per site, and the cached handle stays the
//! registry's own entry across `reset`. These tests reset the global
//! registry, so they live in a test binary of their own.

use hka_obs::{global, Counter};

fn one_site() -> &'static Counter {
    hka_obs::counter!("obs.test.one_site")
}

#[test]
fn one_site_hands_out_one_object() {
    assert!(std::ptr::eq(one_site(), one_site()));
}

#[test]
fn two_sites_naming_one_metric_share_its_registry_entry() {
    let a = hka_obs::counter!("obs.test.shared");
    let b = hka_obs::counter!("obs.test.shared");
    assert!(std::ptr::eq(a, b));
    assert!(std::ptr::eq(a, global().counter("obs.test.shared")));
    let h = hka_obs::histogram!("obs.test.shared_hist");
    assert!(std::ptr::eq(h, global().histogram("obs.test.shared_hist")));
}

#[test]
fn cached_handles_survive_a_reset() {
    fn count() -> &'static Counter {
        hka_obs::counter!("obs.test.reset")
    }
    fn timed() {
        let _span = hka_obs::span!("obs.test.reset_span");
    }
    count().add(5);
    timed();
    global().reset();
    let snap = global().snapshot();
    assert_eq!(snap.counter("obs.test.reset"), 0);
    assert_eq!(snap.histogram("obs.test.reset_span").unwrap().count, 0);
    // The handles cached before the reset still record into what the
    // registry reports.
    count().incr();
    timed();
    let snap = global().snapshot();
    assert_eq!(snap.counter("obs.test.reset"), 1);
    assert_eq!(snap.histogram("obs.test.reset_span").unwrap().count, 1);
}
