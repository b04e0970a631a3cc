//! Microbenchmark for the span hot paths: what one `hka_obs::span!`
//! costs with collection off, with collection on but no live context
//! (the guard only times), and fully recorded under a root; next to a
//! site-cached and a by-name counter, and a trace root on and off.
//! Run with:
//!
//! ```text
//! cargo run --release -p hka-obs --example trace_micro
//! ```

use std::time::Instant;

fn measure(label: &str, iters: u64, mut f: impl FnMut()) {
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    let ns = t0.elapsed().as_nanos() as f64 / iters as f64;
    println!("{label:<34} {ns:8.1} ns/op  ({iters} iters)");
}

fn main() {
    let iters = 1_000_000;
    let registry = hka_obs::global();

    hka_obs::trace::disable();
    hka_obs::trace::drain();
    measure("span!, tracing off", iters, || {
        let _s = hka_obs::span!("micro.off");
    });
    measure("counter!, incr", iters, || {
        hka_obs::counter!("micro.count").incr();
    });
    measure("counter by name, incr", iters, || {
        registry.counter("micro.count").incr();
    });

    hka_obs::trace::enable(1 << 20);
    measure("span!, enabled, no context", iters, || {
        let _s = hka_obs::span!("micro.inert");
    });

    let recorded = 200_000;
    let root = hka_obs::trace::root("micro.root");
    assert!(root.is_recording());
    measure("span!, enabled, recorded", recorded, || {
        let _s = hka_obs::span!("micro.rec");
    });
    drop(root);

    measure("trace root, enabled", recorded, || {
        let _r = hka_obs::trace::root("micro.root2");
    });

    hka_obs::trace::disable();
    let drained = hka_obs::trace::drain().len();
    measure("trace root, disabled", iters, || {
        let _r = hka_obs::trace::root("micro.root3");
    });
    println!("drained {drained} records");
}
