//! Regenerate the paper's Figure 5.1: "Procedure Call Costs".
//!
//! Prints the nine rows side by side with the 1988 measurements and
//! checks the qualitative claims that survive the hardware change.
//!
//! Run with: `cargo run --release -p clam-bench --bin fig51`

use clam_bench::{
    loaded_proc_pair, local_upcall_target, row_endpoints, static_procedure, us, us_per_call,
    BenchRig, PAPER_US,
};
use std::hint::black_box;

fn main() {
    // Generous local iteration counts; remote counts sized so the WAN
    // rows (≈1 ms/call) stay under a few seconds.
    const LOCAL_ITERS: u32 = 2_000_000;
    const REMOTE_ITERS: u32 = 2_000;
    const WAN_ITERS: u32 = 300;

    let mut measured = Vec::with_capacity(9);

    // Row 1: statically linked procedure call.
    let mut acc = 0u32;
    measured.push(us_per_call(LOCAL_ITERS, || {
        acc = acc.wrapping_add(static_procedure(black_box(7)));
    }));
    black_box(acc);

    // Row 2: dynamically loaded procedure calling another one.
    let loaded = loaded_proc_pair();
    let mut acc = 0u32;
    measured.push(us_per_call(LOCAL_ITERS, || {
        acc = acc.wrapping_add(loaded(black_box(7)));
    }));
    black_box(acc);

    // Row 3: upcall with both procedures in the server.
    let target = local_upcall_target();
    let mut acc = 0u32;
    measured.push(us_per_call(LOCAL_ITERS, || {
        acc = acc.wrapping_add(target.invoke(black_box(7)).expect("local upcall"));
    }));
    black_box(acc);

    // Rows 4–9: remote call + remote upcall per transport tier.
    for (name, endpoint) in row_endpoints() {
        let iters = if name == "wan" {
            WAN_ITERS
        } else {
            REMOTE_ITERS
        };
        let rig = BenchRig::new(endpoint);
        // Warm both paths (connection setup, first-task creation).
        let _ = rig.measure_remote_call(16);
        let _ = rig.measure_remote_upcall(16);
        measured.push(us(rig.measure_remote_call(iters)));
        measured.push(us(rig.measure_remote_upcall(iters)));
    }

    // ------------------------------------------------------------------
    // The table.
    // ------------------------------------------------------------------
    println!();
    println!("Figure 5.1: Procedure Call Costs — paper (Microvax, 1988) vs this reproduction");
    println!("{:-<96}", "");
    println!(
        "{:<46} {:>12} {:>14} {:>12}",
        "configuration", "paper (us)", "measured (us)", "paper/meas"
    );
    println!("{:-<96}", "");
    for ((label, paper), &m) in PAPER_US.iter().zip(&measured) {
        println!(
            "{label:<46} {paper:>12.0} {m:>14.3} {:>12.0}x",
            paper / m.max(1e-9)
        );
    }
    println!("{:-<96}", "");

    // ------------------------------------------------------------------
    // Shape checks: the claims that survive a 35-year hardware change.
    // ------------------------------------------------------------------
    let m = &measured;
    let mut ok = true;
    let mut check = |name: &str, cond: bool| {
        println!("{} {name}", if cond { "PASS" } else { "FAIL" });
        ok &= cond;
    };

    check(
        "rows 1-3 are the same order of magnitude (paper: 19/21/19)",
        m[2] <= 50.0 * m[0].max(1e-9) && m[1] <= 50.0 * m[0].max(1e-9),
    );
    check(
        "local calls are >=100x cheaper than any cross-address-space call",
        m[..3]
            .iter()
            .all(|&l| m[3..].iter().all(|&r| r >= 100.0 * l)),
    );
    // The paper reports upcall == call at every tier, but its unit is
    // 7 200 µs — task-switch overhead (tens of µs here) was invisible.
    // On modern IPC the upcall's extra task suspensions are visible on
    // the fastest transport, so "same cost" is checked as "same small
    // multiple", not equality.
    check(
        "remote upcall within 2.5x of remote call on unix domain (paper: equal)",
        m[4] < 2.5 * m[3] && m[3] < 2.5 * m[4],
    );
    check(
        "remote upcall within 2.5x of remote call on tcp (paper: equal)",
        m[6] < 2.5 * m[5] && m[5] < 2.5 * m[6],
    );
    check(
        "cross-machine costs more than same-machine tcp (paper: 12400 vs 11500)",
        m[7] > m[5] && m[8] > m[6],
    );
    check(
        "dynamic loading does not materially slow calls (paper: 21 vs 19)",
        m[1] < 25.0 * m[0].max(1e-9),
    );

    println!();
    if ok {
        println!("figure 5.1 shape: REPRODUCED");
    } else {
        println!("figure 5.1 shape: DEVIATIONS — see FAIL lines above");
        std::process::exit(1);
    }
}
