//! Shared harness utilities for the timing benches.
//!
//! The two bench targets time the threaded object zoo and the svc
//! event loop's metrics sites with a small Criterion group each. The
//! paper's claims are not checked here: the fail-closed `randsync
//! gate` and the workspace tests check them. [`Summary`] is the
//! summary-statistics type rsbench reports with.

pub mod stats;

pub use stats::Summary;

/// Print the standard bench banner.
pub fn banner(id: &str, title: &str, claim: &str) {
    println!("\n== {id}: {title} ==");
    println!("paper claim: {claim}\n");
}
