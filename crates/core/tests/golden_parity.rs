//! Golden parity: every simulated metric of the app × policy × scheme
//! matrix is pinned bit-for-bit against a committed fixture.
//!
//! The fixture (`golden_parity.txt`) was generated from the build that
//! predates the unified event kernel; any refactor of the event core must
//! keep the default `Deterministic` arbitration byte-identical to it.
//! Regenerate deliberately with:
//!
//! ```text
//! SDDS_REGEN_GOLDEN=1 cargo test -p sdds --test golden_parity
//! ```

mod common;

use std::path::PathBuf;

use sdds::{run, SystemConfig};
use sdds_power::PolicyKind;
use sdds_workloads::{App, WorkloadScale};

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden_parity.txt")
}

/// One matrix cell rendered as `key=value` tokens, one line per cell.
fn cell_line(app: App, policy: &PolicyKind, scheme: bool) -> String {
    let cfg = SystemConfig {
        scale: WorkloadScale::test(),
        ..SystemConfig::paper_defaults()
    }
    .with_policy(policy.clone())
    .with_scheme(scheme);
    let o =
        run(app, &cfg).unwrap_or_else(|e| panic!("{} under {}: {e}", app.name(), policy.name()));
    format!(
        "app={} policy={} scheme={} {}",
        app.name(),
        policy.name(),
        u8::from(scheme),
        common::result_tokens(&o.result)
    )
}

fn current_matrix() -> Vec<String> {
    let mut lines = Vec::new();
    for app in App::all() {
        for policy in PolicyKind::paper_strategies() {
            for scheme in [false, true] {
                lines.push(cell_line(app, &policy, scheme));
            }
        }
    }
    lines
}

#[test]
fn matrix_matches_committed_fixture() {
    common::check_fixture(
        &fixture_path(),
        "# Golden parity fixture: app x policy x scheme at test scale.\n\
         # Regenerate with SDDS_REGEN_GOLDEN=1 cargo test -p sdds --test golden_parity\n",
        &current_matrix(),
        &["app", "policy", "scheme"],
    );
}
