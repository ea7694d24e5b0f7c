//! Helpers shared by the bit-for-bit fixture tests (`golden_parity`,
//! `prefetch_parity`): one line of `key=value` tokens per cell, compared
//! field by field against a committed fixture file.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use sdds_runtime::RunResult;
use simkit::SimDuration;

/// FNV-1a over the per-process finish times, pinning each one.
fn finish_hash(finishes: &[SimDuration]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in finishes {
        for b in f.as_micros().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

/// Every simulated metric of one run as `key=value` tokens, following
/// the cell's identifying tokens on its fixture line.
pub fn result_tokens(r: &RunResult) -> String {
    let b = &r.buffer;
    let p = &r.prefetch;
    let mut line = String::new();
    write!(
        line,
        "exec_us={} energy_bits={:016x} bytes_r={} bytes_w={} mrr_bits={:016x} events={} \
         finish_hash={:016x} issued={} deferred_producer={} deferred_full={} became_sync={} \
         timed_out={} admitted={} rejected_full={} hits={} hits_in_flight={} misses={} \
         idle_periods={}",
        r.exec_time.as_micros(),
        r.energy_joules.to_bits(),
        r.bytes_moved.0,
        r.bytes_moved.1,
        r.mean_read_response.to_bits(),
        r.events,
        finish_hash(&r.per_proc_finish),
        p.issued,
        p.deferred_producer,
        p.deferred_full,
        p.became_sync,
        p.timed_out,
        b.admitted,
        b.rejected_full,
        b.hits,
        b.hits_in_flight,
        b.misses,
        r.idle_histogram.total(),
    )
    .expect("writing to a String cannot fail");
    line
}

/// Parses one fixture line into its key=value map, keyed by the values
/// of `id_keys` joined with `/`.
fn parse_line(line: &str, id_keys: &[&str]) -> (String, BTreeMap<String, String>) {
    let mut map = BTreeMap::new();
    for token in line.split_whitespace() {
        let (k, v) = token
            .split_once('=')
            .unwrap_or_else(|| panic!("malformed fixture token {token:?}"));
        map.insert(k.to_string(), v.to_string());
    }
    let id = id_keys
        .iter()
        .map(|k| map[*k].as_str())
        .collect::<Vec<_>>()
        .join("/");
    (id, map)
}

/// Compares `lines` field by field with the fixture at `path` and
/// returns the fixture's cells, or, with `SDDS_REGEN_GOLDEN` set, writes
/// `header` and `lines` to `path` instead and returns `None`.
///
/// # Panics
///
/// Panics when the fixture is missing, the cell sets differ, or any
/// field of any cell differs.
pub fn check_fixture(
    path: &Path,
    header: &str,
    lines: &[String],
    id_keys: &[&str],
) -> Option<BTreeMap<String, BTreeMap<String, String>>> {
    if std::env::var_os("SDDS_REGEN_GOLDEN").is_some() {
        let mut out = String::from(header);
        for l in lines {
            out.push_str(l);
            out.push('\n');
        }
        std::fs::write(path, out).unwrap();
        eprintln!("regenerated {}", path.display());
        return None;
    }
    let fixture = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
    let expected: BTreeMap<_, _> = fixture
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| parse_line(l, id_keys))
        .collect();
    let actual: BTreeMap<_, _> = lines.iter().map(|l| parse_line(l, id_keys)).collect();
    assert_eq!(
        expected.keys().collect::<Vec<_>>(),
        actual.keys().collect::<Vec<_>>(),
        "cell set changed; regenerate the fixture deliberately if intended"
    );
    let mut diffs = Vec::new();
    for (id, exp) in &expected {
        let act = &actual[id];
        for (k, v) in exp {
            if act.get(k) != Some(v) {
                diffs.push(format!(
                    "{id}: {k} expected {v} got {}",
                    act.get(k).map_or("<missing>", |s| s.as_str())
                ));
            }
        }
    }
    assert!(
        diffs.is_empty(),
        "parity with {} violated in {} place(s):\n{}",
        path.display(),
        diffs.len(),
        diffs.join("\n")
    );
    Some(expected)
}
