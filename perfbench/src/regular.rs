//! The client-side regularity check, run over every operation a
//! deployment completed.
//!
//! Every write's value carries a unique sequence number, so each read
//! names the one write it observed. A read is wrong when any register
//! that is at least weakly regular could not have returned it:
//!
//! - it returned `v₀`, though the prefill wrote every key before the load
//!   began;
//! - it returned a sequence number no write to its key stored;
//! - the write it observed began after the read ended;
//! - the write it observed was *overwritten* before the read began: some
//!   other write to the key began after the observed one ended and ended
//!   before the read began (a stale read).
//!
//! Intervals are the client-observed ones, which contain the store's own,
//! so a correct store never fails the check. For distinct written values
//! these are exactly the cases in which `rsb_consistency`'s weak
//! regularity fails; strong regularity adds the write-order agreement
//! that the history check of a bounded phase decides (see `main.rs`).

use crate::drive::{Phase, Sample};
use crate::gen::BAD_SEQ;
use std::collections::HashMap;

/// One completed op on the check's time line, in nanoseconds. The
/// prefill writes sit at `[0, 0]`; load ops are shifted past it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    pub key: u32,
    pub seq: u64,
    pub write: bool,
    pub invoked: u64,
    pub returned: u64,
}

/// The intervals of every sample of `phases`, which ran one after the
/// other on one deployment.
pub fn intervals<'a>(phases: &'a [&'a Phase]) -> impl Iterator<Item = Interval> + 'a {
    let base = phases.first().map(|p| p.epoch);
    phases.iter().flat_map(move |p| {
        let offset = base.map_or(0, |b| p.epoch.duration_since(b).as_nanos() as u64) + 1;
        p.samples().map(move |s: &Sample| Interval {
            key: s.key,
            seq: s.seq,
            write: s.write,
            invoked: offset + s.start_ns,
            returned: offset + s.start_ns + s.total_ns,
        })
    })
}

#[derive(Default)]
struct KeyLog {
    /// Write sequence number to its interval.
    writes: HashMap<u64, (u64, u64)>,
    /// `(returned, invoked)` of every write, sorted by return time, with
    /// `invoked` replaced by the running maximum.
    frontier: Vec<(u64, u64)>,
    reads: Vec<Interval>,
}

/// Checks every read in `ops` against the writes in `ops` and the
/// prefill, which wrote `prefill[k]` to key `k` before any op began.
/// Returns one line per wrong read. Reads whose value already failed
/// the stamp check carry [`BAD_SEQ`] and are skipped here.
pub fn check(prefill: &[u64], ops: impl Iterator<Item = Interval>) -> Vec<String> {
    let mut logs: Vec<KeyLog> = prefill
        .iter()
        .map(|&seq| KeyLog {
            writes: HashMap::from([(seq, (0, 0))]),
            ..KeyLog::default()
        })
        .collect();
    let mut violations = Vec::new();
    for op in ops {
        let Some(log) = logs.get_mut(op.key as usize) else {
            violations.push(format!("op on unknown key index {}", op.key));
            continue;
        };
        if op.write {
            log.writes.insert(op.seq, (op.invoked, op.returned));
        } else if op.seq != BAD_SEQ {
            log.reads.push(op);
        }
    }
    for (key, log) in logs.iter_mut().enumerate() {
        log.frontier = log.writes.values().map(|&(i, r)| (r, i)).collect();
        log.frontier.sort_unstable();
        let mut latest = 0;
        for entry in &mut log.frontier {
            latest = latest.max(entry.1);
            entry.1 = latest;
        }
        for rd in &log.reads {
            let wrong = |why: &str| {
                format!(
                    "key {key}: read of seq {} at {}..{} ns {why}",
                    rd.seq, rd.invoked, rd.returned
                )
            };
            if rd.seq == 0 {
                violations.push(wrong("returned v0 after the prefill wrote the key"));
                continue;
            }
            let Some(&(w_invoked, w_returned)) = log.writes.get(&rd.seq) else {
                violations.push(wrong("returned a value no write to its key stored"));
                continue;
            };
            if w_invoked > rd.returned {
                violations.push(wrong("returned a write that began after it ended"));
                continue;
            }
            // The latest start among writes that ended before the read
            // began; the observed write is stale if it ended before that.
            let done = log.frontier.partition_point(|&(r, _)| r < rd.invoked);
            if let Some(&(_, latest_start)) = done.checked_sub(1).and_then(|i| log.frontier.get(i))
            {
                if w_returned < latest_start {
                    violations.push(wrong("returned a write overwritten before it began"));
                }
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(key: u32, seq: u64, invoked: u64, returned: u64) -> Interval {
        Interval {
            key,
            seq,
            write: true,
            invoked,
            returned,
        }
    }

    fn r(key: u32, seq: u64, invoked: u64, returned: u64) -> Interval {
        Interval {
            write: false,
            ..w(key, seq, invoked, returned)
        }
    }

    const PREFILL: [u64; 2] = [100, 200];

    #[test]
    fn regular_reads_pass() {
        let ops = [
            w(0, 1, 10, 20),
            // Concurrent with write 2: either value is allowed.
            w(0, 2, 30, 50),
            r(0, 1, 35, 40),
            r(0, 2, 36, 41),
            // After write 2 ended, with nothing newer.
            r(0, 2, 60, 70),
            // Key 1 still holds its prefill value.
            r(1, 200, 5, 8),
        ];
        assert_eq!(check(&PREFILL, ops.into_iter()), Vec::<String>::new());
    }

    #[test]
    fn a_planted_stale_read_fails() {
        let ops = [w(0, 1, 10, 20), w(0, 2, 30, 40), r(0, 1, 50, 60)];
        let v = check(&PREFILL, ops.into_iter());
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("overwritten"), "{v:?}");
    }

    #[test]
    fn a_planted_stale_prefill_read_fails() {
        let ops = [w(1, 7, 10, 20), r(1, 200, 21, 30)];
        assert_eq!(check(&PREFILL, ops.into_iter()).len(), 1);
    }

    #[test]
    fn v0_unknown_and_future_values_fail() {
        let ops = [
            r(0, 0, 1, 2),
            r(0, 99, 3, 4),
            r(1, 5, 10, 20),
            w(1, 5, 30, 40),
            r(0, BAD_SEQ, 5, 6),
        ];
        let v = check(&PREFILL, ops.into_iter());
        assert_eq!(v.len(), 3, "{v:?}");
        assert!(v[0].contains("v0") && v[1].contains("no write") && v[2].contains("began after"));
    }
}
