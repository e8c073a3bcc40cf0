//! Statistics over raw samples and store histograms, process counters
//! from `/proc`, and the result fingerprint.

use rsb_store::LatencyHistogram;
use std::collections::BTreeMap;

/// Nearest-rank `p`-quantile of an ascending slice.
pub fn quantile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

pub fn mean(xs: &[u64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().map(|&x| x as f64).sum::<f64>() / xs.len() as f64
}

/// The median, or NaN (which no result may report) for no values.
pub fn median_f64(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// The samples a store histogram gained between two snapshots, as
/// `(lo_ns, hi_ns) -> count`.
#[derive(Debug, Clone, Default)]
pub struct HistDelta {
    buckets: BTreeMap<(u64, u64), u64>,
}

impl HistDelta {
    pub fn between(before: &LatencyHistogram, after: &LatencyHistogram) -> Self {
        let mut buckets: BTreeMap<(u64, u64), u64> = BTreeMap::new();
        for (lo, hi, c) in after.buckets() {
            *buckets.entry((lo, hi)).or_default() += c;
        }
        for (lo, hi, c) in before.buckets() {
            let slot = buckets.entry((lo, hi)).or_default();
            *slot = slot.saturating_sub(c);
        }
        buckets.retain(|_, c| *c > 0);
        HistDelta { buckets }
    }

    pub fn count(&self) -> u64 {
        self.buckets.values().sum()
    }

    /// Bucket-midpoint mean in microseconds.
    pub fn mean_us(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let sum: f64 = self
            .buckets
            .iter()
            .map(|(&(lo, hi), &c)| (lo + hi) as f64 / 2.0 * c as f64)
            .sum();
        sum / n as f64 / 1e3
    }

    /// `p`-quantile in microseconds, interpolated linearly within the
    /// bucket that holds it.
    pub fn quantile_us(&self, p: f64) -> f64 {
        let rank = p * self.count() as f64;
        let mut seen = 0.0;
        for (&(lo, hi), &c) in &self.buckets {
            let c = c as f64;
            if seen + c >= rank {
                let within = ((rank - seen) / c).clamp(0.0, 1.0);
                return (lo as f64 + (hi - lo) as f64 * within) / 1e3;
            }
            seen += c;
        }
        0.0
    }

    /// `lo_ns hi_ns count` lines, for the trace output.
    pub fn rows(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets.iter().map(|(&(lo, hi), &c)| (lo, hi, c))
    }
}

fn read_proc(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

fn status_field(status: &str, field: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Process CPU time (user + system, all threads, live and exited) in
/// microseconds, from `/proc/self/stat` clock ticks (USER_HZ = 100).
pub fn cpu_us() -> u64 {
    let stat = read_proc("/proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) * 10_000
}

/// CPU ticks of the whole machine as this kernel sees it: those the
/// hypervisor stole, and all of them, from the first line of `/proc/stat`.
pub fn host_ticks() -> (u64, u64) {
    let stat = read_proc("/proc/stat");
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Voluntary plus involuntary context switches summed over the threads
/// alive now.
pub fn ctx_switches() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .map(|t| {
            let status = read_proc(&format!("{}/status", t.path().display()));
            status_field(&status, "voluntary_ctxt_switches:")
                + status_field(&status, "nonvoluntary_ctxt_switches:")
        })
        .sum()
}

/// Peak resident set size of the process in MiB.
pub fn peak_rss_mib() -> f64 {
    status_field(&read_proc("/proc/self/status"), "VmHWM:") as f64 / 1024.0
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from `.git` in the working directory
/// (without walking up out of it), or "unknown" outside a git checkout.
fn commit() -> String {
    let head = read_proc(".git/HEAD");
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(name) => {
            let loose = read_proc(&format!(".git/{name}"));
            if loose.trim().is_empty() {
                read_proc(".git/packed-refs")
                    .lines()
                    .find_map(|l| l.strip_suffix(name)?.strip_suffix(' ').map(str::to_string))
                    .unwrap_or_default()
            } else {
                loose.trim().to_string()
            }
        }
    };
    if hash.is_empty() {
        "unknown".into()
    } else {
        hash
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// What the numbers were measured on and with, as one JSON object.
pub fn fingerprint() -> String {
    let lockorder_checked = std::mem::size_of::<rsb_registers::lockorder::HeldLock>() != 0;
    let cpu = read_proc("/proc/cpuinfo")
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or_else(|| "unknown".into(), |(_, m)| m.trim().to_string());
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    format!(
        "{{\"lockorder_checked\": {lockorder_checked}, \"cpu_model\": {}, \"nproc\": {nproc}, \
         \"gf256_kernel\": {}, \"rustc\": {}, \"commit\": {}}}",
        json_str(&cpu),
        json_str(rsb_coding::gf256::active_kernel().name()),
        json_str(&rustc_version()),
        json_str(&commit()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
        assert_eq!(median_f64(vec![3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn histogram_deltas_drop_earlier_samples() {
        let mut before = LatencyHistogram::default();
        before.record_ns(1_000);
        let mut after = before.clone();
        after.record_ns(50_000);
        after.record_ns(50_000);
        let d = HistDelta::between(&before, &after);
        assert_eq!(d.count(), 2);
        assert!((d.quantile_us(0.5) - 50.0).abs() < 50.0 * 0.15);
    }
}
