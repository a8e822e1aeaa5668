//! Small helpers: a seeded generator, a Zipf sampler, order statistics,
//! reply hashing, the host-speed calibration, and the host stamp printed
//! on every output row.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::process::Command;
use std::time::Instant;

/// SplitMix64: every input the benchmark generates flows from `--seed`
/// through one of these, so a seed names its inputs exactly.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5155_4153_4152_4245)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// Exponential inter-arrival gap (seconds) of a Poisson process.
    pub fn exp_gap(&mut self, rate_per_s: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate_per_s
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }
}

/// Zipf(s) over ranks `0..n`: rank 0 is the most popular.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n.max(1))
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`);
/// 0 for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a sample ascending (NaN-free by construction: every sample is a
/// measured duration or count).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 0.5)
}

/// FNV-1a of a reply line: replies are compared by hash so the timed
/// loop keeps no reply text.
pub fn fnv(s: &str) -> u64 {
    quasar_core::persist::fnv1a(s.as_bytes())
}

/// The `"type"` tag of a serialized reply (`predict`, `error`, ...).
pub fn reply_type(reply: &str) -> &str {
    reply
        .split_once("\"type\":\"")
        .and_then(|(_, rest)| rest.split_once('"'))
        .map(|(t, _)| t)
        .unwrap_or("unparseable")
}

/// Prefix keys the calibration builds, prints and parses.
const CALIB_PREFIXES: u32 = 40_000;

/// Seconds [`calibrate`] typically takes on the reference host, the
/// 2-vCPU Xeon virtual machine the benchmark was tuned on: the speed the
/// gated times are reported at.
pub const CALIB_REF_S: f64 = 0.050;

/// Times a fixed, single-threaded piece of work in the program's style —
/// format prefix keys, build an ordered map of short AS paths, print it
/// as text and parse it back — and returns its seconds. It calls no code
/// of the repository, so no change to the program moves it; the host's
/// speed does. On a shared 2-vCPU virtual machine that speed drifts by
/// 20–30 % from one minute to the next, in every stage of the pipeline
/// at once, and a time measured next to a calibration and scaled by it
/// ([`at_ref_speed`]) drifts by about half as much.
pub fn calibrate() -> f64 {
    let t = Instant::now();
    let paths: BTreeMap<String, Vec<u32>> = (0..CALIB_PREFIXES)
        .map(|i| {
            let prefix = format!("10.{}.{}.0/24", i >> 8, i & 255);
            let path = (0..8)
                .map(|k| i.wrapping_mul(2_654_435_761).rotate_left(k) % 65_536)
                .collect();
            (prefix, path)
        })
        .collect();
    let mut text = String::new();
    for (prefix, path) in &paths {
        text.push_str(prefix);
        for asn in path {
            let _ = write!(text, " {asn}");
        }
        text.push('\n');
    }
    let parsed: BTreeMap<&str, Vec<u32>> = text
        .lines()
        .filter_map(|line| {
            let mut fields = line.split(' ');
            let prefix = fields.next()?;
            Some((prefix, fields.filter_map(|a| a.parse().ok()).collect()))
        })
        .collect();
    assert!(
        parsed.len() == paths.len() && parsed.values().zip(paths.values()).all(|(a, b)| a == b)
    );
    t.elapsed().as_secs_f64()
}

/// A time measured next to a calibration that took `calib_s`, scaled to
/// the reference host's speed.
pub fn at_ref_speed(secs: f64, calib_s: f64) -> f64 {
    secs * CALIB_REF_S / calib_s
}

/// `(seconds, calibration seconds)` of each set-up of a run, the
/// calibration run just before it → the median set-up time at the
/// reference host's speed (`setup_s`) and as measured.
pub fn setup_medians(setups: &[(f64, f64)]) -> (f64, f64) {
    let at_ref: Vec<f64> = setups.iter().map(|&(s, c)| at_ref_speed(s, c)).collect();
    let measured: Vec<f64> = setups.iter().map(|&(s, _)| s).collect();
    (median(&at_ref), median(&measured))
}

/// Where a result was measured: printed with every row so results from
/// different machines are never compared by accident.
pub struct Host {
    pub cores: usize,
    pub commit: String,
    pub rustc: String,
}

impl Host {
    pub fn probe() -> Host {
        Host {
            cores: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            // Only inside a git checkout: elsewhere git would search the
            // parent directories and could report an unrelated repository.
            commit: if std::path::Path::new(".git").exists() {
                run_trimmed("git", &["rev-parse", "--short=12", "HEAD"])
            } else {
                "unknown".to_string()
            },
            rustc: run_trimmed("rustc", &["--version"]),
        }
    }

    pub fn stamp(&self) -> String {
        format!(
            "cores={} commit={} rustc={}",
            self.cores,
            self.commit,
            self.rustc.replace(' ', "_")
        )
    }
}

fn run_trimmed(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v = sorted((1..=100).map(f64::from).collect());
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(100, 1.0);
        let mut rng = Rng::new(1);
        let mut counts = [0usize; 100];
        for _ in 0..10_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10] && counts[10] > counts[90]);
    }

    #[test]
    fn reply_type_reads_the_tag() {
        assert_eq!(reply_type(r#"{"type":"predict","prefix":"x"}"#), "predict");
        assert_eq!(reply_type("garbage"), "unparseable");
    }
}
