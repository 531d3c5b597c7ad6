//! Keeps a timed phase on the quieter vCPU.
//!
//! The sandbox gives the benchmark two vCPUs of a shared host, and each of
//! them drops to about 0.8 — at times 0.65 — of its speed whenever a
//! neighbour keeps the sibling hyperthread busy: for a second on average,
//! for half a minute at worst, and independently of the other vCPU (the
//! probe below reads 60, 75 or 90 µs, and often 60 on one vCPU while it
//! reads 75 or 90 on the other). The kernel leaves a lone running thread
//! where it is, so a whole run can sit on the slow vCPU while the fast one
//! idles, and no estimator inside the run can tell that from a slower
//! program.
//!
//! [`QuietCpu::pick`] therefore times a fixed probe on every allowed vCPU
//! and pins the calling thread to the fastest until the guard is dropped.
//! `std` has no affinity call and this package forbids `unsafe`, so the
//! pinning is done by `taskset -pc <cpu> <tid>` from util-linux; where
//! that is missing or refused, the thread stays unpinned and a note says
//! so. Every end-to-end timed phase runs on the calling thread
//! ([`crate::spec::LANES`]) and is pinned this way — the phase, not its
//! set-up: set-up spawns the engines' worker threads, and a thread spawned
//! under a pin inherits it.

use std::collections::HashMap;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Pins the calling thread for as long as it lives.
pub struct QuietCpu {
    /// Kernel thread id and the affinity list to restore.
    restore: Option<(String, String)>,
}

/// The calling thread's kernel id.
fn thread_id() -> Option<String> {
    let link = std::fs::read_link("/proc/thread-self").ok()?;
    Some(link.file_name()?.to_str()?.to_string())
}

/// The calling thread's `Cpus_allowed_list`, as written by the kernel
/// (`0-1`, `0,2-3`).
fn allowed_list() -> Option<String> {
    let status = std::fs::read_to_string("/proc/thread-self/status").ok()?;
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    Some(line.trim().to_string())
}

/// The CPUs a kernel CPU list names.
fn parse_list(list: &str) -> Option<Vec<usize>> {
    let mut cpus = Vec::new();
    for part in list.split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        cpus.extend(lo.trim().parse::<usize>().ok()?..=hi.trim().parse().ok()?);
    }
    Some(cpus)
}

fn set_affinity(tid: &str, cpus: &str) -> bool {
    Command::new("taskset")
        .args(["-pc", cpus, tid])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}

/// Microseconds the quickest of seven rounds of a fixed loop took: hashed
/// lookups in a map of a few hundred KiB. (A dependent walk over a 64 KiB
/// table was tried first and read 50.0 µs whatever the host did: what a
/// busy sibling hyperthread takes away is issue width and cache, which a
/// latency-bound chain does not use and a hash lookup does.)
fn probe_us(map: &HashMap<u64, u64>) -> f64 {
    (0..7)
        .map(|_| {
            let t = Instant::now();
            let (mut key, mut sum) = (1u64, 0u64);
            for _ in 0..4096 {
                key = key.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                sum = sum.wrapping_add(map.get(&(key >> 50)).copied().unwrap_or(0));
            }
            std::hint::black_box(sum);
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

impl QuietCpu {
    /// Probes every vCPU the calling thread may run on and pins the thread
    /// to the fastest.
    pub fn pick() -> QuietCpu {
        let unpinned = QuietCpu { restore: None };
        let (Some(tid), Some(all)) = (thread_id(), allowed_list()) else {
            eprintln!("note: no /proc/thread-self; the timed phase runs unpinned");
            return unpinned;
        };
        let cpus = parse_list(&all).unwrap_or_default();
        if cpus.len() < 2 {
            return unpinned;
        }
        let map: HashMap<u64, u64> = (0..1 << 14).map(|i| (i, i ^ 0x55)).collect();
        let mut readings = Vec::with_capacity(cpus.len());
        for &cpu in &cpus {
            if !set_affinity(&tid, &cpu.to_string()) {
                eprintln!("note: taskset is missing or refused; the timed phase runs unpinned");
                set_affinity(&tid, &all);
                return unpinned;
            }
            readings.push((probe_us(&map), cpu));
        }
        let &(_, best) = readings
            .iter()
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .expect("two or more CPUs");
        set_affinity(&tid, &best.to_string());
        let shown: Vec<String> = readings
            .iter()
            .map(|(us, cpu)| format!("cpu{cpu} {us:.1} us"))
            .collect();
        eprintln!("quiet cpu: {} -> cpu{best}", shown.join(", "));
        QuietCpu {
            restore: Some((tid, all)),
        }
    }
}

impl Drop for QuietCpu {
    fn drop(&mut self) {
        if let Some((tid, all)) = &self.restore {
            set_affinity(tid, all);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_cpu_lists_parse() {
        assert_eq!(parse_list("0-1"), Some(vec![0, 1]));
        assert_eq!(parse_list("0,2-3"), Some(vec![0, 2, 3]));
        assert_eq!(parse_list("5"), Some(vec![5]));
        assert_eq!(parse_list("x"), None);
    }

    #[test]
    fn the_guard_restores_the_affinity_it_found() {
        let before = allowed_list();
        drop(QuietCpu::pick());
        assert_eq!(allowed_list(), before);
    }
}
