//! What a result was measured on and with (from `cpuid`), and the
//! process's peak memory.

use serde::Value;

use crate::adapter;

/// Worker threads of every measured search except the 1-thread passes
/// of the traced run.
pub const THREADS: usize = 2;

/// The machine and configuration a run was measured on. Two results
/// are comparable only when their stamps, seed aside, are equal.
pub fn stamp(workload: &str, k: usize, seed: u64) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let (l2, l3) = cache_kib();
    Value::Object(vec![
        ("workload".into(), Value::Str(workload.into())),
        ("nproc".into(), Value::U64(nproc as u64)),
        ("simd".into(), Value::Str(adapter::dispatch_name().into())),
        ("cpu".into(), Value::Str(cpu_model())),
        ("l2_kib".into(), Value::U64(l2)),
        ("l3_kib".into(), Value::U64(l3)),
        ("threads".into(), Value::U64(THREADS as u64)),
        ("tile".into(), Value::U64(adapter::TILE as u64)),
        ("select".into(), Value::Str(adapter::config_label(k))),
        ("seed".into(), Value::U64(seed)),
    ])
}

#[cfg(target_arch = "x86_64")]
fn cpuid(leaf: u32, sub: u32) -> [u32; 4] {
    // SAFETY: `cpuid` is available on every x86_64 processor and only
    // reads identification registers.
    #[allow(unused_unsafe)]
    let r = unsafe { std::arch::x86_64::__cpuid_count(leaf, sub) };
    [r.eax, r.ebx, r.ecx, r.edx]
}

/// The processor's brand string.
#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    if cpuid(0x8000_0000, 0)[0] < 0x8000_0004 {
        return "unknown".into();
    }
    let bytes: Vec<u8> = (0x8000_0002..=0x8000_0004)
        .flat_map(|leaf| cpuid(leaf, 0))
        .flat_map(u32::to_le_bytes)
        .collect();
    String::from_utf8_lossy(&bytes)
        .trim_matches(|c: char| c == '\0' || c.is_whitespace())
        .to_string()
}

/// L2 and L3 sizes in KiB from the deterministic cache parameters
/// (leaf 4 on Intel, 0x8000_001D on AMD); 0 where not reported.
#[cfg(target_arch = "x86_64")]
fn cache_kib() -> (u64, u64) {
    let leaf = if cpuid(0, 0)[0] >= 4 && cpuid(4, 0)[0] & 0x1f != 0 {
        4
    } else if cpuid(0x8000_0000, 0)[0] >= 0x8000_001d {
        0x8000_001d
    } else {
        return (0, 0);
    };
    let (mut l2, mut l3) = (0, 0);
    for sub in 0..16 {
        let [a, b, c, _] = cpuid(leaf, sub);
        if a & 0x1f == 0 {
            break;
        }
        let ways = u64::from(b >> 22) + 1;
        let partitions = u64::from((b >> 12) & 0x3ff) + 1;
        let line = u64::from(b & 0xfff) + 1;
        let sets = u64::from(c) + 1;
        let kib = ways * partitions * line * sets / 1024;
        match (a >> 5) & 7 {
            2 => l2 = kib,
            3 => l3 = kib,
            _ => {}
        }
    }
    (l2, l3)
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    "unknown".into()
}

#[cfg(not(target_arch = "x86_64"))]
fn cache_kib() -> (u64, u64) {
    (0, 0)
}

/// The process's peak resident set (`VmHWM`) in MiB.
///
/// `getrusage` would not do: its peak survives `exec`, so under
/// `cargo run` it reports cargo's own peak when that is larger.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("the kernel reports VmHWM");
    kib / 1024.0
}
