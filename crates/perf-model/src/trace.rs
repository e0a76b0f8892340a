//! Exporters for [`ProfilerLog`]: an nvprof-style summary table and
//! chrome://tracing JSON.
//!
//! The JSON writer is hand-rolled: the workspace vendors no serde.

use crate::counters::TransferDirection;
use crate::profile::GpuProfile;
use crate::record::{AllocKind, ProfilerLog};

/// Format a duration the way nvprof does: scaled to ns/us/ms/s.
pub fn fmt_duration(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3}s")
    } else if s >= 1e-3 {
        format!("{:.3}ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.3}us", s * 1e6)
    } else {
        format!("{:.0}ns", s * 1e9)
    }
}

/// An aligned per-kernel summary table, à la `nvprof --print-gpu-summary`:
/// one row per kernel name sorted by total time, with call counts,
/// avg/min/max durations and achieved DRAM throughput against `gpu`'s peak.
pub fn gpu_summary(log: &ProfilerLog, gpu: &GpuProfile) -> String {
    let agg = log.aggregate();
    let total: f64 = agg.iter().map(|s| s.total_s).sum();
    let header = [
        "Time(%)".to_string(),
        "Time".to_string(),
        "Calls".to_string(),
        "Avg".to_string(),
        "Min".to_string(),
        "Max".to_string(),
        "DRAM GB/s".to_string(),
        "BW(%)".to_string(),
        "Name".to_string(),
    ];
    let mut rows: Vec<[String; 9]> = vec![header];
    for s in &agg {
        let pct = if total > 0.0 {
            100.0 * s.total_s / total
        } else {
            0.0
        };
        let gbs = if s.total_s > 0.0 {
            s.dram_bytes() as f64 / s.total_s / 1e9
        } else {
            0.0
        };
        let bw_pct = 100.0 * gbs * 1e9 / gpu.mem_bandwidth;
        rows.push([
            format!("{pct:.2}"),
            fmt_duration(s.total_s),
            s.calls.to_string(),
            fmt_duration(s.avg_s()),
            fmt_duration(s.min_s),
            fmt_duration(s.max_s),
            format!("{gbs:.2}"),
            format!("{bw_pct:.1}"),
            s.name.to_string(),
        ]);
    }
    let mut widths = [0usize; 9];
    for row in &rows {
        for (w, cell) in widths.iter_mut().zip(row.iter()) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::from("GPU activities (modeled):\n");
    for row in &rows {
        let mut line = String::new();
        for (i, cell) in row.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            if i == 8 {
                // Left-align the name column; nvprof does the same.
                line.push_str(cell);
            } else {
                line.push_str(&" ".repeat(widths[i] - cell.len()));
                line.push_str(cell);
            }
        }
        out.push_str(line.trim_end());
        out.push('\n');
    }
    if !log.is_complete() {
        out.push_str(&format!(
            "warning: ring buffer evicted {} records (kernels {}, allocs {}, transfers {}); totals are partial\n",
            log.dropped_total(),
            log.dropped_kernels,
            log.dropped_allocs,
            log.dropped_transfers
        ));
    }
    out
}

/// Escape a string for inclusion inside a JSON string literal.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Format a non-negative f64 with enough precision for trace timestamps.
fn fmt_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.6}")
    }
}

/// Serialize `log` as chrome://tracing JSON ("complete" events, `ph: "X"`).
///
/// Timestamps and durations are microseconds of modeled time; `pid` is the
/// device index. Kernels render on `tid` = their stream lane (0 for the
/// default stream), allocations on `tid` 100 and transfers on `tid` 101, so
/// stream-overlapped launches show up as concurrent rows per device.
/// Load the output at `chrome://tracing` or <https://ui.perfetto.dev>.
pub fn chrome_trace_json(log: &ProfilerLog) -> String {
    let mut events: Vec<String> = Vec::with_capacity(log.len());
    for k in &log.kernels {
        events.push(format!(
            concat!(
                "{{\"name\":\"{}\",\"cat\":\"kernel\",\"ph\":\"X\",\"ts\":{},\"dur\":{},",
                "\"pid\":{},\"tid\":{},\"args\":{{\"phase\":\"{}\",\"grid\":[{},{},{}],",
                "\"block\":[{},{},{}],\"flops\":{},\"tensor_flops\":{},\"dram_read\":{},",
                "\"dram_write\":{},\"shared\":{},\"occupancy\":{},\"bw_fraction\":{},",
                "\"ordinal\":{},\"stream\":{}}}}}"
            ),
            escape_json(k.name),
            fmt_num(k.start_s * 1e6),
            fmt_num(k.duration_s * 1e6),
            k.device,
            k.stream,
            k.phase.label(),
            k.grid[0],
            k.grid[1],
            k.grid[2],
            k.block[0],
            k.block[1],
            k.block[2],
            k.flops,
            k.tensor_flops,
            k.dram_read_bytes,
            k.dram_write_bytes,
            k.shared_bytes,
            fmt_num(k.occupancy),
            fmt_num(k.bw_fraction),
            k.ordinal,
            k.stream,
        ));
    }
    for a in &log.allocs {
        let kind = match a.kind {
            AllocKind::DriverAlloc => "driver",
            AllocKind::CacheHit => "cache_hit",
        };
        events.push(format!(
            concat!(
                "{{\"name\":\"alloc ({kind})\",\"cat\":\"alloc\",\"ph\":\"X\",\"ts\":{ts},",
                "\"dur\":{dur},\"pid\":{pid},\"tid\":100,\"args\":{{\"phase\":\"{phase}\",",
                "\"bytes\":{bytes},\"kind\":\"{kind}\"}}}}"
            ),
            kind = kind,
            ts = fmt_num(a.start_s * 1e6),
            dur = fmt_num(a.duration_s * 1e6),
            pid = a.device,
            phase = a.phase.label(),
            bytes = a.bytes,
        ));
    }
    for t in &log.transfers {
        let dir = match t.dir {
            TransferDirection::H2D => "H2D",
            TransferDirection::D2H => "D2H",
        };
        events.push(format!(
            concat!(
                "{{\"name\":\"memcpy {dir}\",\"cat\":\"transfer\",\"ph\":\"X\",\"ts\":{ts},",
                "\"dur\":{dur},\"pid\":{pid},\"tid\":101,\"args\":{{\"phase\":\"{phase}\",",
                "\"bytes\":{bytes},\"dir\":\"{dir}\",\"stream\":{stream}}}}}"
            ),
            dir = dir,
            ts = fmt_num(t.start_s * 1e6),
            dur = fmt_num(t.duration_s * 1e6),
            pid = t.device,
            phase = t.phase.label(),
            bytes = t.bytes,
            stream = t.stream,
        ));
    }
    format!(
        "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"complete\":{},\"dropped\":{}}}}}",
        events.join(","),
        log.is_complete(),
        log.dropped_total(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::KernelRecord;
    use crate::timeline::Phase;

    fn sample_log() -> ProfilerLog {
        let mut log = ProfilerLog::new();
        for i in 0..3u64 {
            log.kernels.push(KernelRecord {
                name: if i == 0 {
                    "evaluate_swarm"
                } else {
                    "velocity_update"
                },
                device: 0,
                phase: Phase::SwarmUpdate,
                start_s: i as f64 * 1e-4,
                duration_s: 5e-5,
                grid: [40, 1, 1],
                block: [256, 1, 1],
                threads: 10_000,
                launched_threads: 10_240,
                flops: 100_000,
                tensor_flops: 0,
                dram_read_bytes: 240_000,
                dram_write_bytes: 40_000,
                shared_bytes: 0,
                occupancy: 0.0625,
                bw_fraction: 0.01,
                ordinal: i + 1,
                stream: 0,
                launches: 1,
            });
        }
        log
    }

    #[test]
    fn summary_has_header_names_and_call_counts() {
        let s = gpu_summary(&sample_log(), &GpuProfile::tesla_v100());
        assert!(s.contains("Time(%)"));
        assert!(s.contains("velocity_update"));
        assert!(s.contains("evaluate_swarm"));
        assert!(!s.contains("warning"), "complete log must not warn");
    }

    #[test]
    fn summary_warns_on_truncation() {
        let mut log = sample_log();
        log.dropped_kernels = 7;
        let s = gpu_summary(&log, &GpuProfile::tesla_v100());
        assert!(s.contains("warning"));
        assert!(s.contains('7'));
    }

    #[test]
    fn duration_formatting_picks_sensible_units() {
        assert_eq!(fmt_duration(2.0), "2.000s");
        assert_eq!(fmt_duration(2e-3), "2.000ms");
        assert_eq!(fmt_duration(2e-6), "2.000us");
        assert_eq!(fmt_duration(2e-9), "2ns");
    }
}
