//! Integration tests of the kernel-level profiler: record completeness
//! (every launch site carries a name and sane geometry), the chrome://
//! tracing exporter round-trip, the nvprof-style summary, ring-buffer
//! truncation reporting, and multi-device merging.

use fastpso_suite::fastpso::{GpuBackend, PsoBackend, PsoConfig, Topology, UpdateStrategy};
use fastpso_suite::functions::builtins::Sphere;
use fastpso_suite::gpu_sim::{
    chrome_trace_json, gpu_summary, Device, DeviceGroup, KernelDesc, Phase, ProfilerLog,
};
use fastpso_suite::perf_model::GpuProfile;
use std::collections::BTreeSet;

fn cfg(iters: usize) -> PsoConfig {
    PsoConfig::builder(48, 6)
        .max_iter(iters)
        .seed(11)
        .build()
        .unwrap()
}

fn run_log(strategy: UpdateStrategy) -> ProfilerLog {
    let b = GpuBackend::new().strategy(strategy);
    b.run(&cfg(4), &Sphere).unwrap();
    b.profile()
}

/// Every launch site in the engine is named: no record carries an empty
/// or placeholder name, and the expected pipeline kernels all appear.
#[test]
fn every_launch_site_is_named() {
    let mut seen = BTreeSet::new();
    for (strategy, vel, pos) in [
        (
            UpdateStrategy::GlobalMem,
            "velocity_update",
            "position_update",
        ),
        (
            UpdateStrategy::SharedMem,
            "velocity_update_smem",
            "position_update_smem",
        ),
        (
            UpdateStrategy::TensorCore,
            "velocity_update_wmma",
            "position_update_wmma",
        ),
        (
            UpdateStrategy::ForLoop,
            "velocity_update_forloop",
            "position_update_forloop",
        ),
    ] {
        let log = run_log(strategy);
        for k in &log.kernels {
            assert!(!k.name.is_empty(), "{strategy:?}: unnamed kernel record");
            assert_ne!(k.name, "<unnamed>", "{strategy:?}: placeholder kernel name");
            seen.insert(k.name);
        }
        for expected in [
            "init_swarm",
            "evaluate_swarm",
            "pbest_update",
            "reduce_pass0",
            "gen_l_weights",
            "gen_g_weights",
            vel,
            pos,
        ] {
            assert!(
                log.launches_of(expected) > 0,
                "{strategy:?}: kernel `{expected}` missing from the profile; saw {seen:?}"
            );
        }
    }

    // The ring topology's neighbourhood reduction is named too.
    let b = GpuBackend::new();
    let ring = PsoConfig::builder(48, 6)
        .max_iter(4)
        .seed(11)
        .topology(Topology::Ring { k: 1 })
        .build()
        .unwrap();
    b.run(&ring, &Sphere).unwrap();
    assert!(b.profile().launches_of("ring_lbest") > 0);
}

/// Geometry and derived metrics of every record are sane: non-zero
/// grid/block, positive modeled duration, occupancy in (0, 1], bandwidth
/// fraction in [0, 1), and start times non-decreasing (records are in
/// charge order on a single device).
#[test]
fn records_carry_sane_geometry_and_metrics() {
    let log = run_log(UpdateStrategy::SharedMem);
    assert!(log.is_complete());
    assert!(!log.is_empty());
    let mut last_start = 0.0f64;
    for k in &log.kernels {
        assert!(k.grid.iter().all(|&g| g >= 1), "{}: zero grid dim", k.name);
        assert!(
            k.block.iter().all(|&b| b >= 1),
            "{}: zero block dim",
            k.name
        );
        assert!(k.threads > 0, "{}: zero threads", k.name);
        assert!(k.duration_s > 0.0, "{}: zero modeled duration", k.name);
        assert!(
            k.occupancy > 0.0 && k.occupancy <= 1.0,
            "{}: occupancy {} out of range",
            k.name,
            k.occupancy
        );
        assert!(
            (0.0..1.0).contains(&k.bw_fraction),
            "{}: bandwidth fraction {} out of range",
            k.name,
            k.bw_fraction
        );
        assert!(
            k.start_s >= last_start,
            "{}: records out of charge order",
            k.name
        );
        last_start = k.start_s;
    }
}

/// The chrome://tracing exporter emits valid JSON whose event count
/// round-trips the log's record count exactly.
#[test]
fn chrome_trace_is_valid_json_and_round_trips_event_count() {
    let log = run_log(UpdateStrategy::GlobalMem);
    let json = chrome_trace_json(&log);
    let value = parse(&json).expect("exporter must emit valid JSON");
    assert!(value.get("traceEvents").is_some());
    assert_eq!(
        trace_event_count(&json).expect("well-formed trace"),
        log.len(),
        "every kernel/alloc/transfer record becomes exactly one trace event"
    );
}

/// A kernel name that needs escaping survives export: the exporter's
/// escapes decode back to the original name.
#[test]
fn chrome_trace_escapes_kernel_names() {
    const NAME: &str = "a\"b\\c\n";
    let dev = Device::v100();
    dev.charge_kernel(&KernelDesc::simple(NAME, Phase::Eval, 1, 4, 4, 64));
    let json = chrome_trace_json(&dev.profiler());
    assert_eq!(trace_event_count(&json), Ok(1));
    let Some(Json::Arr(events)) = parse(&json).unwrap().get("traceEvents").cloned() else {
        panic!("no traceEvents array in {json}");
    };
    assert_eq!(events[0].get("name"), Some(&Json::Str(NAME.into())));
}

/// The trace checker itself rejects what is not a well-formed trace.
#[test]
fn trace_checker_rejects_malformed_json() {
    for bad in [
        "{",
        "[1,]",
        "{\"a\":1} extra",
        "\"unterminated",
        "{\"traceEvents\":1}",
        "{}",
    ] {
        assert!(trace_event_count(bad).is_err(), "accepted {bad:?}");
    }
}

/// The nvprof-style summary lists every kernel by name with its call
/// count, hottest first.
#[test]
fn gpu_summary_lists_every_kernel() {
    let log = run_log(UpdateStrategy::GlobalMem);
    let summary = gpu_summary(&log, &GpuProfile::tesla_v100());
    assert!(summary.contains("GPU activities"));
    for (name, _) in log.counts_by_name() {
        assert!(summary.contains(name), "summary missing kernel `{name}`");
    }
    assert!(
        !summary.contains("evicted"),
        "a complete log must not warn about truncation"
    );
}

/// Ring-buffer overflow is *flagged*, never silent: the snapshot reports
/// the drop counts, `is_complete()` goes false, and the summary carries a
/// warning line.
#[test]
fn ring_buffer_truncation_is_flagged_not_silent() {
    let dev = Device::v100();
    dev.set_profiler_capacity(4, 2, 2);
    for _ in 0..10 {
        dev.begin_launch().unwrap();
        dev.charge_kernel(&KernelDesc::simple("spin", Phase::Eval, 1, 4, 4, 64));
    }
    let log = dev.profiler();
    assert!(!log.is_complete());
    assert_eq!(log.kernels.len(), 4, "ring keeps the newest records");
    assert_eq!(log.dropped_kernels, 6);
    assert_eq!(log.dropped_total(), 6);
    let summary = gpu_summary(&log, &GpuProfile::tesla_v100());
    assert!(
        summary.contains("evicted 6 records"),
        "summary must surface the drop:\n{summary}"
    );
}

/// `run()` resets the profiler along with the timeline: the log covers
/// exactly the most recent run, so two identical runs profile identically.
#[test]
fn profile_covers_exactly_the_last_run() {
    let b = GpuBackend::new();
    b.run(&cfg(3), &Sphere).unwrap();
    let first = b.profile();
    b.run(&cfg(3), &Sphere).unwrap();
    let second = b.profile();
    assert_eq!(first.kernels.len(), second.kernels.len());
    assert_eq!(first.counts_by_name(), second.counts_by_name());
}

/// A multi-device run merges per-device logs with device indices intact.
#[test]
fn multi_device_profiles_merge_with_device_indices() {
    let b = GpuBackend::with_group(DeviceGroup::v100s(2)).sync_every(2);
    b.run(&cfg(4), &Sphere).unwrap();
    let log = b.group().merged_profiler();
    assert!(log.is_complete());
    let devices: BTreeSet<usize> = log.kernels.iter().map(|k| k.device).collect();
    assert_eq!(
        devices,
        BTreeSet::from([0, 1]),
        "both devices must contribute records"
    );
    // The merged trace is still a valid chrome trace (pid = device).
    let json = chrome_trace_json(&log);
    assert_eq!(trace_event_count(&json).unwrap(), log.len());
}

/// A JSON value: just enough of a parser to validate the exporter's output
/// without a JSON library (the workspace vendors none).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Lit, // true, false or null
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// The reader's input. Every reader returns `None` on a syntax error.
type Chars<'a> = std::iter::Peekable<std::str::Chars<'a>>;

/// The next non-whitespace char, without consuming it.
fn peek(it: &mut Chars) -> Option<char> {
    while it.next_if(char::is_ascii_whitespace).is_some() {}
    it.peek().copied()
}

/// Consume `c` if it is the next non-whitespace char.
fn eat(it: &mut Chars, c: char) -> Option<()> {
    peek(it);
    it.next_if_eq(&c).map(drop)
}

fn value(it: &mut Chars) -> Option<Json> {
    match peek(it)? {
        '{' => seq(it, '}', |it| {
            let key = string(it)?;
            eat(it, ':')?;
            Some((key, value(it)?))
        })
        .map(Json::Obj),
        '[' => seq(it, ']', value).map(Json::Arr),
        '"' => string(it).map(Json::Str),
        first => {
            let word = |c: &char| c.is_ascii_alphanumeric() || "+-.".contains(*c);
            let word: String = std::iter::from_fn(|| it.next_if(word)).collect();
            match word.as_str() {
                "true" | "false" | "null" => Some(Json::Lit),
                _ if first == '-' || first.is_ascii_digit() => word.parse().ok().map(Json::Num),
                _ => None,
            }
        }
    }
}

/// The comma-separated items after an opening bracket, up to `close`.
fn seq<T>(it: &mut Chars, close: char, item: fn(&mut Chars) -> Option<T>) -> Option<Vec<T>> {
    it.next();
    let mut items = Vec::new();
    while eat(it, close).is_none() {
        if !items.is_empty() {
            eat(it, ',')?;
        }
        items.push(item(it)?);
    }
    Some(items)
}

fn string(it: &mut Chars) -> Option<String> {
    eat(it, '"')?;
    let mut out = String::new();
    loop {
        match it.next()? {
            '"' => return Some(out),
            '\\' => out.push(match it.next()? {
                c @ ('"' | '\\' | '/') => c,
                'n' => '\n',
                'r' => '\r',
                't' => '\t',
                'b' => '\u{8}',
                'f' => '\u{c}',
                'u' => {
                    let hex: String = it.by_ref().take(4).collect();
                    char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?
                }
                _ => return None,
            }),
            c if c < ' ' => return None,
            c => out.push(c),
        }
    }
}

/// Parse a whole document: one value and nothing after it.
fn parse(json: &str) -> Option<Json> {
    let it = &mut json.chars().peekable();
    let v = value(it)?;
    peek(it).is_none().then_some(v)
}

/// Validate a chrome://tracing document — `traceEvents` is an array of
/// events with a string `name`/`ph` and a numeric `ts`/`pid` — and count it.
fn trace_event_count(json: &str) -> Result<usize, String> {
    let doc = parse(json).ok_or("not valid JSON")?;
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        return Err("'traceEvents' is missing or not an array".into());
    };
    for (i, ev) in events.iter().enumerate() {
        for (key, numeric) in [("name", false), ("ph", false), ("ts", true), ("pid", true)] {
            match (ev.get(key), numeric) {
                (Some(Json::Str(_)), false) | (Some(Json::Num(_)), true) => {}
                _ => return Err(format!("event {i}: missing or mistyped '{key}'")),
            }
        }
    }
    Ok(events.len())
}
