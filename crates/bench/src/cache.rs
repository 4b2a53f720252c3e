//! Content-addressed on-disk result cache for the sweep engine.
//!
//! Every sweep point is identified by a 64-bit FNV-1a key over
//! everything that determines its outcome: the cache format version,
//! the crate version, the application name, the design-column label,
//! the workload scale, and the full [`SystemConfig::fingerprint`]
//! (which folds in geometry, timing, energy, sketch, trigger policy,
//! DIMM-Link mode and the master seed). Two points with the same key
//! would run byte-identical simulations, so their `RunResult` can be
//! reused from disk.
//!
//! The result document must reproduce the in-memory result *exactly* —
//! `repro` output printed from a cache hit has to be byte-identical to
//! output printed from a live run. Integers are stored plainly; every
//! `f64` is stored as its IEEE-754 bit pattern (a `u64`), because a
//! decimal rendering like `{:.6}` cannot round-trip the low mantissa
//! bits. A human-readable decimal copy rides along for `git diff` /
//! eyeballing but is ignored by the decoder.
//!
//! A cache entry is that result document sealed by one last field,
//! `body_fnv1a`: the FNV-1a hash of every byte before it. (The golden
//! references in `tests/golden/` are unsealed result documents.)
//!
//! Decoding is fail-open: any parse error, format-version mismatch, seal
//! mismatch or missing field is reported as a cache miss and the entry
//! is re-simulated and overwritten. A stale or corrupt cache can cost
//! time, never correctness: a flipped digit breaks the seal instead of
//! decoding as a valid but wrong result.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use ndpb_core::config::SystemConfig;
use ndpb_core::result::RunResult;
use ndpb_dram::EnergyBreakdown;
use ndpb_sim::fingerprint::fingerprint_str;
use ndpb_sim::{Fnv1a64, SimTime};
use ndpb_trace::{MetricsReport, MetricsSnapshot};
use ndpb_workloads::Scale;

use crate::json::Json;

/// Version of the result document's layout ([`encode_document`]).
const DOCUMENT_FORMAT: u32 = 1;

/// Version of a cache entry: a result document of `DOCUMENT_FORMAT`
/// plus its seal. Bump it when either changes; it is folded into every
/// key, so entries of another format are never read. Version 2 added
/// the seal.
pub const CACHE_FORMAT: u32 = 2;

/// What precedes the seal at the end of a cache entry. Named apart from
/// `RunResult::checksum`, the application's output checksum inside the
/// document.
const SEAL: &str = ",\n  \"body_fnv1a\": ";

/// The cache key for one sweep point.
pub fn point_key(app: &str, column_label: &str, scale: Scale, cfg: &SystemConfig) -> u64 {
    let mut h = Fnv1a64::new();
    h.write_u64(CACHE_FORMAT as u64);
    // Simulator behaviour may change between releases; never serve a
    // previous version's results.
    h.write_str(env!("CARGO_PKG_VERSION"));
    h.write_str(app);
    h.write_str(column_label);
    h.write_str(&format!("{scale:?}"));
    h.write_u64(cfg.fingerprint());
    h.finish()
}

/// Serializes a [`RunResult`] as a sealed cache entry: the
/// [`encode_document`] text with `body_fnv1a` as its last field.
pub fn encode_result(r: &RunResult) -> String {
    seal(encode_document(r))
}

/// Appends the seal to a result document: its closing brace gives way
/// to `body_fnv1a`, the hash of everything before that field.
fn seal(mut doc: String) -> String {
    let body_len = doc
        .strip_suffix("\n}\n")
        .expect("a result document ends with its closing brace")
        .len();
    doc.truncate(body_len);
    let hash = fingerprint_str(&doc);
    let _ = write!(doc, "{SEAL}{hash}\n}}\n");
    doc
}

/// Decodes a cache entry produced by [`encode_result`]. `None` on any
/// mismatch, the seal's included (treated as a cache miss by callers).
pub fn decode_result(text: &str) -> Option<RunResult> {
    let (body, tail) = text.rsplit_once(SEAL)?;
    if tail != format!("{}\n}}\n", fingerprint_str(body)) {
        return None;
    }
    decode_document(text)
}

/// Serializes a [`RunResult`] as the result JSON document:
/// pretty-printed one field per line (diff-friendly), floats duplicated
/// as decimal (for humans) and bit pattern (for exact decode).
///
/// The `trace` field is deliberately not persisted — traced runs bypass
/// the cache entirely, and untraced runs have an empty trace.
pub fn encode_document(r: &RunResult) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"format\": {DOCUMENT_FORMAT},");
    let _ = writeln!(s, "  \"app\": \"{}\",", escape(&r.app));
    let _ = writeln!(s, "  \"design\": \"{}\",", escape(&r.design));
    let _ = writeln!(s, "  \"makespan_ticks\": {},", r.makespan.ticks());
    let _ = writeln!(s, "  \"avg_unit_ticks\": {},", r.avg_unit_time.ticks());
    let _ = writeln!(s, "  \"max_unit_ticks\": {},", r.max_unit_time.ticks());
    let _ = writeln!(s, "  \"wait_fraction\": {:.6},", r.wait_fraction);
    let _ = writeln!(
        s,
        "  \"wait_fraction_bits\": {},",
        r.wait_fraction.to_bits()
    );
    let _ = writeln!(s, "  \"balance\": {:.6},", r.balance);
    let _ = writeln!(s, "  \"balance_bits\": {},", r.balance.to_bits());
    let _ = writeln!(s, "  \"tasks_executed\": {},", r.tasks_executed);
    let _ = writeln!(s, "  \"tasks_rerouted\": {},", r.tasks_rerouted);
    let _ = writeln!(s, "  \"messages_delivered\": {},", r.messages_delivered);
    let _ = writeln!(s, "  \"rank_bus_bytes\": {},", r.rank_bus_bytes);
    let _ = writeln!(s, "  \"channel_bytes\": {},", r.channel_bytes);
    let _ = writeln!(s, "  \"comm_dram_bytes\": {},", r.comm_dram_bytes);
    let _ = writeln!(s, "  \"local_dram_bytes\": {},", r.local_dram_bytes);
    let _ = writeln!(s, "  \"lb_rounds\": {},", r.lb_rounds);
    let _ = writeln!(s, "  \"blocks_migrated\": {},", r.blocks_migrated);
    let _ = writeln!(
        s,
        "  \"energy_pj\": {{\"core_sram\": {:.1}, \"dram_local\": {:.1}, \"dram_comm\": {:.1}, \"static\": {:.1}}},",
        r.energy.core_sram_pj, r.energy.dram_local_pj, r.energy.dram_comm_pj, r.energy.static_pj
    );
    let _ = writeln!(
        s,
        "  \"energy_bits\": {{\"core_sram\": {}, \"dram_local\": {}, \"dram_comm\": {}, \"static\": {}}},",
        r.energy.core_sram_pj.to_bits(),
        r.energy.dram_local_pj.to_bits(),
        r.energy.dram_comm_pj.to_bits(),
        r.energy.static_pj.to_bits()
    );
    let _ = writeln!(s, "  \"checksum\": {},", r.checksum);
    let _ = writeln!(s, "  \"events\": {},", r.events);
    s.push_str("  \"per_unit_busy\": [");
    for (i, b) in r.per_unit_busy.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{b}");
    }
    s.push_str("],\n");
    // Reuse the existing serde-free writer for the metrics block.
    let _ = writeln!(s, "  \"metrics\": {}", r.metrics.to_json());
    s.push_str("}\n");
    s
}

/// Decodes a document produced by [`encode_document`]; unknown fields,
/// such as the seal, are ignored. `None` on any mismatch.
pub fn decode_document(text: &str) -> Option<RunResult> {
    let j = Json::parse(text).ok()?;
    if j.u64_field("format")? != DOCUMENT_FORMAT as u64 {
        return None;
    }
    let energy_bits = j.get("energy_bits")?;
    let metrics = decode_metrics(j.get("metrics")?)?;
    Some(RunResult {
        app: j.str_field("app")?.to_string(),
        design: j.str_field("design")?.to_string(),
        makespan: SimTime::from_ticks(j.u64_field("makespan_ticks")?),
        avg_unit_time: SimTime::from_ticks(j.u64_field("avg_unit_ticks")?),
        max_unit_time: SimTime::from_ticks(j.u64_field("max_unit_ticks")?),
        wait_fraction: f64::from_bits(j.u64_field("wait_fraction_bits")?),
        balance: f64::from_bits(j.u64_field("balance_bits")?),
        tasks_executed: j.u64_field("tasks_executed")?,
        tasks_rerouted: j.u64_field("tasks_rerouted")?,
        messages_delivered: j.u64_field("messages_delivered")?,
        rank_bus_bytes: j.u64_field("rank_bus_bytes")?,
        channel_bytes: j.u64_field("channel_bytes")?,
        comm_dram_bytes: j.u64_field("comm_dram_bytes")?,
        local_dram_bytes: j.u64_field("local_dram_bytes")?,
        lb_rounds: j.u64_field("lb_rounds")?,
        blocks_migrated: j.u64_field("blocks_migrated")?,
        energy: EnergyBreakdown {
            core_sram_pj: f64::from_bits(energy_bits.u64_field("core_sram")?),
            dram_local_pj: f64::from_bits(energy_bits.u64_field("dram_local")?),
            dram_comm_pj: f64::from_bits(energy_bits.u64_field("dram_comm")?),
            static_pj: f64::from_bits(energy_bits.u64_field("static")?),
        },
        checksum: j.u64_field("checksum")?,
        events: j.u64_field("events")?,
        per_unit_busy: j
            .get("per_unit_busy")?
            .as_arr()?
            .iter()
            .map(Json::as_u64)
            .collect::<Option<Vec<u64>>>()?,
        metrics,
        trace: Vec::new(),
        trace_dropped: 0,
        // Cache hits replay a past run; a wall-clock profile describes
        // only the run that produced it.
        profile: None,
    })
}

fn decode_metrics(j: &Json) -> Option<MetricsReport> {
    let names = j
        .get("metrics")?
        .as_arr()?
        .iter()
        .map(|n| n.as_str().map(str::to_string))
        .collect::<Option<Vec<String>>>()?;
    let snapshots = j
        .get("snapshots")?
        .as_arr()?
        .iter()
        .map(|s| {
            Some(MetricsSnapshot {
                label: s.str_field("label")?.to_string(),
                at_ticks: s.u64_field("t_ticks")?,
                values: s
                    .get("values")?
                    .as_arr()?
                    .iter()
                    .map(Json::as_u64)
                    .collect::<Option<Vec<u64>>>()?,
            })
        })
        .collect::<Option<Vec<MetricsSnapshot>>>()?;
    Some(MetricsReport { names, snapshots })
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// A directory of cached results, one file per key.
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// A cache rooted at `dir` (created lazily on first store).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ResultCache { dir: dir.into() }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file a key maps to.
    pub fn path_for(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.json"))
    }

    /// Loads the result for `key`, if a valid entry exists.
    pub fn load(&self, key: u64) -> Option<RunResult> {
        let text = fs::read_to_string(self.path_for(key)).ok()?;
        decode_result(&text)
    }

    /// Stores `result` under `key`, creating the directory if needed.
    /// Writes via a temp file + atomic rename so a crashed run never
    /// leaves a torn entry behind. The temp name is unique per writer
    /// (pid + process-local counter): the server and a concurrent CLI
    /// run may both store the same key into a shared `--cache-dir`, and
    /// with a shared temp name the loser's rename would fail on a file
    /// the winner already moved. Both writers produce identical bytes
    /// for a given key, so last-rename-wins is correct.
    pub fn store(&self, key: u64, result: &RunResult) -> io::Result<()> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        fs::create_dir_all(&self.dir)?;
        let tmp = self.dir.join(format!(
            "{key:016x}.{}.{}.tmp",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::write(&tmp, encode_result(result))?;
        fs::rename(&tmp, self.path_for(key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_one, Column, SweepPoint, Sweeper};
    use ndpb_core::design::DesignPoint;
    use ndpb_dram::Geometry;

    fn tiny_cfg() -> SystemConfig {
        SystemConfig::with_geometry(Geometry::with_total_ranks(1))
    }

    fn assert_exact_roundtrip(r: &RunResult) {
        let back = decode_result(&encode_result(r)).expect("decode");
        assert_eq!(back.app, r.app);
        assert_eq!(back.design, r.design);
        assert_eq!(back.makespan, r.makespan);
        assert_eq!(back.avg_unit_time, r.avg_unit_time);
        assert_eq!(back.max_unit_time, r.max_unit_time);
        assert_eq!(back.wait_fraction.to_bits(), r.wait_fraction.to_bits());
        assert_eq!(back.balance.to_bits(), r.balance.to_bits());
        assert_eq!(back.tasks_executed, r.tasks_executed);
        assert_eq!(back.per_unit_busy, r.per_unit_busy);
        assert_eq!(back.metrics, r.metrics);
        assert_eq!(
            back.energy.total_pj().to_bits(),
            r.energy.total_pj().to_bits()
        );
        // The byte-identity that matters downstream: printed output of a
        // cache hit equals printed output of the live run.
        assert_eq!(back.to_json(), r.to_json());
        assert_eq!(back.row(), r.row());
        assert_eq!(back.metrics.to_json(), r.metrics.to_json());
    }

    #[test]
    fn roundtrip_is_bit_exact_on_a_real_run() {
        let r = run_one("ll", DesignPoint::O, tiny_cfg(), Scale::Tiny);
        assert!(r.tasks_executed > 0);
        assert_exact_roundtrip(&r);
    }

    #[test]
    fn keys_separate_every_dimension() {
        let cfg = tiny_cfg();
        let base = point_key("ll", "O", Scale::Tiny, &cfg);
        assert_eq!(base, point_key("ll", "O", Scale::Tiny, &cfg), "stable");
        assert_ne!(base, point_key("ht", "O", Scale::Tiny, &cfg), "app");
        assert_ne!(base, point_key("ll", "B", Scale::Tiny, &cfg), "column");
        assert_ne!(base, point_key("ll", "O", Scale::Small, &cfg), "scale");
        let mut other = tiny_cfg();
        other.seed ^= 1;
        assert_ne!(base, point_key("ll", "O", Scale::Tiny, &other), "config");
    }

    #[test]
    fn store_load_and_corruption_handling() {
        let dir = std::env::temp_dir().join(format!("ndpb-cache-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cache = ResultCache::new(&dir);
        let r = run_one("spmv", DesignPoint::B, tiny_cfg(), Scale::Tiny);
        let key = point_key("spmv", "B", Scale::Tiny, &tiny_cfg());
        assert!(cache.load(key).is_none(), "cold cache misses");
        cache.store(key, &r).expect("store");
        let entry = fs::read_to_string(cache.path_for(key)).unwrap();
        assert_eq!(entry, encode_result(&r), "the store writes the entry");
        let hit = cache.load(key).expect("warm cache hits");
        assert_eq!(hit.to_json(), r.to_json());
        // Corrupt entries miss instead of erroring.
        fs::write(cache.path_for(key), "{\"format\": 1, \"app\": tru").unwrap();
        assert!(cache.load(key).is_none());
        // Documents of another version miss, even when sealed.
        let stale = encode_document(&r).replacen("\"format\": 1,", "\"format\": 0,", 1);
        fs::write(cache.path_for(key), seal(stale)).unwrap();
        assert!(cache.load(key).is_none());
        // One flipped digit leaves a valid but wrong result, which the
        // seal turns into a miss.
        let at = entry.find("\"makespan_ticks\": ").unwrap() + "\"makespan_ticks\": ".len();
        let digit = if entry.as_bytes()[at] == b'9' {
            "8"
        } else {
            "9"
        };
        let flipped = format!("{}{digit}{}", &entry[..at], &entry[at + 1..]);
        let wrong = decode_document(&flipped).expect("still a result document");
        assert_ne!(wrong.makespan, r.makespan);
        fs::write(cache.path_for(key), &flipped).unwrap();
        assert!(cache.load(key).is_none(), "a flipped digit must miss");
        // A sweep then re-simulates the point and rewrites its entry.
        let sw = Sweeper::new(1).with_cache(&dir);
        let point = SweepPoint::new("spmv", Column::Ndp(DesignPoint::B), tiny_cfg(), Scale::Tiny);
        assert_eq!(point.key(), key);
        assert_eq!(sw.run(vec![point])[0].to_json(), r.to_json());
        let report = sw.metrics().report();
        assert_eq!(report.final_value("sweep/simulated"), Some(1));
        assert_eq!(fs::read_to_string(cache.path_for(key)).unwrap(), entry);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_stores_of_one_key_all_succeed() {
        let dir = std::env::temp_dir().join(format!("ndpb-cache-race-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cache = ResultCache::new(&dir);
        let r = run_one("ll", DesignPoint::C, tiny_cfg(), Scale::Tiny);
        let key = point_key("ll", "C", Scale::Tiny, &tiny_cfg());
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..16 {
                        cache.store(key, &r).expect("store under contention");
                    }
                });
            }
        });
        let hit = cache.load(key).expect("entry readable after the race");
        assert_eq!(hit.to_json(), r.to_json());
        // No temp litter left behind, only the entry itself.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(
            leftovers,
            vec![std::ffi::OsString::from(format!("{key:016x}.json"))]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn decode_rejects_missing_fields() {
        assert!(decode_result("{}").is_none());
        assert!(decode_result("not json").is_none());
        assert!(decode_result("{\"format\": 1}").is_none());
    }
}
