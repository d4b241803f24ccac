//! The persistent content-addressed result store.
//!
//! ## On-disk layout (`<cache-dir>/`)
//!
//! ```text
//! seg-00000.jsonl   append-only data segments, one JSON line per result:
//! seg-00001.jsonl     {"key": "<32 hex>", "metrics": {…exact codec…}}
//! index.jsonl       append-only index, one JSON line per stored result:
//!                     {"key": "<32 hex>", "seg": 0, "off": 123, "len": 456}
//! ```
//!
//! Segments roll over at a byte limit (4 MiB by default) so no single
//! file grows without bound; the index maps each [`CacheKey`] to the
//! exact byte range of its line, so a lookup is one seek + one read on
//! an already-open handle: the store keeps one read handle, on the
//! segment of the last hit, and re-opens only when a hit lands in
//! another segment (one extra fd in total, not one per segment).
//! Everything is append-only — eviction is `rm seg-*.jsonl index.jsonl`
//! (documented in the README), never an in-place rewrite.
//!
//! ## Crash safety
//!
//! Data is flushed segment-first, index-second, so a crash can only
//! lose the *index* entry of a fully-written segment line, or leave a
//! truncated final line in one file. [`ResultStore::open`] repairs
//! both: malformed index lines are dropped, un-indexed segment tails
//! are re-indexed if they parse, and a truncated segment tail is
//! truncated away before the store appends anything new.

use crate::codec::{self, CacheKey};
use crate::fault::{FaultSite, Faults};
use crate::json::{self, JsonValue};
use mot3d_phys::fnv::FnvHashMap;
use mot3d_sim::Metrics;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Default segment rollover threshold in bytes.
pub const DEFAULT_SEGMENT_LIMIT: u64 = 4 * 1024 * 1024;

/// Hit/miss/insert counters since the store was opened.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups that found a cached result.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Results written.
    pub inserts: u64,
}

/// Byte range of one stored result line.
#[derive(Debug, Clone, Copy)]
struct EntryLoc {
    seg: u32,
    off: u64,
    len: u64,
}

/// A persistent map from [`CacheKey`] to [`Metrics`] — see the module
/// docs for layout and crash-safety.
#[derive(Debug)]
pub struct ResultStore {
    dir: PathBuf,
    index: FnvHashMap<CacheKey, EntryLoc>,
    index_out: BufWriter<File>,
    seg_id: u32,
    seg_out: BufWriter<File>,
    seg_len: u64,
    seg_limit: u64,
    /// The read handle of the last hit's segment (see the module docs).
    reader: Option<(u32, File)>,
    stats: StoreStats,
    faults: Faults,
}

fn seg_path(dir: &Path, seg: u32) -> PathBuf {
    dir.join(format!("seg-{seg:05}.jsonl"))
}

fn parse_index_line(line: &[u8]) -> Option<(CacheKey, EntryLoc)> {
    let v = json::parse(std::str::from_utf8(line).ok()?).ok()?;
    let key = CacheKey::from_hex(v.get("key")?.as_str()?)?;
    let seg = u32::try_from(v.get("seg")?.as_u64()?).ok()?;
    let off = v.get("off")?.as_u64()?;
    let len = v.get("len")?.as_u64()?;
    Some((key, EntryLoc { seg, off, len }))
}

/// Parses one segment line, returning its key iff the whole line —
/// including the embedded metrics — is well-formed.
fn parse_segment_line(line: &str) -> Option<CacheKey> {
    let v = json::parse(line).ok()?;
    let key = CacheKey::from_hex(v.get("key")?.as_str()?)?;
    codec::metrics_from_value(v.get("metrics")?).ok()?;
    Some(key)
}

fn append_writer(path: &Path) -> io::Result<BufWriter<File>> {
    Ok(BufWriter::new(
        OpenOptions::new().create(true).append(true).open(path)?,
    ))
}

impl ResultStore {
    /// Opens (creating if needed) the store in `dir`, repairing any
    /// crash-truncated tail — see the module docs.
    ///
    /// # Errors
    ///
    /// Fails on directory/file I/O errors.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<ResultStore> {
        Self::open_with_segment_limit(dir, DEFAULT_SEGMENT_LIMIT)
    }

    /// [`ResultStore::open`] with an explicit segment rollover limit
    /// (tests force small segments to exercise rollover).
    ///
    /// # Errors
    ///
    /// Fails on directory/file I/O errors.
    pub fn open_with_segment_limit(
        dir: impl Into<PathBuf>,
        seg_limit: u64,
    ) -> io::Result<ResultStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;

        // 1. Load the index, dropping malformed (crash-truncated) lines.
        let mut index: FnvHashMap<CacheKey, EntryLoc> = FnvHashMap::default();
        let index_path = dir.join("index.jsonl");
        if index_path.exists() {
            for line in fs::read(&index_path)?.split(|&b| b == b'\n') {
                if let Some((key, loc)) = parse_index_line(line) {
                    index.insert(key, loc);
                }
            }
        }

        // 2. Enumerate segments.
        let mut seg_ids: Vec<u32> = Vec::new();
        for entry in fs::read_dir(&dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if let Some(id) = name
                .strip_prefix("seg-")
                .and_then(|rest| rest.strip_suffix(".jsonl"))
                .and_then(|id| id.parse::<u32>().ok())
            {
                seg_ids.push(id);
            }
        }
        seg_ids.sort_unstable();

        // 3. Repair every segment: drop index entries pointing past the
        //    segment's end, re-index parseable un-indexed tails, and
        //    truncate away garbage so future appends start on a clean
        //    line boundary.
        let mut recovered: Vec<(CacheKey, EntryLoc)> = Vec::new();
        for &seg in &seg_ids {
            let path = seg_path(&dir, seg);
            let data = fs::read(&path)?;
            let file_len = data.len() as u64;
            // An entry is valid only if its line *and* trailing newline
            // fit inside the file (a tail truncated exactly at the
            // newline would otherwise corrupt the next append).
            index.retain(|_, loc| loc.seg != seg || loc.off.saturating_add(loc.len) < file_len);
            let indexed_end = index
                .values()
                .filter(|loc| loc.seg == seg)
                .map(|loc| loc.off + loc.len + 1)
                .max()
                .unwrap_or(0) as usize;
            let mut pos = indexed_end;
            let mut valid_end = indexed_end;
            while pos < data.len() {
                let Some(nl) = data[pos..].iter().position(|&b| b == b'\n') else {
                    break; // truncated final line
                };
                let Some(key) = std::str::from_utf8(&data[pos..pos + nl])
                    .ok()
                    .and_then(parse_segment_line)
                else {
                    break; // corrupt line: everything after is suspect
                };
                let loc = EntryLoc {
                    seg,
                    off: pos as u64,
                    len: nl as u64,
                };
                index.insert(key, loc);
                recovered.push((key, loc));
                pos += nl + 1;
                valid_end = pos;
            }
            if (valid_end as u64) < file_len {
                OpenOptions::new()
                    .write(true)
                    .open(&path)?
                    .set_len(valid_end as u64)?;
            }
        }

        // 4. Re-append recovered entries to the index so the next open
        //    does not need to re-scan.
        let mut index_out = append_writer(&index_path)?;
        for (key, loc) in &recovered {
            writeln!(
                index_out,
                "{{\"key\": \"{}\", \"seg\": {}, \"off\": {}, \"len\": {}}}",
                key.to_hex(),
                loc.seg,
                loc.off,
                loc.len
            )?;
        }
        index_out.flush()?;

        // 5. Open the newest segment (or the first) for appending.
        let seg_id = seg_ids.last().copied().unwrap_or(0);
        let path = seg_path(&dir, seg_id);
        let seg_out = append_writer(&path)?;
        let seg_len = fs::metadata(&path)?.len();
        Ok(ResultStore {
            dir,
            index,
            index_out,
            seg_id,
            seg_out,
            seg_len,
            seg_limit: seg_limit.max(1),
            reader: None,
            stats: StoreStats::default(),
            faults: Faults::none(),
        })
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of stored results.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the store holds no results.
    pub fn is_empty(&self) -> bool {
        self.index.len() == 0
    }

    /// Counters since open.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Attaches a fault-injection plan: scheduled
    /// [`FaultSite::StoreWrite`] operations make [`ResultStore::put`]
    /// fail with an I/O error before touching the segment file.
    pub fn set_faults(&mut self, faults: Faults) {
        self.faults = faults;
    }

    /// Flushes both append writers. Every [`ResultStore::put`] already
    /// flushes; this is the graceful-shutdown belt-and-braces for any
    /// future buffered path.
    ///
    /// # Errors
    ///
    /// Propagates the first writer flush failure.
    pub fn flush(&mut self) -> io::Result<()> {
        self.seg_out.flush()?;
        self.index_out.flush()
    }

    /// Looks up a cached result (counts a hit or a miss).
    ///
    /// # Errors
    ///
    /// Fails when the stored line cannot be read back or no longer
    /// parses (on-disk corruption after open).
    pub fn get(&mut self, key: CacheKey) -> io::Result<Option<Metrics>> {
        let Some(loc) = self.index.get(&key).copied() else {
            self.stats.misses += 1;
            return Ok(None);
        };
        // The line may still be buffered in the current segment writer.
        if loc.seg == self.seg_id {
            self.seg_out.flush()?;
        }
        let mut file = match self.reader.take() {
            Some((seg, file)) if seg == loc.seg => file,
            _ => File::open(seg_path(&self.dir, loc.seg))?,
        };
        file.seek(SeekFrom::Start(loc.off))?;
        let mut line = vec![0u8; usize::try_from(loc.len).map_err(|_| invalid("entry length"))?];
        file.read_exact(&mut line)?;
        // Kept only after a clean read: an I/O error re-opens next time.
        self.reader = Some((loc.seg, file));
        let text = std::str::from_utf8(&line).map_err(|_| invalid("non-UTF-8 segment line"))?;
        let v = json::parse(text).map_err(invalid)?;
        let stored_key = v
            .get("key")
            .and_then(JsonValue::as_str)
            .and_then(CacheKey::from_hex)
            .ok_or_else(|| invalid("segment line has no key"))?;
        if stored_key != key {
            return Err(invalid("index points at a different key"));
        }
        let metrics = v
            .get("metrics")
            .ok_or_else(|| invalid("segment line has no metrics"))
            .and_then(|m| codec::metrics_from_value(m).map_err(invalid))?;
        self.stats.hits += 1;
        Ok(Some(metrics))
    }

    /// Inserts a result (idempotent: re-inserting an existing key is a
    /// no-op). Both the segment line and the index line are flushed
    /// before returning, segment first.
    ///
    /// # Errors
    ///
    /// Fails on write errors; a partial write is repaired at next open.
    pub fn put(&mut self, key: CacheKey, metrics: &Metrics) -> io::Result<()> {
        if self.index.contains_key(&key) {
            return Ok(());
        }
        if self.faults.should_fail(FaultSite::StoreWrite) {
            return Err(io::Error::other("injected fault: store write"));
        }
        let line = format!(
            "{{\"key\": \"{}\", \"metrics\": {}}}",
            key.to_hex(),
            codec::metrics_to_json(metrics)
        );
        let line_len = line.len() as u64 + 1;
        if self.seg_len > 0 && self.seg_len + line_len > self.seg_limit {
            self.seg_out.flush()?;
            self.seg_id += 1;
            self.seg_out = append_writer(&seg_path(&self.dir, self.seg_id))?;
            self.seg_len = 0;
        }
        let loc = EntryLoc {
            seg: self.seg_id,
            off: self.seg_len,
            len: line.len() as u64,
        };
        writeln!(self.seg_out, "{line}")?;
        self.seg_out.flush()?;
        self.seg_len += line_len;
        writeln!(
            self.index_out,
            "{{\"key\": \"{}\", \"seg\": {}, \"off\": {}, \"len\": {}}}",
            key.to_hex(),
            loc.seg,
            loc.off,
            loc.len
        )?;
        self.index_out.flush()?;
        self.index.insert(key, loc);
        self.stats.inserts += 1;
        Ok(())
    }
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{cache_key, Fingerprint};
    use mot3d_bench::plan::ExperimentPlan;
    use mot3d_bench::ExperimentScale;

    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mot3d-store-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_records(n: usize) -> Vec<mot3d_bench::plan::RunRecord> {
        ExperimentPlan::new("store")
            .page_policies([false, true])
            .scale(ExperimentScale::tiny())
            .threads(1)
            .run()
            .unwrap()
            .into_iter()
            .take(n)
            .collect()
    }

    #[test]
    fn put_get_round_trips_across_reopen() {
        let dir = scratch_dir("roundtrip");
        let fp = Fingerprint::current();
        let records = sample_records(3);
        {
            let mut store = ResultStore::open(&dir).unwrap();
            for r in &records {
                store.put(cache_key(&fp, &r.point), &r.metrics).unwrap();
            }
            assert_eq!(store.stats().inserts, 3);
            assert_eq!(store.len(), 3);
            let m = store
                .get(cache_key(&fp, &records[1].point))
                .unwrap()
                .unwrap();
            assert_eq!(m, records[1].metrics);
            assert_eq!(store.stats().hits, 1);
        }
        let mut store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.len(), 3, "index persists");
        for r in &records {
            let m = store.get(cache_key(&fp, &r.point)).unwrap().unwrap();
            assert_eq!(m, r.metrics, "bit-identical across restart");
        }
        assert!(store
            .get(cache_key(&Fingerprint::custom("x"), &records[0].point))
            .unwrap()
            .is_none());
        assert_eq!(store.stats().misses, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reinsert_is_idempotent() {
        let dir = scratch_dir("idem");
        let fp = Fingerprint::current();
        let records = sample_records(1);
        let mut store = ResultStore::open(&dir).unwrap();
        let key = cache_key(&fp, &records[0].point);
        store.put(key, &records[0].metrics).unwrap();
        store.put(key, &records[0].metrics).unwrap();
        assert_eq!(store.stats().inserts, 1);
        assert_eq!(store.len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segments_roll_over_at_the_limit() {
        let dir = scratch_dir("rollover");
        let fp = Fingerprint::current();
        let records = sample_records(3);
        {
            // Every line exceeds 64 bytes, so each insert rolls over.
            let mut store = ResultStore::open_with_segment_limit(&dir, 64).unwrap();
            for r in &records {
                store.put(cache_key(&fp, &r.point), &r.metrics).unwrap();
            }
        }
        let segs = (0..3).filter(|&i| seg_path(&dir, i).exists()).count();
        assert!(segs >= 2, "expected rollover to create several segments");
        let mut store = ResultStore::open(&dir).unwrap();
        for r in &records {
            assert_eq!(
                store.get(cache_key(&fp, &r.point)).unwrap().unwrap(),
                r.metrics
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The one cached read handle follows hits from segment to segment:
    /// a hit right after its `put` (into the current segment, and right
    /// after each rollover), the oldest segment right after the newest,
    /// and the same lookups plus a fresh append after a reopen.
    #[test]
    fn cached_read_handle_follows_hits_across_segments_and_reopens() {
        let fp = Fingerprint::current();
        let records = sample_records(7);
        let keys: Vec<CacheKey> = records.iter().map(|r| cache_key(&fp, &r.point)).collect();
        let (stored, fresh) = (0..6, 6);
        let line_len = format!(
            "{{\"key\": \"{}\", \"metrics\": {}}}\n",
            keys[0].to_hex(),
            codec::metrics_to_json(&records[0].metrics)
        )
        .len() as u64;
        let hit = |store: &mut ResultStore, i: usize| {
            let got = store.get(keys[i]).unwrap();
            assert_eq!(got.as_ref(), Some(&records[i].metrics), "record {i}");
            let seg = store.index[&keys[i]].seg;
            assert_eq!(store.reader.as_ref().map(|r| r.0), Some(seg), "record {i}");
        };
        // One line per segment, then two lines per segment.
        for (name, limit) in [("handle-one", 64), ("handle-two", 5 * line_len / 2)] {
            let dir = scratch_dir(name);
            {
                let mut store = ResultStore::open_with_segment_limit(&dir, limit).unwrap();
                for i in stored.clone() {
                    store.put(keys[i], &records[i].metrics).unwrap();
                    hit(&mut store, i);
                    hit(&mut store, 0);
                    hit(&mut store, i);
                }
                assert!(store.seg_id >= 2, "{name}: rolled over");
                assert_eq!(store.stats().hits, 18);
            }
            let mut store = ResultStore::open_with_segment_limit(&dir, limit).unwrap();
            for i in stored.clone().rev().chain(stored.clone()) {
                hit(&mut store, i);
            }
            store.put(keys[fresh], &records[fresh].metrics).unwrap();
            hit(&mut store, fresh);
            hit(&mut store, 0);
            hit(&mut store, fresh);
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn truncated_index_tail_is_repaired_from_the_segment() {
        let dir = scratch_dir("repair-index");
        let fp = Fingerprint::current();
        let records = sample_records(2);
        {
            let mut store = ResultStore::open(&dir).unwrap();
            for r in &records {
                store.put(cache_key(&fp, &r.point), &r.metrics).unwrap();
            }
        }
        // Simulate a crash between segment flush and index flush: chop
        // the index's final line in half.
        let index_path = dir.join("index.jsonl");
        let index = fs::read_to_string(&index_path).unwrap();
        let keep = index.lines().next().unwrap().len() + 1 + 10;
        OpenOptions::new()
            .write(true)
            .open(&index_path)
            .unwrap()
            .set_len(keep as u64)
            .unwrap();
        let mut store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.len(), 2, "tail entry recovered from the segment");
        for r in &records {
            assert_eq!(
                store.get(cache_key(&fp, &r.point)).unwrap().unwrap(),
                r.metrics
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Index lines that no store writes — a multi-byte character across
    /// the key's midpoint, a signed key, an offset that overflows, bytes
    /// that are not UTF-8 — are dropped at open; the rest is served.
    #[test]
    fn corrupt_index_lines_are_dropped_and_the_rest_served() {
        let dir = scratch_dir("corrupt-index");
        let fp = Fingerprint::current();
        let records = sample_records(2);
        {
            let mut store = ResultStore::open(&dir).unwrap();
            for r in &records {
                store.put(cache_key(&fp, &r.point), &r.metrics).unwrap();
            }
        }
        let mut index = OpenOptions::new()
            .append(true)
            .open(dir.join("index.jsonl"))
            .unwrap();
        let line = |key: &str, off: u64| {
            format!("{{\"key\": \"{key}\", \"seg\": 0, \"off\": {off}, \"len\": 10}}\n")
        };
        for bad in [
            line(&format!("{}ab", "€".repeat(10)), 0),
            line("+000000000000000+000000000000000", 0),
            line(&"0".repeat(32), u64::MAX),
        ] {
            index.write_all(bad.as_bytes()).unwrap();
        }
        index.write_all(b"{\"key\": \"\xff\"}\n").unwrap();
        drop(index);
        let mut store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.len(), 2);
        for r in &records {
            assert_eq!(
                store.get(cache_key(&fp, &r.point)).unwrap().unwrap(),
                r.metrics
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_segment_tail_is_dropped_and_store_keeps_working() {
        let dir = scratch_dir("repair-seg");
        let fp = Fingerprint::current();
        let records = sample_records(2);
        {
            let mut store = ResultStore::open(&dir).unwrap();
            store
                .put(cache_key(&fp, &records[0].point), &records[0].metrics)
                .unwrap();
        }
        // Simulate a crash mid-segment-write: a partial line with no
        // matching index entry.
        let seg = seg_path(&dir, 0);
        let mut f = OpenOptions::new().append(true).open(&seg).unwrap();
        f.write_all(b"{\"key\": \"dead").unwrap();
        drop(f);
        {
            let mut store = ResultStore::open(&dir).unwrap();
            assert_eq!(store.len(), 1);
            // The garbage tail was truncated away: a new insert starts
            // on a clean line boundary and reads back fine.
            store
                .put(cache_key(&fp, &records[1].point), &records[1].metrics)
                .unwrap();
        }
        let mut store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.len(), 2);
        for r in &records {
            assert_eq!(
                store.get(cache_key(&fp, &r.point)).unwrap().unwrap(),
                r.metrics
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
