//! The durable per-job ledger: `spec.json` + `output.ndjson` + `journal.ndjson`.
//!
//! Every job owns one directory under the server's state dir:
//!
//! ```text
//! jobs/j000042/
//!   spec.json      # the canonical enerj-serve/1 spec, written once
//!   output.ndjson  # committed trial lines only, in trial-index order
//!   journal.ndjson # one record per committed chunk, plus a final verdict
//! ```
//!
//! The commit protocol makes `kill -9` at any instant recoverable without
//! ever re-emitting or losing a committed byte:
//!
//! 1. append the chunk's NDJSON bytes to `output.ndjson`, `fsync`;
//! 2. append the chunk record (byte count, FNV-1a 64 hash, exact quanta,
//!    error sum, degrade rung) to `journal.ndjson`, `fsync`.
//!
//! A run of consecutive chunks commits as one group
//! (`Journal::append_group`): every payload, one output `fsync`, then
//! every record (and the verdict, when the run ends the job), one journal
//! `fsync`. Output still reaches the disk before any record that blesses it.
//!
//! A crash between (1) and (2) leaves orphan output bytes with no journal
//! record; recovery truncates the output back to the journaled byte count
//! and the chunk simply re-runs — trials are pure functions of their spec,
//! so the re-run reproduces the identical bytes. A crash *during* either
//! append leaves a torn tail; recovery drops the partial trailing journal
//! line, verifies every chunk's hash against the output bytes, and
//! truncates both files to the longest verified prefix. The concatenation
//! of committed output across any crash/restart sequence is therefore
//! byte-identical to an uninterrupted run.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

use enerj_apps::json::Json;
use enerj_apps::trials::json_string;
use enerj_hw::quanta::EnergyQuanta;

/// Seed/prime pair of FNV-1a 64 — the integrity hash on every chunk record.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64 over `bytes`: tiny, dependency-free, and plenty for
/// detecting torn or corrupted chunk payloads (this is integrity
/// checking against crashes, not an adversarial MAC).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// One committed chunk, exactly as journaled.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkRecord {
    /// Chunk index (records are strictly sequential from 0).
    pub chunk: usize,
    /// First trial index in the chunk.
    pub lo: usize,
    /// One past the last trial index.
    pub hi: usize,
    /// NDJSON payload length appended to `output.ndjson`.
    pub bytes: u64,
    /// FNV-1a 64 of the payload.
    pub hash: u64,
    /// Exact scaled energy of the chunk's trials.
    pub quanta_total: EnergyQuanta,
    /// Exact precise-baseline energy of the chunk's trials.
    pub quanta_baseline: EnergyQuanta,
    /// Chunk error sum as IEEE-754 bits — exact round-trip, so resumed
    /// mean-error folds are bit-identical to uninterrupted ones.
    pub error_sum_bits: u64,
    /// Panicked trials in the chunk.
    pub panics: usize,
    /// The degrade rung in force *after* this commit: the deterministic
    /// input for every later chunk, which is what makes degrade-on-budget
    /// replay-exact across restarts.
    pub degrade_after: u32,
}

impl ChunkRecord {
    fn to_line(&self) -> String {
        format!(
            "{{\"rec\":\"chunk\",\"chunk\":{},\"lo\":{},\"hi\":{},\"bytes\":{},\"hash\":{},\
             \"quanta_total\":{},\"quanta_baseline\":{},\"error_sum_bits\":{},\"panics\":{},\
             \"degrade_after\":{}}}\n",
            self.chunk,
            self.lo,
            self.hi,
            self.bytes,
            self.hash,
            self.quanta_total,
            self.quanta_baseline,
            self.error_sum_bits,
            self.panics,
            self.degrade_after,
        )
    }

    fn from_json(doc: &Json) -> Option<ChunkRecord> {
        Some(ChunkRecord {
            chunk: int_of(doc, "chunk")?,
            lo: int_of(doc, "lo")?,
            hi: int_of(doc, "hi")?,
            bytes: int_of(doc, "bytes")?,
            hash: int_of(doc, "hash")?,
            quanta_total: EnergyQuanta::new(int_of(doc, "quanta_total")?),
            quanta_baseline: EnergyQuanta::new(int_of(doc, "quanta_baseline")?),
            error_sum_bits: int_of(doc, "error_sum_bits")?,
            panics: int_of(doc, "panics")?,
            degrade_after: int_of(doc, "degrade_after")?,
        })
    }
}

/// The integer field `key` of a journal record, if it holds a non-negative
/// integer that fits `T`. A value that does not fit is corruption, never
/// wrapped: it ends the verified prefix like a torn line.
fn int_of<T: TryFrom<u128>>(doc: &Json, key: &str) -> Option<T> {
    T::try_from(doc.get(key)?.as_u128()?).ok()
}

/// The terminal verdict record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct VerdictRecord {
    /// `complete`, `over_quota`, `deadline_exceeded` or `failed`.
    pub verdict: String,
    /// Trials whose output is committed (always a prefix `0..trials_done`).
    pub trials_done: usize,
}

impl VerdictRecord {
    fn to_line(&self) -> String {
        format!(
            "{{\"rec\":\"verdict\",\"verdict\":{},\"trials_done\":{}}}\n",
            json_string(&self.verdict),
            self.trials_done,
        )
    }
}

/// A job's durable state as read back from disk.
#[derive(Debug)]
pub(crate) struct Recovered {
    /// The canonical spec text from `spec.json`.
    pub spec_text: String,
    /// The verified committed chunk records, in order.
    pub chunks: Vec<ChunkRecord>,
    /// Verified committed length of `output.ndjson` (both files have been
    /// truncated to the verified prefix by the time this returns).
    pub committed_bytes: u64,
    /// The terminal verdict, when the job had finished.
    pub verdict: Option<VerdictRecord>,
}

/// An open job ledger with the two append handles.
#[derive(Debug)]
pub struct Journal {
    output: File,
    journal: File,
}

impl Journal {
    /// Creates a fresh job directory with a durable `spec.json` and both
    /// (empty) append files. The directory is fsync'd after all three
    /// entries exist, then its parent, so the job itself survives a power
    /// loss once this returns.
    pub fn create(dir: &Path, spec_text: &str) -> io::Result<Journal> {
        fs::create_dir_all(dir)?;
        let spec_path = dir.join("spec.json");
        let mut spec = File::create(&spec_path)?;
        spec.write_all(spec_text.as_bytes())?;
        spec.write_all(b"\n")?;
        spec.sync_all()?;
        let journal = Self::open(dir)?;
        sync_dir(dir);
        if let Some(parent) = dir.parent() {
            sync_dir(parent);
        }
        Ok(journal)
    }

    /// Opens an existing job directory for appending.
    pub(crate) fn open(dir: &Path) -> io::Result<Journal> {
        let output =
            OpenOptions::new().create(true).append(true).open(dir.join("output.ndjson"))?;
        let journal =
            OpenOptions::new().create(true).append(true).open(dir.join("journal.ndjson"))?;
        Ok(Journal { output, journal })
    }

    /// Commits one chunk: output bytes first (fsync), then the record
    /// (fsync). `payload` must hash to `rec.hash` and be `rec.bytes` long.
    pub fn append_chunk(&mut self, payload: &[u8], rec: &ChunkRecord) -> io::Result<()> {
        self.append_group(&[(payload, rec.clone())], None)
    }

    /// Commits a run of consecutive chunks, and the job's terminal verdict
    /// when there is one, with one fsync per file: every payload, then one
    /// output fsync, then every record and the verdict, then one journal
    /// fsync. A crash anywhere in between leaves what a crash between
    /// single-chunk commits leaves — records whose output is durable, then
    /// torn or missing lines — so [`recover`] keeps the verified prefix.
    /// Each payload must hash to its record's `hash` and be `bytes` long.
    pub(crate) fn append_group<P: AsRef<[u8]>>(
        &mut self,
        chunks: &[(P, ChunkRecord)],
        verdict: Option<&VerdictRecord>,
    ) -> io::Result<()> {
        let mut lines = String::new();
        for (payload, rec) in chunks {
            let payload = payload.as_ref();
            debug_assert_eq!(payload.len() as u64, rec.bytes);
            debug_assert_eq!(fnv1a(payload), rec.hash);
            self.output.write_all(payload)?;
            lines.push_str(&rec.to_line());
        }
        if !chunks.is_empty() {
            self.output.sync_all()?;
        }
        if let Some(v) = verdict {
            lines.push_str(&v.to_line());
        }
        self.journal.write_all(lines.as_bytes())?;
        self.journal.sync_all()
    }
}

/// Best-effort directory fsync, which makes the entries created in `dir`
/// durable (POSIX: a file's own fsync does not cover its directory entry).
fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// Reads a job directory back, verifying and truncating to the longest
/// committed prefix (see the module docs for the torn-write rules).
///
/// # Errors
///
/// I/O errors only; a torn or hash-mismatched tail is repaired, not an
/// error. A missing or unreadable `spec.json` *is* an error — without the
/// spec the output bytes are unattributable.
pub(crate) fn recover(dir: &Path) -> io::Result<Recovered> {
    let spec_text = fs::read_to_string(dir.join("spec.json"))?.trim_end().to_owned();
    let output_path = dir.join("output.ndjson");
    let journal_path = dir.join("journal.ndjson");
    let output_bytes = match fs::read(&output_path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    let journal_bytes = match fs::read(&journal_path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };

    let mut chunks = Vec::new();
    let mut verdict = None;
    let mut committed_bytes = 0u64;
    // Journal bytes surviving verification: grows line by line and becomes
    // the truncation point the moment anything fails to verify.
    let mut good_journal_len = 0usize;
    let mut cursor = 0usize;
    while cursor < journal_bytes.len() {
        let Some(nl) = journal_bytes[cursor..].iter().position(|&b| b == b'\n') else {
            break; // torn trailing line: drop it
        };
        let line = &journal_bytes[cursor..cursor + nl];
        let next = cursor + nl + 1;
        let Ok(text) = std::str::from_utf8(line) else { break };
        let Ok(doc) = Json::parse(text) else { break };
        match doc.get("rec").and_then(|r| r.as_str()) {
            Some("chunk") => {
                let Some(rec) = ChunkRecord::from_json(&doc) else { break };
                if rec.chunk != chunks.len() || verdict.is_some() {
                    break; // out-of-sequence record: corruption, stop here
                }
                let lo = committed_bytes as usize;
                let hi = lo + rec.bytes as usize;
                if hi > output_bytes.len() || fnv1a(&output_bytes[lo..hi]) != rec.hash {
                    break; // output never made it (or tore): chunk re-runs
                }
                committed_bytes = hi as u64;
                chunks.push(rec);
            }
            Some("verdict") => {
                let (Some(v), Some(trials_done)) =
                    (doc.get("verdict").and_then(|v| v.as_str()), int_of(&doc, "trials_done"))
                else {
                    break;
                };
                verdict = Some(VerdictRecord { verdict: v.to_owned(), trials_done });
            }
            _ => break,
        }
        good_journal_len = next;
        cursor = next;
    }

    if good_journal_len < journal_bytes.len() {
        truncate_to(&journal_path, good_journal_len as u64)?;
    }
    if (committed_bytes as usize) < output_bytes.len() {
        truncate_to(&output_path, committed_bytes)?;
    }
    Ok(Recovered { spec_text, chunks, committed_bytes, verdict })
}

fn truncate_to(path: &Path, len: u64) -> io::Result<()> {
    if !path.exists() {
        return Ok(());
    }
    let f = OpenOptions::new().write(true).open(path)?;
    f.set_len(len)?;
    f.sync_all()
}

/// Reads `len` committed bytes starting at `offset` from a job's output
/// file (the streaming threads' read path — they never touch the append
/// handle and only ever read bytes a journal record has blessed).
pub(crate) fn read_output(dir: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
    let mut f = File::open(dir.join("output.ndjson"))?;
    f.seek(SeekFrom::Start(offset))?;
    let mut buf = vec![0u8; len];
    f.read_exact(&mut buf)?;
    Ok(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(chunk: usize, payload: &[u8], degrade: u32) -> ChunkRecord {
        ChunkRecord {
            chunk,
            lo: chunk * 2,
            hi: chunk * 2 + 2,
            bytes: payload.len() as u64,
            hash: fnv1a(payload),
            quanta_total: EnergyQuanta::new(100 + chunk as u128),
            quanta_baseline: EnergyQuanta::new(200 + chunk as u128),
            error_sum_bits: (0.125f64 * (chunk as f64 + 1.0)).to_bits(),
            panics: 0,
            degrade_after: degrade,
        }
    }

    fn tempdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("enerj-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("tempdir");
        dir
    }

    #[test]
    fn round_trips_chunks_and_verdict() {
        let dir = tempdir("roundtrip");
        let mut j = Journal::create(&dir, "{\"spec\":true}").expect("create");
        let (a, b) = (b"line-a\n".as_slice(), b"line-b\n".as_slice());
        j.append_chunk(a, &rec(0, a, 0)).expect("chunk 0");
        j.append_chunk(b, &rec(1, b, 1)).expect("chunk 1");
        let done = VerdictRecord { verdict: "complete".to_owned(), trials_done: 4 };
        j.append_group::<&[u8]>(&[], Some(&done)).expect("verdict");
        let r = recover(&dir).expect("recover");
        assert_eq!(r.spec_text, "{\"spec\":true}");
        assert_eq!(r.chunks.len(), 2);
        assert_eq!(r.chunks[1], rec(1, b, 1));
        assert_eq!(r.committed_bytes, (a.len() + b.len()) as u64);
        assert_eq!(
            r.verdict,
            Some(VerdictRecord { verdict: "complete".to_owned(), trials_done: 4 })
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_drops_torn_journal_tail_and_orphan_output() {
        let dir = tempdir("torn");
        let mut j = Journal::create(&dir, "{}").expect("create");
        let a = b"committed\n".as_slice();
        j.append_chunk(a, &rec(0, a, 0)).expect("chunk 0");
        // Crash mid-commit: orphan output bytes, then a torn journal line.
        fs::OpenOptions::new()
            .append(true)
            .open(dir.join("output.ndjson"))
            .unwrap()
            .write_all(b"orphan bytes with no journal record")
            .unwrap();
        fs::OpenOptions::new()
            .append(true)
            .open(dir.join("journal.ndjson"))
            .unwrap()
            .write_all(b"{\"rec\":\"chunk\",\"chunk\":1,\"lo\":2,")
            .unwrap();
        let r = recover(&dir).expect("recover");
        assert_eq!(r.chunks.len(), 1);
        assert_eq!(r.committed_bytes, a.len() as u64);
        assert!(r.verdict.is_none());
        // Both files were physically truncated to the verified prefix.
        assert_eq!(fs::read(dir.join("output.ndjson")).unwrap(), a);
        let journal = fs::read_to_string(dir.join("journal.ndjson")).unwrap();
        assert!(journal.ends_with('\n'));
        assert_eq!(journal.lines().count(), 1);
        // Recovery is idempotent and appending continues cleanly.
        let mut j2 = Journal::open(&dir).expect("reopen");
        let b = b"after-crash\n".as_slice();
        j2.append_chunk(b, &rec(1, b, 0)).expect("chunk 1");
        let r2 = recover(&dir).expect("recover again");
        assert_eq!(r2.chunks.len(), 2);
        assert_eq!(r2.committed_bytes, (a.len() + b.len()) as u64);
        fs::remove_dir_all(&dir).ok();
    }

    /// Crash safety of the group commit: one chunk committed alone, then a
    /// group of three chunks plus the verdict. Tearing either file at every
    /// byte offset of the group (the other intact), or losing the whole
    /// journal half after the output fsync, must recover the longest
    /// verified prefix and truncate both files to it.
    #[test]
    fn group_commit_torn_at_every_offset_keeps_the_verified_prefix() {
        let dir = tempdir("group");
        let payloads: [&[u8]; 4] = [b"zero\n", b"one-1\n", b"two-22\n", b"three-333\n"];
        let recs: Vec<ChunkRecord> =
            payloads.iter().enumerate().map(|(c, p)| rec(c, p, 0)).collect();
        let done = VerdictRecord { verdict: "complete".to_owned(), trials_done: 8 };
        let mut j = Journal::create(&dir, "{}").expect("create");
        j.append_chunk(payloads[0], &recs[0]).expect("chunk 0");
        let (output_before, journal_before) = (payloads[0].len(), recs[0].to_line().len());
        let group: Vec<(&[u8], ChunkRecord)> =
            (1..4).map(|c| (payloads[c], recs[c].clone())).collect();
        j.append_group(&group, Some(&done)).expect("group");
        drop(j);
        let output = fs::read(dir.join("output.ndjson")).expect("output");
        let journal = fs::read(dir.join("journal.ndjson")).expect("journal");
        assert_eq!(recover(&dir).expect("intact").verdict.as_ref(), Some(&done));

        // The verified prefix: chunks whose record line is whole and whose
        // payload is whole; the verdict once every chunk before it verifies.
        let expect = |out_len: usize, journal_len: usize| {
            let (mut chunks, mut out_end, mut line_end) = (0, 0, 0);
            for r in &recs {
                let line = line_end + r.to_line().len();
                let out = out_end + r.bytes as usize;
                if line > journal_len || out > out_len {
                    return (chunks, out_end, line_end, false);
                }
                (chunks, out_end, line_end) = (chunks + 1, out, line);
            }
            let whole = line_end + done.to_line().len() <= journal_len;
            (chunks, out_end, if whole { line_end + done.to_line().len() } else { line_end }, whole)
        };
        let check = |out_len: usize, journal_len: usize| {
            fs::write(dir.join("output.ndjson"), &output[..out_len]).expect("tear output");
            fs::write(dir.join("journal.ndjson"), &journal[..journal_len]).expect("tear journal");
            let (chunks, out_end, line_end, verdict) = expect(out_len, journal_len);
            let r = recover(&dir).expect("recover");
            let at = format!("output {out_len}/{}, journal {journal_len}", output.len());
            assert_eq!(r.chunks, recs[..chunks], "{at}");
            assert_eq!(r.committed_bytes, out_end as u64, "{at}");
            assert_eq!(r.verdict.is_some(), verdict, "{at}");
            assert_eq!(fs::read(dir.join("output.ndjson")).unwrap(), &output[..out_end], "{at}");
            assert_eq!(fs::read(dir.join("journal.ndjson")).unwrap(), &journal[..line_end], "{at}");
        };
        for journal_len in journal_before..=journal.len() {
            check(output.len(), journal_len);
        }
        for out_len in output_before..=output.len() {
            check(out_len, journal.len());
        }
        // Output fsync'd, journal fsync never reached: the whole group re-runs.
        check(output.len(), journal_before);
        assert_eq!(expect(output.len(), journal_before).0, 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_rejects_hash_mismatch() {
        let dir = tempdir("hash");
        let mut j = Journal::create(&dir, "{}").expect("create");
        let a = b"good\n".as_slice();
        j.append_chunk(a, &rec(0, a, 0)).expect("chunk 0");
        // A record whose payload never hit the output file (crash between
        // the two appends, with the output write lost entirely).
        let phantom = rec(1, b"never written\n", 0);
        j.journal.write_all(phantom.to_line().as_bytes()).unwrap();
        j.journal.sync_all().unwrap();
        let r = recover(&dir).expect("recover");
        assert_eq!(r.chunks.len(), 1, "phantom record must be dropped");
        assert_eq!(r.committed_bytes, a.len() as u64);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_keeps_quanta_up_to_u128_max() {
        let dir = tempdir("u128max");
        let mut j = Journal::create(&dir, "{}").expect("create");
        let a = b"max\n".as_slice();
        let max = ChunkRecord {
            quanta_total: EnergyQuanta::new(u128::MAX),
            quanta_baseline: EnergyQuanta::new(u128::MAX - 1),
            ..rec(0, a, 0)
        };
        j.append_chunk(a, &max).expect("chunk 0");
        let r = recover(&dir).expect("recover");
        assert_eq!(r.chunks, [max], "a quantum above i128::MAX is not corruption");
        assert_eq!(r.committed_bytes, a.len() as u64);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_rejects_out_of_range_integers() {
        // The second record's output hashes correctly, but one integer field
        // is too wide for its type: that ends the verified prefix instead of
        // being wrapped into range.
        let (a, b) = (b"good\n".as_slice(), b"wide\n".as_slice());
        let line = rec(1, b, 0).to_line();
        let bits = format!("\"error_sum_bits\":{}", rec(1, b, 0).error_sum_bits);
        for corrupt in [
            line.replace("\"degrade_after\":0", "\"degrade_after\":4294967297"),
            line.replace(&bits, "\"error_sum_bits\":18446744073709551616"),
        ] {
            let dir = tempdir("range");
            let mut j = Journal::create(&dir, "{}").expect("create");
            j.append_chunk(a, &rec(0, a, 0)).expect("chunk 0");
            j.output.write_all(b).unwrap();
            j.journal.write_all(corrupt.as_bytes()).unwrap();
            let r = recover(&dir).expect("recover");
            assert_eq!(r.chunks, [rec(0, a, 0)], "`{corrupt}` must end the verified prefix");
            assert_eq!(fs::read(dir.join("output.ndjson")).unwrap(), a);
            fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn read_output_serves_committed_ranges() {
        let dir = tempdir("read");
        let mut j = Journal::create(&dir, "{}").expect("create");
        let a = b"0123456789\n".as_slice();
        j.append_chunk(a, &rec(0, a, 0)).expect("chunk 0");
        assert_eq!(read_output(&dir, 2, 4).expect("read"), b"2345");
        fs::remove_dir_all(&dir).ok();
    }
}
