//! Versioned, std-only on-disk checkpoints for the anytime searches.
//!
//! A checkpoint is a line-oriented text file:
//!
//! ```text
//! spa-ckpt 1 <kind>
//! meta <key> <value ...>
//! sec <name> <line-count>
//! <line-count section lines, verbatim>
//! end <fnv1a-64 checksum, 16 hex digits>
//! ```
//!
//! * The header pins a format version (`1`) and a `kind` tag so a
//!   checkpoint can never be resumed by the wrong search. The resumable
//!   searches write `engine` (the `(N, S)` sweep) and `codesign` (the
//!   co-design methods), both through the one driver in `dse::sweep`;
//!   `spa-serve`'s warm-cache snapshot is kind `evalcache`.
//! * `meta` lines carry the run configuration (model, budget, seed,
//!   iteration counts, the energy model fingerprint), then `gens_done`
//!   and `planned_gens`. Resume validates every configuration key against
//!   the live run and fails with a typed [`CheckpointError::Mismatch`] on
//!   drift; a `gens_done` above the plan, or sections that do not hold
//!   exactly `gens_done` generations, are [`CheckpointError::Corrupt`].
//! * Sections hold the actual state: the engine's per-shape results, or
//!   the co-design points and the search's one optimizer transcript
//!   ([`bayesopt::Transcript`] lines). No cost-cache contents are saved:
//!   evaluation is deterministic, so a resumed search recomputes them.
//! * Floats are stored as IEEE-754 bit patterns ([`f64_to_hex`]), never
//!   decimal, so a round trip is bit-exact.
//! * The `end` checksum covers every preceding byte. A torn write — a
//!   crash mid-checkpoint, or the scripted `ckpt.torn` fault — loses the
//!   footer (or corrupts a line) and is detected at load as
//!   [`CheckpointError::Corrupt`] instead of silently resuming from
//!   garbage.
//!
//! Writes are atomic under normal operation: the file is staged at
//! `<path>.tmp` and renamed into place, so a reader never observes a
//! half-written checkpoint unless the `ckpt.torn` fault deliberately
//! bypasses the staging to model a mid-write crash.

use faultsim::rng::fnv1a;
use std::fmt;
use std::path::Path;

/// Current on-disk format version.
pub const CKPT_VERSION: u32 = 1;

/// Magic first token of every checkpoint file.
const MAGIC: &str = "spa-ckpt";

/// Failure loading, validating or persisting a [`Checkpoint`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The file could not be read or written.
    Io {
        /// Path involved.
        path: String,
        /// OS error rendering.
        detail: String,
    },
    /// The file exists but fails structural validation (truncated,
    /// checksum mismatch, malformed line) — the torn-write signature.
    Corrupt {
        /// Path (or section label) involved.
        path: String,
        /// What failed.
        reason: String,
    },
    /// The header announces a format version this build cannot read.
    BadVersion {
        /// Path involved.
        path: String,
        /// Version token found.
        found: String,
    },
    /// A metadata key recorded by the checkpoint disagrees with the live
    /// run configuration — resuming would silently compute garbage.
    Mismatch {
        /// Which configuration key diverged.
        key: String,
        /// Value the live run expects.
        expected: String,
        /// Value the checkpoint recorded.
        found: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, detail } => {
                write!(f, "checkpoint I/O failed for {path}: {detail}")
            }
            CheckpointError::Corrupt { path, reason } => {
                write!(f, "checkpoint {path} is corrupt: {reason}")
            }
            CheckpointError::BadVersion { path, found } => {
                write!(
                    f,
                    "checkpoint {path} has unsupported version {found} (this build reads {CKPT_VERSION})"
                )
            }
            CheckpointError::Mismatch {
                key,
                expected,
                found,
            } => write!(
                f,
                "checkpoint does not match this run: {key} is {found}, expected {expected}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// In-memory form of a checkpoint: a kind tag, ordered metadata and
/// named line sections. See the module docs for the file format.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Checkpoint {
    kind: String,
    source: String,
    meta: Vec<(String, String)>,
    sections: Vec<(String, Vec<String>)>,
}

impl Checkpoint {
    /// An empty checkpoint of the given kind.
    pub fn new(kind: &str) -> Self {
        Self {
            kind: kind.to_string(),
            ..Self::default()
        }
    }

    /// The kind tag from the header.
    pub fn kind(&self) -> &str {
        &self.kind
    }

    /// Sets (or replaces) a metadata key. Keys must be single tokens;
    /// values may contain spaces but not newlines.
    pub fn set_meta(&mut self, key: &str, value: &str) {
        debug_assert!(!key.contains(char::is_whitespace) && !key.is_empty());
        debug_assert!(!value.contains('\n'));
        if let Some(slot) = self.meta.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value.to_string();
        } else {
            self.meta.push((key.to_string(), value.to_string()));
        }
    }

    /// Reads a metadata value.
    pub fn meta(&self, key: &str) -> Option<&str> {
        self.meta
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Validates that the checkpoint's `kind` and a set of metadata keys
    /// match the live run. Missing keys count as mismatches.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Mismatch`] naming the first diverging key.
    pub fn require(&self, kind: &str, expect: &[(&str, &str)]) -> Result<(), CheckpointError> {
        if self.kind != kind {
            return Err(CheckpointError::Mismatch {
                key: "kind".into(),
                expected: kind.into(),
                found: self.kind.clone(),
            });
        }
        for (key, expected) in expect {
            let found = self.meta(key).unwrap_or("<missing>");
            if found != *expected {
                return Err(CheckpointError::Mismatch {
                    key: (*key).into(),
                    expected: (*expected).into(),
                    found: found.into(),
                });
            }
        }
        Ok(())
    }

    /// Reads a metadata value as `u64`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Corrupt`] if the key is missing or not an
    /// integer.
    pub fn meta_u64(&self, key: &str) -> Result<u64, CheckpointError> {
        self.meta(key)
            .and_then(|v| v.parse::<u64>().ok())
            .ok_or_else(|| CheckpointError::Corrupt {
                path: self.source.clone(),
                reason: format!("meta key {key} missing or not an integer"),
            })
    }

    /// Appends a named section. Names must be single tokens; lines must
    /// not contain newlines.
    pub fn push_section(&mut self, name: &str, lines: Vec<String>) {
        debug_assert!(!name.contains(char::is_whitespace) && !name.is_empty());
        debug_assert!(lines.iter().all(|l| !l.contains('\n')));
        self.sections.push((name.to_string(), lines));
    }

    /// The lines of the first section named `name` (empty slice if
    /// absent — absent and empty are equivalent for every consumer).
    pub fn section(&self, name: &str) -> &[String] {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map_or(&[], |(_, l)| l.as_slice())
    }

    /// Serializes to the on-disk text form, checksum footer included.
    pub fn to_text(&self) -> String {
        let mut body = String::new();
        body.push_str(&format!("{MAGIC} {CKPT_VERSION} {}\n", self.kind));
        for (k, v) in &self.meta {
            body.push_str(&format!("meta {k} {v}\n"));
        }
        for (name, lines) in &self.sections {
            body.push_str(&format!("sec {name} {}\n", lines.len()));
            for l in lines {
                body.push_str(l);
                body.push('\n');
            }
        }
        let sum = fnv1a(body.as_bytes());
        body.push_str(&format!("end {sum:016x}\n"));
        body
    }

    /// Parses the on-disk text form. `source` labels errors (usually the
    /// path the text came from).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::BadVersion`] for an unknown format version,
    /// [`CheckpointError::Corrupt`] for structural damage (truncation,
    /// checksum mismatch, malformed lines).
    pub fn from_text(source: &str, text: &str) -> Result<Self, CheckpointError> {
        let corrupt = |reason: String| CheckpointError::Corrupt {
            path: source.to_string(),
            reason,
        };
        let mut lines = text.lines();
        let header = lines.next().ok_or_else(|| corrupt("empty file".into()))?;
        let mut h = header.split(' ');
        if h.next() != Some(MAGIC) {
            return Err(corrupt("missing spa-ckpt magic".into()));
        }
        let version = h.next().unwrap_or("");
        if version != CKPT_VERSION.to_string() {
            return Err(CheckpointError::BadVersion {
                path: source.to_string(),
                found: version.to_string(),
            });
        }
        let kind = h.next().ok_or_else(|| corrupt("header lacks kind".into()))?;
        let mut ck = Checkpoint::new(kind);
        ck.source = source.to_string();

        let mut checked = header.len() + 1; // bytes covered by the checksum
        let mut footer: Option<&str> = None;
        while let Some(line) = lines.next() {
            if let Some(sum) = line.strip_prefix("end ") {
                footer = Some(sum);
                break;
            }
            checked += line.len() + 1;
            if let Some(rest) = line.strip_prefix("meta ") {
                let (k, v) = rest
                    .split_once(' ')
                    .ok_or_else(|| corrupt(format!("malformed meta line: {line}")))?;
                ck.meta.push((k.to_string(), v.to_string()));
            } else if let Some(rest) = line.strip_prefix("sec ") {
                let (name, count) = rest
                    .split_once(' ')
                    .ok_or_else(|| corrupt(format!("malformed sec line: {line}")))?;
                let count: usize = count
                    .parse()
                    .map_err(|_| corrupt(format!("bad section count: {line}")))?;
                let mut body = Vec::with_capacity(count);
                for _ in 0..count {
                    let l = lines
                        .next()
                        .ok_or_else(|| corrupt(format!("section {name} truncated")))?;
                    checked += l.len() + 1;
                    body.push(l.to_string());
                }
                ck.sections.push((name.to_string(), body));
            } else {
                return Err(corrupt(format!("unrecognized line: {line}")));
            }
        }
        let footer = footer.ok_or_else(|| corrupt("missing end footer (torn write?)".into()))?;
        let expected = fnv1a(text.as_bytes().get(..checked).unwrap_or(b""));
        if footer != format!("{expected:016x}") {
            return Err(corrupt("checksum mismatch (torn or edited write?)".into()));
        }
        if lines.next().is_some() {
            return Err(corrupt("trailing data after end footer".into()));
        }
        Ok(ck)
    }

    /// Atomically persists the checkpoint to `path` (staged at
    /// `<path>.tmp`, then renamed).
    ///
    /// The `ckpt.torn` fault point models a crash mid-write: when it
    /// fires, only a prefix of the bytes lands — directly at `path`,
    /// skipping the atomic staging — and the injection is recorded via
    /// `obs`. Loading such a file fails with
    /// [`CheckpointError::Corrupt`]; it never resumes silently.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when the filesystem rejects the write.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let text = self.to_text();
        let io = |detail: std::io::Error| CheckpointError::Io {
            path: path.display().to_string(),
            detail: detail.to_string(),
        };
        if faultsim::armed() && faultsim::hit("ckpt.torn") {
            obs::add("fault.injected", 1);
            obs::event("fault.injected", &[("point", "ckpt.torn".into())]);
            let torn = &text.as_bytes()[..text.len() / 2];
            return std::fs::write(path, torn).map_err(io);
        }
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        std::fs::write(&tmp, &text).map_err(io)?;
        std::fs::rename(&tmp, path).map_err(io)
    }

    /// Loads and structurally validates a checkpoint from `path`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] if the file cannot be read, otherwise the
    /// errors of [`Checkpoint::from_text`].
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        let text = std::fs::read_to_string(path).map_err(|e| CheckpointError::Io {
            path: path.display().to_string(),
            detail: e.to_string(),
        })?;
        Self::from_text(&path.display().to_string(), &text)
    }
}

/// Renders an `f64` as its 16-hex-digit IEEE-754 bit pattern
/// (round-trips bit-exactly through [`f64_from_hex`], NaN payloads and
/// signed zeros included).
pub fn f64_to_hex(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// Parses a bit pattern written by [`f64_to_hex`].
pub fn f64_from_hex(s: &str) -> Option<f64> {
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        let mut ck = Checkpoint::new("codesign");
        ck.set_meta("model", "alexnet-conv");
        ck.set_meta("seed", "7");
        ck.set_meta("note", "spaces are fine in values");
        ck.push_section(
            "points",
            vec!["pt 3ff0000000000000 4000000000000000 2 3".into()],
        );
        ck.push_section("transcript", vec!["gen 2".into(), "ob 0 1 2".into()]);
        ck.push_section("empty", Vec::new());
        ck
    }

    #[test]
    fn text_round_trip_is_lossless() {
        let ck = sample();
        let text = ck.to_text();
        let back = Checkpoint::from_text("t", &text).expect("parses");
        assert_eq!(back.kind(), "codesign");
        assert_eq!(back.meta("seed"), Some("7"));
        assert_eq!(back.meta("note"), Some("spaces are fine in values"));
        assert_eq!(back.section("transcript").len(), 2);
        assert!(back.section("missing").is_empty());
        // Serialization is stable.
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn save_load_round_trips_on_disk() {
        let dir = std::env::temp_dir().join("spa_ckpt_test_rt");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("run.ckpt");
        let ck = sample();
        ck.save(&path).expect("saves");
        let back = Checkpoint::load(&path).expect("loads");
        assert_eq!(back.to_text(), ck.to_text());
        assert!(!path.with_extension("ckpt.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_and_bitflips_are_detected() {
        let text = sample().to_text();
        // Any truncation that loses the footer is corrupt.
        for cut in [1, text.len() / 3, text.len() / 2, text.len() - 2] {
            let torn = &text[..cut];
            assert!(
                matches!(
                    Checkpoint::from_text("t", torn),
                    Err(CheckpointError::Corrupt { .. }) | Err(CheckpointError::BadVersion { .. })
                ),
                "cut at {cut} must not parse"
            );
        }
        // A flipped byte inside a section line trips the checksum.
        let flipped = text.replacen("3ff0", "3ff1", 1);
        assert!(matches!(
            Checkpoint::from_text("t", &flipped),
            Err(CheckpointError::Corrupt { .. })
        ));
    }

    #[test]
    fn version_and_kind_are_enforced() {
        let future = sample().to_text().replacen("spa-ckpt 1 ", "spa-ckpt 2 ", 1);
        assert!(matches!(
            Checkpoint::from_text("t", &future),
            Err(CheckpointError::BadVersion { found, .. }) if found == "2"
        ));
        let ck = sample();
        assert!(ck.require("codesign", &[("seed", "7")]).is_ok());
        assert!(matches!(
            ck.require("engine", &[]),
            Err(CheckpointError::Mismatch { key, .. }) if key == "kind"
        ));
        assert!(matches!(
            ck.require("codesign", &[("seed", "8")]),
            Err(CheckpointError::Mismatch { key, expected, found })
                if key == "seed" && expected == "8" && found == "7"
        ));
        assert!(matches!(
            ck.require("codesign", &[("absent", "x")]),
            Err(CheckpointError::Mismatch { found, .. }) if found == "<missing>"
        ));
    }

    #[test]
    fn meta_u64_is_typed() {
        let mut ck = sample();
        ck.set_meta("gens", "12");
        assert_eq!(ck.meta_u64("gens").expect("parses"), 12);
        assert!(matches!(
            ck.meta_u64("model"),
            Err(CheckpointError::Corrupt { .. })
        ));
        assert!(matches!(
            ck.meta_u64("absent"),
            Err(CheckpointError::Corrupt { .. })
        ));
    }

    #[test]
    fn injected_torn_write_is_caught_at_load() {
        let _x = faultsim::exclusive();
        let dir = std::env::temp_dir().join("spa_ckpt_test_torn");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("torn.ckpt");
        let ck = sample();
        faultsim::arm("ckpt.torn@1").expect("plan parses");
        ck.save(&path).expect("the torn write itself reports Ok");
        faultsim::disarm();
        assert!(matches!(
            Checkpoint::load(&path),
            Err(CheckpointError::Corrupt { .. })
        ));
        // The very next save (fault disarmed) heals the file in place.
        ck.save(&path).expect("saves");
        assert_eq!(Checkpoint::load(&path).expect("loads").to_text(), ck.to_text());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn float_hex_round_trip_is_bit_exact() {
        for x in [
            0.0,
            -0.0,
            0.1 + 0.2,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            1.23456789e300,
        ] {
            let back = f64_from_hex(&f64_to_hex(x)).expect("parses");
            assert_eq!(back.to_bits(), x.to_bits());
        }
        let nan = f64_from_hex(&f64_to_hex(f64::NAN)).expect("parses");
        assert!(nan.is_nan());
        assert!(f64_from_hex("not-hex").is_none());
    }

    #[test]
    fn fnv64_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors: the footer checksum must stay
        // this hash, or checkpoints written by older builds stop loading.
        assert_eq!(fnv1a(b""), faultsim::rng::FNV_OFFSET);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        let text = sample().to_text();
        let (body, footer) = text.rsplit_once("end ").expect("footer");
        assert_eq!(footer.trim_end(), format!("{:016x}", fnv1a(body.as_bytes())));
    }
}
