//! Deterministic checkpoint/restart: a versioned binary codec for the
//! complete live state of a [`crate::network::Network`].
//!
//! ## Why hand-rolled
//!
//! The build is offline (no serde), and the format must be *stable and
//! checkable*: a snapshot written by one run is read back by a different
//! process, possibly after a crash, so every section carries its own
//! CRC-32 (reusing the LLR layer's [`crate::llr::crc32`]) and the whole
//! file is sealed by a trailing checksum. A corrupted, truncated or
//! mismatched file must fail closed with a typed [`SnapshotError`] —
//! never a panic, never a silently wrong resume.
//!
//! ## Layout
//!
//! All integers are little-endian.
//!
//! ```text
//! magic            8 B   b"OFARSNAP"
//! version          u32   SNAPSHOT_VERSION
//! fingerprint      u32   CRC-32 of the CONFIG section payload
//! length           u64   total file length in bytes, trailer included
//! section*               tag u8, len u32, crc u32, payload
//!   CONFIG (1)           canonical SimConfig + mechanism name
//!   POLICY (2)           opaque mechanism state (Policy::save_state)
//!   STATE  (3)           routers, queues, stats, faults, LLR, RNGs
//! file checksum    u32   CRC-32 of every preceding byte
//! ```
//!
//! The declared *length* is checked before any checksum is computed, so
//! a truncated (or over-long) file is refused in O(1) rather than after a
//! pass over its bytes.
//!
//! The *fingerprint* is the identity of the simulated machine: restoring
//! into a network whose own canonical config/mechanism encoding hashes
//! differently is refused ([`SnapshotError::ConfigMismatch`]) before any
//! state is touched. Because the CONFIG section embeds the full
//! [`SimConfig`] and the mechanism name, a snapshot is also
//! *self-describing*: [`peek_header`] recovers enough to rebuild the
//! network from the file alone (`ofar-sim --replay`).
//!
//! ## Bit-exactness guarantee
//!
//! Restore is exact: running N+M cycles produces the same [`crate::stats::Stats`] and
//! delivery stream as running N cycles, snapshotting, restoring and
//! running M more. Everything with dynamics is captured — VC FIFOs,
//! link/credit pipelines, LLR replay buffers and seq/ack windows, fault
//! state and pending plan events, policy-internal RNGs and tables, and
//! the engine counters. Snapshots are taken at step boundaries, where
//! the per-cycle scratch state of the allocator is empty by construction.

use crate::config::{RingMode, SimConfig};
use crate::llr::crc32;
use std::fmt;
use std::io::Write as _;
use std::path::Path;

/// File magic: the first eight bytes of every snapshot.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"OFARSNAP";

/// Current format version. Bumped on any layout change; older readers
/// refuse newer files ([`SnapshotError::UnsupportedVersion`]).
///
/// v3: the POLICY section of the RNG-carrying mechanisms encodes a
/// *lane table* (one RNG stream per shard) instead of a single stream —
/// see `ofar-routing`'s `state::put_lanes`.
///
/// v4: the header declares the total file length (a `u64` after the
/// fingerprint), so truncation is refused before any checksum pass.
pub const SNAPSHOT_VERSION: u32 = 4;

/// Section tag: canonical configuration + mechanism name.
pub(crate) const SEC_CONFIG: u8 = 1;
/// Section tag: opaque policy state.
pub(crate) const SEC_POLICY: u8 = 2;
/// Section tag: engine state.
pub(crate) const SEC_STATE: u8 = 3;

/// Why a snapshot could not be written, read or restored. Every failure
/// mode of a foreign byte stream maps here; restore never panics on bad
/// input and never partially applies a bad file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The file does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The file's format version is not one this build reads.
    UnsupportedVersion {
        /// Version found in the file.
        found: u32,
    },
    /// The file was written for a different simulated machine: its
    /// config fingerprint does not match the restoring network's.
    ConfigMismatch {
        /// Fingerprint of the restoring network's configuration.
        expected: u32,
        /// Fingerprint recorded in the file.
        found: u32,
    },
    /// The file was written under a different routing mechanism.
    MechanismMismatch {
        /// Mechanism of the restoring network.
        expected: String,
        /// Mechanism recorded in the file.
        found: String,
    },
    /// The file is shorter or longer than the length its header
    /// declares, is shorter than the fixed header, or a section runs past
    /// the end of the file.
    Truncated,
    /// The whole-file checksum does not match: the file was corrupted
    /// after (or while) being written.
    FileChecksum,
    /// A section's CRC-32 does not match its payload.
    SectionChecksum {
        /// Tag of the corrupt section.
        tag: u8,
    },
    /// The bytes decode to a structurally impossible state (a length
    /// that disagrees with the configuration, an out-of-range enum tag,
    /// a buffer overflow…). The payload names the first inconsistency.
    Malformed(&'static str),
    /// The policy rejected its saved state.
    Policy(String),
    /// An I/O error while reading or writing a snapshot file.
    Io(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            Self::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported snapshot version {found} (this build reads {SNAPSHOT_VERSION})"
                )
            }
            Self::ConfigMismatch { expected, found } => write!(
                f,
                "snapshot is for a different configuration \
                 (fingerprint {found:#010x}, this network is {expected:#010x})"
            ),
            Self::MechanismMismatch { expected, found } => write!(
                f,
                "snapshot was taken under mechanism {found}, this network runs {expected}"
            ),
            Self::Truncated => write!(f, "snapshot file is truncated"),
            Self::FileChecksum => write!(f, "snapshot file checksum mismatch (corrupted file)"),
            Self::SectionChecksum { tag } => {
                write!(f, "snapshot section {tag} checksum mismatch")
            }
            Self::Malformed(what) => write!(f, "malformed snapshot: {what}"),
            Self::Policy(why) => write!(f, "policy state rejected: {why}"),
            Self::Io(why) => write!(f, "snapshot I/O error: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        // lint:allow(H001, error conversion; runs once per failed restore, never on the cycle path)
        Self::Io(e.to_string())
    }
}

// ---------------------------------------------------------------------
// Primitive encoder/decoder
// ---------------------------------------------------------------------

/// Little-endian byte sink used by every section encoder.
#[derive(Default)]
pub(crate) struct Enc {
    pub(crate) buf: Vec<u8>,
}

impl Enc {
    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// `usize` travels as `u64` so the format is width-independent.
    pub(crate) fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    /// `f64` travels as its IEEE-754 bit pattern (bit-exact round-trip).
    pub(crate) fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    pub(crate) fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
    pub(crate) fn str(&mut self, v: &str) {
        self.u32(v.len() as u32);
        self.bytes(v.as_bytes());
    }
}

/// Bounds-checked little-endian reader; every read can fail with
/// [`SnapshotError::Truncated`] instead of panicking.
pub(crate) struct Dec<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub(crate) fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.pos >= self.data.len()
    }

    /// Bytes consumed so far (offset labelling in snapshot diffs).
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        if end > self.data.len() {
            return Err(SnapshotError::Truncated);
        }
        let s = &self.data[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }
    pub(crate) fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    pub(crate) fn u64(&mut self) -> Result<u64, SnapshotError> {
        // lint:allow(P001, slice length fixed by take of 8 bytes; try_into is infallible)
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    pub(crate) fn usize(&mut self) -> Result<usize, SnapshotError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapshotError::Malformed("usize overflow"))
    }
    pub(crate) fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }
    pub(crate) fn str(&mut self) -> Result<String, SnapshotError> {
        let n = self.u32()? as usize;
        let raw = self.take(n)?;
        String::from_utf8(raw.to_vec()).map_err(|_| SnapshotError::Malformed("non-UTF-8 string"))
    }

    /// Read a length prefix and sanity-bound it: decoding must not
    /// allocate unbounded memory on a hostile length field.
    pub(crate) fn len(&mut self, bound: usize, what: &'static str) -> Result<usize, SnapshotError> {
        let n = self.usize()?;
        if n > bound {
            return Err(SnapshotError::Malformed(what));
        }
        Ok(n)
    }
}

// ---------------------------------------------------------------------
// Packet codec (shared by the router, queue and LLR sections)
// ---------------------------------------------------------------------

/// Append the full wire image of one packet header.
pub(crate) fn encode_packet(e: &mut Enc, p: &crate::packet::Packet) {
    e.u64(p.id);
    e.u64(p.injected_at);
    e.u32(p.src.0);
    e.u32(p.dst.0);
    match p.intermediate {
        None => e.u8(0),
        Some(g) => {
            e.u8(1);
            e.u32(g.0);
        }
    }
    e.u8(p.flags);
    e.u8(p.ring_exits_left);
    e.u8(p.local_hops);
    e.u8(p.global_hops);
    e.u8(p.ring_hops);
    e.u8(p.wait);
    e.u32(p.cur_group.0);
}

/// Decode one packet header written by [`encode_packet`].
pub(crate) fn decode_packet(d: &mut Dec<'_>) -> Result<crate::packet::Packet, SnapshotError> {
    let id = d.u64()?;
    let injected_at = d.u64()?;
    let src = ofar_topology::NodeId::new(d.u32()?);
    let dst = ofar_topology::NodeId::new(d.u32()?);
    let intermediate = match d.u8()? {
        0 => None,
        1 => Some(ofar_topology::GroupId::new(d.u32()?)),
        _ => return Err(SnapshotError::Malformed("bad Option tag in packet")),
    };
    Ok(crate::packet::Packet {
        id,
        injected_at,
        src,
        dst,
        intermediate,
        flags: d.u8()?,
        ring_exits_left: d.u8()?,
        local_hops: d.u8()?,
        global_hops: d.u8()?,
        ring_hops: d.u8()?,
        wait: d.u8()?,
        cur_group: ofar_topology::GroupId::new(d.u32()?),
    })
}

// ---------------------------------------------------------------------
// Canonical configuration encoding (the machine identity)
// ---------------------------------------------------------------------

/// Canonical byte encoding of a configuration + mechanism name. The
/// CRC-32 of these bytes is the snapshot's *config fingerprint*.
pub(crate) fn encode_config(cfg: &SimConfig, mechanism: &str) -> Vec<u8> {
    let mut e = Enc::default();
    e.usize(cfg.params.p);
    e.usize(cfg.params.a);
    e.usize(cfg.params.h);
    e.usize(cfg.packet_size);
    e.usize(cfg.vcs_local);
    e.usize(cfg.vcs_global);
    e.usize(cfg.vcs_injection);
    e.usize(cfg.vcs_ring);
    e.usize(cfg.buf_local);
    e.usize(cfg.buf_global);
    e.usize(cfg.buf_injection);
    e.usize(cfg.buf_ring);
    e.u64(cfg.lat_local);
    e.u64(cfg.lat_global);
    e.usize(cfg.alloc_iters);
    e.u8(match cfg.ring {
        RingMode::None => 0,
        RingMode::Physical => 1,
        RingMode::Embedded => 2,
    });
    e.u8(cfg.max_ring_exits);
    e.usize(cfg.escape_rings);
    e.u64(cfg.seed);
    e.f64(cfg.ber);
    e.usize(cfg.llr_window);
    e.u64(cfg.llr_timeout_slack);
    e.u32(cfg.llr_backoff_cap);
    e.u32(cfg.llr_retry_budget);
    e.u8(u8::from(cfg.cm_enabled));
    e.f64(cfg.cm_target_occupancy);
    e.f64(cfg.cm_hysteresis);
    e.f64(cfg.cm_min_rate);
    e.str(mechanism);
    e.buf
}

/// Decode the CONFIG section back into a configuration + mechanism name.
pub(crate) fn decode_config(data: &[u8]) -> Result<(SimConfig, String), SnapshotError> {
    let mut d = Dec::new(data);
    let params = ofar_topology::DragonflyParams {
        p: d.usize()?,
        a: d.usize()?,
        h: d.usize()?,
    };
    let cfg = SimConfig {
        params,
        packet_size: d.usize()?,
        vcs_local: d.usize()?,
        vcs_global: d.usize()?,
        vcs_injection: d.usize()?,
        vcs_ring: d.usize()?,
        buf_local: d.usize()?,
        buf_global: d.usize()?,
        buf_injection: d.usize()?,
        buf_ring: d.usize()?,
        lat_local: d.u64()?,
        lat_global: d.u64()?,
        alloc_iters: d.usize()?,
        ring: match d.u8()? {
            0 => RingMode::None,
            1 => RingMode::Physical,
            2 => RingMode::Embedded,
            _ => return Err(SnapshotError::Malformed("unknown ring mode")),
        },
        max_ring_exits: d.u8()?,
        escape_rings: d.usize()?,
        seed: d.u64()?,
        ber: d.f64()?,
        llr_window: d.usize()?,
        llr_timeout_slack: d.u64()?,
        llr_backoff_cap: d.u32()?,
        llr_retry_budget: d.u32()?,
        cm_enabled: match d.u8()? {
            0 => false,
            1 => true,
            _ => return Err(SnapshotError::Malformed("unknown cm_enabled flag")),
        },
        cm_target_occupancy: d.f64()?,
        cm_hysteresis: d.f64()?,
        cm_min_rate: d.f64()?,
    };
    let mech = d.str()?;
    if !d.is_empty() {
        return Err(SnapshotError::Malformed("trailing bytes in CONFIG"));
    }
    cfg.validate()
        .map_err(|_| SnapshotError::Malformed("embedded configuration fails validation"))?;
    Ok((cfg, mech))
}

/// Config fingerprint: CRC-32 of the canonical configuration encoding.
pub fn config_fingerprint(cfg: &SimConfig, mechanism: &str) -> u32 {
    crc32(&encode_config(cfg, mechanism))
}

// ---------------------------------------------------------------------
// File framing
// ---------------------------------------------------------------------

/// Bytes before the first section: magic, version, fingerprint, length.
const HEADER_LEN: usize = 24;
/// Bytes of a section header: tag, payload length, payload CRC.
const SECTION_HEADER_LEN: usize = 9;

/// Assemble a complete snapshot file from its three section payloads.
pub(crate) fn frame(config: &[u8], policy: &[u8], state: &[u8]) -> Vec<u8> {
    let len = HEADER_LEN + 3 * SECTION_HEADER_LEN + config.len() + policy.len() + state.len() + 4;
    let mut out = Vec::with_capacity(len);
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out.extend_from_slice(&crc32(config).to_le_bytes());
    out.extend_from_slice(&(len as u64).to_le_bytes());
    for (tag, payload) in [
        (SEC_CONFIG, config),
        (SEC_POLICY, policy),
        (SEC_STATE, state),
    ] {
        out.push(tag);
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(payload).to_le_bytes());
        out.extend_from_slice(payload);
    }
    let file_crc = crc32(&out);
    out.extend_from_slice(&file_crc.to_le_bytes());
    debug_assert_eq!(out.len(), len);
    out
}

/// The parsed frame of a validated snapshot: section payload slices.
#[derive(Debug)]
pub(crate) struct Frame<'a> {
    pub(crate) fingerprint: u32,
    pub(crate) config: &'a [u8],
    pub(crate) policy: &'a [u8],
    pub(crate) state: &'a [u8],
}

/// Validate the envelope (magic, declared length, whole-file and
/// per-section checksums, version) and split it into its sections. The
/// state bytes are untrusted until the caller decodes them, but they are
/// at least the bytes that were written.
pub(crate) fn parse_frame(bytes: &[u8]) -> Result<Frame<'_>, SnapshotError> {
    // Fixed header + three empty sections + trailer.
    if bytes.len() < HEADER_LEN + 3 * SECTION_HEADER_LEN + 4 {
        return Err(SnapshotError::Truncated);
    }
    // "Does not even look like a snapshot" is named first, on the raw
    // prefix, for nicer operator errors.
    if bytes[..8] != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    let declared = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
    if declared != bytes.len() as u64 {
        // Another format version need not declare its length here at all.
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion { found: version });
        }
        return Err(SnapshotError::Truncated);
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes(trailer.try_into().unwrap());
    if crc32(body) != stored {
        return Err(SnapshotError::FileChecksum);
    }
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion { found: version });
    }
    let fingerprint = u32::from_le_bytes(body[12..16].try_into().unwrap());
    let mut sections: [Option<&[u8]>; 3] = [None, None, None];
    let mut pos = HEADER_LEN;
    while pos < body.len() {
        if pos + SECTION_HEADER_LEN > body.len() {
            return Err(SnapshotError::Truncated);
        }
        let tag = body[pos];
        let len = u32::from_le_bytes(body[pos + 1..pos + 5].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(body[pos + 5..pos + 9].try_into().unwrap());
        pos += SECTION_HEADER_LEN;
        let end = pos.checked_add(len).ok_or(SnapshotError::Truncated)?;
        if end > body.len() {
            return Err(SnapshotError::Truncated);
        }
        let payload = &body[pos..end];
        if crc32(payload) != crc {
            return Err(SnapshotError::SectionChecksum { tag });
        }
        match tag {
            SEC_CONFIG => sections[0] = Some(payload),
            SEC_POLICY => sections[1] = Some(payload),
            SEC_STATE => sections[2] = Some(payload),
            _ => return Err(SnapshotError::Malformed("unknown section tag")),
        }
        pos = end;
    }
    match sections {
        [Some(config), Some(policy), Some(state)] => Ok(Frame {
            fingerprint,
            config,
            policy,
            state,
        }),
        _ => Err(SnapshotError::Malformed("missing section")),
    }
}

// ---------------------------------------------------------------------
// Snapshot diffing (commutativity certification)
// ---------------------------------------------------------------------

/// The first divergence between two snapshot files, named at section
/// granularity. `ofar-race` refines STATE divergences to a field path
/// via `Network::locate_state_field`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SectionDiff {
    /// Which section diverges first: `"config"`, `"policy"` or
    /// `"state"` (sections are compared in file order).
    pub section: &'static str,
    /// Byte offset of the first differing byte within that section's
    /// payload. When the payloads differ only in length, the offset is
    /// the shorter length.
    pub offset: usize,
    /// Payload lengths `(a, b)` of the diverging section.
    pub lens: (usize, usize),
}

impl fmt::Display for SectionDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} section diverges at byte {} (lens {} vs {})",
            self.section, self.offset, self.lens.0, self.lens.1
        )
    }
}

/// First differing byte offset of two slices, if any (length mismatch
/// with a common prefix reports the shorter length).
fn first_mismatch(a: &[u8], b: &[u8]) -> Option<usize> {
    let n = a.len().min(b.len());
    match a[..n].iter().zip(&b[..n]).position(|(x, y)| x != y) {
        Some(i) => Some(i),
        None if a.len() != b.len() => Some(n),
        None => None,
    }
}

/// Compare two snapshot files section by section and name the first
/// divergent section. `Ok(None)` means byte-identical payloads (the
/// commutativity certificate's pass condition). Either file failing to
/// parse is an error, not a diff.
pub fn diff_snapshots(a: &[u8], b: &[u8]) -> Result<Option<SectionDiff>, SnapshotError> {
    let fa = parse_frame(a)?;
    let fb = parse_frame(b)?;
    for (section, pa, pb) in [
        ("config", fa.config, fb.config),
        ("policy", fa.policy, fb.policy),
        ("state", fa.state, fb.state),
    ] {
        if let Some(offset) = first_mismatch(pa, pb) {
            return Ok(Some(SectionDiff {
                section,
                offset,
                lens: (pa.len(), pb.len()),
            }));
        }
    }
    Ok(None)
}

/// Everything needed to rebuild a network from a snapshot file alone:
/// the embedded configuration and mechanism name. Returned by
/// [`peek_header`] without decoding (or trusting) the state payload.
#[derive(Clone, Debug)]
pub struct SnapshotHeader {
    /// Format version of the file.
    pub version: u32,
    /// Config fingerprint recorded in the file.
    pub fingerprint: u32,
    /// The full simulated-machine configuration.
    pub config: SimConfig,
    /// Display name of the routing mechanism ("OFAR", "PB", …).
    pub mechanism: String,
}

/// Validate a snapshot's envelope and decode its self-describing header.
pub fn peek_header(bytes: &[u8]) -> Result<SnapshotHeader, SnapshotError> {
    let frame = parse_frame(bytes)?;
    let (config, mechanism) = decode_config(frame.config)?;
    Ok(SnapshotHeader {
        version: SNAPSHOT_VERSION,
        fingerprint: frame.fingerprint,
        config,
        mechanism,
    })
}

// ---------------------------------------------------------------------
// File I/O (atomic)
// ---------------------------------------------------------------------

/// Write `bytes` to `path` atomically: the full content lands in a
/// sibling temporary file which is then renamed over the target, so a
/// crash mid-write never leaves a half-written file under the final
/// name. (A truncated temporary can survive a crash; it fails the
/// checksum on read and is skipped.)
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), SnapshotError> {
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    std::fs::create_dir_all(dir)?;
    let file_name = path
        .file_name()
        .ok_or_else(|| SnapshotError::Io("path has no file name".into()))?;
    let mut tmp = dir.join(file_name);
    tmp.set_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Read a snapshot file into memory. Does not validate — pair with
/// [`peek_header`] or `Network::restore_snapshot`, which do.
pub fn read_file(path: &Path) -> Result<Vec<u8>, SnapshotError> {
    Ok(std::fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip_and_sections() {
        let f = frame(b"cfg", b"pol", b"state");
        let p = parse_frame(&f).unwrap();
        assert_eq!(p.config, b"cfg");
        assert_eq!(p.policy, b"pol");
        assert_eq!(p.state, b"state");
        assert_eq!(p.fingerprint, crc32(b"cfg"));
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let f = frame(b"configuration", b"policy-bytes", b"state-bytes");
        for i in 0..f.len() {
            let mut bad = f.clone();
            bad[i] ^= 0x40;
            assert!(
                parse_frame(&bad).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn truncation_is_detected_at_every_length() {
        let f = frame(b"cfg", b"", b"some state");
        for n in 0..f.len() {
            assert_eq!(
                parse_frame(&f[..n]).unwrap_err(),
                SnapshotError::Truncated,
                "truncation to {n}"
            );
        }
    }

    #[test]
    fn declared_length_is_the_file_length() {
        let f = frame(b"cfg", b"pol", b"state");
        let declared = u64::from_le_bytes(f[16..24].try_into().unwrap());
        assert_eq!(declared, f.len() as u64);
        // Appended bytes are refused before any checksum, like a cut.
        let mut long = f.clone();
        long.push(0);
        assert_eq!(parse_frame(&long).unwrap_err(), SnapshotError::Truncated);
    }

    #[test]
    fn previous_version_layout_is_refused_as_unsupported() {
        // A v3 file has no length field: drop it, patch the version and
        // re-seal, and the reader names the version, not a truncation.
        let mut f = frame(b"cfg", b"pol", b"state");
        f.drain(16..24);
        f[8..12].copy_from_slice(&3u32.to_le_bytes());
        let n = f.len();
        let crc = crc32(&f[..n - 4]);
        f[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            parse_frame(&f).unwrap_err(),
            SnapshotError::UnsupportedVersion { found: 3 }
        );
    }

    #[test]
    fn version_bump_is_refused() {
        let mut f = frame(b"c", b"p", b"s");
        // Patch the version field and re-seal the file checksum.
        f[8] = (SNAPSHOT_VERSION + 1) as u8;
        let n = f.len();
        let crc = crc32(&f[..n - 4]);
        f[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            parse_frame(&f).unwrap_err(),
            SnapshotError::UnsupportedVersion {
                found: SNAPSHOT_VERSION + 1
            }
        );
    }

    #[test]
    fn config_encoding_roundtrips() {
        let mut cfg = SimConfig::paper(3).with_seed(77);
        cfg.ber = 1e-5;
        let bytes = encode_config(&cfg, "OFAR");
        let (back, mech) = decode_config(&bytes).unwrap();
        assert_eq!(back, cfg);
        assert_eq!(mech, "OFAR");
        assert_eq!(config_fingerprint(&cfg, "OFAR"), crc32(&bytes));
        assert_ne!(
            config_fingerprint(&cfg, "OFAR"),
            config_fingerprint(&cfg, "MIN")
        );
    }

    #[test]
    fn atomic_write_then_read() {
        let dir = std::env::temp_dir().join("ofar-snap-test");
        let path = dir.join("t.snap");
        let f = frame(b"a", b"b", b"c");
        write_atomic(&path, &f).unwrap();
        assert_eq!(read_file(&path).unwrap(), f);
        std::fs::remove_dir_all(&dir).ok();
    }
}
