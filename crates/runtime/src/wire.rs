//! The versioned, length-prefixed binary wire format for distributed
//! execution (and, eventually, checkpoint/resume — both need the same
//! serialisation story for jobs and reports).
//!
//! The build environment is offline (no serde), so the format is
//! hand-rolled over `std::io`: every message is one *frame*
//!
//! ```text
//! ┌──────┬─────────┬──────┬────────────┬─────────────┐
//! │ "PM" │ version │ kind │ len  (LE)  │   payload   │
//! │ 2 B  │   1 B   │ 1 B  │    4 B     │   len B     │
//! └──────┴─────────┴──────┴────────────┴─────────────┘
//! ```
//!
//! with all multi-byte integers little-endian and floats as IEEE-754 bit
//! patterns (so encode∘decode is the identity down to the bit — the
//! distributed backend relies on this for its local≡remote equivalence
//! guarantee). The header version byte is the compatibility gate:
//! [`read_frame`] rejects frames from a future version instead of
//! guessing at their layout. Payload schemas are written with
//! [`WireWriter`] and read with [`WireReader`] via the [`Wire`] trait;
//! impls for the cross-crate value types ([`GrayImage`], [`ModelParams`],
//! [`Circle`], …) live here, while the job-layer payloads (strategy
//! specs, reports) are encoded by `pmcmc-parallel` on top of the same
//! primitives.

use pmcmc_core::math::TruncatedNormal;
use pmcmc_core::{ModelParams, PerfSnapshot};
use pmcmc_imaging::{Circle, GrayImage};
use std::fmt;
use std::io::{Read, Write};
use std::time::Duration;

/// The current wire-format version, stamped into every frame header.
///
/// v2 extended [`PerfSnapshot`] with the span-kernel counters
/// (`span_fastpath_hits`, `pixels_skipped`); v3 appended the lane-kernel
/// and proposal-batch counters (`simd_lanes_processed`,
/// `proposal_batches`). v4's payload layout is v3's: images move through
/// the bulk [`WireWriter::f32s`] / [`WireReader::f32s`] pair and `Assign`
/// payloads encode from a borrowed blueprint, byte for byte as before.
pub const WIRE_VERSION: u8 = 4;

/// Frame magic: the first two bytes of every frame.
pub const MAGIC: [u8; 2] = *b"PM";

/// Upper bound on one frame's payload length (a 4096×4096 f32 image is
/// 64 MiB; 256 MiB leaves generous headroom while rejecting nonsense
/// lengths from corrupt or hostile streams before allocating).
pub const MAX_FRAME_LEN: u32 = 256 * 1024 * 1024;

/// What a frame carries — the protocol's message vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Handshake, both directions: coordinator announces its version and
    /// the node id it assigns the connection; the daemon echoes its
    /// version and worker count back.
    Hello = 1,
    /// Periodic daemon→coordinator liveness beacon.
    Heartbeat = 2,
    /// Coordinator→daemon: one job to run.
    Assign = 3,
    /// Daemon→coordinator: one job's terminal outcome.
    Result = 4,
    /// Daemon→coordinator: a job it cannot take; reschedule it elsewhere.
    Requeue = 5,
    /// Coordinator→daemon: drain and exit.
    Shutdown = 6,
}

impl FrameKind {
    fn from_u8(b: u8) -> Option<Self> {
        match b {
            1 => Some(Self::Hello),
            2 => Some(Self::Heartbeat),
            3 => Some(Self::Assign),
            4 => Some(Self::Result),
            5 => Some(Self::Requeue),
            6 => Some(Self::Shutdown),
            _ => None,
        }
    }
}

/// Everything that can go wrong encoding, decoding or transporting a
/// frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// An underlying socket/stream error (message preserved; `io::Error`
    /// is not `Clone`).
    Io(String),
    /// The stream did not start with [`MAGIC`] — not a peer speaking this
    /// protocol.
    BadMagic([u8; 2]),
    /// The frame was written by a newer protocol version than this build
    /// understands.
    UnsupportedVersion(u8),
    /// The header's kind byte names no known [`FrameKind`].
    UnknownFrameKind(u8),
    /// A payload ended before the schema was fully read.
    Truncated,
    /// The payload decoded to structurally invalid data.
    Malformed(String),
    /// The header's length field exceeds [`MAX_FRAME_LEN`].
    FrameTooLarge(u32),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(msg) => write!(f, "wire i/o error: {msg}"),
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            WireError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported wire version {v} (this build speaks {WIRE_VERSION})"
                )
            }
            WireError::UnknownFrameKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::Truncated => write!(f, "payload truncated"),
            WireError::Malformed(msg) => write!(f, "malformed payload: {msg}"),
            WireError::FrameTooLarge(n) => {
                write!(f, "frame length {n} exceeds cap {MAX_FRAME_LEN}")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e.to_string())
    }
}

/// One decoded frame: its kind and raw payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The message vocabulary entry.
    pub kind: FrameKind,
    /// The schema bytes (decode with the matching payload type).
    pub payload: Vec<u8>,
}

/// Writes one version-[`WIRE_VERSION`] frame.
///
/// # Errors
/// [`WireError::FrameTooLarge`] for oversized payloads, [`WireError::Io`]
/// for transport failures.
pub fn write_frame(w: &mut impl Write, kind: FrameKind, payload: &[u8]) -> Result<(), WireError> {
    let len = u32::try_from(payload.len()).map_err(|_| WireError::FrameTooLarge(u32::MAX))?;
    if len > MAX_FRAME_LEN {
        return Err(WireError::FrameTooLarge(len));
    }
    let mut header = [0u8; 8];
    header[..2].copy_from_slice(&MAGIC);
    header[2] = WIRE_VERSION;
    header[3] = kind as u8;
    header[4..8].copy_from_slice(&len.to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame, enforcing magic, version and the length cap.
///
/// # Errors
/// [`WireError::BadMagic`] / [`WireError::UnsupportedVersion`] /
/// [`WireError::UnknownFrameKind`] / [`WireError::FrameTooLarge`] on
/// protocol violations, [`WireError::Io`] on transport failures.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, WireError> {
    let mut header = [0u8; 8];
    r.read_exact(&mut header)?;
    if header[..2] != MAGIC {
        return Err(WireError::BadMagic([header[0], header[1]]));
    }
    if header[2] > WIRE_VERSION {
        return Err(WireError::UnsupportedVersion(header[2]));
    }
    let kind = FrameKind::from_u8(header[3]).ok_or(WireError::UnknownFrameKind(header[3]))?;
    let len = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    if len > MAX_FRAME_LEN {
        return Err(WireError::FrameTooLarge(len));
    }
    // Read into capacity: no zero-fill of a buffer the read overwrites.
    let mut payload = Vec::with_capacity(len as usize);
    r.take(u64::from(len)).read_to_end(&mut payload)?;
    if payload.len() != len as usize {
        return Err(WireError::Io(format!(
            "stream ended {} bytes into a {len}-byte payload",
            payload.len()
        )));
    }
    Ok(Frame { kind, payload })
}

/// Append-only payload builder (little-endian primitives).
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// An empty payload.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty payload with room for `bytes` before it reallocates.
    #[must_use]
    pub fn with_capacity(bytes: usize) -> Self {
        Self {
            buf: Vec::with_capacity(bytes),
        }
    }

    /// The encoded bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f32` as its IEEE-754 bit pattern.
    pub fn f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Appends a run of `f32`s, each as [`WireWriter::f32`] would, with
    /// no length prefix (the schema carries the count).
    pub fn f32s(&mut self, v: &[f32]) {
        let start = self.buf.len();
        self.buf.resize(start + 4 * v.len(), 0);
        for (dst, x) in self.buf[start..].chunks_exact_mut(4).zip(v) {
            dst.copy_from_slice(&x.to_bits().to_le_bytes());
        }
    }

    /// Appends an `f64` as its IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Appends a `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Appends an optional value: a presence byte, then the value.
    pub fn opt<T>(&mut self, v: Option<&T>, mut f: impl FnMut(&mut Self, &T)) {
        match v {
            Some(inner) => {
                self.bool(true);
                f(self, inner);
            }
            None => self.bool(false),
        }
    }

    /// Appends a length-prefixed sequence.
    pub fn seq<T>(&mut self, items: &[T], mut f: impl FnMut(&mut Self, &T)) {
        self.u32(items.len() as u32);
        for item in items {
            f(self, item);
        }
    }
}

/// Cursor over a payload; every read is bounds-checked and returns
/// [`WireError::Truncated`] past the end.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A cursor at the start of `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads an `f32` bit pattern.
    pub fn f32(&mut self) -> Result<f32, WireError> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// Reads `n` `f32`s written by [`WireWriter::f32s`], checking the
    /// whole run is present before allocating.
    pub fn f32s(&mut self, n: usize) -> Result<Vec<f32>, WireError> {
        let len = n
            .checked_mul(4)
            .ok_or_else(|| WireError::Malformed(format!("{n} f32s overflow a payload")))?;
        Ok(self
            .take(len)?
            .chunks_exact(4)
            .map(|b| f32::from_bits(u32::from_le_bytes([b[0], b[1], b[2], b[3]])))
            .collect())
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `bool`, rejecting presence bytes other than 0/1.
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(WireError::Malformed(format!("invalid bool byte {b}"))),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| WireError::Malformed(format!("invalid utf-8 string: {e}")))
    }

    /// Reads an optional value written by [`WireWriter::opt`].
    pub fn opt<T>(
        &mut self,
        mut f: impl FnMut(&mut Self) -> Result<T, WireError>,
    ) -> Result<Option<T>, WireError> {
        if self.bool()? {
            Ok(Some(f(self)?))
        } else {
            Ok(None)
        }
    }

    /// Reads a length-prefixed sequence written by [`WireWriter::seq`].
    ///
    /// The length prefix is sanity-bounded against the remaining payload
    /// (each element needs ≥ 1 byte) so a corrupt length cannot trigger a
    /// huge allocation.
    pub fn seq<T>(
        &mut self,
        mut f: impl FnMut(&mut Self) -> Result<T, WireError>,
    ) -> Result<Vec<T>, WireError> {
        let len = self.u32()? as usize;
        if len > self.remaining() {
            return Err(WireError::Truncated);
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(f(self)?);
        }
        Ok(out)
    }

    /// Checks every payload byte was consumed — trailing garbage means
    /// the peer and this build disagree about the schema.
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::Malformed(format!(
                "{} trailing bytes after payload",
                self.remaining()
            )))
        }
    }
}

/// A type with a wire schema: a deterministic byte encoding such that
/// `decode(encode(x)) == x` bit-for-bit.
pub trait Wire: Sized {
    /// Appends `self` to the payload.
    fn encode(&self, w: &mut WireWriter);

    /// Reads one value from the payload.
    ///
    /// # Errors
    /// [`WireError`] when the payload is truncated or malformed.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError>;

    /// Encodes `self` as a standalone payload.
    fn to_wire_bytes(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        self.encode(&mut w);
        w.into_bytes()
    }

    /// Decodes a standalone payload, requiring full consumption.
    ///
    /// # Errors
    /// [`WireError`] on truncated, malformed or over-long payloads.
    fn from_wire_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(bytes);
        let value = Self::decode(&mut r)?;
        r.finish()?;
        Ok(value)
    }
}

impl Wire for Duration {
    fn encode(&self, w: &mut WireWriter) {
        w.u64(self.as_secs());
        w.u32(self.subsec_nanos());
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let secs = r.u64()?;
        let nanos = r.u32()?;
        if nanos >= 1_000_000_000 {
            return Err(WireError::Malformed(format!(
                "duration subsec nanos {nanos} out of range"
            )));
        }
        Ok(Duration::new(secs, nanos))
    }
}

impl Wire for GrayImage {
    fn encode(&self, w: &mut WireWriter) {
        w.u32(self.width());
        w.u32(self.height());
        w.f32s(self.as_slice());
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let width = r.u32()?;
        let height = r.u32()?;
        let n = (width as usize)
            .checked_mul(height as usize)
            .ok_or_else(|| WireError::Malformed("image dimensions overflow".to_owned()))?;
        Ok(GrayImage::from_vec(width, height, r.f32s(n)?))
    }
}

impl Wire for TruncatedNormal {
    fn encode(&self, w: &mut WireWriter) {
        w.f64(self.mu);
        w.f64(self.sigma);
        w.f64(self.lo);
        w.f64(self.hi);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let (mu, sigma, lo, hi) = (r.f64()?, r.f64()?, r.f64()?, r.f64()?);
        // NaNs must fail here (not inside `new`'s asserts), so the
        // comparisons are spelled to catch them.
        if sigma.is_nan() || sigma <= 0.0 || hi.is_nan() || lo.is_nan() || hi <= lo {
            return Err(WireError::Malformed(format!(
                "invalid truncated normal: mu={mu}, sigma={sigma}, [{lo}, {hi}]"
            )));
        }
        // `new` deterministically recomputes the private cached ln-mass
        // from the four public fields, so the round trip is exact.
        Ok(TruncatedNormal::new(mu, sigma, lo, hi))
    }
}

impl Wire for ModelParams {
    fn encode(&self, w: &mut WireWriter) {
        w.u32(self.width);
        w.u32(self.height);
        w.f64(self.expected_count);
        self.radius_prior.encode(w);
        w.f64(self.overlap_gamma);
        w.f64(self.fg);
        w.f64(self.bg);
        w.f64(self.noise_sd);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(ModelParams {
            width: r.u32()?,
            height: r.u32()?,
            expected_count: r.f64()?,
            radius_prior: TruncatedNormal::decode(r)?,
            overlap_gamma: r.f64()?,
            fg: r.f64()?,
            bg: r.f64()?,
            noise_sd: r.f64()?,
        })
    }
}

impl Wire for Circle {
    fn encode(&self, w: &mut WireWriter) {
        w.f64(self.x);
        w.f64(self.y);
        w.f64(self.r);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Circle::new(r.f64()?, r.f64()?, r.f64()?))
    }
}

impl Wire for PerfSnapshot {
    fn encode(&self, w: &mut WireWriter) {
        w.u64(self.proposals_evaluated);
        w.u64(self.pixels_visited);
        w.u64(self.pair_count_queries);
        w.u64(self.pair_cache_hits);
        w.u64(self.rng_refills);
        w.u64(self.spin_wait_ns);
        w.u64(self.spec_rounds);
        w.u64(self.span_fastpath_hits);
        w.u64(self.pixels_skipped);
        w.u64(self.simd_lanes_processed);
        w.u64(self.proposal_batches);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(PerfSnapshot {
            proposals_evaluated: r.u64()?,
            pixels_visited: r.u64()?,
            pair_count_queries: r.u64()?,
            pair_cache_hits: r.u64()?,
            rng_refills: r.u64()?,
            spin_wait_ns: r.u64()?,
            spec_rounds: r.u64()?,
            span_fastpath_hits: r.u64()?,
            pixels_skipped: r.u64()?,
            simd_lanes_processed: r.u64()?,
            proposal_batches: r.u64()?,
        })
    }
}

/// The handshake payload (both directions; see [`FrameKind::Hello`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// The sender's wire-format version (belt and braces: the frame
    /// header carries it too, but the handshake pins it explicitly).
    pub version: u8,
    /// Coordinator→daemon: the node id assigned to this connection.
    /// Daemon→coordinator: the id echoed back.
    pub node: u64,
    /// Daemon→coordinator: worker threads available. Coordinator→daemon:
    /// zero (unused).
    pub workers: u32,
}

impl Wire for Hello {
    fn encode(&self, w: &mut WireWriter) {
        w.u8(self.version);
        w.u64(self.node);
        w.u32(self.workers);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Hello {
            version: r.u8()?,
            node: r.u64()?,
            workers: r.u32()?,
        })
    }
}

/// The liveness beacon payload (see [`FrameKind::Heartbeat`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Heartbeat {
    /// The sending node's assigned id.
    pub node: u64,
    /// Jobs the daemon currently holds (diagnostics).
    pub in_flight: u32,
}

impl Wire for Heartbeat {
    fn encode(&self, w: &mut WireWriter) {
        w.u64(self.node);
        w.u32(self.in_flight);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Heartbeat {
            node: r.u64()?,
            in_flight: r.u32()?,
        })
    }
}

/// The reschedule-request payload (see [`FrameKind::Requeue`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Requeue {
    /// The refused job's id.
    pub job: u64,
    /// Why the daemon would not take it.
    pub reason: String,
}

impl Wire for Requeue {
    fn encode(&self, w: &mut WireWriter) {
        w.u64(self.job);
        w.str(&self.reason);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Requeue {
            job: r.u64()?,
            reason: r.str()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = WireWriter::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 3);
        w.f32(-0.0);
        w.f64(f64::NAN);
        w.bool(true);
        w.str("héllo");
        w.opt(Some(&42u64), |w, v| w.u64(*v));
        w.opt(None::<&u64>, |w, v| w.u64(*v));
        w.seq(&[1u32, 2, 3], |w, v| w.u32(*v));
        let bytes = w.into_bytes();

        let mut r = WireReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.f32().unwrap().to_bits(), (-0.0f32).to_bits());
        assert_eq!(r.f64().unwrap().to_bits(), f64::NAN.to_bits());
        assert!(r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.opt(|r| r.u64()).unwrap(), Some(42));
        assert_eq!(r.opt(|r| r.u64()).unwrap(), None);
        assert_eq!(r.seq(|r| r.u32()).unwrap(), vec![1, 2, 3]);
        r.finish().unwrap();
    }

    #[test]
    fn reads_past_end_are_truncated_not_panics() {
        let mut r = WireReader::new(&[1, 2]);
        assert_eq!(r.u32(), Err(WireError::Truncated));
        let mut r = WireReader::new(&[]);
        assert_eq!(r.u8(), Err(WireError::Truncated));
        let mut r = WireReader::new(&[5, 0, 0, 0, b'a']);
        assert_eq!(r.str(), Err(WireError::Truncated));
    }

    #[test]
    fn corrupt_seq_length_is_rejected_before_allocation() {
        let mut w = WireWriter::new();
        w.u32(u32::MAX);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.seq(|r| r.u8()), Err(WireError::Truncated));
    }

    #[test]
    fn frames_round_trip() {
        let hello = Hello {
            version: WIRE_VERSION,
            node: 3,
            workers: 8,
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Hello, &hello.to_wire_bytes()).unwrap();
        let frame = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(frame.kind, FrameKind::Hello);
        assert_eq!(Hello::from_wire_bytes(&frame.payload).unwrap(), hello);
    }

    #[test]
    fn future_version_frames_are_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Heartbeat, &[]).unwrap();
        buf[2] = WIRE_VERSION + 1;
        assert_eq!(
            read_frame(&mut buf.as_slice()),
            Err(WireError::UnsupportedVersion(WIRE_VERSION + 1))
        );
    }

    #[test]
    fn bad_magic_and_kind_and_length_are_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Shutdown, &[]).unwrap();
        let mut bad_magic = buf.clone();
        bad_magic[0] = b'X';
        assert_eq!(
            read_frame(&mut bad_magic.as_slice()),
            Err(WireError::BadMagic([b'X', b'M']))
        );
        let mut bad_kind = buf.clone();
        bad_kind[3] = 99;
        assert_eq!(
            read_frame(&mut bad_kind.as_slice()),
            Err(WireError::UnknownFrameKind(99))
        );
        let mut bad_len = buf;
        bad_len[4..8].copy_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        assert_eq!(
            read_frame(&mut bad_len.as_slice()),
            Err(WireError::FrameTooLarge(MAX_FRAME_LEN + 1))
        );
    }

    #[test]
    fn value_types_round_trip_exactly() {
        let img = GrayImage::from_fn(5, 3, |x, y| (x * 10 + y) as f32 * 0.125 - 0.5);
        let back = GrayImage::from_wire_bytes(&img.to_wire_bytes()).unwrap();
        assert_eq!(back.width(), 5);
        assert_eq!(back.height(), 3);
        assert_eq!(
            back.as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            img.as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        );

        let params = ModelParams::new(64, 48, 3.5, 7.25);
        assert_eq!(
            ModelParams::from_wire_bytes(&params.to_wire_bytes()).unwrap(),
            params
        );

        let c = Circle::new(1.5, -2.25, 3.0);
        assert_eq!(Circle::from_wire_bytes(&c.to_wire_bytes()).unwrap(), c);

        let d = Duration::new(12, 345_678_901);
        assert_eq!(Duration::from_wire_bytes(&d.to_wire_bytes()).unwrap(), d);

        let perf = PerfSnapshot {
            proposals_evaluated: 1,
            pixels_visited: 2,
            pair_count_queries: 3,
            pair_cache_hits: 4,
            rng_refills: 5,
            spin_wait_ns: 6,
            spec_rounds: 7,
            span_fastpath_hits: 8,
            pixels_skipped: 9,
            simd_lanes_processed: 10,
            proposal_batches: 11,
        };
        assert_eq!(
            PerfSnapshot::from_wire_bytes(&perf.to_wire_bytes()).unwrap(),
            perf
        );
    }

    /// Golden bytes of an odd-sized image whose samples are the floats a
    /// numeric cast would disturb: each crosses the bulk codec as its bit
    /// pattern, as a sample-by-sample `f32` write would put it.
    #[test]
    fn image_golden_bytes_keep_every_bit_pattern() {
        let samples: [u32; 9] = [
            0x8000_0000, // -0.0
            0x7FC0_1234, // quiet NaN with a payload
            0xFF80_0001, // signalling NaN, sign bit set
            0x0000_0001, // smallest subnormal
            0x807F_FFFF, // negative subnormal of largest magnitude
            0x7F80_0000, // +inf
            0xFF80_0000, // -inf
            0x3F80_0000, // 1.0
            0x3F00_0000, // 0.5
        ];
        let img = GrayImage::from_vec(3, 3, samples.iter().map(|&b| f32::from_bits(b)).collect());
        let bytes = img.to_wire_bytes();
        assert_eq!(
            bytes,
            vec![
                3, 0, 0, 0, // width
                3, 0, 0, 0, // height
                0, 0, 0, 0x80, // -0.0
                0x34, 0x12, 0xC0, 0x7F, // NaN 0x7FC01234
                0x01, 0, 0x80, 0xFF, // NaN 0xFF800001
                0x01, 0, 0, 0, // subnormal 0x00000001
                0xFF, 0xFF, 0x7F, 0x80, // subnormal 0x807FFFFF
                0, 0, 0x80, 0x7F, // +inf
                0, 0, 0x80, 0xFF, // -inf
                0, 0, 0x80, 0x3F, // 1.0
                0, 0, 0, 0x3F, // 0.5
            ]
        );
        let back = GrayImage::from_wire_bytes(&bytes).unwrap();
        assert_eq!((back.width(), back.height()), (3, 3));
        let back_bits: Vec<u32> = back.as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(back_bits, samples);
        // The bulk pair writes and reads what the one-sample pair does.
        let mut one_by_one = WireWriter::new();
        for &px in img.as_slice() {
            one_by_one.f32(px);
        }
        assert_eq!(one_by_one.into_bytes(), bytes[8..]);

        // Every strict prefix of the payload is truncated, not a panic or
        // a short image.
        for cut in 0..bytes.len() {
            assert_eq!(
                GrayImage::from_wire_bytes(&bytes[..cut]).err(),
                Some(WireError::Truncated),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn image_dimensions_whose_bytes_overflow_are_malformed() {
        let mut w = WireWriter::new();
        w.u32(u32::MAX);
        w.u32(u32::MAX);
        assert!(matches!(
            GrayImage::from_wire_bytes(&w.into_bytes()),
            Err(WireError::Malformed(_))
        ));
        let mut r = WireReader::new(&[]);
        assert!(matches!(r.f32s(usize::MAX), Err(WireError::Malformed(_))));
    }

    #[test]
    fn a_short_stream_is_an_io_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Result, &[9; 12]).unwrap();
        for cut in [0, 5, 8, 9, 19] {
            assert!(
                matches!(read_frame(&mut &buf[..cut]), Err(WireError::Io(_))),
                "cut at {cut}"
            );
        }
        let frame = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(frame.payload, vec![9; 12]);
    }

    #[test]
    fn trailing_bytes_are_malformed() {
        let mut bytes = Hello {
            version: 1,
            node: 0,
            workers: 1,
        }
        .to_wire_bytes();
        bytes.push(0xFF);
        assert!(matches!(
            Hello::from_wire_bytes(&bytes),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn invalid_duration_and_bool_are_malformed() {
        let mut w = WireWriter::new();
        w.u64(1);
        w.u32(2_000_000_000);
        assert!(matches!(
            Duration::from_wire_bytes(&w.into_bytes()),
            Err(WireError::Malformed(_))
        ));
        let mut r = WireReader::new(&[7]);
        assert!(matches!(r.bool(), Err(WireError::Malformed(_))));
    }
}
