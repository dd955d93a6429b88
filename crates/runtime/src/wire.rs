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
//! impls for the primitives, `Option`, `Vec`, `Result` and the
//! cross-crate value types ([`GrayImage`], [`ModelParams`], [`Circle`],
//! …) live here, while the job-layer payloads (strategy specs, reports)
//! are encoded by `pmcmc-parallel` on top of the same impls.
//!
//! # Adding a wire type
//!
//! A type's layout is written once, as a list of its fields and their
//! wire types: [`wire_struct!`](crate::wire_struct) encodes a struct's
//! fields in the order listed and decodes them back in the same order,
//! and [`wire_enum!`](crate::wire_enum) writes a tag byte before a
//! variant's fields. Each field travels through the [`Wire`] impl of the
//! type the list names. Hand-write an impl only when decoding must do
//! more than read the fields back (validate them, intern them, or take a
//! bulk path).
//!
//! * A struct's list must name every field (its decode is a struct
//!   literal), so adding a field is one entry in its list.
//! * A listed type must be the field's declared type, so a field retyped
//!   where its struct is declared does not compile until its list changes
//!   with it, in a file the wire manifest fingerprints.
//! * Enum tags are only ever appended: never reorder or reuse one, or an
//!   older peer reads a frame as another variant.
//! * Any change to the bytes — a field added, moved or retyped, a tag
//!   added — bumps [`WIRE_VERSION`], adds its golden vectors and
//!   regenerates the `pmcmc-analysis` wire manifest, which fails the build
//!   when an encoder changes without the version.

use crate::NodeId;
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
/// v5's payload layout is v4's: the codecs are generated from one list of
/// fields and their wire types per type
/// ([`wire_struct!`](crate::wire_struct), [`wire_enum!`](crate::wire_enum)),
/// byte for byte as before. v6's payload layout is v5's: a job report's
/// phase label outside the shipped set, which v5 decoders accepted (and
/// leaked), is malformed.
pub const WIRE_VERSION: u8 = 6;

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

    /// Appends a run of `f32`s, each as its [`Wire`] impl would, with no
    /// length prefix (the schema carries the count).
    // Out of line, the copy below compiles to one `memcpy`. Inlined into
    // `GrayImage::encode`, it became a 32-byte vector loop, and encoding a
    // 256×256 job's `Assign` took about 20 % longer (x86-64, rustc 1.95).
    #[inline(never)]
    pub fn f32s(&mut self, v: &[f32]) {
        let start = self.buf.len();
        self.buf.resize(start + 4 * v.len(), 0);
        for (dst, x) in self.buf[start..].chunks_exact_mut(4).zip(v) {
            dst.copy_from_slice(&x.to_bits().to_le_bytes());
        }
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        u32::encode(&(v.len() as u32), self);
        self.buf.extend_from_slice(v.as_bytes());
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

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let bytes = *self.buf[self.pos..]
            .first_chunk()
            .ok_or(WireError::Truncated)?;
        self.pos += N;
        Ok(bytes)
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

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, WireError> {
        let len = u32::decode(self)? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| WireError::Malformed(format!("invalid utf-8 string: {e}")))
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

/// Implements [`Wire`] for a struct from one list of its fields and their
/// wire types.
///
/// `wire_struct!(Type { a: u32, b: String })` encodes `a` then `b`, each
/// through the named type's [`Wire`] impl, and decodes them into a struct
/// literal in the same order. The literal makes the compiler reject a
/// list that misses a field, and the named types make it reject a field
/// whose declared type changed: its bytes cannot change without this list.
///
/// `wire_struct!(Type { .. }, fn name)` also defines a private
/// `fn name(w: &mut WireWriter, a: &u32, b: &String)`, which the `encode`
/// calls: the same bytes from borrowed fields, without building a `Type`.
#[macro_export]
macro_rules! wire_struct {
    ($ty:ident { $($field:ident: $wire:ty),+ $(,)? }) => {
        impl $crate::wire::Wire for $ty {
            fn encode(&self, w: &mut $crate::wire::WireWriter) {
                $(<$wire as $crate::wire::Wire>::encode(&self.$field, w);)+
            }

            $crate::wire_struct!(@decode $ty { $($field: $wire),+ });
        }
    };
    ($ty:ident { $($field:ident: $wire:ty),+ $(,)? }, fn $encode:ident) => {
        fn $encode(w: &mut $crate::wire::WireWriter, $($field: &$wire),+) {
            $(<$wire as $crate::wire::Wire>::encode($field, w);)+
        }

        impl $crate::wire::Wire for $ty {
            fn encode(&self, w: &mut $crate::wire::WireWriter) {
                $encode(w, $(&self.$field),+);
            }

            $crate::wire_struct!(@decode $ty { $($field: $wire),+ });
        }
    };
    (@decode $ty:ident { $($field:ident: $wire:ty),+ }) => {
        fn decode(
            r: &mut $crate::wire::WireReader<'_>,
        ) -> ::core::result::Result<Self, $crate::wire::WireError> {
            ::core::result::Result::Ok($ty {
                $($field: <$wire as $crate::wire::Wire>::decode(r)?,)+
            })
        }
    };
}

/// Implements [`Wire`] for an enum from one list of its variants.
///
/// `wire_enum!(Type, "what" { 0 => Unit, 1 => Tuple(a: u64), 2 => Named { x: f64, y: f64 } })`
/// writes a variant's tag byte, then its fields in the order listed, each
/// through the named type's [`Wire`] impl (tuple fields are named by
/// position in the list). Decoding an unknown tag is
/// [`WireError::Malformed`]`("unknown <what> tag N")`.
#[macro_export]
macro_rules! wire_enum {
    ($ty:ident, $what:literal {
        $($tag:literal => $variant:ident
            $(($($tuple:ident: $tuple_wire:ty),+))?
            $({ $($named:ident: $named_wire:ty),+ })?),+ $(,)?
    }) => {
        impl $crate::wire::Wire for $ty {
            fn encode(&self, w: &mut $crate::wire::WireWriter) {
                match self {
                    $($ty::$variant $(($($tuple),+))? $({ $($named),+ })? => {
                        <u8 as $crate::wire::Wire>::encode(&$tag, w);
                        $($(<$tuple_wire as $crate::wire::Wire>::encode($tuple, w);)+)?
                        $($(<$named_wire as $crate::wire::Wire>::encode($named, w);)+)?
                    })+
                }
            }

            fn decode(
                r: &mut $crate::wire::WireReader<'_>,
            ) -> ::core::result::Result<Self, $crate::wire::WireError> {
                match <u8 as $crate::wire::Wire>::decode(r)? {
                    $($tag => {
                        $($(let $tuple = <$tuple_wire as $crate::wire::Wire>::decode(r)?;)+)?
                        $($(let $named = <$named_wire as $crate::wire::Wire>::decode(r)?;)+)?
                        ::core::result::Result::Ok(
                            $ty::$variant $(($($tuple),+))? $({ $($named),+ })?
                        )
                    })+
                    t => ::core::result::Result::Err($crate::wire::WireError::Malformed(
                        ::std::format!(::core::concat!("unknown ", $what, " tag {}"), t),
                    )),
                }
            }
        }
    };
}

/// Integers travel little-endian.
macro_rules! wire_le {
    ($($t:ident),+) => {$(
        impl Wire for $t {
            fn encode(&self, w: &mut WireWriter) {
                w.buf.extend_from_slice(&self.to_le_bytes());
            }

            fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                Ok($t::from_le_bytes(r.array()?))
            }
        }
    )+};
}

wire_le!(u8, u32, u64);

/// `f32`/`f64` travel as their IEEE-754 bit patterns; `usize` and `i64`
/// as `u64` (an `as` cast each way).
macro_rules! wire_via {
    ($($t:ident as $via:ident: $to:expr, $from:expr;)+) => {$(
        impl Wire for $t {
            fn encode(&self, w: &mut WireWriter) {
                $via::encode(&$to(*self), w);
            }

            fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                Ok($from($via::decode(r)?))
            }
        }
    )+};
}

wire_via! {
    f32 as u32: f32::to_bits, f32::from_bits;
    f64 as u64: f64::to_bits, f64::from_bits;
    usize as u64: |v| v as u64, |v| v as usize;
    i64 as u64: |v| v as u64, |v| v as i64;
}

/// One byte, `0` or `1`; any other byte is malformed.
impl Wire for bool {
    fn encode(&self, w: &mut WireWriter) {
        u8::from(*self).encode(w);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(WireError::Malformed(format!("invalid bool byte {b}"))),
        }
    }
}

impl Wire for String {
    fn encode(&self, w: &mut WireWriter) {
        w.str(self);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.str()
    }
}

/// A presence byte, then the value.
impl<T: Wire> Wire for Option<T> {
    fn encode(&self, w: &mut WireWriter) {
        self.is_some().encode(w);
        if let Some(v) = self {
            v.encode(w);
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        if bool::decode(r)? {
            Ok(Some(T::decode(r)?))
        } else {
            Ok(None)
        }
    }
}

/// A `u32` length, then the elements.
impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, w: &mut WireWriter) {
        (self.len() as u32).encode(w);
        for item in self {
            item.encode(w);
        }
    }

    /// The length is bounded by the bytes left (each element needs at
    /// least one) before anything is allocated, so a corrupt length
    /// cannot trigger a huge allocation.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let len = u32::decode(r)? as usize;
        if len > r.remaining() {
            return Err(WireError::Truncated);
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

/// A tag byte (`0` = `Ok`, `1` = `Err`), then the value.
impl<T: Wire, E: Wire> Wire for Result<T, E> {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            Ok(v) => {
                0u8.encode(w);
                v.encode(w);
            }
            Err(e) => {
                1u8.encode(w);
                e.encode(w);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(Ok(T::decode(r)?)),
            1 => Ok(Err(E::decode(r)?)),
            t => Err(WireError::Malformed(format!("unknown result tag {t}"))),
        }
    }
}

impl Wire for NodeId {
    fn encode(&self, w: &mut WireWriter) {
        <usize as Wire>::encode(&self.0, w);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(NodeId(<usize as Wire>::decode(r)?))
    }
}

impl Wire for Duration {
    fn encode(&self, w: &mut WireWriter) {
        u64::encode(&self.as_secs(), w);
        u32::encode(&self.subsec_nanos(), w);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let secs = u64::decode(r)?;
        let nanos = u32::decode(r)?;
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
        u32::encode(&self.width(), w);
        u32::encode(&self.height(), w);
        w.f32s(self.as_slice());
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let width = u32::decode(r)?;
        let height = u32::decode(r)?;
        let n = (width as usize)
            .checked_mul(height as usize)
            .ok_or_else(|| WireError::Malformed("image dimensions overflow".to_owned()))?;
        Ok(GrayImage::from_vec(width, height, r.f32s(n)?))
    }
}

impl Wire for TruncatedNormal {
    fn encode(&self, w: &mut WireWriter) {
        for v in [self.mu, self.sigma, self.lo, self.hi] {
            f64::encode(&v, w);
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let (mu, sigma, lo, hi) = (
            f64::decode(r)?,
            f64::decode(r)?,
            f64::decode(r)?,
            f64::decode(r)?,
        );
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

wire_struct!(ModelParams {
    width: u32,
    height: u32,
    expected_count: f64,
    radius_prior: TruncatedNormal,
    overlap_gamma: f64,
    fg: f64,
    bg: f64,
    noise_sd: f64,
});

wire_struct!(Circle {
    x: f64,
    y: f64,
    r: f64
});

wire_struct!(PerfSnapshot {
    proposals_evaluated: u64,
    pixels_visited: u64,
    pair_count_queries: u64,
    pair_cache_hits: u64,
    rng_refills: u64,
    spin_wait_ns: u64,
    spec_rounds: u64,
    span_fastpath_hits: u64,
    pixels_skipped: u64,
    simd_lanes_processed: u64,
    proposal_batches: u64,
});

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

wire_struct!(Hello {
    version: u8,
    node: u64,
    workers: u32
});

/// The liveness beacon payload (see [`FrameKind::Heartbeat`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Heartbeat {
    /// The sending node's assigned id.
    pub node: u64,
    /// Jobs the daemon currently holds (diagnostics).
    pub in_flight: u32,
}

wire_struct!(Heartbeat {
    node: u64,
    in_flight: u32
});

/// The reschedule-request payload (see [`FrameKind::Requeue`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Requeue {
    /// The refused job's id.
    pub job: u64,
    /// Why the daemon would not take it.
    pub reason: String,
}

wire_struct!(Requeue {
    job: u64,
    reason: String
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = WireWriter::new();
        7u8.encode(&mut w);
        0xDEAD_BEEFu32.encode(&mut w);
        (u64::MAX - 3).encode(&mut w);
        (-0.0f32).encode(&mut w);
        f64::NAN.encode(&mut w);
        true.encode(&mut w);
        w.str("héllo");
        Some(42u64).encode(&mut w);
        None::<u64>.encode(&mut w);
        vec![1u32, 2, 3].encode(&mut w);
        let bytes = w.into_bytes();

        let mut r = WireReader::new(&bytes);
        assert_eq!(u8::decode(&mut r).unwrap(), 7);
        assert_eq!(u32::decode(&mut r).unwrap(), 0xDEAD_BEEF);
        assert_eq!(u64::decode(&mut r).unwrap(), u64::MAX - 3);
        assert_eq!(f32::decode(&mut r).unwrap().to_bits(), (-0.0f32).to_bits());
        assert_eq!(f64::decode(&mut r).unwrap().to_bits(), f64::NAN.to_bits());
        assert!(bool::decode(&mut r).unwrap());
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(Option::<u64>::decode(&mut r).unwrap(), Some(42));
        assert_eq!(Option::<u64>::decode(&mut r).unwrap(), None);
        assert_eq!(Vec::<u32>::decode(&mut r).unwrap(), vec![1, 2, 3]);
        r.finish().unwrap();
    }

    #[test]
    fn reads_past_end_are_truncated_not_panics() {
        let mut r = WireReader::new(&[1, 2]);
        assert_eq!(u32::decode(&mut r), Err(WireError::Truncated));
        let mut r = WireReader::new(&[]);
        assert_eq!(u8::decode(&mut r), Err(WireError::Truncated));
        let mut r = WireReader::new(&[5, 0, 0, 0, b'a']);
        assert_eq!(r.str(), Err(WireError::Truncated));
    }

    #[test]
    fn corrupt_seq_length_is_rejected_before_allocation() {
        let bytes = u32::MAX.to_wire_bytes();
        assert_eq!(
            Vec::<u8>::from_wire_bytes(&bytes),
            Err(WireError::Truncated)
        );
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

    /// A frame header, byte for byte: magic "PM", the version, the kind,
    /// the little-endian payload length. Only the version byte changes
    /// from one version to the next; bump it here with [`WIRE_VERSION`].
    #[test]
    fn frame_header_golden_bytes_v6() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Heartbeat, &[7]).unwrap();
        assert_eq!(buf, [b'P', b'M', 6, 2, 1, 0, 0, 0, 7]);
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

    /// One pinned payload: a value's literal bytes, checked in both
    /// directions by [`golden`], and the decoder the mutation fuzz replays.
    struct Golden {
        name: &'static str,
        bytes: Vec<u8>,
        decode: fn(&[u8]) -> Result<(), WireError>,
    }

    fn decodes<T: Wire>(bytes: &[u8]) -> Result<(), WireError> {
        T::from_wire_bytes(bytes).map(drop)
    }

    /// Asserts `value` encodes to exactly `bytes` and decodes back from them.
    fn golden<T: Wire + PartialEq + fmt::Debug>(
        name: &'static str,
        value: &T,
        bytes: Vec<u8>,
    ) -> Golden {
        assert_eq!(value.to_wire_bytes(), bytes, "{name} encodes to its golden");
        assert_eq!(
            T::from_wire_bytes(&bytes).as_ref(),
            Ok(value),
            "{name} decodes from its golden"
        );
        Golden {
            name,
            bytes,
            decode: decodes::<T>,
        }
    }

    /// The literal payload of every value type this module encodes. These
    /// bytes are the wire format: if one changes, bump [`WIRE_VERSION`].
    fn goldens() -> Vec<Golden> {
        let prior = TruncatedNormal::new(7.25, 1.5, 2.5, 12.0);
        let prior_bytes = [
            0, 0, 0, 0, 0, 0, 0x1D, 0x40, // mu = 7.25
            0, 0, 0, 0, 0, 0, 0xF8, 0x3F, // sigma = 1.5
            0, 0, 0, 0, 0, 0, 0x04, 0x40, // lo = 2.5
            0, 0, 0, 0, 0, 0, 0x28, 0x40, // hi = 12.0
        ];
        let params = ModelParams {
            width: 64,
            height: 48,
            expected_count: 3.5,
            radius_prior: prior,
            overlap_gamma: 0.75,
            fg: 0.625,
            bg: 0.125,
            noise_sd: 0.0625,
        };
        let mut params_bytes = vec![
            64, 0, 0, 0, // width
            48, 0, 0, 0, // height
            0, 0, 0, 0, 0, 0, 0x0C, 0x40, // expected_count = 3.5
        ];
        params_bytes.extend_from_slice(&prior_bytes);
        params_bytes.extend_from_slice(&[
            0, 0, 0, 0, 0, 0, 0xE8, 0x3F, // overlap_gamma = 0.75
            0, 0, 0, 0, 0, 0, 0xE4, 0x3F, // fg = 0.625
            0, 0, 0, 0, 0, 0, 0xC0, 0x3F, // bg = 0.125
            0, 0, 0, 0, 0, 0, 0xB0, 0x3F, // noise_sd = 0.0625
        ]);
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
        // Eleven little-endian u64 counters in declaration order.
        let perf_bytes = (1u64..=11).flat_map(u64::to_le_bytes).collect();
        vec![
            golden(
                "Duration",
                &Duration::new(12, 345_678_901),
                vec![
                    12, 0, 0, 0, 0, 0, 0, 0, // secs u64
                    0x35, 0xA4, 0x9A, 0x14, // subsec nanos u32
                ],
            ),
            golden(
                "Circle",
                &Circle::new(1.5, -2.25, 3.0),
                vec![
                    0, 0, 0, 0, 0, 0, 0xF8, 0x3F, // x = 1.5
                    0, 0, 0, 0, 0, 0, 0x02, 0xC0, // y = -2.25
                    0, 0, 0, 0, 0, 0, 0x08, 0x40, // r = 3.0
                ],
            ),
            golden("TruncatedNormal", &prior, prior_bytes.to_vec()),
            golden("ModelParams", &params, params_bytes),
            golden("PerfSnapshot", &perf, perf_bytes),
            golden(
                "Hello",
                &Hello {
                    version: 4,
                    node: 3,
                    workers: 8,
                },
                vec![
                    4, // version
                    3, 0, 0, 0, 0, 0, 0, 0, // node u64
                    8, 0, 0, 0, // workers u32
                ],
            ),
            golden(
                "Heartbeat",
                &Heartbeat {
                    node: 2,
                    in_flight: 5,
                },
                vec![
                    2, 0, 0, 0, 0, 0, 0, 0, // node u64
                    5, 0, 0, 0, // in_flight u32
                ],
            ),
            golden(
                "Requeue",
                &Requeue {
                    job: 9,
                    reason: "full".to_owned(),
                },
                vec![
                    9, 0, 0, 0, 0, 0, 0, 0, // job u64
                    4, 0, 0, 0, b'f', b'u', b'l', b'l', // reason
                ],
            ),
            golden(
                "GrayImage",
                &GrayImage::from_vec(2, 1, vec![0.5, -1.0]),
                vec![
                    2, 0, 0, 0, // width
                    1, 0, 0, 0, // height
                    0, 0, 0, 0x3F, // 0.5f32
                    0, 0, 0x80, 0xBF, // -1.0f32
                ],
            ),
        ]
    }

    #[test]
    fn every_value_type_matches_its_golden_bytes() {
        let names: Vec<&str> = goldens().iter().map(|g| g.name).collect();
        assert_eq!(names.len(), 9, "{names:?}");
    }

    /// Mutation fuzz over the goldens: every strict prefix of a payload is
    /// an error, and no single-byte substitution makes its decoder panic
    /// (an error or another value are both fine).
    #[test]
    fn mutated_goldens_decode_without_panicking() {
        let mut tried = 0;
        for g in goldens() {
            for cut in 0..g.bytes.len() {
                assert!(
                    (g.decode)(&g.bytes[..cut]).is_err(),
                    "{}: a {cut}-byte prefix decoded",
                    g.name
                );
            }
            for (i, &b) in g.bytes.iter().enumerate() {
                for sub in [0x00, 0x01, 0x7F, 0x80, 0xFF, b ^ 0x01, b ^ 0x80] {
                    let mut bytes = g.bytes.clone();
                    bytes[i] = sub;
                    if std::panic::catch_unwind(|| (g.decode)(&bytes)).is_err() {
                        panic!("{}: byte {i} set to {sub:#04x} panicked", g.name);
                    }
                    tried += 1;
                }
            }
        }
        assert!(tried > 1_500, "{tried} mutations");
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
        // The bulk pair writes and reads what `f32`'s impl does.
        let mut one_by_one = WireWriter::new();
        for &px in img.as_slice() {
            px.encode(&mut one_by_one);
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
        u32::MAX.encode(&mut w);
        u32::MAX.encode(&mut w);
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
        1u64.encode(&mut w);
        2_000_000_000u32.encode(&mut w);
        assert!(matches!(
            Duration::from_wire_bytes(&w.into_bytes()),
            Err(WireError::Malformed(_))
        ));
        assert!(matches!(
            bool::from_wire_bytes(&[7]),
            Err(WireError::Malformed(_))
        ));
    }
}
