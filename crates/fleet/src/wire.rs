//! Length-prefixed binary framing for the fleet RPC (DESIGN.md §9).
//!
//! A connection opens with a 5-byte hello — the magic `DJVF` plus a
//! version byte — sent by the client and echoed by the server, so a
//! version mismatch is detected before any frame is parsed. After the
//! hello, each direction carries *frames*: a little-endian `u32` payload
//! length followed by that many payload bytes. A payload is one message:
//! [`Wire`] gives each field type its one layout, built on the same LEB128
//! varints as the trace codec (`codec::put_varint`), and `wire_layout!`
//! turns each message type's one line in [`crate::rpc`] into both
//! directions.
//!
//! Every failure mode is a typed [`WireError`] — a truncated frame, a
//! bogus length, a dropped peer — never a panic. The framing layer is
//! fuzzed in `tests/fleet_rpc.rs` with the same seeded-mutation loop as
//! `djvb_fuzz.rs`.

use codec::{get_varint, put_varint, unzigzag, zigzag};
use std::fmt;
use std::io::{Read, Write};

/// Wire magic: first four bytes of every fleet connection.
pub const MAGIC: [u8; 4] = *b"DJVF";
/// Framing/protocol version carried in the hello.
pub const VERSION: u8 = 2;
/// Upper bound on a single frame's payload (32 MiB) — a corrupt length
/// prefix must not become an allocation bomb.
pub const MAX_FRAME: usize = 32 << 20;

/// Everything that can go wrong on the wire, as data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Hello did not start with `DJVF`.
    BadMagic,
    /// Hello magic was right but the version byte is one we don't speak.
    BadVersion(u8),
    /// A frame (or the hello) ended before its declared length.
    Truncated,
    /// Declared frame length exceeds [`MAX_FRAME`].
    Oversize(usize),
    /// A request/response payload carried an unknown discriminant.
    BadTag(u8),
    /// A payload decoded cleanly but had bytes left over.
    TrailingBytes,
    /// A string field's bytes are not UTF-8.
    BadUtf8,
    /// An integer field does not fit its type (a varint past 64 bits, a
    /// `u32` field past `u32::MAX`).
    OutOfRange,
    /// The peer closed the connection at a frame boundary.
    PeerClosed,
    /// Any other socket-level failure, stringified.
    Io(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "bad magic (expected DJVF)"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::Oversize(n) => write!(f, "frame length {n} exceeds cap {MAX_FRAME}"),
            WireError::BadTag(t) => write!(f, "unknown message tag {t}"),
            WireError::TrailingBytes => write!(f, "trailing bytes after message"),
            WireError::BadUtf8 => write!(f, "string field is not UTF-8"),
            WireError::OutOfRange => write!(f, "integer field out of range"),
            WireError::PeerClosed => write!(f, "peer closed the connection"),
            WireError::Io(e) => write!(f, "io: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::UnexpectedEof => WireError::Truncated,
            _ => WireError::Io(e.to_string()),
        }
    }
}

// ---------------------------------------------------------------------
// Payloads: one layout per field type, one table line per message.
// ---------------------------------------------------------------------

/// A field type's one wire layout: [`put`](Wire::put) appends it and
/// [`get`](Wire::get) reads it back at `*pos`, advancing past it.
/// Integers are LEB128 varints (an `i64` zigzagged), a `u8` and a `bool`
/// one byte, a string or blob a varint length and its bytes, a sequence a
/// varint count and its elements.
pub trait Wire: Sized {
    fn put(&self, buf: &mut Vec<u8>);
    fn get(buf: &[u8], pos: &mut usize) -> Result<Self, WireError>;
}

/// The element types of a sequence (`Vec<u8>` is a blob instead). Each
/// element is at least one byte, which bounds a sequence by its frame.
pub trait Elem: Wire {}

impl Wire for u64 {
    fn put(&self, buf: &mut Vec<u8>) {
        put_varint(buf, *self);
    }
    fn get(buf: &[u8], pos: &mut usize) -> Result<Self, WireError> {
        let start = *pos;
        // A varint only fails at the end of the buffer or on its tenth byte.
        get_varint(buf, pos).ok_or(if *pos - start < 10 {
            WireError::Truncated
        } else {
            WireError::OutOfRange
        })
    }
}

impl Wire for u32 {
    fn put(&self, buf: &mut Vec<u8>) {
        put_varint(buf, *self as u64);
    }
    fn get(buf: &[u8], pos: &mut usize) -> Result<Self, WireError> {
        u32::try_from(u64::get(buf, pos)?).map_err(|_| WireError::OutOfRange)
    }
}

impl Wire for i64 {
    fn put(&self, buf: &mut Vec<u8>) {
        put_varint(buf, zigzag(*self));
    }
    fn get(buf: &[u8], pos: &mut usize) -> Result<Self, WireError> {
        u64::get(buf, pos).map(unzigzag)
    }
}

impl Wire for u8 {
    fn put(&self, buf: &mut Vec<u8>) {
        buf.push(*self);
    }
    fn get(buf: &[u8], pos: &mut usize) -> Result<Self, WireError> {
        let b = *buf.get(*pos).ok_or(WireError::Truncated)?;
        *pos += 1;
        Ok(b)
    }
}

impl Wire for bool {
    fn put(&self, buf: &mut Vec<u8>) {
        buf.push(*self as u8);
    }
    fn get(buf: &[u8], pos: &mut usize) -> Result<Self, WireError> {
        match u8::get(buf, pos)? {
            b @ (0 | 1) => Ok(b == 1),
            b => Err(WireError::BadTag(b)),
        }
    }
}

/// A varint count `n` that the rest of the buffer can hold (each item at
/// least a byte), refused before anything is allocated for it.
fn count(buf: &[u8], pos: &mut usize) -> Result<usize, WireError> {
    let n = u64::get(buf, pos)?;
    if n > (buf.len() - *pos) as u64 {
        return Err(WireError::Truncated);
    }
    Ok(n as usize)
}

/// A length-prefixed byte run, borrowed from the buffer.
fn bytes<'a>(buf: &'a [u8], pos: &mut usize) -> Result<&'a [u8], WireError> {
    let n = count(buf, pos)?;
    *pos += n;
    Ok(&buf[*pos - n..*pos])
}

impl Wire for Vec<u8> {
    fn put(&self, buf: &mut Vec<u8>) {
        put_varint(buf, self.len() as u64);
        buf.extend_from_slice(self);
    }
    fn get(buf: &[u8], pos: &mut usize) -> Result<Self, WireError> {
        Ok(bytes(buf, pos)?.to_vec())
    }
}

impl Wire for String {
    fn put(&self, buf: &mut Vec<u8>) {
        put_varint(buf, self.len() as u64);
        buf.extend_from_slice(self.as_bytes());
    }
    fn get(buf: &[u8], pos: &mut usize) -> Result<Self, WireError> {
        let s = std::str::from_utf8(bytes(buf, pos)?).map_err(|_| WireError::BadUtf8)?;
        Ok(s.to_owned())
    }
}

impl Elem for u64 {}

impl<T: Elem> Wire for Vec<T> {
    fn put(&self, buf: &mut Vec<u8>) {
        put_varint(buf, self.len() as u64);
        self.iter().for_each(|x| x.put(buf));
    }
    fn get(buf: &[u8], pos: &mut usize) -> Result<Self, WireError> {
        (0..count(buf, pos)?).map(|_| T::get(buf, pos)).collect()
    }
}

/// [`Wire`] for a message type from its one layout line:
/// `struct T { fields }` writes the fields in order, and
/// `enum T { tag => Variant { fields } | Variant(fields) | Variant, ... }`
/// writes the tag byte and then the variant's fields. Decoding reads the
/// same line back; an unknown tag is [`WireError::BadTag`].
macro_rules! wire_layout {
    (struct $ty:ty { $($f:ident),* $(,)? }) => {
        impl $crate::wire::Wire for $ty {
            fn put(&self, buf: &mut Vec<u8>) {
                $($crate::wire::Wire::put(&self.$f, buf);)*
            }
            fn get(buf: &[u8], pos: &mut usize) -> Result<Self, $crate::wire::WireError> {
                Ok(Self { $($f: $crate::wire::Wire::get(buf, pos)?),* })
            }
        }
    };
    (enum $ty:ty { $($tag:literal => $var:ident $({ $($f:ident),* })? $(($($t:ident),*))?),* $(,)? }) => {
        impl $crate::wire::Wire for $ty {
            fn put(&self, buf: &mut Vec<u8>) {
                match self {
                    $(Self::$var $({ $($f),* })? $(($($t),*))? => {
                        buf.push($tag);
                        $($($crate::wire::Wire::put($f, buf);)*)?
                        $($($crate::wire::Wire::put($t, buf);)*)?
                    })*
                }
            }
            fn get(buf: &[u8], pos: &mut usize) -> Result<Self, $crate::wire::WireError> {
                Ok(match <u8 as $crate::wire::Wire>::get(buf, pos)? {
                    $($tag => Self::$var
                        $({ $($f: $crate::wire::Wire::get(buf, pos)?),* })?
                        $(($({ let $t = $crate::wire::Wire::get(buf, pos)?; $t }),*))?,)*
                    t => return Err($crate::wire::WireError::BadTag(t)),
                })
            }
        }
    };
}
pub(crate) use wire_layout;

/// A whole payload: one message.
pub(crate) fn encode(msg: &impl Wire) -> Vec<u8> {
    let mut buf = Vec::new();
    msg.put(&mut buf);
    buf
}

/// Decode one message that must consume every byte of `buf`.
pub(crate) fn decode<T: Wire>(buf: &[u8]) -> Result<T, WireError> {
    let mut pos = 0;
    let msg = T::get(buf, &mut pos)?;
    if pos != buf.len() {
        return Err(WireError::TrailingBytes);
    }
    Ok(msg)
}

// ---------------------------------------------------------------------
// Hello + frames.
// ---------------------------------------------------------------------

/// The 5-byte connection preamble.
pub fn hello_bytes() -> [u8; 5] {
    [MAGIC[0], MAGIC[1], MAGIC[2], MAGIC[3], VERSION]
}

/// Validate a received hello.
pub fn check_hello(h: &[u8; 5]) -> Result<(), WireError> {
    if h[..4] != MAGIC {
        return Err(WireError::BadMagic);
    }
    if h[4] != VERSION {
        return Err(WireError::BadVersion(h[4]));
    }
    Ok(())
}

/// Write one frame: `u32` little-endian payload length, then the payload.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), WireError> {
    if payload.len() > MAX_FRAME {
        return Err(WireError::Oversize(payload.len()));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Read one frame (blocking). A clean EOF *before* the length prefix is
/// [`WireError::PeerClosed`]; an EOF mid-frame is [`WireError::Truncated`].
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, WireError> {
    let mut len = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        let n = r.read(&mut len[got..])?;
        if n == 0 {
            return Err(if got == 0 {
                WireError::PeerClosed
            } else {
                WireError::Truncated
            });
        }
        got += n;
    }
    let n = u32::from_le_bytes(len) as usize;
    if n > MAX_FRAME {
        return Err(WireError::Oversize(n));
    }
    let mut payload = vec![0u8; n];
    r.read_exact(&mut payload)?;
    Ok(payload)
}
