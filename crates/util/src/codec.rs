//! Byte-level encode/decode helpers for protocol wire formats.
//!
//! The secure routing protocol (§6.2, Figs. 4–6) is specified at the level
//! of concrete packet fields — type tags, node ids, counters, paths, MACs —
//! so we encode packets as real byte buffers and authenticate those bytes.
//! This module provides a tiny writer/reader pair with explicit error
//! handling; all integers are little-endian.
//!
//! On top of the pair sits the packet schema: [`packet_schema!`] takes
//! one table per protocol — a row per message with its tag and its
//! fields in wire order — and generates the owned message enum with its
//! encoder, a borrowed view enum with the one decoder, and a named byte
//! offset for every field at a fixed offset. Each field's type is a
//! [`Field`] kind naming its wire shape: [`NodeId`], `u16`, `u32`,
//! `u64`, `f64` (as its bits), `[u8; N]`, the counted lists [`IdList`],
//! [`U16List`] and [`List`], the length-prefixed [`Bytes`] and the zero
//! padding [`Pad`]. Protocol crates add kinds for their own types the
//! same way (the sealed SecMLR section is `wmsn_crypto`'s
//! `SealedMessage`).

use crate::NodeId;
use std::convert::identity;
use std::fmt;
use std::marker::PhantomData;

/// Errors produced while decoding a wire buffer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DecodeError {
    /// The buffer ended before the requested field.
    Truncated {
        /// Bytes requested.
        needed: usize,
        /// Bytes remaining.
        remaining: usize,
    },
    /// A tag or enum discriminant had no defined meaning.
    BadTag(u8),
    /// A length prefix exceeded a sanity bound.
    LengthOutOfRange(usize),
    /// Trailing bytes remained after a complete decode.
    TrailingBytes(usize),
    /// A padding byte was not zero.
    NonZeroPadding,
    /// Fields that each decoded fine contradict one another (the
    /// message names how).
    Inconsistent(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { needed, remaining } => {
                write!(f, "truncated buffer: needed {needed}, had {remaining}")
            }
            DecodeError::BadTag(t) => write!(f, "unknown tag {t:#04x}"),
            DecodeError::LengthOutOfRange(n) => write!(f, "length {n} out of range"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes"),
            DecodeError::NonZeroPadding => write!(f, "non-zero padding byte"),
            DecodeError::Inconsistent(what) => f.write_str(what),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Append-only wire writer.
#[derive(Default, Debug)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Fresh writer.
    #[inline]
    pub fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    /// Writer with pre-reserved capacity.
    #[inline]
    pub fn with_capacity(cap: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Writer appending to `buf` (reuses its allocation).
    #[inline]
    pub fn from_vec(buf: Vec<u8>) -> Self {
        Writer { buf }
    }

    /// Finish and take the bytes.
    #[inline]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Write a single byte.
    #[inline]
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Write a little-endian `u16`.
    #[inline]
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Write a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Write a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Write raw bytes with no length prefix.
    #[inline]
    pub fn raw(&mut self, bytes: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(bytes);
        self
    }

    /// Write a `u16` length prefix followed by the bytes.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        let len = u16::try_from(bytes.len()).expect("field longer than u16::MAX");
        self.u16(len);
        self.raw(bytes)
    }

    /// Write a list of node ids with a `u16` count prefix — the
    /// encoding of `path_ij(k)` fields.
    #[inline]
    pub fn id_list(&mut self, ids: &[NodeId]) -> &mut Self {
        write_count(self, ids.len());
        for id in ids {
            self.u32(id.0);
        }
        self
    }
}

/// Cursor-based wire reader.
#[derive(Debug)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Read from the start of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { rest: buf }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// Error unless the buffer is fully consumed.
    #[inline]
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(DecodeError::TrailingBytes(self.remaining()))
        }
    }

    #[inline(always)]
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let Some((s, rest)) = self.rest.split_at_checked(n) else {
            return Err(DecodeError::Truncated {
                needed: n,
                remaining: self.rest.len(),
            });
        };
        self.rest = rest;
        Ok(s)
    }

    /// Error unless at least `n` bytes remain.
    #[inline(always)]
    pub fn need(&self, n: usize) -> Result<(), DecodeError> {
        if self.rest.len() < n {
            return Err(DecodeError::Truncated {
                needed: n,
                remaining: self.rest.len(),
            });
        }
        Ok(())
    }

    /// Read one byte.
    #[inline(always)]
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u16`.
    #[inline(always)]
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        self.array().map(u16::from_le_bytes)
    }

    /// Read a little-endian `u32`.
    #[inline(always)]
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Read a little-endian `u64`.
    #[inline(always)]
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Read exactly `N` bytes into an array.
    #[inline(always)]
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    /// Read exactly `n` raw bytes.
    #[inline(always)]
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        self.take(n)
    }

    /// Read a `u16` count prefix, bounded by `max` for sanity.
    #[inline(always)]
    pub fn count(&mut self, max: usize) -> Result<usize, DecodeError> {
        let len = self.u16()? as usize;
        if len > max {
            return Err(DecodeError::LengthOutOfRange(len));
        }
        Ok(len)
    }

    /// Read a `u16`-length-prefixed byte field, bounded by `max` for sanity.
    #[inline(always)]
    pub fn bytes(&mut self, max: usize) -> Result<&'a [u8], DecodeError> {
        let len = self.count(max)?;
        self.take(len)
    }

    /// Read a `u16`-count-prefixed list of `u32` ids, bounded by `max`:
    /// validates the count prefix and returns a zero-copy
    /// [`IdListView`] over the id bytes without materialising a `Vec`.
    #[inline(always)]
    pub fn id_list_view(&mut self, max: usize) -> Result<IdListView<'a>, DecodeError> {
        let len = self.count(max)?;
        Ok(IdListView {
            raw: self.take(len * 4)?,
        })
    }

    /// Borrowed `u16`-count-prefixed list of `u16` values, bounded by
    /// `max` — the encoding of `wanted` place lists.
    #[inline(always)]
    pub fn u16_list_view(&mut self, max: usize) -> Result<U16ListView<'a>, DecodeError> {
        let len = self.count(max)?;
        Ok(U16ListView {
            raw: self.take(len * 2)?,
        })
    }
}

/// Zero-copy view over a wire-encoded list of little-endian `u32` ids
/// (the byte region *after* its `u16` count prefix). Produced by
/// [`Reader::id_list_view`]; the backing bytes live in the received
/// frame, so iterating or indexing allocates nothing.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct IdListView<'a> {
    raw: &'a [u8],
}

impl<'a> IdListView<'a> {
    /// Number of ids.
    #[inline]
    pub fn len(&self) -> usize {
        self.raw.len() / 4
    }

    /// Whether the list is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }

    /// The `i`-th id, or `None` past the end.
    #[inline]
    pub fn get(&self, i: usize) -> Option<u32> {
        let b = self.raw.get(i * 4..i * 4 + 4)?;
        Some(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// The last id, if any.
    #[inline]
    pub fn last(&self) -> Option<u32> {
        self.len().checked_sub(1).and_then(|i| self.get(i))
    }

    /// Whether `id` occurs in the list.
    #[inline]
    pub fn contains(&self, id: u32) -> bool {
        self.iter().any(|x| x == id)
    }

    /// Index of the first occurrence of `id`.
    #[inline]
    pub fn position(&self, id: u32) -> Option<usize> {
        self.iter().position(|x| x == id)
    }

    /// Iterate the ids without allocating.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.raw
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// The underlying id bytes (no count prefix) — the memcpy source for
    /// in-place path forwarding.
    #[inline]
    pub fn as_bytes(&self) -> &'a [u8] {
        self.raw
    }
}

/// Zero-copy view over a wire-encoded list of little-endian `u16`
/// values (after its count prefix). See [`IdListView`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct U16ListView<'a> {
    raw: &'a [u8],
}

impl<'a> U16ListView<'a> {
    /// Number of values.
    #[inline]
    pub fn len(&self) -> usize {
        self.raw.len() / 2
    }

    /// Whether the list is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }

    /// Iterate the values without allocating.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = u16> + '_ {
        self.raw
            .chunks_exact(2)
            .map(|b| u16::from_le_bytes([b[0], b[1]]))
    }

    /// Collect into an owned `Vec`.
    #[inline]
    pub fn to_vec(&self) -> Vec<u16> {
        self.iter().collect()
    }

    /// The underlying value bytes (no count prefix).
    #[inline]
    pub fn as_bytes(&self) -> &'a [u8] {
        self.raw
    }
}

/// A wire field kind: how one message field is laid out on the air.
///
/// Kinds are the field types of a [`packet_schema!`] row. A kind names
/// the owned value encoders take, the borrowed value the decoder hands
/// out (the value itself for scalars, a view over the frame for lists
/// and byte fields) and the reader and writer between them.
pub trait Field {
    /// The owned value.
    type Owned;
    /// The borrowed value a decoded view holds.
    type View<'a>: Copy;
    /// `Some(n)` when every value is exactly `n` bytes on the air and
    /// any `n` bytes decode; `None` for variable-size kinds.
    const SIZE: Option<usize>;
    /// Read and validate one value.
    fn read<'a>(r: &mut Reader<'a>) -> Result<Self::View<'a>, DecodeError>;
    /// Append one value.
    fn write(w: &mut Writer, v: &Self::Owned);
    /// Materialise the owned value of a view.
    fn own(v: Self::View<'_>) -> Self::Owned;
}

/// The fixed size of a sequence of kinds, if every one has one.
const fn sum_sizes(sizes: &[Option<usize>]) -> Option<usize> {
    let mut total = 0;
    let mut i = 0;
    while i < sizes.len() {
        match sizes[i] {
            Some(n) => total += n,
            None => return None,
        }
        i += 1;
    }
    Some(total)
}

/// Bytes taken by the fixed-size fields before the first variable-size
/// one (all of them if none varies).
pub const fn head_size(sizes: &[Option<usize>]) -> usize {
    let mut total = 0;
    let mut i = 0;
    while i < sizes.len() {
        match sizes[i] {
            Some(n) => total += n,
            None => return total,
        }
        i += 1;
    }
    total
}

/// Offset of a field whose offset is fixed. [`packet_schema!`] defines
/// a constant for every field through this; for a field behind a
/// variable-size one, using the constant is a compile error.
pub const fn fixed_offset(at: Option<usize>) -> usize {
    match at {
        Some(at) => at,
        None => panic!("field follows a variable-size field: no fixed offset"),
    }
}

/// Scalar kinds: `kind => wire integer, to wire, from wire`.
macro_rules! scalar_field {
    ($($ty:ty => $wire:ident, $to:expr, $from:expr;)+) => {$(
        impl Field for $ty {
            type Owned = $ty;
            type View<'a> = $ty;
            const SIZE: Option<usize> = Some(std::mem::size_of::<$ty>());
            #[inline(always)]
            fn read<'a>(r: &mut Reader<'a>) -> Result<$ty, DecodeError> {
                r.$wire().map($from)
            }
            #[inline]
            fn write(w: &mut Writer, v: &$ty) {
                w.$wire($to(*v));
            }
            #[inline]
            fn own(v: $ty) -> $ty {
                v
            }
        }
    )+};
}

scalar_field! {
    u16 => u16, identity, identity;
    u32 => u32, identity, identity;
    u64 => u64, identity, identity;
    NodeId => u32, |id: NodeId| id.0, NodeId;
    f64 => u64, f64::to_bits, f64::from_bits;
}

impl<const N: usize> Field for [u8; N] {
    type Owned = [u8; N];
    type View<'a> = [u8; N];
    const SIZE: Option<usize> = Some(N);
    #[inline(always)]
    fn read<'a>(r: &mut Reader<'a>) -> Result<[u8; N], DecodeError> {
        r.array()
    }
    #[inline]
    fn write(w: &mut Writer, v: &[u8; N]) {
        w.raw(v);
    }
    #[inline]
    fn own(v: [u8; N]) -> [u8; N] {
        v
    }
}

macro_rules! tuple_field {
    ($($T:ident $v:ident),+) => {
        impl<$($T: Field),+> Field for ($($T,)+) {
            type Owned = ($($T::Owned,)+);
            type View<'a> = ($($T::View<'a>,)+);
            const SIZE: Option<usize> = sum_sizes(&[$($T::SIZE),+]);
            #[inline(always)]
            fn read<'a>(r: &mut Reader<'a>) -> Result<Self::View<'a>, DecodeError> {
                Ok(($($T::read(r)?,)+))
            }
            #[inline]
            fn write(w: &mut Writer, ($($v,)+): &Self::Owned) {
                $($T::write(w, $v);)+
            }
            #[inline]
            fn own(($($v,)+): Self::View<'_>) -> Self::Owned {
                ($($T::own($v),)+)
            }
        }
    };
}

tuple_field!(A a, B b);
tuple_field!(A a, B b, C c);

/// Write a `u16` count prefix.
#[inline]
fn write_count(w: &mut Writer, n: usize) {
    w.u16(u16::try_from(n).expect("list longer than u16::MAX"));
}

/// Kind: `u16`-count-prefixed list of node ids, at most `MAX` long.
/// Owned as `Vec<NodeId>`, viewed as an [`IdListView`].
pub struct IdList<const MAX: usize>;

impl<const MAX: usize> Field for IdList<MAX> {
    type Owned = Vec<NodeId>;
    type View<'a> = IdListView<'a>;
    const SIZE: Option<usize> = None;
    #[inline(always)]
    fn read<'a>(r: &mut Reader<'a>) -> Result<IdListView<'a>, DecodeError> {
        r.id_list_view(MAX)
    }
    #[inline]
    fn write(w: &mut Writer, v: &Vec<NodeId>) {
        w.id_list(v);
    }
    #[inline]
    fn own(v: IdListView<'_>) -> Vec<NodeId> {
        v.iter().map(NodeId).collect()
    }
}

/// Kind: `u16`-count-prefixed list of `u16` values, at most `MAX`
/// long. Owned as `Vec<u16>`, viewed as a [`U16ListView`].
pub struct U16List<const MAX: usize>;

impl<const MAX: usize> Field for U16List<MAX> {
    type Owned = Vec<u16>;
    type View<'a> = U16ListView<'a>;
    const SIZE: Option<usize> = None;
    #[inline(always)]
    fn read<'a>(r: &mut Reader<'a>) -> Result<U16ListView<'a>, DecodeError> {
        r.u16_list_view(MAX)
    }
    #[inline]
    fn write(w: &mut Writer, v: &Vec<u16>) {
        write_count(w, v.len());
        for &x in v {
            w.u16(x);
        }
    }
    #[inline]
    fn own(v: U16ListView<'_>) -> Vec<u16> {
        v.to_vec()
    }
}

/// Kind: `u16`-length-prefixed bytes, at most `MAX` long. Owned as
/// `Vec<u8>`, viewed as a slice of the frame.
pub struct Bytes<const MAX: usize>;

impl<const MAX: usize> Field for Bytes<MAX> {
    type Owned = Vec<u8>;
    type View<'a> = &'a [u8];
    const SIZE: Option<usize> = None;
    #[inline(always)]
    fn read<'a>(r: &mut Reader<'a>) -> Result<&'a [u8], DecodeError> {
        r.bytes(MAX)
    }
    #[inline]
    fn write(w: &mut Writer, v: &Vec<u8>) {
        w.bytes(v);
    }
    #[inline]
    fn own(v: &[u8]) -> Vec<u8> {
        v.to_vec()
    }
}

/// Kind: payload padding — a `u16` length followed by that many zero
/// bytes, standing in for a sensed payload so frames have a realistic
/// size. The value is the length. A non-zero padding byte is rejected,
/// so every accepted frame re-encodes to its own bytes.
pub struct Pad;

impl Field for Pad {
    type Owned = u16;
    type View<'a> = u16;
    const SIZE: Option<usize> = None;
    #[inline(always)]
    fn read<'a>(r: &mut Reader<'a>) -> Result<u16, DecodeError> {
        let len = r.u16()?;
        if r.take(len as usize)?.iter().any(|&b| b != 0) {
            return Err(DecodeError::NonZeroPadding);
        }
        Ok(len)
    }
    #[inline]
    fn write(w: &mut Writer, &len: &u16) {
        w.u16(len);
        w.buf.resize(w.buf.len() + len as usize, 0);
    }
    #[inline]
    fn own(len: u16) -> u16 {
        len
    }
}

/// Kind: `u16`-count-prefixed list of `T` records, at most `MAX` long.
/// Owned as a `Vec`, viewed as a [`ListView`].
pub struct List<T, const MAX: usize>(PhantomData<T>);

impl<T: Field, const MAX: usize> Field for List<T, MAX> {
    type Owned = Vec<T::Owned>;
    type View<'a> = ListView<'a, T>;
    const SIZE: Option<usize> = None;
    #[inline(always)]
    fn read<'a>(r: &mut Reader<'a>) -> Result<ListView<'a, T>, DecodeError> {
        let len = r.count(MAX)?;
        let raw = match T::SIZE {
            Some(size) => r.take(len * size)?,
            None => {
                let start = r.rest;
                for _ in 0..len {
                    T::read(r)?;
                }
                &start[..start.len() - r.rest.len()]
            }
        };
        Ok(ListView {
            raw,
            len,
            kind: PhantomData,
        })
    }
    #[inline]
    fn write(w: &mut Writer, v: &Vec<T::Owned>) {
        write_count(w, v.len());
        for x in v {
            T::write(w, x);
        }
    }
    fn own(v: ListView<'_, T>) -> Vec<T::Owned> {
        v.iter().map(T::own).collect()
    }
}

/// Zero-copy view over a validated list of `T` records (after its
/// count prefix). Produced by the [`List`] kind; iterating re-reads the
/// records from the frame and allocates nothing.
pub struct ListView<'a, T> {
    raw: &'a [u8],
    len: usize,
    kind: PhantomData<fn() -> T>,
}

impl<'a, T: Field> ListView<'a, T> {
    /// Iterate the records' views.
    pub fn iter(&self) -> impl Iterator<Item = T::View<'a>> + 'a {
        let mut r = Reader::new(self.raw);
        (0..self.len).map_while(move |_| T::read(&mut r).ok())
    }
}

impl<T> Clone for ListView<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for ListView<'_, T> {}

impl<T> PartialEq for ListView<'_, T> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.raw == other.raw
    }
}

impl<T> Eq for ListView<'_, T> {}

impl<T> fmt::Debug for ListView<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ListView")
            .field("len", &self.len)
            .field("raw", &self.raw)
            .finish()
    }
}

/// Copy `frame` into `out` (a reusable scratch buffer) and overwrite
/// each `(offset, bytes)` field in it — the in-place rewrite of
/// fixed-offset fields for forwarding. Fails if the frame is too short.
#[inline]
pub fn patch(
    frame: &[u8],
    fields: &[(usize, &[u8])],
    out: &mut Vec<u8>,
) -> Result<(), DecodeError> {
    out.clear();
    out.extend_from_slice(frame);
    for &(at, bytes) in fields {
        let needed = at + bytes.len();
        let Some(dst) = out.get_mut(at..needed) else {
            return Err(DecodeError::Truncated {
                needed,
                remaining: frame.len(),
            });
        };
        dst.copy_from_slice(bytes);
    }
    Ok(())
}

/// Copy `frame` into `out` with `id` appended to the id list whose
/// count prefix sits at `at`: the bytes around the list are copied
/// verbatim, the count is bumped and the id lands after the list's
/// last entry. Fails if the list is malformed or already `max` long.
#[inline]
pub fn append_id(
    frame: &[u8],
    at: usize,
    max: usize,
    id: u32,
    out: &mut Vec<u8>,
) -> Result<(), DecodeError> {
    let mut r = Reader::new(frame.get(at..).unwrap_or_default());
    let list = r.id_list_view(max)?;
    let count = list.len() + 1;
    let wire_count = u16::try_from(count)
        .ok()
        .filter(|_| count <= max)
        .ok_or(DecodeError::LengthOutOfRange(count))?;
    let end = at + 2 + list.as_bytes().len();
    out.clear();
    out.reserve(frame.len() + 4);
    out.extend_from_slice(&frame[..end]);
    out[at..at + 2].copy_from_slice(&wire_count.to_le_bytes());
    out.extend_from_slice(&id.to_le_bytes());
    out.extend_from_slice(&frame[end..]);
    Ok(())
}

/// Declares a protocol's messages once and generates their codec.
///
/// The table names the owned enum, the borrowed view enum and a layout
/// module, then lists one row per message: its tag byte, its variant
/// name and its fields in wire order, each typed by a [`Field`] kind.
/// Every frame is the tag followed by the fields. From the table:
///
/// * the owned enum gets `encode`, `encode_into` (append to a reusable
///   buffer) and `decode` (the view decoder plus `to_owned`);
/// * the view enum (fields are the kinds' views, so lists and bytes
///   stay borrowed from the frame) gets `decode` — the one decoder,
///   which validates the whole frame, including its exact length — and
///   `to_owned`;
/// * the layout module gets a unit struct per message holding, per
///   field, a constant named after the field with its byte offset (the
///   tag is byte 0). A field behind a variable-size field has no fixed
///   offset, and naming its constant fails to compile.
///
/// ```
/// use wmsn_util::codec::Pad;
/// use wmsn_util::NodeId;
///
/// wmsn_util::packet_schema! {
///     /// A message.
///     #[derive(Clone, PartialEq, Eq, Debug)]
///     pub enum Msg;
///     /// A borrowed message.
///     #[derive(Clone, Copy, Debug)]
///     pub enum MsgView<'a>;
///     /// Field offsets.
///     pub mod layout;
///
///     /// A reading.
///     7 Data {
///         /// Source.
///         origin: NodeId,
///         /// Hops so far.
///         hops: u32,
///         /// Payload size.
///         payload_len: Pad,
///     }
/// }
///
/// fn main() {
///     let msg = Msg::Data { origin: NodeId(3), hops: 1, payload_len: 2 };
///     let bytes = msg.encode();
///     assert_eq!(bytes, [7, 3, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0]);
///     assert_eq!(MsgView::decode(&bytes).unwrap().to_owned(), msg);
///     assert_eq!((layout::Data::hops, layout::Data::payload_len), (5, 9));
/// }
/// ```
#[macro_export]
macro_rules! packet_schema {
    (@offsets $at:expr;) => {};
    (@offsets $at:expr; $f:ident: $k:ty $(, $rf:ident: $rk:ty)*) => {
        #[doc = concat!("Byte offset of `", stringify!($f), "`.")]
        pub const $f: usize = $crate::codec::fixed_offset($at);
        $crate::packet_schema!(@offsets match ($at, <$k as $crate::codec::Field>::SIZE) {
            (Some(at), Some(size)) => Some(at + size),
            _ => None,
        }; $($rf: $rk),*);
    };
    (
        $(#[$oattr:meta])* $ovis:vis enum $Owned:ident;
        $(#[$vattr:meta])* $vvis:vis enum $View:ident<$a:lifetime>;
        $(#[$lattr:meta])* $lvis:vis mod $layout:ident;
        $(
            $(#[$vdoc:meta])*
            $tag:literal $V:ident { $($(#[$fdoc:meta])* $f:ident: $k:ty),* $(,)? }
        )+
    ) => {
        $(#[$oattr])*
        $ovis enum $Owned {
            $($(#[$vdoc])* $V { $($(#[$fdoc])* $f: <$k as $crate::codec::Field>::Owned,)* },)+
        }

        $(#[$vattr])*
        $vvis enum $View<$a> {
            $($(#[$vdoc])* $V { $($(#[$fdoc])* $f: <$k as $crate::codec::Field>::View<$a>,)* },)+
        }

        $(#[$lattr])*
        $lvis mod $layout {
            #[allow(unused_imports)]
            use super::*;
            $(
                #[doc = concat!("Layout of `", stringify!($V), "` frames.")]
                pub struct $V;

                #[allow(non_upper_case_globals)]
                impl $V {
                    $crate::packet_schema!(@offsets Some(1); $($f: $k),*);
                }
            )+
        }

        impl $Owned {
            /// Append the frame to `out`.
            pub fn encode_into(&self, out: &mut Vec<u8>) {
                let mut w = $crate::codec::Writer::from_vec(std::mem::take(out));
                match self {
                    $($Owned::$V { $($f,)* } => {
                        w.u8($tag);
                        $(<$k as $crate::codec::Field>::write(&mut w, $f);)*
                    })+
                }
                *out = w.into_bytes();
            }

            /// Encode to bytes.
            pub fn encode(&self) -> Vec<u8> {
                let mut out = Vec::with_capacity(32);
                self.encode_into(&mut out);
                out
            }

            /// Decode from bytes (the view decoder, then `to_owned`).
            pub fn decode(bytes: &[u8]) -> Result<Self, $crate::codec::DecodeError> {
                $View::decode(bytes).map(|v| v.to_owned())
            }
        }

        impl<$a> $View<$a> {
            /// Decode and validate a whole frame; list and byte fields
            /// stay borrowed from `bytes`.
            #[inline]
            pub fn decode(bytes: &$a [u8]) -> Result<Self, $crate::codec::DecodeError> {
                let mut r = $crate::codec::Reader::new(bytes);
                let msg = match r.u8()? {
                    $($tag => {
                        // Checking the fixed-size head's length once
                        // lets the compiler drop its fields' own checks.
                        const HEAD: usize = $crate::codec::head_size(&[
                            $(<$k as $crate::codec::Field>::SIZE),*
                        ]);
                        r.need(HEAD)?;
                        $View::$V {
                            $($f: <$k as $crate::codec::Field>::read(&mut r)?,)*
                        }
                    },)+
                    t => return Err($crate::codec::DecodeError::BadTag(t)),
                };
                r.finish()?;
                Ok(msg)
            }

            /// Materialise the owned message.
            pub fn to_owned(&self) -> $Owned {
                match *self {
                    $($View::$V { $($f,)* } => $Owned::$V {
                        $($f: <$k as $crate::codec::Field>::own($f),)*
                    },)+
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut w = Writer::new();
        w.u8(0xAB)
            .u16(0x1234)
            .u32(0xDEAD_BEEF)
            .u64(0x0102_0304_0506_0708);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u16().unwrap(), 0x1234);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), 0x0102_0304_0506_0708);
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_reported_with_counts() {
        let bytes = [1u8, 2];
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u16().unwrap(), 0x0201);
        let err = r.u32().unwrap_err();
        assert_eq!(
            err,
            DecodeError::Truncated {
                needed: 4,
                remaining: 0
            }
        );
    }

    #[test]
    fn trailing_bytes_fail_finish() {
        let bytes = [0u8; 3];
        let mut r = Reader::new(&bytes);
        let _ = r.u8().unwrap();
        assert_eq!(r.finish().unwrap_err(), DecodeError::TrailingBytes(2));
    }

    #[test]
    fn length_prefixed_bytes_roundtrip_and_bound() {
        let mut w = Writer::new();
        w.bytes(b"hello");
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        assert_eq!(r.bytes(16).unwrap(), b"hello");
        // Same buffer, tighter bound → rejected.
        let mut r2 = Reader::new(&buf);
        assert_eq!(r2.bytes(4).unwrap_err(), DecodeError::LengthOutOfRange(5));
    }

    fn ids(raw: &[u32]) -> Vec<NodeId> {
        raw.iter().copied().map(NodeId).collect()
    }

    #[test]
    fn id_list_roundtrip() {
        let raw = [5u32, 0, 9_999_999];
        let mut w = Writer::new();
        w.id_list(&ids(&raw));
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        let view = r.id_list_view(10).unwrap();
        assert_eq!(view.iter().collect::<Vec<_>>(), raw.to_vec());
        r.finish().unwrap();
    }

    #[test]
    fn id_list_respects_bound() {
        let raw: Vec<u32> = (0..20).collect();
        let mut w = Writer::new();
        w.id_list(&ids(&raw));
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        assert_eq!(
            r.id_list_view(10).unwrap_err(),
            DecodeError::LengthOutOfRange(20)
        );
    }

    #[test]
    fn empty_collections_roundtrip() {
        let mut w = Writer::new();
        w.bytes(b"").id_list(&[]);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        assert_eq!(r.bytes(8).unwrap(), b"");
        assert!(r.id_list_view(8).unwrap().is_empty());
        r.finish().unwrap();
    }

    #[test]
    fn id_list_view_matches_owned_decode() {
        let raw = [7u32, 0, 42, u32::MAX];
        let mut w = Writer::new();
        w.id_list(&ids(&raw));
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        let view = r.id_list_view(8).unwrap();
        r.finish().unwrap();
        assert_eq!(view.len(), 4);
        assert!(!view.is_empty());
        assert_eq!(view.iter().collect::<Vec<_>>(), raw.to_vec());
        assert_eq!(view.get(2), Some(42));
        assert_eq!(view.get(4), None);
        assert_eq!(view.last(), Some(u32::MAX));
        assert!(view.contains(0));
        assert!(!view.contains(1));
        assert_eq!(view.position(42), Some(2));
        assert_eq!(view.as_bytes().len(), 16);
    }

    #[test]
    fn id_list_view_rejects_truncated_and_oversized() {
        let mut w = Writer::new();
        w.id_list(&ids(&[1, 2, 3]));
        let buf = w.into_bytes();
        // Truncated payload: count says 3 but only 2 ids present.
        let mut r = Reader::new(&buf[..buf.len() - 4]);
        assert!(r.id_list_view(8).is_err());
        // Count exceeding the bound.
        let mut r2 = Reader::new(&buf);
        assert_eq!(
            r2.id_list_view(2).unwrap_err(),
            DecodeError::LengthOutOfRange(3)
        );
    }

    #[test]
    fn u16_list_view_roundtrips() {
        let mut w = Writer::new();
        w.u16(3).u16(5).u16(0).u16(9);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        let view = r.u16_list_view(8).unwrap();
        r.finish().unwrap();
        assert_eq!(view.to_vec(), vec![5, 0, 9]);
        assert_eq!(view.len(), 3);
        assert!(!view.is_empty());
        assert_eq!(view.as_bytes().len(), 6);
        let mut r2 = Reader::new(&buf);
        assert!(r2.u16_list_view(2).is_err());
    }

    #[test]
    fn decode_error_displays() {
        let msgs = [
            DecodeError::Truncated {
                needed: 4,
                remaining: 1,
            }
            .to_string(),
            DecodeError::BadTag(0x7F).to_string(),
            DecodeError::LengthOutOfRange(9).to_string(),
            DecodeError::TrailingBytes(2).to_string(),
        ];
        assert!(msgs[0].contains("truncated"));
        assert!(msgs[1].contains("0x7f"));
        assert!(msgs[2].contains('9'));
        assert!(msgs[3].contains("trailing"));
    }
}
