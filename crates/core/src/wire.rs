//! The wire format: IBM-PyWren's "pickle".
//!
//! PyWren serializes user functions and data with Python's pickle and stages
//! the bytes in COS. Rust cannot serialize closures, so the reproduction
//! ships a *registry key* plus a self-describing [`Value`] — everything else
//! about the payload path (encode → PUT → invoke → GET → decode → execute)
//! is identical. The codec is a compact tagged binary format implemented
//! from scratch so it can be tested and benchmarked as part of the system.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use bytes::Bytes;

/// Maximum nesting depth accepted by the decoder (guards against stack
/// exhaustion on malformed input).
const MAX_DEPTH: usize = 100;

/// Most items the decoder reserves room for on the word of a list's header
/// alone. Headers nest: without a cap, `MAX_DEPTH` of them each claiming
/// more items than the buffer has bytes would reserve `MAX_DEPTH` × the
/// buffer × the size of a [`Value`] before the first missing item is found.
const MAX_RESERVED_ITEMS: usize = 1024;

/// A dynamically-typed value, the unit of data exchanged between the client
/// and function executors.
///
/// # Examples
///
/// ```
/// use rustwren_core::wire::Value;
///
/// let v = Value::from(vec![Value::from(3i64), Value::from(6i64), Value::from(9i64)]);
/// let bytes = v.encode();
/// assert_eq!(Value::decode(&bytes)?, v);
/// # Ok::<(), rustwren_core::wire::WireError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub enum Value {
    /// Absence of a value.
    #[default]
    Null,
    /// A boolean.
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// A double-precision float.
    Float(f64),
    /// A UTF-8 string.
    Str(String),
    /// Raw bytes.
    Bytes(Vec<u8>),
    /// An ordered list.
    List(Vec<Value>),
    /// A string-keyed map with deterministic (sorted) iteration order.
    Map(BTreeMap<String, Value>),
}

/// Error produced when decoding malformed bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input ended mid-value.
    UnexpectedEof,
    /// Unknown type tag.
    BadTag(u8),
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// Bytes remained after the top-level value.
    TrailingBytes(usize),
    /// Nesting exceeded the decoder's depth limit.
    TooDeep,
    /// A payload expected to carry a checksum stamp did not start with the
    /// stamp magic (or was too short to hold one) — typically a truncated
    /// response.
    MissingStamp,
    /// The payload's content checksum did not match its stamp: the bytes
    /// were corrupted between write and read.
    ChecksumMismatch {
        /// Checksum recorded in the stamp at write time.
        expected: u64,
        /// Checksum computed over the received payload.
        actual: u64,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEof => f.write_str("unexpected end of input"),
            WireError::BadTag(t) => write!(f, "unknown type tag {t:#04x}"),
            WireError::BadUtf8 => f.write_str("invalid utf-8 in string value"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing byte(s) after value"),
            WireError::TooDeep => write!(f, "nesting deeper than {MAX_DEPTH} levels"),
            WireError::MissingStamp => {
                f.write_str("payload is not checksum-stamped (truncated or foreign bytes)")
            }
            WireError::ChecksumMismatch { expected, actual } => write!(
                f,
                "checksum mismatch: stamped {expected:#018x}, computed {actual:#018x}"
            ),
        }
    }
}

impl Error for WireError {}

const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_FLOAT: u8 = 3;
const TAG_STR: u8 = 4;
const TAG_BYTES: u8 = 5;
const TAG_LIST: u8 = 6;
const TAG_MAP: u8 = 7;

/// Leading byte of a checksum-stamped payload. Deliberately outside the
/// value tag range (0–7), so stamped bytes can never decode as a bare
/// [`Value`] by accident — and a stamp stripped twice fails loudly.
pub const STAMP_MAGIC: u8 = 0xC5;

/// Bytes of stamp overhead: the magic plus a little-endian u64 checksum.
pub const STAMP_LEN: usize = 9;

/// Content checksum used by [`stamp`]/[`verify_stamped`]: the byte-hash
/// kernel the store's ETag shares. Only the same build reads a digest back.
pub use rustwren_sim::hash::hash_bytes as checksum64;

/// Prefixes `payload` with [`STAMP_MAGIC`] and its [`checksum64`], producing
/// the on-store representation of every staged object (func, data, status,
/// result). Verified on read by [`verify_stamped`].
pub fn stamp(payload: &[u8]) -> Bytes {
    let mut w = Writer::stamped(payload.len());
    w.raw(payload);
    w.finish()
}

/// Checks a stamped payload and returns the inner bytes.
///
/// # Errors
///
/// [`WireError::MissingStamp`] when the bytes are too short or don't start
/// with [`STAMP_MAGIC`] (e.g. a truncated response), and
/// [`WireError::ChecksumMismatch`] when the payload's recomputed checksum
/// disagrees with the stamp.
pub fn verify_stamped(data: &[u8]) -> Result<&[u8], WireError> {
    if data.first() != Some(&STAMP_MAGIC) {
        return Err(WireError::MissingStamp);
    }
    let Ok(header) = data
        .get(1..STAMP_LEN)
        .ok_or(WireError::MissingStamp)?
        .try_into()
    else {
        return Err(WireError::MissingStamp);
    };
    let expected = u64::from_le_bytes(header);
    let payload = data.get(STAMP_LEN..).ok_or(WireError::MissingStamp)?;
    let actual = checksum64(payload);
    if actual != expected {
        return Err(WireError::ChecksumMismatch { expected, actual });
    }
    Ok(payload)
}

/// [`verify_stamped`] for an owned buffer: the payload it has just checked,
/// sharing `data`'s allocation.
///
/// # Errors
///
/// As [`verify_stamped`].
pub fn verified_payload(data: &Bytes) -> Result<Bytes, WireError> {
    verify_stamped(data)?;
    data.try_slice(STAMP_LEN..).ok_or(WireError::MissingStamp)
}

impl Value {
    /// Builds a `Value::Bytes` (explicit to avoid ambiguity with lists).
    pub fn bytes(data: impl Into<Vec<u8>>) -> Value {
        Value::Bytes(data.into())
    }

    /// Builds an empty map value.
    pub fn map() -> Value {
        Value::Map(BTreeMap::new())
    }

    /// Inserts into a map value (builder-style). A `self` that is not a
    /// map is replaced by one holding just this entry.
    pub fn with(self, key: &str, value: impl Into<Value>) -> Value {
        let mut map = match self {
            Value::Map(map) => map,
            _ => BTreeMap::new(),
        };
        map.insert(key.to_owned(), value.into());
        Value::Map(map)
    }

    /// Serializes to bytes.
    pub fn encode(&self) -> Bytes {
        let mut w = Writer::new(self.encoded_len());
        w.value(self);
        w.finish()
    }

    /// Exact number of bytes [`encode`](Value::encode) will produce,
    /// without allocating — used to decide cheaply whether a task
    /// descriptor fits the inline-payload threshold.
    pub fn encoded_len(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Bool(_) => 2,
            Value::Int(_) | Value::Float(_) => NUM_LEN,
            Value::Str(s) => HEADER_LEN + s.len(),
            Value::Bytes(b) => HEADER_LEN + b.len(),
            Value::List(v) => HEADER_LEN + v.iter().map(Value::encoded_len).sum::<usize>(),
            Value::Map(m) => {
                HEADER_LEN
                    + m.iter()
                        .map(|(k, v)| key_len(k) + v.encoded_len())
                        .sum::<usize>()
            }
        }
    }

    /// [`stamp`]`(&self.encode())`, written into one buffer: header and
    /// payload share the allocation the encoder fills, where stamping an
    /// encoded value copies it into a second one.
    pub(crate) fn stamped(&self) -> Bytes {
        let mut w = Writer::stamped(self.encoded_len());
        w.value(self);
        w.finish()
    }

    /// Deserializes a value, requiring the input to be fully consumed.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] on malformed input.
    pub fn decode(data: &[u8]) -> Result<Value, WireError> {
        let mut cursor = Cursor { data, pos: 0 };
        let v = cursor.read_value(0)?;
        if cursor.pos != data.len() {
            return Err(WireError::TrailingBytes(data.len() - cursor.pos));
        }
        Ok(v)
    }

    // ---- accessors -------------------------------------------------------

    /// Whether this is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The boolean, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The integer, if this is an `Int`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The float, accepting `Int` with exact conversion.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The string slice, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The raw bytes, if this is a `Bytes`.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// The items, if this is a `List`.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(v) => Some(v),
            _ => None,
        }
    }

    /// The map, if this is a `Map`.
    pub fn as_map(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// Looks a key up in a map value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_map().and_then(|m| m.get(key))
    }

    // ---- checked extraction (for agent/task plumbing) --------------------

    /// Extracts a required string field from a map value.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the missing/mistyped field.
    pub fn req_str(&self, key: &str) -> Result<&str, String> {
        required(self.get(key).and_then(Value::as_str), key, "string")
    }

    /// Extracts a required integer field from a map value.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the missing/mistyped field.
    pub fn req_i64(&self, key: &str) -> Result<i64, String> {
        required(self.get(key).and_then(Value::as_i64), key, "int")
    }

    /// Extracts a required integer field that must fit `T`: a count, an
    /// index or an id arriving as the wire's one integer type.
    ///
    /// # Errors
    ///
    /// A message naming the missing, mistyped or out-of-range field.
    pub(crate) fn req_int<T: TryFrom<i64>>(&self, key: &str) -> Result<T, String> {
        required_int(self.get(key).and_then(Value::as_i64), key)
    }

    /// Extracts a required list field from a map value.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the missing/mistyped field.
    pub fn req_list(&self, key: &str) -> Result<&[Value], String> {
        required(self.get(key).and_then(Value::as_list), key, "list")
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Bytes(b) => write!(f, "<{} bytes>", b.len()),
            Value::List(v) => {
                f.write_str("[")?;
                for (i, item) in v.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Value::Map(m) => {
                f.write_str("{")?;
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{k:?}: {v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Value {
        Value::Int(i)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Value {
        Value::Int(i64::from(i))
    }
}
impl From<u32> for Value {
    fn from(i: u32) -> Value {
        Value::Int(i64::from(i))
    }
}
impl From<usize> for Value {
    fn from(i: usize) -> Value {
        Value::Int(i as i64)
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Value {
        Value::Float(f)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_owned())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}
impl From<Vec<Value>> for Value {
    fn from(v: Vec<Value>) -> Value {
        Value::List(v)
    }
}
impl From<BTreeMap<String, Value>> for Value {
    fn from(m: BTreeMap<String, Value>) -> Value {
        Value::Map(m)
    }
}
impl FromIterator<Value> for Value {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Value {
        Value::List(iter.into_iter().collect())
    }
}

/// A borrowed view of one encoded value: a position in a buffer that
/// [`ValueRef::parse_entries`] has validated end to end. Reading through a
/// view allocates nothing, and [`to_value`](ValueRef::to_value) builds the
/// subtree under it and only that — so a reader that uses one corner of a
/// large value (a reducer, its own slice of a map task's whole manifest)
/// checks all of it and builds what it uses.
///
/// Accessors mirror [`Value`]'s and answer `None` for a value of another
/// type. [`get`](ValueRef::get) resolves a repeated key as decoding into a
/// `BTreeMap` does: the last entry wins.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ValueRef<'a> {
    /// The whole validated buffer.
    buf: &'a [u8],
    /// Where in `buf` this value's encoding starts.
    pos: usize,
}

impl<'a> ValueRef<'a> {
    /// Validates `buf` as exactly one encoded value, building nothing, and
    /// hands each entry of a top-level map to `entry` as the validating walk
    /// passes it, in encoded order, with the offset where its value ends: a
    /// reader after a few fields of a large value finds them in the pass
    /// that checks it, not in a walk per field, and an owner of the bytes
    /// can share one field's encoding without walking to its end again.
    /// What `entry` saw counts only if the parse succeeds.
    ///
    /// # Errors
    ///
    /// Whatever [`Value::decode`] returns for the same bytes: the two accept
    /// the same inputs and reject the rest with the same [`WireError`].
    pub(crate) fn parse_entries(
        buf: &'a [u8],
        mut entry: impl FnMut(&'a str, ValueRef<'a>, usize),
    ) -> Result<(), WireError> {
        let mut cursor = Cursor { data: buf, pos: 0 };
        if let Node::Map(count) = cursor.read_node()? {
            for _ in 0..count {
                let (key, pos) = (cursor.read_str()?, cursor.pos);
                cursor.skip(1)?;
                entry(key, ValueRef { buf, pos }, cursor.pos);
            }
        } else {
            cursor.pos = 0;
            cursor.skip(0)?;
        }
        match buf.len() - cursor.pos {
            0 => Ok(()),
            trailing => Err(WireError::TrailingBytes(trailing)),
        }
    }

    /// Where this value's encoding starts in the parsed buffer: what an
    /// owner of the bytes keeps to come back to the value without holding
    /// a borrow or walking to it again.
    pub(crate) fn offset(&self) -> usize {
        self.pos
    }

    /// The view at an [`offset`](ValueRef::offset) kept of a buffer
    /// `parse_entries` validated. Reads stay checked: a position that starts
    /// no value yields `None`s and errors, never a panic.
    pub(crate) fn at_offset(buf: &'a [u8], pos: usize) -> ValueRef<'a> {
        ValueRef { buf, pos }
    }

    /// This value's node, and a cursor just past it (for a container: at
    /// its first entry).
    fn open(&self) -> Option<(Node<'a>, Cursor<'a>)> {
        let mut cursor = self.cursor();
        Some((cursor.read_node().ok()?, cursor))
    }

    fn cursor(&self) -> Cursor<'a> {
        let (data, pos) = (self.buf, self.pos);
        Cursor { data, pos }
    }

    fn node(&self) -> Option<Node<'a>> {
        Some(self.open()?.0)
    }

    /// Whether this is `Null`.
    pub(crate) fn is_null(&self) -> bool {
        matches!(self.node(), Some(Node::Null))
    }

    /// The integer, if this is an `Int`.
    pub(crate) fn as_i64(&self) -> Option<i64> {
        let Node::Int(i) = self.node()? else {
            return None;
        };
        Some(i)
    }

    /// The float, accepting `Int` with exact conversion.
    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self.node()? {
            Node::Float(f) => Some(f),
            Node::Int(i) => Some(i as f64),
            _ => None,
        }
    }

    /// The string slice, if this is a `Str`.
    pub(crate) fn as_str(&self) -> Option<&'a str> {
        let Node::Str(bytes) = self.node()? else {
            return None;
        };
        text(bytes).ok()
    }

    /// Where a `Bytes` value's contents lie in the parsed buffer: what an
    /// owner of the buffer slices to share them without a copy.
    pub(crate) fn bytes_span(&self) -> Option<std::ops::Range<usize>> {
        let (Node::Bytes(contents), cursor) = self.open()? else {
            return None;
        };
        Some(cursor.pos - contents.len()..cursor.pos)
    }

    /// The items, if this is a `List`: a view of each, in order.
    pub(crate) fn items(&self) -> Option<impl Iterator<Item = ValueRef<'a>>> {
        let (Node::List(count), mut cursor) = self.open()? else {
            return None;
        };
        let buf = self.buf;
        Some((0..count).map_while(move |_| {
            let pos = cursor.pos;
            cursor.skip(0).ok().map(|()| ValueRef { buf, pos })
        }))
    }

    /// The entries, if this is a `Map`: each key with a view of its value,
    /// in encoded order.
    pub(crate) fn entries(&self) -> Option<impl Iterator<Item = (&'a str, ValueRef<'a>)>> {
        let (Node::Map(count), mut cursor) = self.open()? else {
            return None;
        };
        let buf = self.buf;
        Some((0..count).map_while(move |_| {
            let (key, pos) = (cursor.read_str().ok()?, cursor.pos);
            cursor.skip(0).ok().map(|()| (key, ValueRef { buf, pos }))
        }))
    }

    /// Looks a key up in a map value.
    pub(crate) fn get(&self, key: &str) -> Option<ValueRef<'a>> {
        let (Node::Map(count), mut cursor) = self.open()? else {
            return None;
        };
        let mut found = None;
        for left in (0..count).rev() {
            if cursor.read_str().ok()? == key {
                found = Some(ValueRef {
                    pos: cursor.pos,
                    ..*self
                });
            }
            // Where the last value ends is nobody's start: not walked.
            if left > 0 {
                cursor.skip(0).ok()?;
            }
        }
        found
    }

    /// Builds the value under this view.
    ///
    /// # Errors
    ///
    /// None for a view reached from a successful
    /// [`parse_entries`](ValueRef::parse_entries); the build checks what it
    /// reads all the same.
    pub(crate) fn to_value(self) -> Result<Value, WireError> {
        self.cursor().read_value(0)
    }
}

/// One value's tag with, for a scalar, its payload, and for a container the
/// number of entries that follow it.
enum Node<'a> {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    /// A string's bytes, *not yet checked* to be UTF-8: whoever takes the
    /// node does that next, with [`text`] if it wants the string and with
    /// [`check_text`] if it only passes over it.
    Str(&'a [u8]),
    Bytes(&'a [u8]),
    List(usize),
    Map(usize),
}

/// A string node's (or a map key's) bytes as the string they must be.
fn text(bytes: &[u8]) -> Result<&str, WireError> {
    std::str::from_utf8(bytes).map_err(|_| WireError::BadUtf8)
}

/// [`text`] for a reader that does not want the string. Nearly every string
/// on this wire is ASCII — every key is — and seeing that takes no decoder.
fn check_text(bytes: &[u8]) -> Result<(), WireError> {
    if bytes.is_ascii() {
        return Ok(());
    }
    text(bytes).map(|_| ())
}

/// The one reader of the encoded form: [`Value::decode`], [`ValueRef`]'s
/// validation and its accessors all take bytes apart through
/// [`read_node`](Cursor::read_node), with checked reads only.
struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::UnexpectedEof)?;
        let s = self
            .data
            .get(self.pos..end)
            .ok_or(WireError::UnexpectedEof)?;
        self.pos = end;
        Ok(s)
    }

    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        self.take(N)?
            .try_into()
            .map_err(|_| WireError::UnexpectedEof)
    }

    fn read_u8(&mut self) -> Result<u8, WireError> {
        Ok(u8::from_le_bytes(self.take_array()?))
    }

    fn read_len(&mut self) -> Result<usize, WireError> {
        Ok(u32::from_le_bytes(self.take_array()?) as usize)
    }

    /// A length-prefixed run of bytes: a string's or a byte string's.
    fn read_run(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.read_len()?;
        self.take(len)
    }

    fn read_str(&mut self) -> Result<&'a str, WireError> {
        text(self.read_run()?)
    }

    /// The one place that knows the tag set. (Inlined: a call per node is a
    /// fifth of what the validating walk costs.)
    #[inline(always)]
    fn read_node(&mut self) -> Result<Node<'a>, WireError> {
        Ok(match self.read_u8()? {
            TAG_NULL => Node::Null,
            TAG_BOOL => Node::Bool(self.read_u8()? != 0),
            TAG_INT => Node::Int(i64::from_le_bytes(self.take_array()?)),
            TAG_FLOAT => Node::Float(f64::from_le_bytes(self.take_array()?)),
            TAG_STR => Node::Str(self.read_run()?),
            TAG_BYTES => Node::Bytes(self.read_run()?),
            TAG_LIST => Node::List(self.read_len()?),
            TAG_MAP => Node::Map(self.read_len()?),
            t => return Err(WireError::BadTag(t)),
        })
    }

    /// The validating walk: passes over one value, checking every node
    /// under it exactly once, in order, and building nothing.
    fn skip(&mut self, depth: usize) -> Result<(), WireError> {
        if depth > MAX_DEPTH {
            return Err(WireError::TooDeep);
        }
        match self.read_node()? {
            Node::List(count) => {
                for _ in 0..count {
                    self.skip(depth + 1)?;
                }
            }
            Node::Map(count) => {
                for _ in 0..count {
                    check_text(self.read_run()?)?;
                    self.skip(depth + 1)?;
                }
            }
            Node::Str(bytes) => check_text(bytes)?,
            _ => {}
        }
        Ok(())
    }

    /// [`skip`](Cursor::skip)'s reads and checks in the same order,
    /// building the [`Value`] as it goes.
    fn read_value(&mut self, depth: usize) -> Result<Value, WireError> {
        if depth > MAX_DEPTH {
            return Err(WireError::TooDeep);
        }
        Ok(match self.read_node()? {
            Node::Null => Value::Null,
            Node::Bool(b) => Value::Bool(b),
            Node::Int(i) => Value::Int(i),
            Node::Float(f) => Value::Float(f),
            Node::Str(bytes) => Value::Str(text(bytes)?.to_owned()),
            Node::Bytes(b) => Value::Bytes(b.to_vec()),
            Node::List(count) => {
                // The count is untrusted: every item takes at least a byte,
                // and past a modest reservation the vector grows as items
                // are actually read.
                let left = self.data.len() - self.pos;
                let mut v = Vec::with_capacity(count.min(left).min(MAX_RESERVED_ITEMS));
                for _ in 0..count {
                    v.push(self.read_value(depth + 1)?);
                }
                Value::List(v)
            }
            Node::Map(count) => {
                let mut m = BTreeMap::new();
                for _ in 0..count {
                    let k = self.read_str()?.to_owned();
                    m.insert(k, self.read_value(depth + 1)?);
                }
                Value::Map(m)
            }
        })
    }
}

/// Encoded length of a container's header, or of a string's or byte
/// string's before its contents: the tag and a little-endian `u32`.
pub(crate) const HEADER_LEN: usize = 5;

/// Encoded length of an integer or a float: the tag and eight bytes.
pub(crate) const NUM_LEN: usize = 9;

/// Encoded length of a map key: its `u32` length and its text.
pub(crate) fn key_len(key: &str) -> usize {
    4 + key.len()
}

/// The one writer of the encoded form, as [`Cursor::read_node`] is its one
/// reader: [`Value::encode`] and the records the client and the agent write
/// field by field without building a [`Value`] (an agent payload, a remote
/// invoker's group, a status) all write their tags here. A map's keys go in
/// ascending order, as a `BTreeMap`'s do, so a record written field by field
/// is byte for byte the `Value` map it stands for.
///
/// A writer is sized up front for an encoding of a known length, and
/// [`finish`](Writer::finish) checks, in debug builds, that it got exactly
/// that many bytes and every map entry its headers counted. A record's
/// length is what [`measure`](Writer::measure) counts its own writing code
/// to write, so the two cannot disagree.
pub(crate) struct Writer {
    out: Vec<u8>,
    /// `Some` for a writer that only counts what it is given.
    counted: Option<usize>,
    /// Where the encoding starts in `out`: past what `out` held before and,
    /// if stamped, past the stamp's room.
    start: usize,
    /// The encoding's length, as the writer was sized for it.
    len: usize,
    /// Whether the [`STAMP_LEN`] bytes before `start` are its stamp.
    stamped: bool,
    /// Map entries that headers counted and are not written yet.
    unwritten: usize,
}

impl Writer {
    /// A writer for an encoding of `len` bytes.
    pub(crate) fn new(len: usize) -> Writer {
        Writer {
            out: Vec::with_capacity(len),
            counted: None,
            start: 0,
            len,
            stamped: false,
            unwritten: 0,
        }
    }

    /// A writer for the [`stamp`]ed form of an encoding of `len` bytes: the
    /// magic and room for the checksum of what follows come first.
    pub(crate) fn stamped(len: usize) -> Writer {
        Writer::stamped_onto(Vec::new(), len)
    }

    /// [`stamped`](Writer::stamped), written on after what `out` holds: the
    /// next slice of a segment of stamped slices.
    pub(crate) fn stamped_onto(mut out: Vec<u8>, len: usize) -> Writer {
        out.reserve(STAMP_LEN + len);
        out.extend_from_slice(&[STAMP_MAGIC; STAMP_LEN]);
        Writer {
            start: out.len(),
            out,
            counted: None,
            len,
            stamped: true,
            unwritten: 0,
        }
    }

    /// The length of the encoding `write` writes, counted as it writes it
    /// into a writer that keeps nothing.
    pub(crate) fn measure(write: impl FnOnce(&mut Writer)) -> usize {
        let mut w = Writer {
            counted: Some(0),
            ..Writer::new(0)
        };
        write(&mut w);
        w.counted.unwrap_or_default()
    }

    /// The bytes written, with their checksum filled in if the writer was
    /// made stamped.
    pub(crate) fn finish(self) -> Bytes {
        Bytes::from(self.finish_vec())
    }

    /// [`finish`](Writer::finish)'s bytes, in the vector they were written
    /// to: what a segment's next slice is [written onto](Writer::stamped_onto).
    pub(crate) fn finish_vec(mut self) -> Vec<u8> {
        debug_assert_eq!(
            self.out.len() - self.start,
            self.len,
            "an encoding's length disagrees with what was written"
        );
        debug_assert_eq!(self.unwritten, 0, "map entries counted, never written");
        if self.stamped {
            if let Some((head, payload)) = self.out.split_at_mut_checked(self.start) {
                if let Some(sum) = head.last_chunk_mut::<{ STAMP_LEN - 1 }>() {
                    *sum = checksum64(payload).to_le_bytes();
                }
            }
        }
        self.out
    }

    /// Bytes written as they are, or counted.
    fn put(&mut self, bytes: &[u8]) {
        match &mut self.counted {
            None => self.out.extend_from_slice(bytes),
            Some(n) => *n += bytes.len(),
        }
    }

    fn len_prefix(&mut self, n: usize) {
        self.put(&(n as u32).to_le_bytes());
    }

    /// A list of `count` items, which the caller writes next.
    pub(crate) fn list_header(&mut self, count: usize) {
        self.put(&[TAG_LIST]);
        self.len_prefix(count);
    }

    /// A map of `count` entries, which the caller writes through the
    /// returned [`Entries`], keys in ascending order.
    pub(crate) fn map_header<'k>(&mut self, count: usize) -> Entries<'_, 'k> {
        self.put(&[TAG_MAP]);
        self.len_prefix(count);
        self.unwritten += count;
        Entries {
            w: self,
            last: None,
        }
    }

    pub(crate) fn null(&mut self) {
        self.put(&[TAG_NULL]);
    }

    pub(crate) fn str(&mut self, s: &str) {
        self.put(&[TAG_STR]);
        self.len_prefix(s.len());
        self.put(s.as_bytes());
    }

    pub(crate) fn int(&mut self, i: i64) {
        self.put(&[TAG_INT]);
        self.put(&i.to_le_bytes());
    }

    pub(crate) fn float(&mut self, f: f64) {
        self.put(&[TAG_FLOAT]);
        self.put(&f.to_le_bytes());
    }

    /// A byte string of `len` bytes, which the caller writes next with
    /// [`raw`](Writer::raw) or as an encoding of its own.
    pub(crate) fn bytes_header(&mut self, len: usize) {
        self.put(&[TAG_BYTES]);
        self.len_prefix(len);
    }

    /// Bytes already encoded (a value, or what a byte string's header
    /// announced), copied in as they are.
    pub(crate) fn raw(&mut self, encoded: &[u8]) {
        self.put(encoded);
    }

    /// A whole [`Value`].
    pub(crate) fn value(&mut self, v: &Value) {
        if let Some(n) = &mut self.counted {
            *n += v.encoded_len();
            return;
        }
        match v {
            Value::Null => self.null(),
            Value::Bool(b) => self.put(&[TAG_BOOL, u8::from(*b)]),
            Value::Int(i) => self.int(*i),
            Value::Float(f) => self.float(*f),
            Value::Str(s) => self.str(s),
            Value::Bytes(b) => {
                self.bytes_header(b.len());
                self.raw(b);
            }
            Value::List(items) => {
                self.list_header(items.len());
                for item in items {
                    self.value(item);
                }
            }
            Value::Map(m) => {
                let mut entries = self.map_header(m.len());
                for (k, v) in m {
                    entries.key(k).value(v);
                }
            }
        }
    }
}

/// The entries of a map a [`Writer`] is writing: each a key, then its
/// value written through the writer [`key`](Entries::key) returns.
pub(crate) struct Entries<'w, 'k> {
    w: &'w mut Writer,
    last: Option<&'k str>,
}

impl<'k> Entries<'_, 'k> {
    /// The next entry's key; its value goes to the writer returned.
    pub(crate) fn key(&mut self, key: &'k str) -> &mut Writer {
        debug_assert!(
            self.last < Some(key),
            "map key `{key}` written after {:?}: keys go in ascending order",
            self.last
        );
        debug_assert!(self.w.unwritten > 0, "more map entries than headers count");
        self.last = Some(key);
        self.w.unwritten = self.w.unwritten.saturating_sub(1);
        self.w.len_prefix(key.len());
        self.w.put(key.as_bytes());
        self.w
    }
}

/// A required field's value, or the message that names it as missing or
/// not a `kind`.
pub(crate) fn required<T>(v: Option<T>, key: &str, kind: &str) -> Result<T, String> {
    v.ok_or_else(|| format!("missing or non-{kind} field `{key}`"))
}

/// A required integer field's value as `T`: a count, an index or an id
/// arriving as the wire's one integer type.
pub(crate) fn required_int<T: TryFrom<i64>>(v: Option<i64>, key: &str) -> Result<T, String> {
    let n = required(v, key, "int")?;
    T::try_from(n).map_err(|_| format!("field `{key}` is out of range: {n}"))
}

/// Byte strings at and around the decoder's boundary, shared by the
/// differential tests below and the status reader's in `future.rs`.
#[cfg(test)]
pub(crate) mod corpus {
    use super::*;
    use proptest::prelude::*;

    impl<'a> ValueRef<'a> {
        /// The item at `index` of a list value. No reader walks to an item:
        /// a status's reader records every manifest entry's offset once, and
        /// this is the reference that is checked against.
        pub(crate) fn at(&self, index: usize) -> Option<ValueRef<'a>> {
            self.items()?.nth(index)
        }
    }

    pub(crate) fn value() -> BoxedStrategy<Value> {
        let leaf = prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            any::<i64>().prop_map(Value::Int),
            // Finite floats: NaN breaks the `PartialEq` comparisons.
            (-1e300f64..1e300).prop_map(Value::Float),
            "[a-zA-Z0-9 _éü]{0,24}".prop_map(Value::Str),
            prop::collection::vec(any::<u8>(), 0..64).prop_map(Value::Bytes),
        ];
        leaf.prop_recursive(4, 64, 8, |inner| {
            prop_oneof![
                prop::collection::vec(inner.clone(), 0..8).prop_map(Value::List),
                prop::collection::btree_map("[a-z]{1,8}", inner, 0..8).prop_map(Value::Map),
            ]
        })
    }

    /// A map as no encoder here writes one but any decoder may meet: its
    /// entries in the order given, repeated and unsorted keys included.
    pub(crate) fn encode_entries(entries: &[(String, Value)]) -> Vec<u8> {
        let encoded = |(k, v): &(String, Value)| (k.clone(), v.encode().to_vec());
        encode_raw_entries(&entries.iter().map(encoded).collect::<Vec<_>>())
    }

    /// [`encode_entries`] over values already encoded, so that such a map
    /// can hold another.
    pub(crate) fn encode_raw_entries(entries: &[(String, Vec<u8>)]) -> Vec<u8> {
        let mut out = vec![TAG_MAP];
        out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
        for (k, v) in entries {
            out.extend_from_slice(&(k.len() as u32).to_le_bytes());
            out.extend_from_slice(k.as_bytes());
            out.extend_from_slice(v);
        }
        out
    }

    /// How to damage an encoding: which byte to flip and how, and which
    /// byte to insert where (positions as fractions of the length).
    pub(crate) type Damage = (f64, u8, f64, u8);

    pub(crate) fn damage() -> impl Strategy<Value = Damage> {
        (0.0f64..1.0, any::<u8>(), 0.0f64..1.0, any::<u8>())
    }

    /// `encoded` itself, with one byte flipped, with one byte inserted, and
    /// truncated at every length.
    pub(crate) fn damaged(
        encoded: &[u8],
        (flip_at, mask, insert_at, byte): Damage,
    ) -> Vec<Vec<u8>> {
        let mut all = vec![encoded.to_vec()];
        if !encoded.is_empty() {
            let mut flipped = encoded.to_vec();
            flipped[(flip_at * encoded.len() as f64) as usize] ^= mask | 1;
            all.push(flipped);
        }
        let mut inserted = encoded.to_vec();
        inserted.insert((insert_at * (encoded.len() + 1) as f64) as usize, byte);
        all.push(inserted);
        all.extend((0..encoded.len()).map(|cut| encoded[..cut].to_vec()));
        all
    }

    /// `levels` single-item containers around a `Null`: lists, or maps
    /// under the key `k`.
    pub(crate) fn nested(levels: usize, maps: bool) -> Vec<u8> {
        let mut out = Vec::new();
        for _ in 0..levels {
            out.push(if maps { TAG_MAP } else { TAG_LIST });
            out.extend_from_slice(&1u32.to_le_bytes());
            if maps {
                out.extend_from_slice(&1u32.to_le_bytes());
                out.push(b'k');
            }
        }
        out.push(TAG_NULL);
        out
    }

    /// Nesting depths either side of the decoder's limit.
    pub(crate) fn depths_around_the_limit() -> std::ops::RangeInclusive<usize> {
        MAX_DEPTH - 1..=MAX_DEPTH + 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: Value) {
        let enc = v.encode();
        assert_eq!(Value::decode(&enc).expect("decodes"), v);
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(Value::Null);
        roundtrip(Value::Bool(true));
        roundtrip(Value::Bool(false));
        roundtrip(Value::Int(-42));
        roundtrip(Value::Int(i64::MAX));
        roundtrip(Value::Float(3.25));
        roundtrip(Value::Str("héllo wörld".into()));
        roundtrip(Value::bytes(vec![0u8, 255, 7]));
    }

    #[test]
    fn nested_structures_roundtrip() {
        roundtrip(
            Value::map()
                .with(
                    "cities",
                    Value::from(vec![Value::from("nyc"), Value::from("ams")]),
                )
                .with(
                    "sizes",
                    Value::from(vec![Value::from(1i64), Value::from(2i64)]),
                )
                .with("nested", Value::map().with("x", Value::Null)),
        );
    }

    #[test]
    fn empty_containers_roundtrip() {
        roundtrip(Value::List(Vec::new()));
        roundtrip(Value::map());
        roundtrip(Value::Str(String::new()));
        roundtrip(Value::Bytes(Vec::new()));
    }

    #[test]
    fn decode_rejects_truncation() {
        let enc = Value::from("hello").encode();
        for cut in 0..enc.len() {
            assert!(
                Value::decode(&enc[..cut]).is_err(),
                "decoded a truncation at {cut}"
            );
        }
    }

    #[test]
    fn decode_rejects_trailing_bytes() {
        let mut enc = Value::Int(5).encode().to_vec();
        enc.push(0);
        assert_eq!(Value::decode(&enc), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn decode_rejects_bad_tag() {
        assert_eq!(Value::decode(&[0xAB]), Err(WireError::BadTag(0xAB)));
    }

    #[test]
    fn decode_rejects_deep_nesting() {
        // A list nested (MAX_DEPTH + 2) deep.
        let mut enc = Vec::new();
        for _ in 0..(MAX_DEPTH + 2) {
            enc.push(TAG_LIST);
            enc.extend_from_slice(&1u32.to_le_bytes());
        }
        enc.push(TAG_NULL);
        assert_eq!(Value::decode(&enc), Err(WireError::TooDeep));
    }

    #[test]
    fn list_headers_claiming_more_than_follows_are_not_taken_at_their_word() {
        // `MAX_DEPTH` headers, each claiming `u32::MAX` items, over a filler
        // no item can start with. Every header is read before the first
        // item, so what one header reserves is reserved `MAX_DEPTH` times:
        // 32 MiB each, 3 GiB in all, if the remaining length were the only
        // bound; `MAX_RESERVED_ITEMS` values each as it is.
        let mut enc = Vec::new();
        for _ in 0..MAX_DEPTH {
            enc.push(TAG_LIST);
            enc.extend_from_slice(&u32::MAX.to_le_bytes());
        }
        enc.resize(enc.len() + (1 << 20), 0xFF);
        assert_eq!(Value::decode(&enc), Err(WireError::BadTag(0xFF)));
        check_agreement(&enc).expect("the view rejects it the same way");
        // Past the reservation a list grows as its items arrive.
        roundtrip(Value::List(vec![Value::Null; 4 * MAX_RESERVED_ITEMS]));
    }

    #[test]
    fn decode_rejects_invalid_utf8() {
        let mut enc = vec![TAG_STR];
        enc.extend_from_slice(&2u32.to_le_bytes());
        enc.extend_from_slice(&[0xFF, 0xFE]);
        assert_eq!(Value::decode(&enc), Err(WireError::BadUtf8));
    }

    #[test]
    fn accessors_match_variants() {
        assert_eq!(Value::Int(7).as_i64(), Some(7));
        assert_eq!(Value::Int(7).as_f64(), Some(7.0));
        assert_eq!(Value::Float(1.5).as_f64(), Some(1.5));
        assert_eq!(Value::from("x").as_str(), Some("x"));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert!(Value::Null.is_null());
        assert_eq!(Value::from("x").as_i64(), None);
    }

    #[test]
    fn map_get_and_required_fields() {
        let v = Value::map().with("name", "nyc").with("size", 10i64);
        assert_eq!(v.get("name").and_then(Value::as_str), Some("nyc"));
        assert_eq!(v.req_str("name"), Ok("nyc"));
        assert_eq!(v.req_i64("size"), Ok(10));
        assert!(v.req_str("missing").is_err());
        assert!(v.req_str("size").is_err());
        assert!(v.req_list("name").is_err());
    }

    #[test]
    fn display_is_readable() {
        let v = Value::map().with("k", Value::from(vec![Value::Int(1), Value::Null]));
        assert_eq!(v.to_string(), "{\"k\": [1, null]}");
    }

    #[test]
    fn with_on_a_non_map_starts_a_map() {
        assert_eq!(Value::Int(1).with("k", 2i64), Value::map().with("k", 2i64));
    }

    #[test]
    fn encoded_len_matches_actual() {
        let v = Value::map()
            .with("a", Value::from(vec![Value::Int(1), Value::from("xy")]))
            .with("b", Value::bytes(vec![1, 2, 3]));
        assert_eq!(v.encoded_len(), v.encode().len());
    }

    #[test]
    fn stamp_roundtrips() {
        let payload = Value::map().with("state", "done").encode();
        let stamped = stamp(&payload);
        assert_eq!(stamped.len(), payload.len() + STAMP_LEN);
        assert_eq!(stamped[0], STAMP_MAGIC);
        assert_eq!(verify_stamped(&stamped).unwrap(), payload.as_ref());
    }

    /// A payload of every length up to a few blocks: the lengths cross the
    /// checksum's word (8), block (32) and tail boundaries.
    fn payloads() -> impl Iterator<Item = Vec<u8>> {
        (0..=100usize).map(|len| (0..len).map(|i| (i * 37 + 11) as u8).collect())
    }

    #[test]
    fn stamp_roundtrips_at_every_length() {
        for payload in payloads() {
            assert_eq!(verify_stamped(&stamp(&payload)), Ok(&payload[..]));
        }
    }

    #[test]
    fn stamp_detects_any_single_byte_flip() {
        for payload in payloads() {
            let stamped = stamp(&payload);
            for i in 0..stamped.len() {
                for mask in [0x01, 0x5A, 0x80, 0xFF] {
                    let mut bad = stamped.to_vec();
                    bad[i] ^= mask;
                    assert!(
                        verify_stamped(&bad).is_err(),
                        "{mask:#04x} at {i} of {} undetected",
                        stamped.len()
                    );
                }
            }
        }
    }

    #[test]
    fn stamp_detects_truncation_at_every_length() {
        for payload in payloads() {
            let stamped = stamp(&payload);
            for cut in 0..stamped.len() {
                let err = verify_stamped(&stamped[..cut]).unwrap_err();
                assert!(
                    matches!(
                        err,
                        WireError::MissingStamp | WireError::ChecksumMismatch { .. }
                    ),
                    "cut at {cut} of {}: {err:?}",
                    stamped.len()
                );
            }
        }
    }

    #[test]
    fn stamped_is_stamp_of_the_encoding() {
        for v in [
            Value::Null,
            Value::bytes(Vec::new()),
            Value::map().with("state", "done").with("end", 2.5),
        ] {
            assert_eq!(v.stamped(), stamp(&v.encode()));
        }
    }

    #[test]
    fn stamp_magic_is_outside_value_tag_range() {
        // Stamped bytes must never decode as a plain value.
        assert_eq!(
            Value::decode(&stamp(&Value::Null.encode())),
            Err(WireError::BadTag(STAMP_MAGIC))
        );
    }

    #[test]
    fn empty_payload_stamps_and_verifies() {
        let stamped = stamp(&[]);
        assert_eq!(verify_stamped(&stamped).unwrap(), &[] as &[u8]);
    }

    #[test]
    fn checksum_distinguishes_length_patterns() {
        assert_ne!(checksum64(&[0u8; 8]), checksum64(&[0u8; 9]));
        assert_ne!(checksum64(b"ab"), checksum64(b"ba"));
    }

    /// The stamp's digests over fixed inputs (empty, one byte, either side
    /// of a block boundary, three blocks, 1 MiB) and one whole stamped
    /// payload. A change to the kernel's lanes, seeds, padding or final
    /// fold moves every stamped byte, and one of these with it.
    #[test]
    fn checksum_and_stamp_are_pinned() {
        let upto = |n: u8| (0..n).collect::<Vec<u8>>();
        let mib: Vec<u8> = (0..1u64 << 20)
            .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8)
            .collect();
        let pins = [
            (Vec::new(), 0x9733_c975_5ed4_050a),
            (vec![0xA5], 0xe87c_fc97_539b_f4a3),
            (upto(31), 0xf9e4_8952_f021_8d5c),
            (upto(32), 0x49c0_c52c_dc91_a120),
            (upto(33), 0xb159_edbd_093c_305c),
            (upto(96), 0xd5e1_5460_0f78_f55d),
            (mib, 0x909d_45a7_a128_9533),
        ];
        for (input, digest) in pins {
            assert_eq!(checksum64(&input), digest, "{} bytes", input.len());
        }
        assert_eq!(
            stamp(b"rustwren").as_ref(),
            [
                0xc5, 0x98, 0x2a, 0x5c, 0xbf, 0x39, 0x64, 0x0f, 0x72, 0x72, 0x75, 0x73, 0x74, 0x77,
                0x72, 0x65, 0x6e,
            ]
        );
    }

    #[test]
    fn view_reads_scalars_and_navigates() {
        let v = Value::map()
            .with("s", "x")
            .with("i", 7i64)
            .with("f", 1.5)
            .with("none", Value::Null)
            .with("list", Value::from(vec![Value::Int(1), Value::from("two")]));
        let encoded = v.encode();
        ValueRef::parse_entries(&encoded, |_, _, _| {}).expect("well-formed");
        let view = ValueRef::at_offset(&encoded, 0);
        assert_eq!(view.offset(), 0);
        assert_eq!(view.get("s").and_then(|s| s.as_str()), Some("x"));
        assert_eq!(view.get("i").and_then(|i| i.as_i64()), Some(7));
        assert_eq!(view.get("i").and_then(|i| i.as_f64()), Some(7.0));
        assert_eq!(view.get("f").and_then(|f| f.as_f64()), Some(1.5));
        assert!(view.get("none").is_some_and(|n| n.is_null()));
        assert!(!view.is_null());
        let list = view.get("list").expect("present");
        assert_eq!(list.at(1).and_then(|s| s.as_str()), Some("two"));
        assert!(list.at(2).is_none());
        // Another type's accessor, and navigation into a scalar: `None`.
        assert_eq!(view.get("s").and_then(|s| s.as_i64()), None);
        assert!(view.get("s").and_then(|s| s.get("x")).is_none());
        assert!(view.at(0).is_none());
        assert!(list.get("x").is_none());
        assert!(view.get("missing").is_none());
        // A kept offset leads back to the same value.
        let at = list.offset();
        assert_eq!(
            ValueRef::at_offset(&encoded, at).to_value(),
            list.to_value()
        );
        assert_eq!(
            list.to_value().as_ref(),
            Ok(v.get("list").expect("present"))
        );
    }

    /// The view and the decoder agree on `bytes`: both reject them, with
    /// the same error, or both accept them and every path into the view
    /// reads what the same path into the decoded value does.
    fn check_agreement(bytes: &[u8]) -> Result<(), String> {
        let mut entries = BTreeMap::new();
        let parsed = ValueRef::parse_entries(bytes, |k, v, end| {
            let encoding = bytes.get(v.offset()..end).map(Value::decode);
            entries.insert(k.to_owned(), (v.to_value(), encoding));
        })
        .map(|_| ValueRef::at_offset(bytes, 0));
        match (Value::decode(bytes), parsed) {
            (Err(d), Err(p)) if d == p => Ok(()),
            (Ok(decoded), Ok(view)) => {
                if let Value::Map(m) = &decoded {
                    // Each entry's value, from its view and from the
                    // span of bytes that ends where it was said to.
                    let noted: BTreeMap<_, _> = m
                        .iter()
                        .map(|(k, v)| (k.clone(), (Ok(v.clone()), Some(Ok(v.clone())))))
                        .collect();
                    if noted != entries {
                        return Err(format!("entries noted {entries:?}, decoded {decoded:?}"));
                    }
                }
                check_subtree(view, &decoded)
            }
            (d, p) => Err(format!("decode {d:?}, view {:?}", p.map(|v| v.to_value()))),
        }
    }

    fn check_subtree(view: ValueRef<'_>, decoded: &Value) -> Result<(), String> {
        let built = view.to_value();
        if built.as_ref() != Ok(decoded) {
            return Err(format!("view builds {built:?}, decoder {decoded:?}"));
        }
        let scalars_agree = view.is_null() == decoded.is_null()
            && view.as_i64() == decoded.as_i64()
            && view.as_f64() == decoded.as_f64()
            && view.as_str() == decoded.as_str();
        if !scalars_agree {
            return Err(format!("scalar accessors disagree on {decoded:?}"));
        }
        let child = |c: Option<ValueRef<'_>>, d: &Value| match c {
            Some(c) => check_subtree(c, d),
            None => Err(format!("view finds nothing where the decoder has {d:?}")),
        };
        for (k, d) in decoded.as_map().into_iter().flatten() {
            child(view.get(k), d)?;
        }
        let items = decoded.as_list().unwrap_or_default();
        for (i, d) in items.iter().enumerate() {
            child(view.at(i), d)?;
        }
        // Each key's last entry is the one `get` finds.
        let mut last = BTreeMap::new();
        for (k, v) in view.entries().into_iter().flatten() {
            last.insert(k, v.offset());
        }
        let found = |k: &&str| view.get(k).map(|v| v.offset());
        let keys: Vec<&str> = decoded
            .as_map()
            .into_iter()
            .flatten()
            .map(|(k, _)| k.as_str())
            .collect();
        let same = view.entries().is_some() == decoded.as_map().is_some()
            && last.keys().copied().eq(keys.iter().copied())
            && last.iter().all(|(k, &at)| found(k) == Some(at));
        if !same {
            return Err(format!("entries {last:?} disagree with {decoded:?}"));
        }
        let past_the_end = view.at(items.len()).is_some() || view.get("no such key").is_some();
        if past_the_end {
            return Err(format!("view finds a child {decoded:?} does not have"));
        }
        Ok(())
    }

    #[test]
    fn view_and_decoder_agree_either_side_of_the_depth_limit() {
        for levels in corpus::depths_around_the_limit() {
            for maps in [false, true] {
                let bytes = corpus::nested(levels, maps);
                assert_eq!(
                    Value::decode(&bytes).is_ok(),
                    levels <= MAX_DEPTH,
                    "{levels} levels"
                );
                check_agreement(&bytes).unwrap_or_else(|e| panic!("{levels} levels: {e}"));
            }
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn view_and_decoder_agree_on_arbitrary_bytes(
            bytes in prop::collection::vec(any::<u8>(), 0..512),
            tag in 0u8..9,
        ) {
            check_agreement(&bytes).map_err(TestCaseError::fail)?;
            // The same, steered past the first tag check.
            let mut tagged = bytes;
            if let Some(first) = tagged.first_mut() {
                *first = tag;
            }
            check_agreement(&tagged).map_err(TestCaseError::fail)?;
        }

        #[test]
        fn view_and_decoder_agree_on_damaged_encodings(
            v in corpus::value(),
            damage in corpus::damage(),
        ) {
            for bytes in corpus::damaged(&v.encode(), damage) {
                check_agreement(&bytes).map_err(TestCaseError::fail)?;
            }
        }

        #[test]
        fn view_and_decoder_agree_on_repeated_and_unsorted_keys(
            entries in prop::collection::vec(("[a-c]{1,2}", corpus::value()), 0..8),
            damage in corpus::damage(),
        ) {
            for bytes in corpus::damaged(&corpus::encode_entries(&entries), damage) {
                check_agreement(&bytes).map_err(TestCaseError::fail)?;
            }
        }
    }
}
