//! Binary encoding for the durability layer (write-ahead log + snapshots).
//!
//! The incremental runtime persists committed update batches and periodic
//! base snapshots so a process restart replays to exactly the acked state.
//! This module owns the byte-level vocabulary: LEB128 varints, a canonical
//! encoding for [`Natural`]/[`ZInt`]/[`Value`] and for bags over either
//! multiplicity ([`Bag`], `Bag<ZInt>`), and for the
//! [`Expr`]/[`Pred`] trees that define views, and the length-prefixed,
//! CRC-32-checksummed record frame both the WAL and the snapshot file are
//! built from.
//!
//! Design constraints:
//!
//! * **Canonical** — encoding is deterministic (bags iterate in their
//!   canonical sorted order), so two runtimes holding equal state write
//!   byte-identical snapshots; recovery tests compare states structurally
//!   and byte-compare the files they produce.
//! * **Self-delimiting** — every record carries its own length up front, so
//!   the replay loop never reads past a record boundary; a torn tail shows
//!   up as an [`Unframed::Incomplete`], a flipped bit as
//!   [`Unframed::Corrupt`], and both are handled by truncating the log at
//!   the last good record rather than failing the open.
//! * **No dependencies** — CRC-32 (ISO-HDLC polynomial, the zlib/PNG one)
//!   is table-driven and computed here; the container bakes in no
//!   serialization crates.

use std::fmt;
use std::sync::OnceLock;

use crate::bag::{Bag, BagBuilder, Multiplicity};
use crate::expr::{Expr, Pred, Var};
use crate::natural::Natural;
use crate::value::{Atom, Value};
use crate::zbag::ZInt;

// ---------------------------------------------------------------------------
// CRC-32 (ISO-HDLC / zlib polynomial 0xEDB88320)
// ---------------------------------------------------------------------------

fn crc_table() -> &'static [u32; 256] {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
            *slot = crc;
        }
        table
    })
}

/// CRC-32 (ISO-HDLC) of `bytes` — the checksum guarding every record frame.
pub fn crc32(bytes: &[u8]) -> u32 {
    let table = crc_table();
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ table[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------
// Decode errors
// ---------------------------------------------------------------------------

/// Why a byte sequence failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before the value did.
    Truncated,
    /// An unknown tag byte for the named sort of value.
    Tag {
        /// What was being decoded (`"value"`, `"expr"`, …).
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A string field was not valid UTF-8.
    Utf8,
    /// A varint ran past 10 bytes (not a canonical `u64`).
    Varint,
    /// A structural invariant failed (e.g. zero multiplicity in a bag).
    Invalid(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => f.write_str("truncated input"),
            DecodeError::Tag { what, tag } => write!(f, "unknown {what} tag {tag:#04x}"),
            DecodeError::Utf8 => f.write_str("invalid UTF-8 in string"),
            DecodeError::Varint => f.write_str("overlong varint"),
            DecodeError::Invalid(what) => write!(f, "invalid encoding: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

// ---------------------------------------------------------------------------
// Primitive writers/readers (LEB128 varints)
// ---------------------------------------------------------------------------

/// Append a LEB128 varint.
pub fn put_u64(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Append a zigzag-encoded signed varint.
pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    put_u64(out, ((v << 1) ^ (v >> 63)) as u64);
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// How deep the recursive decoders ([`get_value`], [`get_bag`],
/// [`get_expr`], [`get_pred`]) may nest, each call one level. A record
/// nested deeper is [`DecodeError::Invalid`], not a stack overflow. The
/// write path refuses anything deeper before it reaches a log
/// ([`bag_decodes`], [`expr_decodes`]), so every record a runtime wrote
/// decodes. A debug build spends 4–5 KB of stack
/// per expression level, so the cap fits a 2 MiB thread (a server
/// session's) about twice; text the parsers accept
/// ([`crate::expr::MAX_EXPR_DEPTH`]) nests about 70 levels.
pub const MAX_DECODE_DEPTH: usize = 256;

/// A cursor over an encoded byte slice.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Recursive decoder calls currently open on this reader.
    depth: usize,
}

impl<'a> ByteReader<'a> {
    /// Start reading at the front of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader {
            buf,
            pos: 0,
            depth: 0,
        }
    }

    /// Run one recursive decoder one level deeper, refusing to pass
    /// [`MAX_DECODE_DEPTH`].
    fn nested<T>(
        &mut self,
        decode: impl FnOnce(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<T, DecodeError> {
        if self.depth == MAX_DECODE_DEPTH {
            return Err(DecodeError::Invalid("nested deeper than MAX_DECODE_DEPTH"));
        }
        self.depth += 1;
        let out = decode(self);
        self.depth -= 1;
        out
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `true` once every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        let b = *self.buf.get(self.pos).ok_or(DecodeError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Read a LEB128 varint.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        let mut v = 0u64;
        for shift in 0..10 {
            let byte = self.u8()?;
            let bits = (byte & 0x7F) as u64;
            if shift == 9 && bits > 1 {
                return Err(DecodeError::Varint);
            }
            v |= bits << (shift * 7);
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(DecodeError::Varint)
    }

    /// Read a zigzag-encoded signed varint.
    pub fn i64(&mut self) -> Result<i64, DecodeError> {
        let z = self.u64()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    /// Read an element count, rejecting one whose elements — each at least
    /// `min_size` encoded bytes — cannot fit the bytes left. A
    /// `with_capacity` of the result is therefore bounded by the input.
    fn count(&mut self, min_size: usize) -> Result<usize, DecodeError> {
        let n = self.u64()?;
        if n > (self.remaining() / min_size) as u64 {
            return Err(DecodeError::Truncated);
        }
        Ok(n as usize)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, DecodeError> {
        let n = self.count(1)?;
        let bytes = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        std::str::from_utf8(bytes).map_err(|_| DecodeError::Utf8)
    }
}

// ---------------------------------------------------------------------------
// Natural / ZInt
// ---------------------------------------------------------------------------

/// Encode a [`Natural`]: varint limb count, then each little-endian limb as
/// a varint (multiplicities are overwhelmingly small; varint limbs make the
/// common one-limb case one or two bytes).
pub fn put_natural(out: &mut Vec<u8>, n: &Natural) {
    let limbs = n.limb_view();
    put_u64(out, limbs.len() as u64);
    for &limb in limbs {
        put_u64(out, limb);
    }
}

/// Decode a [`Natural`] written by [`put_natural`].
pub fn get_natural(r: &mut ByteReader<'_>) -> Result<Natural, DecodeError> {
    // A limb is ≥ 1 encoded byte.
    let count = r.count(1)?;
    let mut limbs = Vec::with_capacity(count);
    for _ in 0..count {
        limbs.push(r.u64()?);
    }
    Ok(Natural::from_limb_vec(limbs))
}

/// Encode a [`ZInt`] as a sign byte plus magnitude.
pub fn put_zint(out: &mut Vec<u8>, z: &ZInt) {
    out.push(z.is_negative() as u8);
    put_natural(out, z.magnitude());
}

/// Decode a [`ZInt`] written by [`put_zint`].
pub fn get_zint(r: &mut ByteReader<'_>) -> Result<ZInt, DecodeError> {
    let sign = match r.u8()? {
        0 => false,
        1 => true,
        tag => return Err(DecodeError::Tag { what: "sign", tag }),
    };
    Ok(ZInt::from_parts(sign, get_natural(r)?))
}

// ---------------------------------------------------------------------------
// Value / Bag
// ---------------------------------------------------------------------------

const VAL_INT: u8 = 0;
const VAL_STR: u8 = 1;
const VAL_TUPLE: u8 = 2;
const VAL_BAG: u8 = 3;

/// The fewest bytes a value encodes to: a tag and a one-byte varint.
const MIN_VALUE: usize = 2;
/// The fewest bytes an [`Expr`] encodes to: a tag and an empty name.
const MIN_EXPR: usize = 2;

/// Encode a [`Value`] (canonical: bags in sorted order).
pub fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Atom(Atom::Int(i)) => {
            out.push(VAL_INT);
            put_i64(out, *i);
        }
        Value::Atom(Atom::Str(s)) => {
            out.push(VAL_STR);
            put_str(out, s);
        }
        Value::Tuple(fields) => {
            out.push(VAL_TUPLE);
            put_u64(out, fields.len() as u64);
            for field in fields.iter() {
                put_value(out, field);
            }
        }
        Value::Bag(bag) => {
            out.push(VAL_BAG);
            put_bag(out, bag);
        }
    }
}

/// Decode a [`Value`] written by [`put_value`].
pub fn get_value(r: &mut ByteReader<'_>) -> Result<Value, DecodeError> {
    r.nested(|r| match r.u8()? {
        VAL_INT => Ok(Value::int(r.i64()?)),
        VAL_STR => Ok(Value::sym(r.str()?)),
        VAL_TUPLE => {
            let count = r.count(MIN_VALUE)?;
            let mut fields = Vec::with_capacity(count);
            for _ in 0..count {
                fields.push(get_value(r)?);
            }
            Ok(Value::tuple(fields))
        }
        VAL_BAG => Ok(Value::Bag(get_bag(r)?)),
        tag => Err(DecodeError::Tag { what: "value", tag }),
    })
}

/// Encode a bag over either multiplicity: distinct count, then
/// `(value, multiplicity)` pairs in the bag's canonical sorted order, each
/// multiplicity in its own encoding ([`Multiplicity::put`]: a
/// [`put_natural`] for ℕ, a [`put_zint`] for ℤ).
pub fn put_bag<M: Multiplicity>(out: &mut Vec<u8>, bag: &Bag<M>) {
    put_u64(out, bag.distinct_count() as u64);
    for (value, mult) in bag.iter() {
        put_value(out, value);
        M::put(out, mult);
    }
}

/// Decode a bag written by [`put_bag`]. Pairs arrive in canonical order,
/// so the builder's in-order bulk path applies.
pub fn get_bag<M: Multiplicity>(r: &mut ByteReader<'_>) -> Result<Bag<M>, DecodeError> {
    r.nested(|r| {
        let count = r.count(MIN_VALUE + M::MIN_ENCODED)?;
        let mut builder = BagBuilder::with_capacity(count);
        for _ in 0..count {
            let value = get_value(r)?;
            let mult = M::get(r)?;
            if mult.is_zero() {
                return Err(DecodeError::Invalid("zero multiplicity in bag"));
            }
            builder.push(value, mult);
        }
        Ok(builder.build())
    })
}

// ---------------------------------------------------------------------------
// Expr / Pred
// ---------------------------------------------------------------------------

const EXPR_VAR: u8 = 0;
const EXPR_LIT: u8 = 1;
const EXPR_ADDITIVE_UNION: u8 = 2;
const EXPR_SUBTRACT: u8 = 3;
const EXPR_MAX_UNION: u8 = 4;
const EXPR_INTERSECT: u8 = 5;
const EXPR_TUPLE: u8 = 6;
const EXPR_SINGLETON: u8 = 7;
const EXPR_PRODUCT: u8 = 8;
const EXPR_POWERSET: u8 = 9;
const EXPR_POWERBAG: u8 = 10;
const EXPR_ATTR: u8 = 11;
const EXPR_DESTROY: u8 = 12;
const EXPR_MAP: u8 = 13;
const EXPR_SELECT: u8 = 14;
const EXPR_DEDUP: u8 = 15;
const EXPR_IFP: u8 = 16;
const EXPR_NEST: u8 = 17;

const PRED_TRUE: u8 = 0;
const PRED_EQ: u8 = 1;
const PRED_LT: u8 = 2;
const PRED_LE: u8 = 3;
const PRED_MEMBER: u8 = 4;
const PRED_SUBBAG: u8 = 5;
const PRED_NOT: u8 = 6;
const PRED_AND: u8 = 7;
const PRED_OR: u8 = 8;

fn put_pair(out: &mut Vec<u8>, tag: u8, a: &Expr, b: &Expr) {
    out.push(tag);
    put_expr(out, a);
    put_expr(out, b);
}

/// Encode an [`Expr`] tree (structural, not the `Display` syntax — decoding
/// must not depend on the surface parser).
pub fn put_expr(out: &mut Vec<u8>, expr: &Expr) {
    match expr {
        Expr::Var(name) => {
            out.push(EXPR_VAR);
            put_str(out, name);
        }
        Expr::Lit(value) => {
            out.push(EXPR_LIT);
            put_value(out, value);
        }
        Expr::AdditiveUnion(a, b) => put_pair(out, EXPR_ADDITIVE_UNION, a, b),
        Expr::Subtract(a, b) => put_pair(out, EXPR_SUBTRACT, a, b),
        Expr::MaxUnion(a, b) => put_pair(out, EXPR_MAX_UNION, a, b),
        Expr::Intersect(a, b) => put_pair(out, EXPR_INTERSECT, a, b),
        Expr::Tuple(fields) => {
            out.push(EXPR_TUPLE);
            put_u64(out, fields.len() as u64);
            for field in fields {
                put_expr(out, field);
            }
        }
        Expr::Singleton(inner) => {
            out.push(EXPR_SINGLETON);
            put_expr(out, inner);
        }
        Expr::Product(a, b) => put_pair(out, EXPR_PRODUCT, a, b),
        Expr::Powerset(inner) => {
            out.push(EXPR_POWERSET);
            put_expr(out, inner);
        }
        Expr::Powerbag(inner) => {
            out.push(EXPR_POWERBAG);
            put_expr(out, inner);
        }
        Expr::Attr(inner, index) => {
            out.push(EXPR_ATTR);
            put_u64(out, *index as u64);
            put_expr(out, inner);
        }
        Expr::Destroy(inner) => {
            out.push(EXPR_DESTROY);
            put_expr(out, inner);
        }
        Expr::Map { var, body, input } => {
            out.push(EXPR_MAP);
            put_str(out, var);
            put_expr(out, body);
            put_expr(out, input);
        }
        Expr::Select { var, pred, input } => {
            out.push(EXPR_SELECT);
            put_str(out, var);
            put_pred(out, pred);
            put_expr(out, input);
        }
        Expr::Dedup(inner) => {
            out.push(EXPR_DEDUP);
            put_expr(out, inner);
        }
        Expr::Ifp { var, body, input } => {
            out.push(EXPR_IFP);
            put_str(out, var);
            put_expr(out, body);
            put_expr(out, input);
        }
        Expr::Nest { group, input } => {
            out.push(EXPR_NEST);
            put_u64(out, group.len() as u64);
            for &ix in group {
                put_u64(out, ix as u64);
            }
            put_expr(out, input);
        }
    }
}

/// Decode an [`Expr`] written by [`put_expr`].
pub fn get_expr(r: &mut ByteReader<'_>) -> Result<Expr, DecodeError> {
    r.nested(expr_node)
}

/// One level of [`get_expr`].
fn expr_node(r: &mut ByteReader<'_>) -> Result<Expr, DecodeError> {
    let tag = r.u8()?;
    let boxed = |r: &mut ByteReader<'_>| get_expr(r).map(Box::new);
    Ok(match tag {
        EXPR_VAR => Expr::Var(Var::from(r.str()?)),
        EXPR_LIT => Expr::Lit(get_value(r)?),
        EXPR_ADDITIVE_UNION => Expr::AdditiveUnion(boxed(r)?, boxed(r)?),
        EXPR_SUBTRACT => Expr::Subtract(boxed(r)?, boxed(r)?),
        EXPR_MAX_UNION => Expr::MaxUnion(boxed(r)?, boxed(r)?),
        EXPR_INTERSECT => Expr::Intersect(boxed(r)?, boxed(r)?),
        EXPR_TUPLE => {
            let count = r.count(MIN_EXPR)?;
            let mut fields = Vec::with_capacity(count);
            for _ in 0..count {
                fields.push(get_expr(r)?);
            }
            Expr::Tuple(fields)
        }
        EXPR_SINGLETON => Expr::Singleton(boxed(r)?),
        EXPR_PRODUCT => Expr::Product(boxed(r)?, boxed(r)?),
        EXPR_POWERSET => Expr::Powerset(boxed(r)?),
        EXPR_POWERBAG => Expr::Powerbag(boxed(r)?),
        EXPR_ATTR => {
            let index = r.u64()? as usize;
            Expr::Attr(boxed(r)?, index)
        }
        EXPR_DESTROY => Expr::Destroy(boxed(r)?),
        EXPR_MAP => Expr::Map {
            var: Var::from(r.str()?),
            body: boxed(r)?,
            input: boxed(r)?,
        },
        EXPR_SELECT => Expr::Select {
            var: Var::from(r.str()?),
            pred: get_pred(r).map(Box::new)?,
            input: boxed(r)?,
        },
        EXPR_DEDUP => Expr::Dedup(boxed(r)?),
        EXPR_IFP => Expr::Ifp {
            var: Var::from(r.str()?),
            body: boxed(r)?,
            input: boxed(r)?,
        },
        EXPR_NEST => {
            // An index is a varint of at least one byte.
            let count = r.count(1)?;
            let mut group = Vec::with_capacity(count);
            for _ in 0..count {
                group.push(r.u64()? as usize);
            }
            Expr::Nest {
                group,
                input: boxed(r)?,
            }
        }
        tag => return Err(DecodeError::Tag { what: "expr", tag }),
    })
}

/// Encode a [`Pred`] tree.
pub fn put_pred(out: &mut Vec<u8>, pred: &Pred) {
    match pred {
        Pred::True => out.push(PRED_TRUE),
        Pred::Eq(a, b) => {
            out.push(PRED_EQ);
            put_expr(out, a);
            put_expr(out, b);
        }
        Pred::Lt(a, b) => {
            out.push(PRED_LT);
            put_expr(out, a);
            put_expr(out, b);
        }
        Pred::Le(a, b) => {
            out.push(PRED_LE);
            put_expr(out, a);
            put_expr(out, b);
        }
        Pred::Member(a, b) => {
            out.push(PRED_MEMBER);
            put_expr(out, a);
            put_expr(out, b);
        }
        Pred::SubBag(a, b) => {
            out.push(PRED_SUBBAG);
            put_expr(out, a);
            put_expr(out, b);
        }
        Pred::Not(inner) => {
            out.push(PRED_NOT);
            put_pred(out, inner);
        }
        Pred::And(a, b) => {
            out.push(PRED_AND);
            put_pred(out, a);
            put_pred(out, b);
        }
        Pred::Or(a, b) => {
            out.push(PRED_OR);
            put_pred(out, a);
            put_pred(out, b);
        }
    }
}

/// Decode a [`Pred`] written by [`put_pred`].
pub fn get_pred(r: &mut ByteReader<'_>) -> Result<Pred, DecodeError> {
    r.nested(pred_node)
}

/// One level of [`get_pred`].
fn pred_node(r: &mut ByteReader<'_>) -> Result<Pred, DecodeError> {
    let tag = r.u8()?;
    Ok(match tag {
        PRED_TRUE => Pred::True,
        PRED_EQ => Pred::Eq(get_expr(r)?, get_expr(r)?),
        PRED_LT => Pred::Lt(get_expr(r)?, get_expr(r)?),
        PRED_LE => Pred::Le(get_expr(r)?, get_expr(r)?),
        PRED_MEMBER => Pred::Member(get_expr(r)?, get_expr(r)?),
        PRED_SUBBAG => Pred::SubBag(get_expr(r)?, get_expr(r)?),
        PRED_NOT => Pred::Not(Box::new(get_pred(r)?)),
        PRED_AND => Pred::And(Box::new(get_pred(r)?), Box::new(get_pred(r)?)),
        PRED_OR => Pred::Or(Box::new(get_pred(r)?), Box::new(get_pred(r)?)),
        tag => return Err(DecodeError::Tag { what: "pred", tag }),
    })
}

// ---------------------------------------------------------------------------
// Depth checks for the write path
// ---------------------------------------------------------------------------

/// `true` iff [`get_bag`] decodes `bag` within [`MAX_DECODE_DEPTH`].
pub fn bag_decodes<M: Multiplicity>(bag: &Bag<M>) -> bool {
    bag.elements()
        .all(|value| value_fits(value, MAX_DECODE_DEPTH - 1))
}

/// `true` iff [`get_expr`] decodes `expr` within [`MAX_DECODE_DEPTH`].
pub fn expr_decodes(expr: &Expr) -> bool {
    expr_fits(expr, MAX_DECODE_DEPTH)
}

// Each walker mirrors its decoder call for call and stops once `levels`
// runs out, so it recurses no deeper than the decoder may.

fn value_fits(value: &Value, levels: usize) -> bool {
    let Some(inner) = levels.checked_sub(1) else {
        return false;
    };
    match value {
        Value::Atom(_) => true,
        Value::Tuple(fields) => fields.iter().all(|field| value_fits(field, inner)),
        // `get_value`, then `get_bag`, then each element.
        Value::Bag(bag) => inner
            .checked_sub(1)
            .is_some_and(|left| bag.elements().all(|value| value_fits(value, left))),
    }
}

fn expr_fits(expr: &Expr, levels: usize) -> bool {
    let Some(inner) = levels.checked_sub(1) else {
        return false;
    };
    match expr {
        Expr::Var(_) => true,
        Expr::Lit(value) => value_fits(value, inner),
        Expr::AdditiveUnion(a, b)
        | Expr::Subtract(a, b)
        | Expr::MaxUnion(a, b)
        | Expr::Intersect(a, b)
        | Expr::Product(a, b)
        | Expr::Map {
            body: a, input: b, ..
        }
        | Expr::Ifp {
            body: a, input: b, ..
        } => expr_fits(a, inner) && expr_fits(b, inner),
        Expr::Tuple(fields) => fields.iter().all(|field| expr_fits(field, inner)),
        Expr::Singleton(e)
        | Expr::Powerset(e)
        | Expr::Powerbag(e)
        | Expr::Attr(e, _)
        | Expr::Destroy(e)
        | Expr::Dedup(e)
        | Expr::Nest { input: e, .. } => expr_fits(e, inner),
        Expr::Select { pred, input, .. } => pred_fits(pred, inner) && expr_fits(input, inner),
    }
}

fn pred_fits(pred: &Pred, levels: usize) -> bool {
    let Some(inner) = levels.checked_sub(1) else {
        return false;
    };
    match pred {
        Pred::True => true,
        Pred::Eq(a, b)
        | Pred::Lt(a, b)
        | Pred::Le(a, b)
        | Pred::Member(a, b)
        | Pred::SubBag(a, b) => expr_fits(a, inner) && expr_fits(b, inner),
        Pred::Not(p) => pred_fits(p, inner),
        Pred::And(a, b) | Pred::Or(a, b) => pred_fits(a, inner) && pred_fits(b, inner),
    }
}

// ---------------------------------------------------------------------------
// Record framing
// ---------------------------------------------------------------------------

/// Bytes of frame header preceding every record payload:
/// `[payload len: u32 LE][CRC-32 of payload: u32 LE]`.
pub const FRAME_HEADER_LEN: usize = 8;

/// Wrap `payload` in a record frame: length, checksum, payload.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Result of attempting to read one frame off the front of a buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Unframed<'a> {
    /// A checksum-verified payload; the frame occupied `consumed` bytes.
    Record {
        /// The verified payload bytes.
        payload: &'a [u8],
        /// Total frame size (header + payload).
        consumed: usize,
    },
    /// The buffer ends mid-frame (torn tail) — fewer bytes than the header,
    /// or fewer than the header's declared payload length.
    Incomplete,
    /// A complete frame whose checksum does not match (bit rot / overwrite).
    Corrupt,
}

/// Read one frame off the front of `buf`. Never panics: any tail state maps
/// to [`Unframed::Incomplete`] or [`Unframed::Corrupt`], which the replay
/// loop treats as "truncate here".
pub fn unframe(buf: &[u8]) -> Unframed<'_> {
    if buf.len() < FRAME_HEADER_LEN {
        return Unframed::Incomplete;
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    let expect = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]);
    let Some(end) = FRAME_HEADER_LEN.checked_add(len) else {
        return Unframed::Corrupt;
    };
    if buf.len() < end {
        return Unframed::Incomplete;
    }
    let payload = &buf[FRAME_HEADER_LEN..end];
    if crc32(payload) != expect {
        return Unframed::Corrupt;
    }
    Unframed::Record {
        payload,
        consumed: end,
    }
}

/// Iterate verified frames from the front of `buf`, stopping at the first
/// incomplete or corrupt frame. Yields `(offset, payload)` pairs where
/// `offset` is the byte position the frame starts at — the truncation point
/// if the *next* frame is bad.
pub fn frames(buf: &[u8]) -> FrameIter<'_> {
    FrameIter { buf, pos: 0 }
}

/// Iterator over verified frames; see [`frames`].
pub struct FrameIter<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> FrameIter<'a> {
    /// Byte offset of the next (unread) frame — after exhaustion, the
    /// position the log should be truncated to.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Whether iteration stopped because the remaining tail is damaged
    /// (corrupt or torn), as opposed to cleanly consumed.
    pub fn damaged_tail(&self) -> bool {
        self.pos < self.buf.len()
    }
}

impl<'a> Iterator for FrameIter<'a> {
    type Item = (usize, &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        match unframe(&self.buf[self.pos..]) {
            Unframed::Record { payload, consumed } => {
                let offset = self.pos;
                self.pos += consumed;
                Some((offset, payload))
            }
            Unframed::Incomplete | Unframed::Corrupt => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_value(v: &Value) {
        let mut buf = Vec::new();
        put_value(&mut buf, v);
        let mut r = ByteReader::new(&buf);
        assert_eq!(&get_value(&mut r).unwrap(), v);
        assert!(r.is_empty());
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard ISO-HDLC check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn varint_roundtrip_boundaries() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX - 1, u64::MAX] {
            let mut buf = Vec::new();
            put_u64(&mut buf, v);
            let mut r = ByteReader::new(&buf);
            assert_eq!(r.u64().unwrap(), v);
            assert!(r.is_empty());
        }
        for v in [0i64, -1, 1, i64::MIN, i64::MAX] {
            let mut buf = Vec::new();
            put_i64(&mut buf, v);
            let mut r = ByteReader::new(&buf);
            assert_eq!(r.i64().unwrap(), v);
        }
    }

    #[test]
    fn overlong_varint_rejected() {
        let buf = [0xFFu8; 11];
        assert_eq!(ByteReader::new(&buf).u64(), Err(DecodeError::Varint));
    }

    #[test]
    fn natural_roundtrip_including_big() {
        for n in [
            Natural::zero(),
            Natural::one(),
            Natural::from(u64::MAX),
            Natural::pow2(64),
            Natural::pow2(200),
        ] {
            let mut buf = Vec::new();
            put_natural(&mut buf, &n);
            let mut r = ByteReader::new(&buf);
            assert_eq!(get_natural(&mut r).unwrap(), n);
        }
    }

    #[test]
    fn value_roundtrip_nested() {
        roundtrip_value(&Value::int(-42));
        roundtrip_value(&Value::sym("héllo"));
        roundtrip_value(&Value::tuple([Value::int(1), Value::sym("x")]));
        roundtrip_value(&Value::bag([
            Value::int(1),
            Value::int(1),
            Value::tuple([Value::bag([Value::sym("inner")])]),
        ]));
        roundtrip_value(&Value::empty_bag());
    }

    #[test]
    fn bag_with_huge_multiplicity_roundtrips() {
        let bag = Bag::repeated(Value::int(7), Natural::pow2(130));
        let mut buf = Vec::new();
        put_bag(&mut buf, &bag);
        let mut r = ByteReader::new(&buf);
        assert_eq!(get_bag(&mut r).unwrap(), bag);
    }

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect()
    }

    /// The durable bytes of a nested ℕ-bag with a two-limb multiplicity
    /// and of a mixed-sign ℤ-delta, as the codec wrote them before the
    /// two bag types became one: the same values encode to the same bytes
    /// and decode back equal.
    #[test]
    fn bag_and_delta_bytes_are_pinned() {
        let nested = Bag::from_counted([
            (
                Value::bag([Value::int(1), Value::int(1), Value::sym("x")]),
                Natural::pow2(70),
            ),
            (
                Value::tuple([Value::int(-3), Value::sym("héllo")]),
                Natural::from(2u64),
            ),
            (Value::int(300), Natural::one()),
        ]);
        let bytes = unhex("0300d804010102020005010668c3a96c6c6f01020302000201020101780101020040");
        let mut buf = Vec::new();
        put_bag(&mut buf, &nested);
        assert_eq!(buf, bytes);
        let mut r = ByteReader::new(&bytes);
        assert_eq!(get_bag(&mut r).unwrap(), nested);
        assert!(r.is_empty());

        let delta = Bag::from_counted([
            (Value::int(1), ZInt::from(-3i64)),
            (Value::sym("a"), ZInt::one()),
            (
                Value::tuple([Value::int(7), Value::sym("b")]),
                ZInt::from_parts(true, Natural::pow2(64)),
            ),
            (Value::bag([Value::int(2)]), ZInt::from(5u64)),
        ]);
        let bytes = unhex("0400020101030101610001010202000e01016201020001030100040101000105");
        let mut buf = Vec::new();
        put_bag(&mut buf, &delta);
        assert_eq!(buf, bytes);
        let mut r = ByteReader::new(&bytes);
        assert_eq!(get_bag(&mut r).unwrap(), delta);
        assert!(r.is_empty());
    }

    #[test]
    fn expr_roundtrip_all_variants() {
        let expr = Expr::Ifp {
            var: Var::from("acc"),
            body: Box::new(Expr::Select {
                var: Var::from("x"),
                pred: Box::new(Pred::And(
                    Box::new(Pred::Not(Box::new(Pred::Member(
                        Expr::var("x"),
                        Expr::var("seen"),
                    )))),
                    Box::new(Pred::Or(
                        Box::new(Pred::Lt(Expr::var("x"), Expr::lit(Value::int(9)))),
                        Box::new(Pred::SubBag(
                            Expr::Singleton(Box::new(Expr::var("x"))),
                            Expr::var("acc"),
                        )),
                    )),
                )),
                input: Box::new(Expr::Map {
                    var: Var::from("y"),
                    body: Box::new(Expr::Tuple(vec![
                        Expr::Attr(Box::new(Expr::var("y")), 1),
                        Expr::Lit(Value::sym("tag")),
                    ])),
                    input: Box::new(Expr::Nest {
                        group: vec![2, 1],
                        input: Box::new(Expr::Product(
                            Box::new(Expr::Dedup(Box::new(Expr::var("r")))),
                            Box::new(Expr::Powerset(Box::new(Expr::Destroy(Box::new(
                                Expr::Powerbag(Box::new(Expr::Intersect(
                                    Box::new(Expr::MaxUnion(
                                        Box::new(Expr::Subtract(
                                            Box::new(Expr::var("s")),
                                            Box::new(Expr::empty_bag()),
                                        )),
                                        Box::new(Expr::var("t")),
                                    )),
                                    Box::new(Expr::AdditiveUnion(
                                        Box::new(Expr::var("u")),
                                        Box::new(Expr::var("v")),
                                    )),
                                ))),
                            ))))),
                        )),
                    }),
                }),
            }),
            input: Box::new(Expr::var("base")),
        };
        let mut buf = Vec::new();
        put_expr(&mut buf, &expr);
        let mut r = ByteReader::new(&buf);
        assert_eq!(get_expr(&mut r).unwrap(), expr);
        assert!(r.is_empty());

        let with_pred_variants = Expr::Select {
            var: Var::from("x"),
            pred: Box::new(Pred::And(
                Box::new(Pred::Le(Expr::var("x"), Expr::lit(Value::int(3)))),
                Box::new(Pred::Eq(Expr::var("x"), Expr::var("x"))),
            )),
            input: Box::new(Expr::var("base")),
        };
        let mut buf = Vec::new();
        put_expr(&mut buf, &with_pred_variants);
        assert_eq!(
            get_expr(&mut ByteReader::new(&buf)).unwrap(),
            with_pred_variants
        );
    }

    #[test]
    fn frame_roundtrip_and_iteration() {
        let mut log = Vec::new();
        log.extend_from_slice(&frame(b"first"));
        log.extend_from_slice(&frame(b"second"));
        let collected: Vec<_> = frames(&log).collect();
        assert_eq!(collected.len(), 2);
        assert_eq!(collected[0].1, b"first");
        assert_eq!(collected[1].1, b"second");
        let mut iter = frames(&log);
        for _ in iter.by_ref() {}
        assert_eq!(iter.offset(), log.len());
        assert!(!iter.damaged_tail());
    }

    #[test]
    fn torn_tail_is_incomplete_not_fatal() {
        let mut log = Vec::new();
        log.extend_from_slice(&frame(b"keep me"));
        let good_len = log.len();
        let torn = frame(b"torn away");
        log.extend_from_slice(&torn[..torn.len() - 3]);
        let mut iter = frames(&log);
        assert_eq!(iter.next().map(|(_, p)| p), Some(&b"keep me"[..]));
        assert!(iter.next().is_none());
        assert_eq!(iter.offset(), good_len);
        assert!(iter.damaged_tail());
    }

    #[test]
    fn any_flipped_byte_is_detected() {
        let record = frame(b"checksummed payload");
        for ix in 0..record.len() {
            let mut bad = record.clone();
            bad[ix] ^= 0x40;
            match unframe(&bad) {
                Unframed::Record { payload, .. } => {
                    panic!("flip at {ix} went undetected: {payload:?}")
                }
                Unframed::Incomplete | Unframed::Corrupt => {}
            }
        }
    }

    #[test]
    fn zero_filled_tail_is_rejected() {
        let mut log = frame(b"ok");
        log.extend_from_slice(&[0u8; 64]);
        let mut iter = frames(&log);
        assert!(iter.next().is_some());
        // A zero length-field with zero CRC over an empty payload would be
        // "valid"; crc32(b"") == 0, so an all-zero header reads as an empty
        // record. Guard: empty payloads are never written by the runtime,
        // and the replay loop rejects empty payloads explicitly.
        match unframe(&log[iter.offset()..]) {
            Unframed::Record { payload, .. } => assert!(payload.is_empty()),
            Unframed::Incomplete | Unframed::Corrupt => {}
        }
    }

    const TOO_DEEP: DecodeError = DecodeError::Invalid("nested deeper than MAX_DECODE_DEPTH");

    #[test]
    fn crafted_deep_records_are_errors_not_stack_overflows() {
        // 200 000 nested 1-tuples in 400 KB: this used to abort the process.
        let tuples = [VAL_TUPLE, 1].repeat(200_000);
        assert_eq!(get_value(&mut ByteReader::new(&tuples)), Err(TOO_DEEP));
        let bags = [VAL_BAG, 1].repeat(200_000);
        assert_eq!(
            get_bag::<Natural>(&mut ByteReader::new(&bags)),
            Err(TOO_DEEP)
        );
        let dedups = [EXPR_DEDUP].repeat(200_000);
        assert_eq!(get_expr(&mut ByteReader::new(&dedups)), Err(TOO_DEEP));
        let nots = [PRED_NOT].repeat(200_000);
        assert_eq!(get_pred(&mut ByteReader::new(&nots)), Err(TOO_DEEP));
    }

    #[test]
    fn huge_counts_are_refused_before_allocating() {
        // Counts the bytes left could never hold, whatever the elements.
        for tag in [VAL_TUPLE, VAL_BAG] {
            let mut record = vec![tag];
            put_u64(&mut record, 400_000);
            record.resize(400_000, 0);
            assert_eq!(
                get_value(&mut ByteReader::new(&record)),
                Err(DecodeError::Truncated)
            );
        }
        let mut record = Vec::new();
        put_u64(&mut record, 1 << 40);
        assert_eq!(
            get_bag::<ZInt>(&mut ByteReader::new(&record)),
            Err(DecodeError::Truncated)
        );
        let mut record = vec![EXPR_NEST];
        put_u64(&mut record, 1 << 40);
        assert_eq!(
            get_expr(&mut ByteReader::new(&record)),
            Err(DecodeError::Truncated)
        );
    }

    /// `depth` nested 1-tuples around an atom: `depth + 1` decoder levels.
    fn nested_value(depth: usize) -> Value {
        (0..depth).fold(Value::int(0), |v, _| Value::tuple([v]))
    }

    #[test]
    fn the_write_side_checks_agree_with_the_decoders_at_the_cap() {
        for depth in MAX_DECODE_DEPTH - 3..=MAX_DECODE_DEPTH + 1 {
            let value = nested_value(depth);
            let mut buf = Vec::new();
            put_value(&mut buf, &value);
            let decoded = get_value(&mut ByteReader::new(&buf));
            assert_eq!(decoded.is_ok(), depth < MAX_DECODE_DEPTH, "value {depth}");

            let bag: Bag = Bag::singleton(value.clone());
            let mut buf = Vec::new();
            put_bag(&mut buf, &bag);
            let decoded = get_bag::<Natural>(&mut ByteReader::new(&buf));
            assert_eq!(decoded.is_ok(), bag_decodes(&bag), "bag {depth}");
            assert_eq!(
                decoded.is_ok(),
                depth + 2 <= MAX_DECODE_DEPTH,
                "bag {depth}"
            );

            let zbag = Bag::from_counted([(Value::bag([value.clone()]), ZInt::one())]);
            let mut buf = Vec::new();
            put_bag(&mut buf, &zbag);
            let decoded = get_bag::<ZInt>(&mut ByteReader::new(&buf));
            assert_eq!(decoded.is_ok(), bag_decodes(&zbag), "zbag {depth}");

            let expr = (0..depth).fold(Expr::lit(Value::int(1)), |e, _| e.dedup());
            let select = Expr::var("G").select(
                "x",
                (0..depth).fold(Pred::eq(Expr::lit(value), Expr::var("x")), |p, _| p.not()),
            );
            for expr in [expr, select] {
                let mut buf = Vec::new();
                put_expr(&mut buf, &expr);
                let decoded = get_expr(&mut ByteReader::new(&buf));
                assert_eq!(decoded.is_ok(), expr_decodes(&expr), "expr {depth}");
            }
        }
    }
}
