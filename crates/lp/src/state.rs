//! Byte-exact serialization of the solver's warm-start state.
//!
//! A [`crate::branch_bound::SolveContext`] carries a factorized LU basis
//! whose floating-point content is the *accumulated* result of pivots and
//! eta updates — refactorizing the same basis from scratch lands on
//! bitwise-different values. Checkpoint/resume of a fleet therefore
//! cannot reconstruct this state from the problem; it has to transport the
//! exact bytes. This module provides the little-endian [`Writer`]/[`Reader`]
//! pair the solver structs use to encode themselves (`f64`s travel as raw
//! bit patterns, so non-finite and signed-zero values survive untouched),
//! plus the hex framing that lets the blob ride inside a JSON string.
//!
//! # What a checkpoint carries
//!
//! **Exactly what the next solve reads before it writes it.** A decoded
//! context must solve the next problem bit for bit as the live one would
//! have, and every field falls in one of three groups:
//!
//! * *carried* — read before written, and not derivable: the skeleton's
//!   layout (each variable's mapping, each row's terms and operator, the
//!   span flags, the mode), the LU factors, the eta file and its counters,
//!   the basis, the row signs, the at-upper statuses, the refactorization
//!   back-off, whether the state may be warm-started and against which
//!   skeleton, and the lifetime counters;
//! * *rebuilt on decode* — read before written, but a function of carried
//!   fields: the constraint matrix (the skeleton's rows under the row
//!   signs, assembled by the same function a cold fill calls, so every
//!   column holds its entries in the fill's order), the basic-column
//!   flags, the skeleton's scatter lists, span rows, dimensions and
//!   per-variable row lists, and the cost vector's length;
//! * *left out* — written before any read: what the next solve's `rebind`
//!   rewrites (costs, objective terms, right-hand sides, sense, root
//!   bounds), every per-node value, the reduced costs (their certificate
//!   never travelled, so a decoded workspace prices afresh) and all
//!   scratch.
//!
//! A field moves between groups only with a format bump, and scratch never
//! travels: a copied scratch vector would pin bits the next solve
//! overwrites (a `−0.0` a sparser kernel no longer writes would change the
//! blob, not the answer). The struct definitions group their fields the
//! same way, and `export_state_carries_no_scratch` pins the blob's length.
//!
//! Decoding runs every structural check a solve would otherwise trip over
//! — lengths against the layout, indices in range, a permutation, a
//! basis of distinct columns, divisible pivots, row signs of exactly `±1`
//! — and returns a [`StateError`] instead of panicking in the next FTRAN.

use std::fmt;

/// A solver-state blob could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateError {
    message: String,
}

impl StateError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

/// `Ok` when `ok`, else a [`StateError`] saying what a decoded blob got
/// wrong — the one-line form of the structural checks the decoders run
/// before a restored solver state is allowed near a solve.
pub(crate) fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), StateError> {
    if ok {
        Ok(())
    } else {
        Err(StateError::new(what()))
    }
}

/// `true` when the `items` are distinct and each is below `n` (with
/// `items.len() == n`, a permutation of `0..n`).
pub(crate) fn distinct_below(items: &[usize], n: usize) -> bool {
    let mut seen = vec![false; n];
    items
        .iter()
        .all(|&i| i < n && !std::mem::replace(&mut seen[i], true))
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "solver state: {}", self.message)
    }
}

impl std::error::Error for StateError {}

/// Append-only little-endian byte sink.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Raw bit pattern — non-finite values and `-0.0` round-trip exactly.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Length-prefixed sequence; `f` encodes each item.
    pub fn seq<T>(&mut self, items: &[T], mut f: impl FnMut(&mut Self, &T)) {
        self.usize(items.len());
        for item in items {
            f(self, item);
        }
    }

    pub fn vec_f64(&mut self, items: &[f64]) {
        self.seq(items, |w, &v| w.f64(v));
    }

    pub fn vec_usize(&mut self, items: &[usize]) {
        self.seq(items, |w, &v| w.usize(v));
    }

    pub fn vec_bool(&mut self, items: &[bool]) {
        self.seq(items, |w, &v| w.bool(v));
    }

    /// Sparse-entry list: `(index, value)` pairs.
    pub fn vec_idx_f64(&mut self, items: &[(usize, f64)]) {
        self.seq(items, |w, &(i, v)| {
            w.usize(i);
            w.f64(v);
        });
    }

    pub fn into_hex(self) -> String {
        to_hex(&self.buf)
    }
}

/// Cursor over a decoded byte buffer; every accessor checks bounds.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StateError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| StateError::new("truncated blob"))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    pub fn u8(&mut self) -> Result<u8, StateError> {
        Ok(self.take(1)?[0])
    }

    pub fn bool(&mut self) -> Result<bool, StateError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(StateError::new(format!("invalid bool byte {other}"))),
        }
    }

    pub fn u64(&mut self) -> Result<u64, StateError> {
        let bytes = self.take(8)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    pub fn usize(&mut self) -> Result<usize, StateError> {
        usize::try_from(self.u64()?).map_err(|_| StateError::new("usize overflow"))
    }

    pub fn f64(&mut self) -> Result<f64, StateError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Length-prefixed sequence; `f` decodes each item.
    pub fn seq<T>(
        &mut self,
        mut f: impl FnMut(&mut Self) -> Result<T, StateError>,
    ) -> Result<Vec<T>, StateError> {
        let n = self.usize()?;
        // A corrupt length must not trigger an absurd allocation; the
        // per-item reads will hit "truncated blob" long before 2^20 items.
        let mut items = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            items.push(f(self)?);
        }
        Ok(items)
    }

    pub fn vec_f64(&mut self) -> Result<Vec<f64>, StateError> {
        self.seq(|r| r.f64())
    }

    pub fn vec_usize(&mut self) -> Result<Vec<usize>, StateError> {
        self.seq(|r| r.usize())
    }

    pub fn vec_bool(&mut self) -> Result<Vec<bool>, StateError> {
        self.seq(|r| r.bool())
    }

    pub fn vec_idx_f64(&mut self) -> Result<Vec<(usize, f64)>, StateError> {
        self.seq(|r| Ok((r.usize()?, r.f64()?)))
    }

    /// Asserts every byte was consumed — a decoder that stops early read a
    /// blob written by a different layout.
    pub fn finish(self) -> Result<(), StateError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(StateError::new(format!(
                "{} trailing bytes",
                self.buf.len() - self.pos
            )))
        }
    }
}

pub fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push(char::from_digit((b >> 4) as u32, 16).expect("nibble"));
        s.push(char::from_digit((b & 0xf) as u32, 16).expect("nibble"));
    }
    s
}

pub fn from_hex(s: &str) -> Result<Vec<u8>, StateError> {
    if !s.len().is_multiple_of(2) {
        return Err(StateError::new("odd-length hex blob"));
    }
    let digit = |c: char| {
        c.to_digit(16)
            .ok_or_else(|| StateError::new(format!("invalid hex digit {c:?}")))
    };
    let mut bytes = Vec::with_capacity(s.len() / 2);
    let mut chars = s.chars();
    while let (Some(hi), Some(lo)) = (chars.next(), chars.next()) {
        bytes.push((digit(hi)? as u8) << 4 | digit(lo)? as u8);
    }
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_primitives_and_sequences() {
        let mut w = Writer::new();
        w.u8(7);
        w.bool(true);
        w.u64(u64::MAX - 3);
        w.usize(42);
        w.f64(-0.0);
        w.f64(f64::NEG_INFINITY);
        w.f64(f64::NAN);
        w.vec_f64(&[1.5, -2.25]);
        w.vec_usize(&[0, usize::MAX]);
        w.vec_bool(&[true, false]);
        w.vec_idx_f64(&[(3, 0.1)]);
        let hex = w.into_hex();

        let bytes = from_hex(&hex).unwrap();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.usize().unwrap(), 42);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.f64().unwrap(), f64::NEG_INFINITY);
        assert!(r.f64().unwrap().is_nan());
        assert_eq!(r.vec_f64().unwrap(), vec![1.5, -2.25]);
        assert_eq!(r.vec_usize().unwrap(), vec![0, usize::MAX]);
        assert_eq!(r.vec_bool().unwrap(), vec![true, false]);
        assert_eq!(r.vec_idx_f64().unwrap(), vec![(3, 0.1)]);
        r.finish().unwrap();
    }

    #[test]
    fn corrupt_blobs_error_instead_of_panicking() {
        assert!(from_hex("abc").is_err());
        assert!(from_hex("zz").is_err());
        let mut r = Reader::new(&[1, 2]);
        assert!(r.u64().is_err());
        let mut r = Reader::new(&[9]);
        assert!(r.bool().is_err());
        // A huge claimed length fails on truncation, not allocation.
        let mut w = Writer::new();
        w.usize(usize::MAX / 2);
        let bytes = from_hex(&w.into_hex()).unwrap();
        let mut r = Reader::new(&bytes);
        assert!(r.vec_f64().is_err());
        // Unconsumed bytes are an error.
        let mut w = Writer::new();
        w.u64(5);
        let bytes = from_hex(&w.into_hex()).unwrap();
        let mut r = Reader::new(&bytes);
        r.u8().unwrap();
        assert!(r.finish().is_err());
    }
}
