//! The one bounded reader under `PHOTANS1`, `PHOTCK1` and `PHOTSTRM1`.
//!
//! Every byte the three codecs decode arrives through these functions, and
//! the rule they share is decided here once: **a decoder never allocates on
//! a claim**. A count or a length read from a file or a socket is
//! unauthenticated — `StreamServer` decodes a peer's first frame before any
//! handshake — so it buys at most [`RESERVE_BYTES`] of memory up front,
//! whatever the size of the element it counts; beyond that a buffer grows
//! only as items actually parse, which bounds it by the bytes the peer
//! really delivered. A lie fails in `read_exact`, not in the allocator.
//!
//! The bound is per live claim. The formats nest claims two deep at most (a
//! file's tree count around a tree's node count), so a decoder that refuses
//! its input has committed at most `2 × RESERVE_BYTES` beyond what the bytes
//! it did parse account for.

use std::io::{self, Read};

/// Most memory reserved on the word of one count or length alone.
pub(crate) const RESERVE_BYTES: usize = 64 * 1024;

/// An `InvalidData` error.
pub(crate) fn bad_data(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// The next `N` bytes; `UnexpectedEof` if `r` ends first.
pub(crate) fn read_array<const N: usize, R: Read>(r: &mut R) -> io::Result<[u8; N]> {
    let mut bytes = [0u8; N];
    r.read_exact(&mut bytes)?;
    Ok(bytes)
}

pub(crate) fn read_u8<R: Read>(r: &mut R) -> io::Result<u8> {
    Ok(read_array::<1, R>(r)?[0])
}

pub(crate) fn read_u16<R: Read>(r: &mut R) -> io::Result<u16> {
    read_array(r).map(u16::from_le_bytes)
}

pub(crate) fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    read_array(r).map(u32::from_le_bytes)
}

pub(crate) fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    read_array(r).map(u64::from_le_bytes)
}

pub(crate) fn read_f64<R: Read>(r: &mut R) -> io::Result<f64> {
    read_array(r).map(f64::from_le_bytes)
}

/// Consumes `magic`, or fails as `InvalidData` carrying `not_ours`.
pub(crate) fn expect_magic<const N: usize, R: Read>(
    r: &mut R,
    magic: &[u8; N],
    not_ours: &str,
) -> io::Result<()> {
    if &read_array::<N, R>(r)? == magic {
        Ok(())
    } else {
        Err(bad_data(not_ours))
    }
}

/// Parses `claim` items with `item`. Room for at most [`RESERVE_BYTES`] of
/// them is set aside before the first one parses.
pub(crate) fn read_counted<R: Read, T>(
    r: &mut R,
    claim: usize,
    mut item: impl FnMut(&mut R) -> io::Result<T>,
) -> io::Result<Vec<T>> {
    let room = RESERVE_BYTES / std::mem::size_of::<T>().max(1);
    let mut items = Vec::with_capacity(claim.min(room));
    for _ in 0..claim {
        items.push(item(r)?);
    }
    Ok(items)
}

/// Appends exactly `len` bytes of `r` to `out`, reserving at most
/// [`RESERVE_BYTES`] ahead of their arrival; `UnexpectedEof` if `r` ends
/// first, with what did arrive left in `out`.
pub(crate) fn read_bytes<R: Read>(r: &mut R, len: usize, out: &mut Vec<u8>) -> io::Result<()> {
    out.reserve(len.min(RESERVE_BYTES));
    let got = r.take(len as u64).read_to_end(out)?;
    if got < len {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    Ok(())
}

/// Fails as `InvalidData` carrying `trailing` unless `r` is at its end. The
/// probe has `read_exact` semantics — it retries interrupted reads — so a
/// signal landing on a file's final syscall cannot fail a valid load.
pub(crate) fn expect_end<R: Read>(r: &mut R, trailing: &str) -> io::Result<()> {
    let mut probe = [0u8; 1];
    loop {
        match r.read(&mut probe) {
            Ok(0) => return Ok(()),
            Ok(_) => return Err(bad_data(trailing)),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_claim_reserves_bytes_not_elements() {
        // The largest claim there is with nothing behind it fails on the
        // first item, not in the allocator.
        let err = read_counted(&mut io::empty(), usize::MAX, read_u64).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // An honest claim gets exactly its room (`tests/hostile_bytes.rs`
        // measures what a lying one gets).
        let honest = read_counted(&mut &[0u8; 64][..], 8, read_u64).unwrap();
        assert_eq!((honest.len(), honest.capacity()), (8, 8));
    }

    #[test]
    fn the_end_probe_tells_end_from_garbage() {
        let mut r: &[u8] = &[1, 2];
        assert_eq!(read_u8(&mut r).unwrap(), 1);
        let err = expect_end(&mut r, "trailing").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(expect_end(&mut r, "trailing").is_ok(), "the probe ate it");
        assert!(expect_magic(&mut &b"PHOTX"[..], b"PHOTX", "no").is_ok());
        let err = expect_magic(&mut &b"PHOTY"[..], b"PHOTX", "no").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
