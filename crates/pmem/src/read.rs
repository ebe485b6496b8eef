use pmtest_interval::ByteRange;

use crate::{PmError, PmPool};

/// Bounds-checked, untraced reads of a persistent image.
///
/// Implemented by [`PmPool`] (the live pool) and by `[u8]` (a raw crash
/// image), so a structure's walk is written once and serves both the live
/// structure and a recovery procedure that reads and repairs a crash image
/// in place, without mounting it. Both implementations return the same
/// [`PmError::OutOfBounds`] for an access past the end.
pub trait PmRead {
    /// Image size in bytes.
    fn size(&self) -> u64;

    /// Copies `buf.len()` bytes starting at `addr` into `buf`.
    ///
    /// # Errors
    ///
    /// Returns [`PmError::OutOfBounds`] if the range exceeds the image.
    fn read(&self, addr: u64, buf: &mut [u8]) -> Result<(), PmError>;

    /// Reads a little-endian `u64` at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`PmError::OutOfBounds`] if the range exceeds the image.
    fn read_u64(&self, addr: u64) -> Result<u64, PmError> {
        let mut buf = [0u8; 8];
        self.read(addr, &mut buf)?;
        Ok(u64::from_le_bytes(buf))
    }

    /// The bytes of `range`. A raw image lends them in place; a pool copies
    /// them into `scratch`, reusing its capacity. Bounds are checked before
    /// `scratch` grows.
    ///
    /// # Errors
    ///
    /// Returns [`PmError::OutOfBounds`] if the range exceeds the image.
    fn read_bytes<'a>(
        &'a self,
        range: ByteRange,
        scratch: &'a mut Vec<u8>,
    ) -> Result<&'a [u8], PmError> {
        check_range(range, self.size())?;
        scratch.clear();
        scratch.resize(range.len() as usize, 0);
        self.read(range.start(), scratch)?;
        Ok(scratch)
    }
}

/// Fails with [`PmError::OutOfBounds`] unless `range` lies inside an image
/// of `size` bytes (the check `PmPool` makes on its own accesses).
fn check_range(range: ByteRange, size: u64) -> Result<(), PmError> {
    if range.end() > size {
        return Err(PmError::OutOfBounds { range, pool_size: size });
    }
    Ok(())
}

impl PmRead for PmPool {
    fn size(&self) -> u64 {
        PmPool::size(self)
    }

    fn read(&self, addr: u64, buf: &mut [u8]) -> Result<(), PmError> {
        PmPool::read(self, addr, buf)
    }
}

impl PmRead for [u8] {
    fn size(&self) -> u64 {
        self.len() as u64
    }

    fn read(&self, addr: u64, buf: &mut [u8]) -> Result<(), PmError> {
        let range = ByteRange::with_len(addr, buf.len() as u64);
        check_range(range, self.size())?;
        buf.copy_from_slice(&self[addr as usize..range.end() as usize]);
        Ok(())
    }

    fn read_bytes<'a>(
        &'a self,
        range: ByteRange,
        _scratch: &'a mut Vec<u8>,
    ) -> Result<&'a [u8], PmError> {
        check_range(range, self.size())?;
        Ok(&self[range.start() as usize..range.end() as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_and_pools_read_alike() {
        let pool = PmPool::untracked(100);
        pool.write(0, &(0..100).collect::<Vec<u8>>()).unwrap();
        let image = pool.snapshot();
        let (mut pool_scratch, mut image_scratch) = (vec![7; 3], Vec::new());
        for (addr, len) in [(0, 8), (92, 8), (93, 8), (100, 0), (101, 0), (40, 70)] {
            let range = ByteRange::with_len(addr, len);
            let from_pool = PmRead::read_bytes(&pool, range, &mut pool_scratch).map(<[u8]>::to_vec);
            let from_image = image[..].read_bytes(range, &mut image_scratch).map(<[u8]>::to_vec);
            assert_eq!(from_pool, from_image, "{range:?}");
            assert_eq!(PmRead::read_u64(&pool, addr), image[..].read_u64(addr), "{addr}");
        }
        assert!(image_scratch.capacity() == 0, "a raw image lends its bytes in place");
        assert_eq!(
            image[..].read_u64(93),
            Err(PmError::OutOfBounds { range: ByteRange::new(93, 101), pool_size: 100 })
        );
    }
}
