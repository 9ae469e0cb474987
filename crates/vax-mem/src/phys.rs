//! Physical memory array.

/// Byte-addressable physical memory.
///
/// Addresses wrap modulo the (power-of-two) size, mirroring the fact that
/// this model's page tables are the only source of physical addresses, so
/// a wrap indicates a mis-built machine image rather than a runtime
/// condition to propagate; `debug_assert!`s catch it in test builds.
#[derive(Debug, Clone)]
pub struct PhysMem {
    bytes: Vec<u8>,
    mask: u32,
}

impl PhysMem {
    /// Memory of `size` bytes (must be a power of two), zero-filled.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not a power of two.
    pub fn new(size: u32) -> PhysMem {
        assert!(
            size.is_power_of_two(),
            "physical memory size must be a power of two"
        );
        PhysMem {
            bytes: vec![0; size as usize],
            mask: size - 1,
        }
    }

    /// Size in bytes.
    pub fn size(&self) -> u32 {
        self.bytes.len() as u32
    }

    #[inline]
    fn idx(&self, pa: u32) -> usize {
        debug_assert!(pa <= self.mask, "physical address {pa:#x} out of range");
        (pa & self.mask) as usize
    }

    /// Read one byte.
    #[inline]
    pub fn read_u8(&self, pa: u32) -> u8 {
        self.bytes[self.idx(pa)]
    }

    /// Read a little-endian word (may straddle, handled bytewise).
    #[inline]
    pub fn read_u16(&self, pa: u32) -> u16 {
        u16::from_le_bytes([self.read_u8(pa), self.read_u8(pa.wrapping_add(1))])
    }

    /// Read a little-endian longword: one slice load when the four bytes
    /// are contiguous, bytewise (wrapping through the address mask) only
    /// in the degenerate end-of-memory case.
    #[inline]
    pub fn read_u32(&self, pa: u32) -> u32 {
        let i = self.idx(pa);
        match self.bytes.get(i..i + 4) {
            Some(b) => u32::from_le_bytes([b[0], b[1], b[2], b[3]]),
            None => {
                u32::from(self.read_u16(pa)) | (u32::from(self.read_u16(pa.wrapping_add(2))) << 16)
            }
        }
    }

    /// Read a little-endian quadword.
    #[inline]
    pub fn read_u64(&self, pa: u32) -> u64 {
        u64::from(self.read_u32(pa)) | (u64::from(self.read_u32(pa.wrapping_add(4))) << 32)
    }

    /// Write one byte.
    #[inline]
    pub fn write_u8(&mut self, pa: u32, v: u8) {
        let i = self.idx(pa);
        self.bytes[i] = v;
    }

    /// Write a little-endian word.
    #[inline]
    pub fn write_u16(&mut self, pa: u32, v: u16) {
        let [a, b] = v.to_le_bytes();
        self.write_u8(pa, a);
        self.write_u8(pa.wrapping_add(1), b);
    }

    /// Write a little-endian longword.
    #[inline]
    pub fn write_u32(&mut self, pa: u32, v: u32) {
        self.write_u16(pa, v as u16);
        self.write_u16(pa.wrapping_add(2), (v >> 16) as u16);
    }

    /// Write a little-endian quadword.
    #[inline]
    pub fn write_u64(&mut self, pa: u32, v: u64) {
        self.write_u32(pa, v as u32);
        self.write_u32(pa.wrapping_add(4), (v >> 32) as u32);
    }

    /// Copy a slice into memory at `pa`: one `copy_from_slice` per
    /// contiguous run. A span past the top of memory wraps to address 0,
    /// byte for byte as a loop of [`PhysMem::write_u8`] would (later
    /// bytes overwrite earlier ones if the span exceeds memory).
    pub fn load(&mut self, pa: u32, data: &[u8]) {
        let mut at = self.idx(pa);
        let mut rest = data;
        while !rest.is_empty() {
            let n = rest.len().min(self.bytes.len() - at);
            self.bytes[at..at + n].copy_from_slice(&rest[..n]);
            rest = &rest[n..];
            at = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_all_widths() {
        let mut m = PhysMem::new(1 << 16);
        m.write_u8(0x10, 0xAB);
        assert_eq!(m.read_u8(0x10), 0xAB);
        m.write_u16(0x20, 0x1234);
        assert_eq!(m.read_u16(0x20), 0x1234);
        m.write_u32(0x30, 0xDEADBEEF);
        assert_eq!(m.read_u32(0x30), 0xDEADBEEF);
        m.write_u64(0x40, 0x0123_4567_89AB_CDEF);
        assert_eq!(m.read_u64(0x40), 0x0123_4567_89AB_CDEF);
    }

    #[test]
    fn little_endian_layout() {
        let mut m = PhysMem::new(1 << 12);
        m.write_u32(0, 0x0403_0201);
        assert_eq!(m.read_u8(0), 1);
        assert_eq!(m.read_u8(1), 2);
        assert_eq!(m.read_u8(2), 3);
        assert_eq!(m.read_u8(3), 4);
    }

    #[test]
    fn loads_slices() {
        let mut m = PhysMem::new(1 << 12);
        m.load(0x100, &[1, 2, 3]);
        assert_eq!(m.read_u8(0x102), 3);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_odd_sizes() {
        let _ = PhysMem::new(1000);
    }
}
