//! Physical memory array: copy-on-write host pages over a shared base.

use std::fmt;
use std::sync::Arc;

/// Granule of copy-on-write ownership (eight VAX pages): the first write
/// into a host page copies that page of the mounted image into a page of
/// the memory's own, and later accesses to it go to the copy.
pub const HOST_PAGE_BYTES: u32 = 4096;
const HOST_PAGE: usize = HOST_PAGE_BYTES as usize;

/// One host page of memory contents.
pub type HostPage = [u8; HOST_PAGE];

/// A memory image to mount, shared by reference count: host page `n` at
/// index `n`, `None` for a page that reads as zero. Each page is shared
/// on its own, so a memory that mounts the image points at its pages
/// directly.
pub type PhysImage = Arc<[Option<Arc<HostPage>>]>;

/// What a page that holds nothing reads as.
static ZERO_PAGE: HostPage = [0; HOST_PAGE];

/// One host page of a memory.
#[derive(Clone)]
enum Page {
    /// Reads as zero; nothing held.
    Zero,
    /// A page of the mounted image, shared.
    Shared(Arc<HostPage>),
    /// This memory's own page, written since the image was mounted.
    Owned(Box<HostPage>),
}

/// Byte-addressable physical memory.
///
/// The contents are an immutable [`PhysImage`] shared by reference count
/// (covering the low addresses; bytes above it read as zero) plus the
/// 4 KiB host pages this memory has written. One slot per host page says
/// which of the three a page is, so an access checks one slot. A fresh
/// memory holds no page, many machines can mount one built image, and
/// each holds only the pages it writes. A write through one clone changes
/// neither another clone nor the image.
///
/// Addresses wrap modulo the (power-of-two) size, mirroring the fact that
/// this model's page tables are the only source of physical addresses, so
/// a wrap indicates a mis-built machine image rather than a runtime
/// condition to propagate; `debug_assert!`s catch it in test builds.
#[derive(Clone)]
pub struct PhysMem {
    /// The mounted image.
    base: PhysImage,
    pages: Vec<Page>,
    mask: u32,
}

impl fmt::Debug for PhysMem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PhysMem")
            .field("size", &self.size())
            .field("base_bytes", &image_bytes(&self.base))
            .field("owned_bytes", &self.owned_bytes())
            .finish()
    }
}

impl PhysMem {
    /// Memory of `size` bytes (a power of two, at least one host page),
    /// reading as zero. Allocates one slot per host page, no page.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not a power of two of at least
    /// [`HOST_PAGE_BYTES`].
    pub fn new(size: u32) -> PhysMem {
        assert!(
            size.is_power_of_two() && size >= HOST_PAGE_BYTES,
            "physical memory size must be a power of two of at least {HOST_PAGE_BYTES} bytes"
        );
        PhysMem {
            base: Arc::from([]),
            pages: vec![Page::Zero; size as usize / HOST_PAGE],
            mask: size - 1,
        }
    }

    /// Size in bytes.
    pub fn size(&self) -> u32 {
        self.mask + 1
    }

    /// Replace the whole contents with `base` from address 0, zero above
    /// it: the written pages are dropped and the image's pages are
    /// shared, not copied.
    ///
    /// # Panics
    ///
    /// Panics if `base` is larger than memory.
    pub fn mount(&mut self, base: PhysImage) {
        assert!(
            base.len() <= self.pages.len(),
            "base image larger than memory"
        );
        for (n, slot) in self.pages.iter_mut().enumerate() {
            *slot = match base.get(n) {
                Some(Some(page)) => Page::Shared(Arc::clone(page)),
                _ => Page::Zero,
            };
        }
        self.base = base;
    }

    /// The mounted image.
    pub fn base(&self) -> &PhysImage {
        &self.base
    }

    /// Bytes held privately: the host pages written since the image was
    /// mounted.
    pub fn owned_bytes(&self) -> usize {
        let owned = self.pages.iter().filter(|p| matches!(p, Page::Owned(_)));
        owned.count() * HOST_PAGE
    }

    /// The contents of `[0, len)`, rounded up to whole host pages, as an
    /// image any memory of at least this size can
    /// [`mount`](PhysMem::mount). Pages that read as zero are left out.
    pub fn into_image(self, len: u32) -> PhysImage {
        let pages = (len.min(self.size()) as usize).div_ceil(HOST_PAGE);
        self.pages
            .into_iter()
            .take(pages)
            .map(|page| match page {
                Page::Zero => None,
                Page::Shared(page) => Some(page),
                Page::Owned(page) => Some(Arc::from(page)),
            })
            .collect()
    }

    #[inline]
    fn idx(&self, pa: u32) -> usize {
        debug_assert!(pa <= self.mask, "physical address {pa:#x} out of range");
        (pa & self.mask) as usize
    }

    /// The host page holding byte index `i`, for reading.
    #[inline]
    fn page(&self, i: usize) -> &HostPage {
        match &self.pages[i / HOST_PAGE] {
            Page::Owned(page) => page,
            Page::Shared(page) => page,
            Page::Zero => &ZERO_PAGE,
        }
    }

    /// The host page holding byte index `i`, for writing: copied on the
    /// first write, from the image or as zeros.
    #[inline]
    fn page_mut(&mut self, i: usize) -> &mut HostPage {
        let slot = &mut self.pages[i / HOST_PAGE];
        match slot {
            Page::Owned(page) => page,
            _ => own(slot),
        }
    }

    /// Read one byte.
    #[inline]
    pub fn read_u8(&self, pa: u32) -> u8 {
        let i = self.idx(pa);
        self.page(i)[i % HOST_PAGE]
    }

    /// Read a little-endian word: one page access when both bytes sit in
    /// one host page, bytewise across a host-page boundary.
    #[inline]
    pub fn read_u16(&self, pa: u32) -> u16 {
        let i = self.idx(pa);
        let off = i % HOST_PAGE;
        if off < HOST_PAGE - 1 {
            let p = self.page(i);
            u16::from_le_bytes([p[off], p[off + 1]])
        } else {
            u16::from_le_bytes([self.read_u8(pa), self.read_u8(pa.wrapping_add(1))])
        }
    }

    /// Read a little-endian longword: one page access when the four bytes
    /// sit in one host page, bytewise (wrapping through the address mask
    /// at the top of memory) across a host-page boundary.
    #[inline]
    pub fn read_u32(&self, pa: u32) -> u32 {
        let i = self.idx(pa);
        let off = i % HOST_PAGE;
        if off <= HOST_PAGE - 4 {
            let p = self.page(i);
            u32::from_le_bytes([p[off], p[off + 1], p[off + 2], p[off + 3]])
        } else {
            u32::from(self.read_u16(pa)) | (u32::from(self.read_u16(pa.wrapping_add(2))) << 16)
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
        self.page_mut(i)[i % HOST_PAGE] = v;
    }

    /// Write a little-endian word.
    #[inline]
    pub fn write_u16(&mut self, pa: u32, v: u16) {
        let i = self.idx(pa);
        let off = i % HOST_PAGE;
        if off < HOST_PAGE - 1 {
            self.page_mut(i)[off..off + 2].copy_from_slice(&v.to_le_bytes());
        } else {
            let [a, b] = v.to_le_bytes();
            self.write_u8(pa, a);
            self.write_u8(pa.wrapping_add(1), b);
        }
    }

    /// Write a little-endian longword.
    #[inline]
    pub fn write_u32(&mut self, pa: u32, v: u32) {
        let i = self.idx(pa);
        let off = i % HOST_PAGE;
        if off <= HOST_PAGE - 4 {
            self.page_mut(i)[off..off + 4].copy_from_slice(&v.to_le_bytes());
        } else {
            self.write_u16(pa, v as u16);
            self.write_u16(pa.wrapping_add(2), (v >> 16) as u16);
        }
    }

    /// Write a little-endian quadword.
    #[inline]
    pub fn write_u64(&mut self, pa: u32, v: u64) {
        self.write_u32(pa, v as u32);
        self.write_u32(pa.wrapping_add(4), (v >> 32) as u32);
    }

    /// Copy a slice into memory at `pa`: one `copy_from_slice` per host
    /// page. A span past the top of memory wraps to address 0, byte for
    /// byte as a loop of [`PhysMem::write_u8`] would (later bytes
    /// overwrite earlier ones if the span exceeds memory).
    pub fn load(&mut self, pa: u32, data: &[u8]) {
        let mut at = self.idx(pa);
        let mut rest = data;
        while !rest.is_empty() {
            let off = at % HOST_PAGE;
            let n = rest.len().min(HOST_PAGE - off);
            self.page_mut(at)[off..off + n].copy_from_slice(&rest[..n]);
            rest = &rest[n..];
            at = (at + n) & self.mask as usize;
        }
    }
}

/// Make `slot` a page of this memory's own, with the same contents.
#[cold]
#[inline(never)]
fn own(slot: &mut Page) -> &mut HostPage {
    let page = match slot {
        Page::Shared(page) => Box::new(**page),
        _ => Box::new(ZERO_PAGE),
    };
    *slot = Page::Owned(page);
    let Page::Owned(page) = slot else {
        unreachable!("just stored")
    };
    page
}

/// Bytes an image holds: its pages that do not read as zero.
pub fn image_bytes(image: &[Option<Arc<HostPage>>]) -> usize {
    image.iter().flatten().count() * HOST_PAGE
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
    fn mounting_shares_the_base_and_writes_stay_private() {
        let mut built = PhysMem::new(1 << 16);
        built.write_u32(0x1FFC, 0xA1B2_C3D4);
        built.write_u8(0x2000, 7);
        let image = built.into_image(0x1F00);
        assert_eq!(image.len(), 2, "rounded up to whole host pages");
        assert!(image[0].is_none(), "a page never written is not held");
        let mut m = PhysMem::new(1 << 16);
        m.mount(Arc::clone(&image));
        assert!(Arc::ptr_eq(m.base(), &image));
        assert_eq!(m.owned_bytes(), 0);
        assert_eq!(m.read_u32(0x1FFC), 0xA1B2_C3D4);
        assert_eq!(m.read_u8(0x2000), 0, "above the base reads as zero");
        m.write_u8(0x1FFF, 0);
        assert_eq!(m.owned_bytes(), HOST_PAGE);
        assert_eq!(m.read_u32(0x1FFC), 0x00B2_C3D4);
        assert_eq!(
            image[1].as_ref().unwrap()[0xFFF],
            0xA1,
            "the base is unchanged"
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_odd_sizes() {
        let _ = PhysMem::new(1000);
    }
}
